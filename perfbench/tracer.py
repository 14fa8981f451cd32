"""Spans around calls into privregion, recorded from outside the program.

`Tracer.installed` replaces public functions at the module attribute their
caller looks up (e.g. `privregion.experiments.attack`, which the runners
call, and `privregion.inference.rwm_sample`, which the attack calls) with
wrappers that record a span: name, start, end, parent span and attack id.
Spans stay in memory until `write`. The `log_target` closures that
`rwm_sample` and `grid_posterior` receive are wrapped too, but are called
hundreds of thousands of times per run, so they are aggregated (calls,
points, point x exit pairs, seconds) into counters and into their parent
span's child time instead of getting spans of their own.

A span's self time is its duration minus its children's; the layer of a
span is the module its name starts with (harmonic and core count as one
layer). Self times of all spans plus the log-target time add up to the
root span, the runner call.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

# (module, attribute, span name). The module is where the caller looks the
# name up, which is not always where the function is defined.
WRAPPED = (
    ("experiments", "attack", "inference.attack"),
    ("experiments", "generate_observations", "strategies.generate_observations"),
    ("experiments", "calibrate_random_radius", "strategies.calibrate_random_radius"),
    ("experiments", "sample_sps", "strategies.sample_sps"),
    ("experiments", "obfuscate_track", "strategies.obfuscate_track"),
    ("experiments", "read_track", "trajectory.read_track"),
    ("experiments", "write_track", "trajectory.write_track"),
    ("experiments", "derive_rng", "core.derive_rng"),
    ("experiments", "_write_csv", "experiments.write_csv"),
    ("inference", "recover_center", "inference.recover_center"),
    ("inference", "rwm_sample", "inference.rwm_sample"),
    ("inference", "grid_posterior", "inference.grid_posterior"),
    ("inference", "posterior_mse", "inference.posterior_mse"),
    ("inference", "split_r_hat", "inference.diagnostics"),
    ("inference", "effective_sample_size", "inference.diagnostics"),
    ("inference", "fit_circle_center", "core.fit_circle_center"),
    ("strategies", "sample_sps", "strategies.sample_sps"),
    ("strategies", "sample_region", "strategies.sample_region"),
    ("strategies", "cut_privacy_region", "trajectory.cut_privacy_region"),
    ("harmonic", "sample_exit_offsets", "harmonic.sample_exit_offsets"),
)

# What a span records besides its times, from the call's arguments: bytes
# read or written, or exits generated.
INFO = {
    "trajectory.read_track": lambda args: os.path.getsize(args[0]),
    "trajectory.write_track": lambda args: os.path.getsize(args[1]),
    "strategies.generate_observations": lambda args: int(args[2]),
}

LAYERS = ("experiments", "strategies", "inference", "harmonic_core", "trajectory")


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return "harmonic_core" if head in ("harmonic", "core") else head


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attack, child_s, info]
        self._stack: list[int] = []
        self.attack = -1
        self.n_exits = 0
        self.log_target = {"calls": 0, "points": 0, "pairs": 0, "s": 0.0}

    def _enter(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.attack, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _exit(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def _counted(self, target):
        counters = self.log_target

        def log_target(pts):
            t0 = time.perf_counter()
            out = target(pts)
            dt = time.perf_counter() - t0
            counters["calls"] += 1
            counters["points"] += len(pts)
            counters["pairs"] += len(pts) * self.n_exits
            counters["s"] += dt
            self.spans[self._stack[-1]][5] += dt
            return out

        return log_target

    def _wrapper(self, name: str, fn):
        if name == "inference.attack":

            def traced(obs, *args, **kwargs):
                self.attack += 1
                self.n_exits = len(obs)
                span = self._enter(name)
                try:
                    return fn(obs, *args, **kwargs)
                finally:
                    self._exit(span)

        elif name in ("inference.rwm_sample", "inference.grid_posterior"):

            def traced(log_target, *args, **kwargs):
                span = self._enter(name)
                try:
                    return fn(self._counted(log_target), *args, **kwargs)
                finally:
                    self._exit(span)

        elif name in INFO:
            info = INFO[name]

            def traced(*args, **kwargs):
                span = self._enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._exit(span)
                span[6] = info(args)
                return out

        else:

            def traced(*args, **kwargs):
                span = self._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(span)

        return traced

    @contextmanager
    def installed(self, package):
        """Patch the WRAPPED names of `package` for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, name in WRAPPED:
                mod = getattr(package, mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrapper(name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    @contextmanager
    def root(self, name: str):
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of everything recorded so far (one runner call)."""
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        info: dict[str, int] = {}
        for name, t0, t1, _, _, child, extra in self.spans:
            total[name] = total.get(name, 0.0) + (t1 - t0)
            own[name] = own.get(name, 0.0) + (t1 - t0 - child)
            calls[name] = calls.get(name, 0) + 1
            info[name] = info.get(name, 0) + extra
        lt = self.log_target
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, s in own.items():
            layer_self[layer_of(name)] += s
        layer_self["inference"] += lt["s"]
        roots = [s for s in self.spans if s[3] < 0]
        wall = sum(s[2] - s[1] for s in roots)
        gen_s = total.get("strategies.generate_observations", 0.0)
        exits = info.get("strategies.generate_observations", 0)
        m = {
            "inference.log_target.calls": lt["calls"],
            "inference.log_target.points": lt["points"],
            "inference.log_target.pairs": lt["pairs"],
            "inference.log_target.s": lt["s"],
            "inference.log_target.ns_per_pair": 1e9 * lt["s"] / lt["pairs"] if lt["pairs"] else 0.0,
            "inference.rwm_sample.calls": calls.get("inference.rwm_sample", 0),
            "inference.rwm_sample.self_s": own.get("inference.rwm_sample", 0.0),
            "inference.diagnostics.s": total.get("inference.diagnostics", 0.0),
            "inference.grid_posterior.calls": calls.get("inference.grid_posterior", 0),
            "inference.grid_posterior.self_s": own.get("inference.grid_posterior", 0.0),
            "inference.recover_center.s": total.get("inference.recover_center", 0.0),
            "inference.posterior_mse.s": total.get("inference.posterior_mse", 0.0),
            "inference.attack.calls": calls.get("inference.attack", 0),
            "inference.attack.s": total.get("inference.attack", 0.0),
            "strategies.generate_observations.calls": calls.get("strategies.generate_observations", 0),
            "strategies.generate_observations.s": gen_s,
            "strategies.generate_observations.us_per_exit": 1e6 * gen_s / exits if exits else 0.0,
            "strategies.calibrate_random_radius.s": total.get("strategies.calibrate_random_radius", 0.0),
            "strategies.sample_sps.s": total.get("strategies.sample_sps", 0.0),
            "strategies.obfuscate_track.s": total.get("strategies.obfuscate_track", 0.0),
            "trajectory.read_track.s": total.get("trajectory.read_track", 0.0),
            "trajectory.read_track.bytes": info.get("trajectory.read_track", 0),
            "trajectory.write_track.s": total.get("trajectory.write_track", 0.0),
            "trajectory.write_track.bytes": info.get("trajectory.write_track", 0),
            "trajectory.cut_privacy_region.s": total.get("trajectory.cut_privacy_region", 0.0),
            "harmonic.sample_exit_offsets.s": total.get("harmonic.sample_exit_offsets", 0.0),
            "core.fit_circle_center.s": total.get("core.fit_circle_center", 0.0),
            "core.derive_rng.s": total.get("core.derive_rng", 0.0),
            "experiments.write_csv.s": total.get("experiments.write_csv", 0.0),
            "trace.wall_s": wall,
            "trace.self_sum_s": sum(layer_self.values()),
            "trace.spans": len(self.spans),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        return m

    def write(self, path) -> None:
        """Spans as JSON lines, times relative to the first span's start.

        `info` is the bytes read or written, or the exits generated (INFO).
        """
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, attack, child, extra in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": t0 - base, "end": t1 - base, "parent": parent,
                    "attack": attack, "child_s": child, "info": extra,
                }) + "\n")
            fh.write(json.dumps({"log_target": self.log_target}) + "\n")
