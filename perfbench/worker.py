"""One workload's timed rounds, in a process of its own.

run.py starts this file with BLAS threads pinned to 1 and `src` on
PYTHONPATH. It imports privregion, warms the runner up on a tiny input,
then calls the workload's runner in whole rounds until --seconds have
passed, each round on the same inputs. Attacks (or, on obfuscate, tracks)
are timed from outside: `privregion.experiments.attack` and `read_track`
are replaced by thin clocks. With --trace 1 the first round runs untraced
and the rest under `tracer.Tracer`. Results go to <out>/worker.json and,
for the checks, <out>/attacks.npz (every attack of the first round).

With --probe it only imports privregion and builds the run's config, and
prints how long that took: the set-up a user pays before the first call
into a runner.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def _setup(workload: str, seed: int, profile: str, out: Path, track_dir: Path, home):
    """Import privregion and build the runner call: (package, call, warm-up call)."""
    import privregion
    from privregion import experiments
    from privregion.core import GammaParams, Point
    from privregion.strategies import RandomRadius

    size = workloads.SIZES[workload][profile]
    study = out / "study"
    if workload == "obfuscate":
        paths = sorted(track_dir.glob("*.csv"))
        theta = Point(*home)
        spec = RandomRadius(GammaParams(*workloads.OBFUSCATE_GAMMA))

        def call(dest=study, paths=paths):
            return experiments.run_obfuscate(paths, theta, spec, seed, dest)

        def warm():
            call(out / "warmup", paths[:1])

    else:
        runner = experiments.run_table1 if workload == "table1" else experiments.run_curve
        cfg = experiments.ScenarioConfig(master_seed=seed, out_dir=study, threads=1, **size)
        tiny = experiments.ScenarioConfig(
            master_seed=seed, out_dir=out / "warmup", threads=1, n_replicates=1,
            settings=cfg.settings[:1], sample_sizes=cfg.sample_sizes[:1],
        )

        def call():
            return runner(cfg)

        def warm():
            runner(tiny)

    return privregion, call, warm


class Clock:
    """Times each call of a runner's callee from outside the program."""

    def __init__(self, fn):
        self.fn = fn
        self.times: list = []
        self.keep: list | None = None

    def attack(self, obs, theta_true, rng, config=None):
        t0 = time.perf_counter()
        rep = self.fn(obs, theta_true, rng, config)
        self.times.append((type(obs.strategy).__name__, len(obs), time.perf_counter() - t0))
        if self.keep is not None:
            self.keep.append((obs, theta_true, rep))
        return rep

    def read_track(self, path):
        self.times.append(time.perf_counter())
        return self.fn(path)


def _hashes(study: Path) -> dict[str, str]:
    """sha256 of every deterministic output file (wall times are not)."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(study.iterdir())
        if p.is_file() and "timings" not in p.name
    }


def _save_attacks(kept, path: Path) -> None:
    import numpy as np

    kind, n, params, theta, mse, zs = [], [], [], [], [], []
    for obs, theta_true, rep in kept:
        s = obs.strategy
        if type(s).__name__ == "TwoBalls":
            kind.append(0)
            params.append((s.r, s.R, s.beta.alpha, s.beta.beta))
        else:
            kind.append(1)
            params.append((s.gamma.alpha, s.gamma.beta, 0.0, 0.0))
        z = obs.positions
        n.append(len(z))
        zs.append(z)
        theta.append((theta_true.x, theta_true.y))
        mse.append(rep.posterior_mse)
    n_arr = np.array(n, dtype=np.int64)
    np.savez(
        path,
        kind=np.array(kind),
        n=n_arr,
        start=np.concatenate([[0], np.cumsum(n_arr)[:-1]]) if len(n_arr) else n_arr,
        params=np.array(params, dtype=float).reshape(-1, 4),
        theta=np.array(theta, dtype=float).reshape(-1, 2),
        mse=np.array(mse, dtype=float),
        z=np.concatenate(zs) if zs else np.zeros((0, 2)),
    )


def _timed_round(experiments, call, keep=None):
    """One untraced runner call: (wall seconds, attack times, track read starts)."""
    attacks, reads = Clock(experiments.attack), Clock(experiments.read_track)
    attacks.keep = keep
    experiments.attack, experiments.read_track = attacks.attack, reads.read_track
    try:
        t0 = time.perf_counter()
        call()
        t1 = time.perf_counter()
    finally:
        experiments.attack, experiments.read_track = attacks.fn, reads.fn
    return t1 - t0, attacks.times, reads.times + [t1]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--profile", default="full", choices=("full", "tiny"))
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--tracks", type=Path)
    ap.add_argument("--home", type=float, nargs=2, default=(0.0, 0.0))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    package, call, warm = _setup(args.workload, args.seed, args.profile, args.out, args.tracks, args.home)
    setup_s = time.perf_counter() - T_START
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return

    experiments = package.experiments
    study = args.out / "study"
    warm()
    shutil.rmtree(args.out / "warmup", ignore_errors=True)

    rounds = []

    # Each round writes into a fresh directory: rewriting files in place makes
    # ext4 flush the previous round's data on close (auto_da_alloc), which
    # would time the disk rather than the program.
    def untraced(keep=None):
        shutil.rmtree(study, ignore_errors=True)
        wall, attacks, reads = _timed_round(experiments, call, keep)
        rounds.append({"wall": wall, "attacks": attacks, "reads": reads, "hashes": _hashes(study)})

    t_measure = time.perf_counter()
    kept: list = []
    untraced(kept)
    _save_attacks(kept, args.out / "attacks.npz")
    del kept
    traced = []
    if args.trace:
        from tracer import Tracer

        while not traced or time.perf_counter() - t_measure < args.seconds:
            tracer = Tracer()
            shutil.rmtree(study, ignore_errors=True)
            with tracer.installed(package), tracer.root(f"experiments.run_{args.workload}"):
                call()
            traced.append({"metrics": tracer.metrics(), "hashes": _hashes(study)})
        tracer.write(args.out / "spans.jsonl")
    else:
        while time.perf_counter() - t_measure < args.seconds:
            untraced()

    result = {
        "setup_s": setup_s,
        "rounds": rounds,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    (args.out / "worker.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
