"""Replicated attack studies: strategy table, sample-size curves, benchmarks.

Everything here is a thin, deterministic loop over the strategy and
inference modules. Replicates draw their randomness from streams keyed by
(master seed, task, setting, replicate, strategy), so results do not
depend on worker scheduling, and per-replicate rows are always written in
a fixed order. Wall-clock times go to separate files (timings.csv,
bench.csv); every other CSV is byte-reproducible for a given config.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from . import _svg
from .core import BetaParams, Point, derive_rng, gammaincinv
from .inference import attack
from .strategies import (
    CalibrationResult,
    RandomRadius,
    StrategySpec,
    TwoBalls,
    calibrate_random_radius,
    generate_observations,
    obfuscate_track,
    sample_sps,
    sp_cdf,
)
from .trajectory import read_track, write_track

__all__ = [
    "TABLE1_SETTINGS",
    "ConfigError",
    "ScenarioConfig",
    "ResultRow",
    "StudyResult",
    "ObfuscationResult",
    "BenchResult",
    "load_config",
    "setting_tag",
    "run_table1",
    "run_curve",
    "run_calibrate",
    "run_obfuscate",
    "run_bench",
    "sample_sps",  # no longer called here; perfbench/tracer.py still wraps this name
]

# The six two-balls settings of the comparison study, as (r, R, alpha, beta).
TABLE1_SETTINGS: tuple[TwoBalls, ...] = (
    TwoBalls(1.0, 3.0, BetaParams(4.0, 4.0)),
    TwoBalls(1.0, 4.0, BetaParams(4.0, 4.0)),
    TwoBalls(2.0, 5.0, BetaParams(4.0, 4.0)),
    TwoBalls(1.0, 5.0, BetaParams(4.0, 2.0)),
    TwoBalls(1.0, 5.0, BetaParams(4.0, 4.0)),
    TwoBalls(1.0, 5.0, BetaParams(2.0, 4.0)),
)

# Stream-path task codes; fixed forever so seeds stay meaningful.
_TASK_TABLE1 = 1
_TASK_CURVE = 2
_TASK_ATTACK = 4  # 3 is retired
_TASK_OBFUSCATE = 5
_TASK_BENCH = 6

_BENCH_REPEATS = 3  # timed attacks per (strategy, n) in run_bench

_STRAT_TB = 0
_STRAT_RR = 1

_ORIGIN = Point(0.0, 0.0)  # strategies are translation invariant; fix theta


class ConfigError(ValueError):
    """Bad experiment configuration (file, schema, or values)."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment run, fully determined by its seed and parameters."""

    master_seed: int
    out_dir: Path = Path("runs")
    settings: tuple[TwoBalls, ...] = TABLE1_SETTINGS
    n_trajectories: int = 50
    n_replicates: int = 100
    sample_sizes: tuple[int, ...] = (5, 10, 20, 50, 100, 200)
    threads: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        object.__setattr__(self, "settings", tuple(self.settings))
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        if not isinstance(self.master_seed, int) or not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must be an integer in [0, 2^64), got {self.master_seed!r}")
        if not self.settings:
            raise ConfigError("need at least one two-balls setting")
        if not all(isinstance(s, TwoBalls) for s in self.settings):
            raise ConfigError("settings must all be TwoBalls specs")
        if self.n_trajectories < 1 or self.n_replicates < 1:
            raise ConfigError("n_trajectories and n_replicates must be >= 1")
        if not self.sample_sizes or any(n < 1 for n in self.sample_sizes):
            raise ConfigError("sample_sizes must be positive")
        if any(b <= a for a, b in zip(self.sample_sizes, self.sample_sizes[1:])):
            raise ConfigError(f"sample_sizes must be strictly increasing, got {self.sample_sizes}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")


@dataclass(frozen=True)
class ResultRow:
    """One attack replicate in the shared schema of all studies."""

    setting: str
    strategy: str
    replicate: int
    n: int
    posterior_mse: float
    bias2: float
    variance: float
    sp_mean: float
    wall_time: float

    def __post_init__(self) -> None:
        vals = (self.posterior_mse, self.bias2, self.variance, self.sp_mean, self.wall_time)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"result fields must be finite, got {vals}")


@dataclass(frozen=True)
class StudyResult:
    out_dir: Path
    files: Mapping[str, Path]
    rows: tuple[ResultRow, ...]
    summary: tuple[dict, ...]
    calibrations: tuple[CalibrationResult, ...]


@dataclass(frozen=True)
class ObfuscationResult:
    out_dir: Path
    files: Mapping[str, Path]
    rows: tuple[dict, ...]


@dataclass(frozen=True)
class BenchResult:
    out_dir: Path
    files: Mapping[str, Path]
    rows: tuple[dict, ...]
    fits: Mapping[str, tuple[float, float]]  # strategy -> (slope, intercept)
    ratios: Mapping[str, float]  # strategy -> t(n=200)/t(n=50) when both ran


def setting_tag(tb: TwoBalls) -> str:
    return f"r{tb.r:g}-R{tb.R:g}-a{tb.beta.alpha:g}-b{tb.beta.beta:g}"


def _strategy_pair(tb: TwoBalls, calib: CalibrationResult) -> dict[int, StrategySpec]:
    return {_STRAT_TB: tb, _STRAT_RR: RandomRadius(calib.matched_gamma)}


_STRAT_NAME = {_STRAT_TB: "two-balls", _STRAT_RR: "random-radius"}


def _attack_task(args) -> tuple[float, float, float, float, float]:
    """One replicate: fresh observations, one attack. Worker-pool safe."""
    master_seed, path, spec, n = args
    rng = derive_rng(master_seed, *path)
    obs = generate_observations(_ORIGIN, spec, n, rng)
    rep = attack(obs, _ORIGIN, rng)
    return rep.posterior_mse, rep.bias2, rep.variance, float(obs.sps.mean()), rep.wall_time


def _run_tasks(tasks: list, threads: int) -> list:
    if threads <= 1 or len(tasks) <= 1:
        return [_attack_task(t) for t in tasks]
    # the pool's modules (multiprocessing, logging, socket) load only here
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        chunk = max(1, len(tasks) // (8 * threads))
        return list(pool.map(_attack_task, tasks, chunksize=chunk))


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # shortest exact form, numpy scalars unwrapped
    return str(v)


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])


_RESULT_HEADER = ["setting", "strategy", "replicate", "n", "posterior_mse", "bias2", "variance", "sp_mean"]


def _write_results(out_dir: Path, stem: str, rows: list[ResultRow]) -> dict[str, Path]:
    """Per-replicate rows, with wall times split into their own file so the
    main CSV is byte-reproducible."""
    results = out_dir / f"{stem}.csv"
    timings = out_dir / f"{stem.replace('results', 'timings')}.csv"
    _write_csv(
        results,
        _RESULT_HEADER,
        [
            [r.setting, r.strategy, r.replicate, r.n, r.posterior_mse, r.bias2, r.variance, r.sp_mean]
            for r in rows
        ],
    )
    _write_csv(
        timings,
        ["setting", "strategy", "replicate", "n", "wall_time"],
        [[r.setting, r.strategy, r.replicate, r.n, r.wall_time] for r in rows],
    )
    return {stem: results, stem.replace("results", "timings"): timings}


def _quantiles(values: list[float]) -> tuple[float, float, float]:
    """The 5%, 50% and 95% quantiles, to the bit as np.quantile's default
    linear method forms them. With a and b the sorted values either side of
    h = (n - 1) q and t = h - floor(h), that is a + (b - a) t below t = 0.5
    and b - (b - a) (1 - t) from there on."""
    v = sorted(float(x) for x in values)
    out = []
    for q in (0.05, 0.5, 0.95):
        h = (len(v) - 1) * q
        i = math.floor(h)
        if i >= len(v) - 1:
            out.append(v[-1])
            continue
        a, b, t = v[i], v[i + 1], h - i
        out.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
    return out[0], out[1], out[2]


def _calibration_rows(settings, calibs) -> list[list]:
    rows = []
    for tb, cal in zip(settings, calibs):
        rows.append(
            [
                setting_tag(tb),
                tb.r,
                tb.R,
                tb.beta.alpha,
                tb.beta.beta,
                cal.sp_mean,
                cal.sp_var,
                cal.matched_gamma.alpha,
                cal.matched_gamma.beta,
            ]
        )
    return rows


_CALIB_HEADER = ["setting", "r", "R", "alpha", "beta", "sp_mean", "sp_var", "matched_alpha", "matched_beta"]


def run_calibrate(config: ScenarioConfig) -> StudyResult:
    """Moment-match a random-radius counterpart for every configured setting."""
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    calibs = tuple(calibrate_random_radius(tb) for tb in config.settings)
    path = out / "calibration.csv"
    _write_csv(path, _CALIB_HEADER, _calibration_rows(config.settings, calibs))
    return StudyResult(out, {"calibration": path}, (), (), calibs)


def _replicate_rows(config, task_code, plan) -> list[ResultRow]:
    """plan: list of (setting_tag, setting_idx_in_stream, spec_by_strategy, n).

    Expands to one task per (plan row, strategy, replicate), runs them, and
    returns rows in deterministic (plan, strategy, replicate) order.
    """
    tasks = []
    meta = []
    for tag, idx, specs, n in plan:
        for strat, name in _STRAT_NAME.items():
            for rep in range(config.n_replicates):
                path = (task_code, idx, rep, strat)
                tasks.append((config.master_seed, path, specs[strat], n))
                meta.append((tag, name, rep, n))
    outputs = _run_tasks(tasks, config.threads)
    return [
        ResultRow(tag, strat, rep, n, mse, bias2, var, sp, wall)
        for (tag, strat, rep, n), (mse, bias2, var, sp, wall) in zip(meta, outputs)
    ]


def _write_summary(path: Path, rows: list[ResultRow], keys: list, mean_sp=None) -> list[dict]:
    """One summary row per (setting, strategy, n) key, in the order of keys:
    the replicate count, mean_sp[key] when mean_sp is given, and the MSE
    quantiles. Writes them to path and returns them."""
    mses: dict[tuple, list[float]] = {}
    for r in rows:
        mses.setdefault((r.setting, r.strategy, r.n), []).append(r.posterior_mse)
    summary = []
    for key in keys:
        row = dict(zip(("setting", "strategy", "n"), key), n_replicates=len(mses[key]))
        if mean_sp is not None:
            row["mean_sp"] = mean_sp[key]
        row.update(zip(("mse_q05", "mse_median", "mse_q95"), _quantiles(mses[key])))
        summary.append(row)
    _write_csv(path, list(summary[0]), [list(s.values()) for s in summary])
    return summary


def run_table1(config: ScenarioConfig) -> StudyResult:
    """The six-setting comparison: calibrate, attack both strategies, summarize.

    Emits calibration.csv, results.csv (+ timings.csv), and summary.csv with
    the exact mean SP and the replicate MSE quantiles per strategy. Both
    strategies share that mean SP up to rounding: random-radius reports its
    matched Gamma's mean alpha/beta.
    """
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    calib_res = run_calibrate(config)
    calibs = calib_res.calibrations

    n = config.n_trajectories
    plan, keys = [], []
    mean_sp: dict[tuple[str, str, int], float] = {}
    for idx, (tb, cal) in enumerate(zip(config.settings, calibs)):
        tag = setting_tag(tb)
        plan.append((tag, idx, _strategy_pair(tb, cal), n))
        keys += [(tag, name, n) for name in _STRAT_NAME.values()]
        mean_sp[tag, _STRAT_NAME[_STRAT_TB], n] = cal.sp_mean
        mean_sp[tag, _STRAT_NAME[_STRAT_RR], n] = cal.matched_gamma.mean

    rows = _replicate_rows(config, _TASK_TABLE1, plan)
    files = dict(calib_res.files)
    files.update(_write_results(out, "results", rows))
    files["summary"] = out / "summary.csv"
    summary = _write_summary(files["summary"], rows, keys, mean_sp)
    return StudyResult(out, files, tuple(rows), tuple(summary), calibs)


def _quantile_above(tb: TwoBalls, q: float, lo: float) -> float:
    """Smallest float s > lo with sp_cdf(tb, s) >= q, by bisection up to (R + r)^2."""
    hi = (tb.R + tb.r) ** 2
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if sp_cdf(tb, mid) < q:
            lo = mid
        else:
            hi = mid
    return hi


def run_curve(config: ScenarioConfig) -> StudyResult:
    """Posterior MSE vs number of trajectories, plus the exact SP laws.

    Uses the first setting and its calibrated counterpart;
    emits curve_results.csv, curve_summary.csv, sp_hist.csv and two SVGs.
    sp_hist.csv holds each strategy's exact SP probability mass and density
    on 60 shared bins from 0 to the larger 0.995 quantile of the two laws;
    nothing is drawn for it, so it does not depend on master_seed.
    """
    out = config.out_dir
    tb = config.settings[0]
    calib_res = run_calibrate(replace(config, settings=(tb,)))
    (cal,) = calib_res.calibrations
    specs = _strategy_pair(tb, cal)
    tag = setting_tag(tb)

    plan = [(tag, n_idx, specs, n) for n_idx, n in enumerate(config.sample_sizes)]
    rows = _replicate_rows(config, _TASK_CURVE, plan)
    files = dict(calib_res.files)
    files.update(_write_results(out, "curve_results", rows))

    ns = list(config.sample_sizes)
    files["curve_summary"] = out / "curve_summary.csv"
    keys = [(tag, name, n) for name in _STRAT_NAME.values() for n in ns]
    summary = _write_summary(files["curve_summary"], rows, keys)

    series, bands = [], []
    for strat in _STRAT_NAME.values():
        sub = [s for s in summary if s["strategy"] == strat]
        series.append((strat, ns, [s["mse_median"] for s in sub]))
        bands.append((strat, ns, [s["mse_q05"] for s in sub], [s["mse_q95"] for s in sub]))
    curve_svg = out / "mse_curve.svg"
    _svg.line_chart(
        curve_svg,
        f"Posterior MSE vs trajectories ({tag})",
        "trajectories",
        "posterior MSE (median, 5-95%)",
        series,
        bands,
        log_y=True,
    )
    files["mse_curve_svg"] = curve_svg

    # The exact SP laws of the calibrated pair on 60 shared bins up to the
    # larger of their 0.995 quantiles: a bin's mass is the difference of
    # sp_cdf at its edges.
    gamma = specs[_STRAT_RR].gamma
    hi = gammaincinv(gamma.alpha, 0.995) / gamma.beta
    if sp_cdf(tb, hi) < 0.995:  # the two-balls quantile is the larger one
        hi = _quantile_above(tb, 0.995, hi)
    edges = np.linspace(0.0, hi, 61)
    width = edges[1] - edges[0]
    hist_rows, hists = [], []
    for code, strat in _STRAT_NAME.items():
        mass = np.diff(sp_cdf(specs[code], edges))
        dens = mass / width
        hists.append((strat, edges, dens))
        hist_rows += [
            [strat, left, right, m, dm]
            for left, right, m, dm in zip(edges[:-1], edges[1:], mass.tolist(), dens.tolist())
        ]
    hpath = out / "sp_hist.csv"
    _write_csv(hpath, ["strategy", "bin_left", "bin_right", "mass", "density"], hist_rows)
    hsvg = out / "sp_hist.svg"
    _svg.histogram_chart(hsvg, f"SP distributions ({tag})", "squared perturbation", hists)
    files["sp_hist"] = hpath
    files["sp_hist_svg"] = hsvg

    return StudyResult(out, files, tuple(rows), tuple(summary), (cal,))


def run_obfuscate(
    track_paths, theta, spec: StrategySpec, seed: int, out_dir
) -> ObfuscationResult:
    """Cut each input track with a freshly drawn region; write what survives.

    Produces <name>_published.csv per published track plus report.csv with
    file, published flag, cut times and SP (inf when nothing is published).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}
    rows = []
    for i, p in enumerate(sorted(Path(t) for t in track_paths)):
        traj = read_track(p)
        cut = obfuscate_track(traj, theta, spec, derive_rng(seed, _TASK_OBFUSCATE, i))
        row = {
            "file": p.name,
            "published": cut.published is not None,
            "t1": cut.t1 if cut.published is not None else "",
            "t2": cut.t2 if cut.published is not None else "",
            "sp": cut.sp,
        }
        rows.append(row)
        if cut.published is not None:
            opath = out / f"{p.stem}_published.csv"
            write_track(cut.published, opath)
            files[p.name] = opath
    rpath = out / "report.csv"
    _write_csv(
        rpath,
        ["file", "published", "t1", "t2", "sp"],
        [[r["file"], str(r["published"]).lower(), r["t1"], r["t2"], r["sp"]] for r in rows],
    )
    files["report"] = rpath
    return ObfuscationResult(out, files, tuple(rows))


def run_bench(config: ScenarioConfig) -> BenchResult:
    """Attack wall time vs number of trajectories, with a linear fit.

    Uses the first setting and its calibrated counterpart, and times only
    the attack itself (observation generation excluded), _BENCH_REPEATS
    times per strategy and n; writes bench.csv and bench_summary.csv.
    Repeats are averaged; the minimum is also recorded since it is steadier
    on busy machines.
    """
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    tb = config.settings[0]
    specs = _strategy_pair(tb, calibrate_random_radius(tb))
    plan = [(setting_tag(tb), n_idx, specs, n) for n_idx, n in enumerate(config.sample_sizes)]
    # one process, so that repeats do not compete for cores
    timed = _replicate_rows(
        replace(config, n_replicates=_BENCH_REPEATS, threads=1), _TASK_BENCH, plan
    )

    rows = []
    means: dict[str, list[tuple[int, float]]] = {name: [] for name in _STRAT_NAME.values()}
    for name in _STRAT_NAME.values():
        for n in config.sample_sizes:
            walls = [r.wall_time for r in timed if r.strategy == name and r.n == n]
            mean_w = float(np.mean(walls))
            means[name].append((n, mean_w))
            rows.append(
                {
                    "strategy": name,
                    "n": n,
                    "repeats": _BENCH_REPEATS,
                    "wall_mean": mean_w,
                    "wall_min": float(min(walls)),
                }
            )
    bpath = out / "bench.csv"
    _write_csv(
        bpath,
        ["strategy", "n", "repeats", "wall_mean", "wall_min"],
        [[r["strategy"], r["n"], r["repeats"], r["wall_mean"], r["wall_min"]] for r in rows],
    )

    fits: dict[str, tuple[float, float]] = {}
    ratios: dict[str, float] = {}
    srows = []
    for name, pts in means.items():
        ns = np.array([n for n, _ in pts], dtype=float)
        ts = np.array([t for _, t in pts])
        slope, intercept = (np.polyfit(ns, ts, 1) if len(pts) > 1 else (math.nan, ts[0]))
        fits[name] = (float(slope), float(intercept))
        by_n = dict(pts)
        if 50 in by_n and 200 in by_n:
            ratios[name] = by_n[200] / by_n[50]
        srows.append(
            [
                name,
                float(slope),
                float(intercept),
                by_n.get(50, math.nan),
                by_n.get(200, math.nan),
                ratios.get(name, math.nan),
            ]
        )
    spath = out / "bench_summary.csv"
    _write_csv(spath, ["strategy", "slope", "intercept", "t50", "t200", "ratio_200_50"], srows)
    return BenchResult(out, {"bench": bpath, "bench_summary": spath}, tuple(rows), fits, ratios)


_CONFIG_KEYS = {f.name for f in fields(ScenarioConfig)}


def _parse_setting(d) -> TwoBalls:
    if not isinstance(d, dict) or set(d) != {"r", "R", "alpha", "beta"}:
        raise ConfigError(f"setting must be an object with keys r, R, alpha, beta, got {d!r}")
    try:
        return TwoBalls(float(d["r"]), float(d["R"]), BetaParams(float(d["alpha"]), float(d["beta"])))
    except ValueError as e:
        raise ConfigError(f"bad setting {d!r}: {e}") from e


def load_config(path=None, **overrides) -> ScenarioConfig:
    """Build a ScenarioConfig from an optional JSON file plus overrides.

    Override values of None are ignored, so CLI flags can be passed
    through unconditionally. Unknown keys are errors.
    """
    data: dict = {}
    if path is not None:
        import json

        p = Path(path)
        try:
            data = json.loads(p.read_text(encoding="utf-8"))
        except OSError as e:
            raise ConfigError(f"cannot read config {p}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"{p}:{e.lineno}: invalid JSON: {e.msg}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"{p}: top level must be a JSON object")
    data.update({k: v for k, v in overrides.items() if v is not None})

    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "master_seed" not in data:
        raise ConfigError("master_seed is required (no wall-clock seeding)")
    if "settings" in data and not isinstance(data["settings"], (list, tuple)):
        raise ConfigError("settings must be a list")
    if "settings" in data:
        data["settings"] = tuple(
            s if isinstance(s, TwoBalls) else _parse_setting(s) for s in data["settings"]
        )
    try:
        return ScenarioConfig(**data)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e
