"""Benchmark of privregion's study runners: one workload per invocation.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding src/). The
command makes the workload's inputs from --seed, times set-up in fresh
processes, runs the workload's rounds in a worker process of its own with
threads=1 and BLAS threads pinned to 1, checks the outputs against
computations made apart from the program (checks.py, oracle.py), and
prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the rounds under
the span tracer and reports the per-layer metrics. See README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads here, and inherited by every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
os.environ.update({v: "1" for v in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_ROOT = ".perfbench_out"
SETUP_PROBES = 9
CALIBRATION_DRAWS = 100_000  # ScenarioConfig's default, which the workloads keep


class BenchError(RuntimeError):
    pass


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _worker(args: list[str], root: Path, timeout: float) -> str:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from e
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return proc.stdout


def _q(vals, p):
    return float(np.quantile(np.asarray(vals, dtype=float), p))


def _checks(workload: str, out: Path, result: dict, track_paths) -> tuple[dict[str, list[str]], list[dict]]:
    study = out / "study"
    hashes = [r["hashes"] for r in result["rounds"]] + [t["hashes"] for t in result["traced"]]
    found = {"identical_rounds": checks.identical_outputs(hashes)}
    records = []
    if workload == "obfuscate":
        found["cuts"] = checks.cuts(*checks.load_cuts(track_paths, study), tracks.home(result["seed"]))
        return found, records
    stem = "results" if workload == "table1" else "curve_results"
    rows = checks.read_csv(study / f"{stem}.csv")
    summary = checks.read_csv(study / ("summary.csv" if workload == "table1" else "curve_summary.csv"))
    att = dict(np.load(out / "attacks.npz"))
    records = checks.oracle_records(att)
    found["oracle"] = checks.oracle_gaps(records)
    if [r["program"] for r in records] != [float(row["posterior_mse"]) for row in rows]:
        found["oracle"].append("attacks timed do not match the results rows one to one")
    found["mse_decomposition"] = checks.mse_decomposition(rows)
    found["summary_quantiles"] = checks.summary_quantiles(rows, summary)
    if workload == "table1":
        found["tb_mean_sp"] = checks.tb_mean_sp(summary)
        found["rr_mean_sp"] = checks.rr_mean_sp(summary, CALIBRATION_DRAWS)
        found["tb_beats_rr"] = checks.tb_beats_rr(rows)
    else:
        found["curve_falls"] = checks.curve_falls(summary)
    return found, records


def _end_to_end(workload: str, result: dict, profile: str) -> tuple[dict, int, str]:
    rounds = result["rounds"]
    walls = [r["wall"] for r in rounds]
    wall = statistics.median(walls)
    size = workloads.SIZES[workload][profile]
    items, per_strat = [], {"TwoBalls": [], "RandomRadius": []}
    if workload == "obfuscate":
        per_round = size["n_tracks"] * size["n_samples"]
        for r in rounds:
            items.extend(np.diff(r["reads"]).tolist())
        attempted = size["n_tracks"] * (len(rounds) + len(result["traced"]))
    else:
        per_round = len(rounds[0]["attacks"])
        for r in rounds:
            it, by = workloads.attack_items(r["attacks"], size["n_replicates"])
            items.extend(it)
            for k in per_strat:
                per_strat[k].extend(by[k])
        attempted = per_round * (len(rounds) + len(result["traced"]))
    metrics = {
        "setup_s": (result["setup_median_s"], "s"),
        "wall_s": (wall, "s"),
        "throughput_per_s": (per_round / wall, "1/s"),
        "item_ms_p50": (1000.0 * _q(items, 0.5), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    note = f"{len(rounds)} rounds, walls " + ", ".join(f"{w:.3f}" for w in walls) + f" s; {len(items)} items"
    for k, name in (("TwoBalls", "tb"), ("RandomRadius", "rr")):
        v = per_strat[k]
        if v:
            note += f"; {name} attack ms p50 {1000 * _q(v, 0.5):.2f}"
            if len(v) >= 40:
                note += f" p90 {1000 * _q(v, 0.9):.2f}"
            note += f" (n={len(v)})"
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, attempted, note


PER_LAYER_UNITS = {"calls": "count", "points": "count", "pairs": "count", "spans": "count",
                   "bytes": "bytes", "ns_per_pair": "ns", "us_per_exit": "us"}


def _per_layer(result: dict, records: list[dict]) -> tuple[dict, str]:
    traced = [t["metrics"] for t in result["traced"]]
    med = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
    untraced = statistics.median(r["wall"] for r in result["rounds"])
    med["trace.untraced_wall_s"] = untraced
    med["trace.overhead"] = med["trace.wall_s"] / untraced - 1.0
    med["inference.oracle_rel_gap_p50"] = checks.gap_quantiles(records).get("p50", 0.0)
    out = {}
    for k, v in med.items():
        last = k.rsplit(".", 1)[1]
        unit = PER_LAYER_UNITS.get(last, "ratio" if last in ("overhead", "oracle_rel_gap_p50") else "s")
        out[k] = {"value": v, "unit": unit}
    wall = med["trace.wall_s"]
    shares = ", ".join(
        f"{layer} {med[f'{layer}.self_s'] / wall:.1%}"
        for layer in ("experiments", "strategies", "inference", "harmonic_core", "trajectory")
    )
    note = (f"{len(traced)} traced rounds; traced wall {wall:.3f} s = layer self times "
            f"{med['trace.self_sum_s']:.3f} s ({shares}); untraced {untraced:.3f} s, "
            f"overhead {med['trace.overhead']:+.1%}")
    return out, note


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "privregion" / "__init__.py").is_file():
        raise BenchError(f"{root} holds no privregion source tree (src/privregion); run from a checkout's root")
    out = root / OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    print(f"outputs in {out}")
    try:
        return _run(args, root, out)
    finally:
        # Keep the small outputs for inspection; drop the bulky ones.
        if not args.keep:
            shutil.rmtree(out / "tracks", ignore_errors=True)
            if args.workload == "obfuscate":
                shutil.rmtree(out / "study", ignore_errors=True)


def _run(args, root: Path, out: Path) -> dict:
    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--profile", args.profile,
                   "--out", str(out)]
    track_paths = []
    if args.workload == "obfuscate":
        size = workloads.SIZES["obfuscate"][args.profile]
        track_paths = tracks.make_all(args.seed, size["n_tracks"], size["n_samples"], out / "tracks")
        worker_args += ["--tracks", str(out / "tracks"), "--home", *map(repr, tracks.home(args.seed).tolist())]

    setups = [json.loads(_worker(worker_args + ["--probe"], root, 60).strip().splitlines()[-1])["setup_s"]
              for _ in range(SETUP_PROBES)]
    _worker(worker_args + ["--seconds", str(args.seconds), "--trace", str(args.trace)], root, 150)
    result = json.loads((out / "worker.json").read_text(encoding="utf-8"))
    result["seed"] = args.seed
    result["setup_median_s"] = statistics.median(setups)

    found, records = _checks(args.workload, out, result, track_paths)
    for name, msgs in found.items():
        print(f"check {name}: {'ok' if not msgs else 'FAIL'}")
        for m in msgs:
            print(f"  {m}")
    if args.workload == "table1":
        ratios = checks.tb_rr_ratios(checks.read_csv(out / "study" / "results.csv"))
        print("two-balls / random-radius median MSE: " + ", ".join(f"{k} {v:.2f}" for k, v in ratios.items()))
    if records:
        g = checks.gap_quantiles(records)
        print(f"oracle: {len(records)} attacks, relative gap p50 {g['p50']:.4f} max {g['max']:.4f}")
    metrics, attempted, note = _end_to_end(args.workload, result, args.profile)
    print(f"setup: {', '.join(f'{s:.3f}' for s in setups)} s")
    print(note)
    if args.trace:
        metrics, note = _per_layer(result, records)
        print(note)
    return {
        "correct": not any(found.values()),
        "attempted": attempted,
        "failed": 0,
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--profile", default="full", choices=("full", "tiny"),
                    help="input sizes; tiny is for the self-test")
    ap.add_argument("--keep", action="store_true", help="keep the input tracks and obfuscate outputs")
    args = ap.parse_args()
    t0 = time.perf_counter()
    try:
        res = run(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(f"benchmark took {time.perf_counter() - t0:.1f} s")
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
