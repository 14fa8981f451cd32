"""Self-test of the benchmark: tiny runs pass, corrupted outputs fail.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It runs every workload with the
tiny input profile (untraced, and table1 traced too), then feeds each check
one corrupted copy of the outputs those runs kept and requires the check to
fail on it. Last, it runs the benchmark in a directory that holds only
BENCHMARK.json and perfbench/, where it must exit non-zero without a result.
Exits non-zero on the first expectation that does not hold.
"""

from __future__ import annotations

import copy
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import tracks

HERE = Path(__file__).resolve().parent
SEED = 7


def _bench(*args: str, cwd: Path = Path.cwd()) -> tuple[int, str, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--seconds", "0", "--seed", str(SEED), *args]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return p.returncode, p.stdout, p.stderr


def _tiny(workload: str, trace: int = 0) -> tuple[dict, Path]:
    code, out, err = _bench("--workload", workload, "--profile", "tiny", "--keep", "--trace", str(trace))
    if code != 0:
        sys.exit(f"tiny {workload} run failed ({code}):\n{out}\n{err}")
    res = json.loads(out.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    # The metrics printed are exactly those BENCHMARK.json lists for the mode.
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)), got, want)
    out_dir = Path(re.search(r"^outputs in (.+)$", out, re.M).group(1))
    print(f"tiny {workload} trace={trace}: ok, {res['attempted']} attempted")
    return res, out_dir


def _expect_fail(name: str, found: list[str]) -> None:
    if not found:
        sys.exit(f"check {name} passed a corrupted output")
    print(f"  {name}: fails as it should ({found[0]})")


def _set(rows: list[dict], i: int, col: str, scale: float) -> list[dict]:
    rows = copy.deepcopy(rows)
    rows[i][col] = repr(float(rows[i][col]) * scale)
    return rows


def table1(out: Path) -> None:
    study = out / "study"
    rows = checks.read_csv(study / "results.csv")
    summary = checks.read_csv(study / "summary.csv")
    records = checks.oracle_records(dict(np.load(out / "attacks.npz")))
    assert not checks.oracle_gaps(records) and not checks.mse_decomposition(rows)

    bad = copy.deepcopy(records)
    bad[0]["program"] *= 2.0
    _expect_fail("oracle (one MSE x2)", checks.oracle_gaps(bad))
    bad = [dict(r, program=r["program"] * 1.3) for r in records]
    _expect_fail("oracle (every MSE x1.3, a wrong posterior)", checks.oracle_gaps(bad))
    _expect_fail("mse_decomposition (one MSE x2)", checks.mse_decomposition(_set(rows, 0, "posterior_mse", 2.0)))
    _expect_fail("summary_quantiles (one median x2)", checks.summary_quantiles(rows, _set(summary, 0, "mse_median", 2.0)))
    _expect_fail("tb_mean_sp (mean SP x1.02)", checks.tb_mean_sp(_set(summary, 0, "mean_sp", 1.02)))
    _expect_fail("rr_mean_sp (mean SP x1.02)", checks.rr_mean_sp(_set(summary, 1, "mean_sp", 1.02), 100_000))
    swapped = [
        dict(r, strategy={"two-balls": "random-radius", "random-radius": "two-balls"}[r["strategy"]])
        for r in rows
    ]
    _expect_fail("tb_beats_rr (strategies swapped)", checks.tb_beats_rr(swapped))
    hashes = [{"results.csv": "a"}, {"results.csv": "b"}]
    _expect_fail("identical_rounds (one file differs)", checks.identical_outputs(hashes))


def curve(out: Path) -> None:
    summary = checks.read_csv(out / "study" / "curve_summary.csv")
    assert not checks.curve_falls(summary)
    ns = sorted({s["n"] for s in summary}, key=int)
    flipped = [dict(s, n=ns[len(ns) - 1 - ns.index(s["n"])]) for s in summary]
    _expect_fail("curve_falls (sizes reversed)", checks.curve_falls(flipped))


def obfuscate(out: Path) -> None:
    paths = sorted((out / "tracks").glob("*.csv"))
    originals, report, published = checks.load_cuts(paths, out / "study")
    home = tracks.home(SEED)
    assert not checks.cuts(originals, report, published, home)

    # Shift the published slice of one track one sample later and make the
    # report agree with it, so that only the distances to the home can tell.
    name = report[0]["file"]
    t, x = originals[name]
    pt, _ = published[name]
    i0 = int(np.searchsorted(t, pt[0])) + 1
    i1 = i0 + len(pt) - 1
    shifted = dict(published)
    shifted[name] = (t[i0 : i1 + 1], x[i0 : i1 + 1])
    sp = float(((x[i0] - x[0]) ** 2).sum() + ((x[i1] - x[-1]) ** 2).sum())
    moved = copy.deepcopy(report)
    moved[0].update(t1=repr(float(t[i0])), t2=repr(float(t[i1])), sp=repr(sp))
    _expect_fail("cuts (slice shifted by one sample)", checks.cuts(originals, moved, shifted, home))
    _expect_fail("cuts (SP x2)", checks.cuts(originals, _set(report, 0, "sp", 2.0), published, home))


def traced(res: dict) -> None:
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["inference.log_target.calls"] > 0 and m["inference.rwm_sample.calls"] > 0, m
    assert math.isclose(m["trace.self_sum_s"], m["trace.wall_s"], rel_tol=1e-9), m
    print("  traced: layer self times add up to the traced wall time")


def bare_directory(root: Path) -> None:
    bare = root / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, out, _ = _bench("--workload", "table1", cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or '"correct"' in out:
        sys.exit("benchmark printed a result without a source tree")
    print(f"bare directory: exits {code} without a result")


def main() -> None:
    root = Path.cwd()
    kept = []
    _, out = _tiny("table1")
    kept.append(out)
    table1(out)
    res, out = _tiny("table1", trace=1)
    kept.append(out)
    traced(res)
    _, out = _tiny("curve_large_n")
    kept.append(out)
    curve(out)
    _, out = _tiny("obfuscate")
    kept.append(out)
    obfuscate(out)
    bare_directory(root)
    for d in kept:
        shutil.rmtree(d, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
