"""Checks of the program's outputs against computations made apart from it.

Nothing here imports privregion. Each check takes parsed outputs and
returns a list of failure messages; an empty list means it passed. The
self-test feeds each one a corrupted output and expects a failure.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import oracle
import tracks

# The study's six two-balls settings (r, R, alpha, beta), keyed as the
# program tags them in its CSVs.
SETTINGS = {
    f"r{r:g}-R{R:g}-a{a:g}-b{b:g}": (r, R, a, b)
    for r, R, a, b in (
        (1.0, 3.0, 4.0, 4.0),
        (1.0, 4.0, 4.0, 4.0),
        (2.0, 5.0, 4.0, 4.0),
        (1.0, 5.0, 4.0, 2.0),
        (1.0, 5.0, 4.0, 4.0),
        (1.0, 5.0, 2.0, 4.0),
    )
}

# Oracle tolerances, relative to the exact posterior MSE. Today's sampler
# is off by 2-5% in the median and by up to about 20% in single attacks at
# n=50 (Monte Carlo error of 4000 correlated draws); a wrong posterior or a
# factor-2 slip in one attack lands beyond both.
ORACLE_MEDIAN_GAP = 0.15
ORACLE_MAX_GAP = 0.5
ORACLE_EDGE_MASS = 1e-4
CENTER_FIT_RTOL = 1e-9

# One-sided sampling allowance, in standard errors, for the statistical
# checks that compare sample medians or means with a population property.
Z_ALLOWANCE = 3.5


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _quantile(sorted_vals: list[float], p: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    h = (len(sorted_vals) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (h - lo) * (sorted_vals[hi] - sorted_vals[lo])


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _group(rows: list[dict], *keys: str) -> dict[tuple, list[float]]:
    out: dict[tuple, list[float]] = {}
    for r in rows:
        out.setdefault(tuple(r[k] for k in keys), []).append(float(r["posterior_mse"]))
    return out


def mse_decomposition(rows: list[dict]) -> list[str]:
    """mse = bias2 + variance in every results row."""
    bad = []
    for r in rows:
        mse, b2, var = float(r["posterior_mse"]), float(r["bias2"]), float(r["variance"])
        if not (mse >= 0.0 and b2 >= 0.0 and var >= 0.0 and close(mse, b2 + var, 1e-9)):
            bad.append(f"{r['setting']} {r['strategy']} rep {r['replicate']} n {r['n']}: mse {mse!r} != {b2!r} + {var!r}")
    return bad[:5]


def summary_quantiles(rows: list[dict], summary: list[dict]) -> list[str]:
    """Summary count and 5/50/95% quantiles recomputed from the per-replicate rows."""
    groups = _group(rows, "setting", "strategy", "n")
    bad = []
    if len(summary) != len(groups):
        bad.append(f"{len(summary)} summary rows for {len(groups)} result groups")
    for s in summary:
        vals = sorted(groups.get((s["setting"], s["strategy"], s["n"]), []))
        if not vals or int(s["n_replicates"]) != len(vals):
            bad.append(f"{s['setting']} {s['strategy']} n {s['n']}: {s['n_replicates']} replicates, {len(vals)} rows")
            continue
        for col, p in (("mse_q05", 0.05), ("mse_median", 0.5), ("mse_q95", 0.95)):
            if not close(float(s[col]), _quantile(vals, p), 1e-12):
                bad.append(f"{s['setting']} {s['strategy']} n {s['n']}: {col} {s[col]} != {_quantile(vals, p)!r}")
    return bad


def tb_mean_sp(summary: list[dict]) -> list[str]:
    """Two-balls mean SP within 1% of its closed form R^2 - r^2 a/(a+b)."""
    bad = []
    for s in summary:
        if s["strategy"] != "two-balls":
            continue
        r, R, a, b = SETTINGS[s["setting"]]
        want = R * R - r * r * a / (a + b)
        if abs(float(s["mean_sp"]) / want - 1.0) > 0.01:
            bad.append(f"{s['setting']}: two-balls mean SP {s['mean_sp']} vs {want:.6g}")
    return bad


def rr_mean_sp(summary: list[dict], n_draws: int) -> list[str]:
    """Random-radius mean SP equal to the two-balls closed form within sampling error.

    Its mean is the sample mean of n_draws Gamma draws whose own mean is a
    sample mean of n_draws two-balls SPs: two errors of sd at most
    sd(SP)/sqrt(n_draws) each. SP lies in [(R-r)^2, (R+r)^2], so by
    Popoviciu's inequality sd(SP) <= 2 R r.
    """
    bad = []
    for s in summary:
        if s["strategy"] != "random-radius":
            continue
        r, R, a, b = SETTINGS[s["setting"]]
        want = R * R - r * r * a / (a + b)
        tol = Z_ALLOWANCE * 2.0 * R * r * math.sqrt(2.0 / n_draws)
        if abs(float(s["mean_sp"]) - want) > tol:
            bad.append(f"{s['setting']}: random-radius mean SP {s['mean_sp']} vs {want:.6g} +- {tol:.3g}")
    return bad


def _log_median_se(vals: np.ndarray) -> float:
    """Standard error of the log of a sample median, from the sample's IQR."""
    lv = np.log(vals)
    q1, q3 = np.quantile(lv, [0.25, 0.75])
    return 1.2533 * (q3 - q1) / 1.349 / math.sqrt(len(vals))


def tb_beats_rr(rows: list[dict]) -> list[str]:
    """Two-balls median MSE at least twice random-radius's in each setting.

    The medians are of 20 or so replicates, and in r2-R5-a4-b4 the
    population ratio is only about 3, so the check allows the ratio to fall
    short of 2 by Z_ALLOWANCE standard errors of the log median ratio.
    """
    groups = _group(rows, "setting", "strategy")
    bad = []
    for tag in sorted({k[0] for k in groups}):
        tb = np.array(groups.get((tag, "two-balls"), []))
        rr = np.array(groups.get((tag, "random-radius"), []))
        if len(tb) < 2 or len(rr) < 2:
            bad.append(f"{tag}: too few replicates")
            continue
        log_ratio = math.log(np.median(tb) / np.median(rr))
        se = math.hypot(_log_median_se(tb), _log_median_se(rr))
        if log_ratio < math.log(2.0) - Z_ALLOWANCE * se:
            bad.append(f"{tag}: median ratio {math.exp(log_ratio):.2f} below 2 by more than {Z_ALLOWANCE} se ({se:.3f})")
    return bad


def tb_rr_ratios(rows: list[dict]) -> dict[str, float]:
    groups = _group(rows, "setting", "strategy")
    return {
        tag: float(np.median(groups[tag, "two-balls"]) / np.median(groups[tag, "random-radius"]))
        for tag in sorted({k[0] for k in groups})
    }


def curve_falls(summary: list[dict]) -> list[str]:
    """Median MSE falls as n grows: slope of log median on log n below -0.5.

    Exact posteriors shrink like 1/n (slope -1). With a handful of
    replicates per n a single step can rise by chance, so the check takes
    the fitted slope over all sizes; its standard error is about 0.1.
    """
    bad = []
    for strat in sorted({s["strategy"] for s in summary}):
        pts = sorted((int(s["n"]), float(s["mse_median"])) for s in summary if s["strategy"] == strat)
        x = np.log([n for n, _ in pts])
        y = np.log([m for _, m in pts])
        slope = float(np.polyfit(x, y, 1)[0]) if len(pts) > 1 else math.nan
        if not slope <= -0.5:
            bad.append(f"{strat}: log median MSE falls with slope {slope:.2f} in log n, not below -0.5")
    return bad


def identical_outputs(hashes: list[dict]) -> list[str]:
    """Every round (timed or traced) wrote byte-identical deterministic files."""
    return [f"round {i} output differs: {sorted(k for k in h if h[k] != hashes[0].get(k))}"
            for i, h in enumerate(hashes) if h != hashes[0]]


def oracle_records(att: dict) -> list[dict]:
    """Exact posterior MSE by quadrature for every recorded attack."""
    out = []
    for i in range(len(att["kind"])):
        z = att["z"][att["start"][i] : att["start"][i] + att["n"][i]]
        p = att["params"][i]
        theta = att["theta"][i]
        if att["kind"][i] == 0:
            mse, edge, fit = oracle.two_balls_mse(z, theta, *p)
        else:
            (mse, edge), fit = oracle.random_radius_mse(z, theta, p[0], p[1]), 0.0
        out.append({
            "strategy": "two-balls" if att["kind"][i] == 0 else "random-radius",
            "n": int(att["n"][i]),
            "program": float(att["mse"][i]),
            "oracle": mse,
            "edge": edge,
            "center_fit": fit,
        })
    return out


def oracle_gaps(records: list[dict]) -> list[str]:
    """The program's posterior MSE against the exact posterior's, attack by attack."""
    bad = []
    by_strat: dict[str, list[float]] = {}
    for i, r in enumerate(records):
        gap = abs(r["program"] - r["oracle"]) / r["oracle"]
        by_strat.setdefault(r["strategy"], []).append(gap)
        if not gap <= ORACLE_MAX_GAP:
            bad.append(f"attack {i} ({r['strategy']}, n={r['n']}): mse {r['program']:.5g} vs exact {r['oracle']:.5g}")
        if r["edge"] > ORACLE_EDGE_MASS:
            bad.append(f"attack {i}: quadrature window edge mass {r['edge']:.2g}")
        if r["center_fit"] > CENTER_FIT_RTOL:
            bad.append(f"attack {i}: exits miss the region circle by {r['center_fit']:.2g} R")
    for strat, gaps in by_strat.items():
        if np.median(gaps) > ORACLE_MEDIAN_GAP:
            bad.append(f"{strat}: median gap to the exact posterior {np.median(gaps):.3f}")
    return bad[:8]


def gap_quantiles(records: list[dict]) -> dict[str, float]:
    gaps = [abs(r["program"] - r["oracle"]) / r["oracle"] for r in records]
    return {"p50": float(np.median(gaps)), "max": float(np.max(gaps))} if gaps else {}


def cuts(originals: dict, report: list[dict], published: dict, home_xy) -> list[str]:
    """Each cut recomputed from the sample distances to the home.

    originals / published map file name -> (times, positions). A
    random-radius region is a disk about the home, so the published rows
    must be one contiguous slice of the original whose first and last
    samples lie farther from the home than every dropped sample, and the
    SP must be the squared endpoint displacements.
    """
    bad = []
    if sorted(r["file"] for r in report) != sorted(originals):
        bad.append("report does not list every input track")
    for r in report:
        t, x = originals[r["file"]]
        if r["published"] != "true" or r["file"] not in published:
            bad.append(f"{r['file']}: not published though it leaves every region")
            continue
        pt, px = published[r["file"]]
        i0 = int(np.searchsorted(t, pt[0]))
        i1 = i0 + len(pt) - 1
        if i1 >= len(t) or not (np.array_equal(t[i0 : i1 + 1], pt) and np.array_equal(x[i0 : i1 + 1], px)):
            bad.append(f"{r['file']}: published rows are not a contiguous slice of the track")
            continue
        if float(r["t1"]) != t[i0] or float(r["t2"]) != t[i1]:
            bad.append(f"{r['file']}: report times {r['t1']}, {r['t2']} vs slice {float(t[i0])!r}, {float(t[i1])!r}")
        d = np.hypot(*(x - home_xy).T)
        dropped = np.concatenate([d[:i0], d[i1 + 1 :]])
        if dropped.size and not min(d[i0], d[i1]) > dropped.max():
            bad.append(f"{r['file']}: an end of the slice is no farther out than a dropped sample")
        sp = float(((px[0] - x[0]) ** 2).sum() + ((px[-1] - x[-1]) ** 2).sum())
        if not close(float(r["sp"]), sp, 1e-12):
            bad.append(f"{r['file']}: sp {r['sp']} vs endpoints {sp!r}")
    return bad


def load_cuts(track_paths: list[Path], out_dir: Path):
    originals = {p.name: tracks.read(p) for p in track_paths}
    report = read_csv(out_dir / "report.csv")
    published = {
        r["file"]: tracks.read(out_dir / f"{Path(r['file']).stem}_published.csv")
        for r in report
        if (out_dir / f"{Path(r['file']).stem}_published.csv").is_file()
    }
    return originals, report, published
