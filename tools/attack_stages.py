"""Cost of each stage of the two study attacks, at the study's sizes.

For each sample size it times, on the six study settings (two-balls) and
their matched Gammas (random-radius), every stage an attack runs through:

* two-balls: generating the exits, the center fit (`recover_center`),
  building the local expansion about the center, the polar rules of the
  start pair (16 and 32 nodes in u) and the whole attack;
* random-radius: generating the exits, the Laplace fit, building the
  expansion on the Hermite window, the Gauss-Hermite rule pair (8 x 8 and
  16 x 16 nodes, one target call) and the whole attack.

Each figure is a timeit minimum over --calls repeats of a loop long enough
to last about a millisecond, per instance; the table gives the median over
settings x replicates and, in brackets, the smallest and largest
per-setting median. The attack rows are the per-attack times the README's
cost table reports.

Run from the root of a checkout:

    PYTHONPATH=src python tools/attack_stages.py --sizes 50 1600
"""

import argparse
import statistics
import timeit

import numpy as np

from privregion import inference
from privregion.core import Point, derive_rng
from privregion.experiments import TABLE1_SETTINGS
from privregion.strategies import RandomRadius, calibrate_random_radius, generate_observations

ORIGIN = Point(0.0, 0.0)


def best(fn, calls):
    """Seconds per call: the fastest of `calls` loops of about 1 ms each."""
    t1 = timeit.timeit(fn, number=1)
    number = max(1, round(1e-3 / max(t1, 1e-7)))
    return min(timeit.repeat(fn, number=number, repeat=calls)) / number


def two_balls_stages(spec, n, rng_path, calls):
    obs = generate_observations(ORIGIN, spec, n, derive_rng(*rng_path))
    z, r, R, a, b = obs.positions, spec.r, spec.R, spec.beta.alpha, spec.beta.beta
    (c,) = inference.recover_center(z, R)
    sep = inference._sep_expansion(z, c, r)
    return {
        "generate": best(lambda: generate_observations(ORIGIN, spec, n, derive_rng(*rng_path)), calls),
        "center fit": best(lambda: inference.recover_center(z, R), calls),
        "expansion": best(lambda: inference._sep_expansion(z, c, r), calls),
        "polar rule 16": best(lambda: inference._polar_rule(sep, n, c, r, R, a, b, 16), calls),
        "polar rule 32": best(lambda: inference._polar_rule(sep, n, c, r, R, a, b, 32), calls),
        "attack": best(lambda: inference.attack(obs, ORIGIN, None), calls),
    }


def random_radius_stages(spec, n, rng_path, calls):
    obs = generate_observations(ORIGIN, spec, n, derive_rng(*rng_path))
    z, a, b = obs.positions, spec.gamma.alpha, spec.gamma.beta
    out = {
        "generate": best(lambda: generate_observations(ORIGIN, spec, n, derive_rng(*rng_path)), calls),
        "laplace fit": best(lambda: inference._rr_laplace(z, a, b), calls),
    }
    fit = inference._rr_laplace(z, a, b)
    if fit is None:
        raise SystemExit(f"no Laplace fit at n = {n}: the stages need n of about 50 or more")
    mode, cov = fit
    chol = np.linalg.cholesky(cov)
    half = 1.001 * float(inference._hermite_nodes(inference.HERMITE_NODES)[0].max()) * np.abs(chol).sum(axis=1)
    window = (mode[0] - half[0], mode[0] + half[0], mode[1] - half[1], mode[1] + half[1])
    target = inference._rr_target(z, a, b, window)
    out["expansion"] = best(lambda: inference._rr_target(z, a, b, window), calls)
    out["hermite rules 8+16"] = best(lambda: inference._hermite_rules(target, mode, chol), calls)
    out["attack"] = best(lambda: inference.attack(obs, ORIGIN, None), calls)
    return out


def report(name, sizes, rows):
    """rows[n][setting] is a list of {stage: seconds}, one per replicate."""
    stages = list(next(iter(next(iter(rows.values())).values()))[0])
    print(f"\n{name}: us per call, median over settings x replicates [per-setting medians]\n")
    print("| stage | " + " | ".join(f"n = {n}" for n in sizes) + " |")
    print("|---|" + "---|" * len(sizes))
    for stage in stages:
        cells = []
        for n in sizes:
            per_setting = [[rep[stage] for rep in reps] for reps in rows[n].values()]
            med = statistics.median(t for reps in per_setting for t in reps)
            meds = [statistics.median(reps) for reps in per_setting]
            cells.append(f"{1e6 * med:.0f} [{1e6 * min(meds):.0f}, {1e6 * max(meds):.0f}]")
        print(f"| {stage} | " + " | ".join(cells) + " |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[50, 1600])
    ap.add_argument("--replicates", type=int, default=5)
    ap.add_argument("--calls", type=int, default=5, help="timeit repeats; the fastest is kept")
    ap.add_argument("--seed", type=int, default=20261019)
    args = ap.parse_args()
    tb_rows = {n: {} for n in args.sizes}
    rr_rows = {n: {} for n in args.sizes}
    for k, tb in enumerate(TABLE1_SETTINGS):
        rr = RandomRadius(calibrate_random_radius(tb).matched_gamma)
        for n in args.sizes:
            reps = range(args.replicates)
            tb_rows[n][k] = [two_balls_stages(tb, n, (args.seed, k, n, rep, 0), args.calls) for rep in reps]
            rr_rows[n][k] = [random_radius_stages(rr, n, (args.seed, k, n, rep, 1), args.calls) for rep in reps]
    report("two-balls", args.sizes, tb_rows)
    report("random-radius", args.sizes, rr_rows)


if __name__ == "__main__":
    main()
