"""Accuracy and cost of the attacks' Gauss rules, against references built
apart from them.

For each two-balls setting x n it prints, over the replicates, the polar
rule sizes the attack accepted (N Gauss-Jacobi nodes in u by 2N angles)
with their counts, how many attacks raised DiagnosticsFailed, the
largest gap to the half-size rule, the largest relative MSE error against
a reference, how many certified attacks lie within twice their reported
gap of it (give or take ROUNDING), the median per-attack time (best of
--calls calls each), and the reference's own largest relative MSE gap to
the rule of twice its size. The reference is a REF_NODES x (2 REF_NODES)
Gauss-Jacobi x trapezoid rule built from the public pointwise
`tb_log_posterior` with `core.jacobi_rule`'s nodes (whose Beta moments
the tests check to 1e-12 up to 1024 nodes; scipy's roots_jacobi is off
by 5e-11 at 512 nodes for b = 0.5).

It measures the six study settings at STUDY_SIZES and, unless
--skip-extra, the EXTRA_CASES: three shapes whose b < 1 piles the
posterior at the support's edge, two of them with exits near the
support. Replicate rep at size n draws its exits from
derive_rng(seed, n, rep).

For random-radius, with the Gamma matched to each study setting, at
RR_SIZES, it prints the same for the 16 x 16 Gauss-Hermite rule against a
256^2 midpoint grid on the Laplace fit's mode +- 8 sd; "old" is the 64^2
grid on that window (the attack before the Gauss rules).

Run from the root of a checkout:

    PYTHONPATH=src python tools/rule_table.py
"""

import argparse
import math
import statistics
import time
from collections import Counter

import numpy as np

from privregion import inference
from privregion.core import BetaParams, Point, derive_rng, jacobi_rule
from privregion.experiments import TABLE1_SETTINGS, setting_tag
from privregion.inference import (
    attack,
    grid_posterior,
    recover_center,
    rr_log_posterior,
    tb_log_posterior,
)
from privregion.strategies import (
    RandomRadius,
    TwoBalls,
    calibrate_random_radius,
    generate_observations,
)

# (setting, sizes) of the shapes beyond the study's
EXTRA_CASES = (
    (TwoBalls(2.0, 3.0, BetaParams(2.0, 0.3)), (200,)),
    (TwoBalls(1.0, 5.0, BetaParams(4.0, 0.5)), (6400,)),
    (TwoBalls(2.9, 3.0, BetaParams(4.0, 0.5)), (5, 50)),
)
STUDY_SIZES = (6400, 25600)
RR_SIZES = (50, 200, 1600)
ORIGIN = Point(0.0, 0.0)
# nodes in u of the reference, and per block of it, which bounds its memory
REF_NODES = 1024
REF_BLOCK = 32
# the relative MSE error that rounding alone leaves an attack and the
# reference apart by: "within 2 gap" means err <= 2 gap + ROUNDING
ROUNDING = 1e-12


def polar_reference(obs, c, N):
    """(log mass, mean, cov) on B(c, r) by the N x 2N rule, from the
    pointwise log-posterior with the Beta weight divided out, taken in
    blocks of REF_BLOCK radii."""
    spec = obs.strategy
    r, a, b = spec.r, spec.beta.alpha, spec.beta.beta
    u, w = jacobi_rule(N, a, b)
    phi = math.pi * np.arange(2 * N) / N
    ring = np.column_stack([np.cos(phi), np.sin(phi)])
    radii = r * np.sqrt(u)
    log_rule = np.log(w) - (a - 1.0) * np.log(u) - (b - 1.0) * np.log1p(-u)
    blocks = [slice(lo, lo + REF_BLOCK) for lo in range(0, N, REF_BLOCK)]

    def points(rows):
        return (c + radii[rows, None, None] * ring).reshape(-1, 2)

    logw = np.concatenate(
        [tb_log_posterior(points(rows), c, obs).reshape(-1, 2 * N) + log_rule[rows, None] for rows in blocks]
    )
    peak = logw.max()
    wts = np.exp(logw - peak)
    total = wts.sum()
    wts /= total
    mean = sum(wts[rows].ravel() @ points(rows) for rows in blocks)
    cov = np.zeros((2, 2))
    for rows in blocks:
        d = points(rows) - mean
        cov += (d.T * wts[rows].ravel()) @ d
    return peak + math.log(total), mean, cov


def reference_mse(obs, theta, N):
    (center,) = recover_center(obs.positions, obs.strategy.R)
    _, mean, cov = polar_reference(obs, center, N)
    return float(((mean - theta) ** 2).sum() + np.trace(cov))


def laplace_grid(obs):
    """The random-radius attack before the Gauss-Hermite rule: a 64^2 grid
    on the Laplace fit's mode +- 8 sd, else (or when that grid fails its
    checks) the box."""
    g = obs.strategy.gamma
    z = obs.positions
    fit = inference._rr_laplace(z, g.alpha, g.beta)
    if fit is not None:
        mode, cov = fit
        sd = np.sqrt(np.diag(cov))
        if sd.max() <= inference.LAPLACE_SD_RATIO * inference._radius_sd(g.alpha, g.beta):
            lo, hi = mode - 8.0 * sd, mode + 8.0 * sd
            window = (lo[0], hi[0], lo[1], hi[1])
            try:
                gp, _ = inference._integrate(inference._rr_target(z, g.alpha, g.beta, window), window)
            except inference.DiagnosticsFailed:
                pass
            else:
                return float(((gp.mean - ORIGIN.as_array()) ** 2).sum() + np.trace(gp.cov))
    return attack(obs, ORIGIN, None).posterior_mse


def timed(fn, calls):
    best, out = math.inf, None
    for _ in range(calls):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def two_balls_rows(cases, reps, calls, seed):
    theta = ORIGIN.as_array()
    print("| setting | n | rule (N): count | raised | gap | err | within 2 gap | ms | ref gap |")
    print("|---|---|---|---|---|---|---|---|---|")
    for spec, sizes in cases:
        for n in sizes:
            rules, gaps, errs, within, times, ref_gaps, raised = Counter(), [], [], 0, [], [], 0
            for rep in range(reps):
                obs = generate_observations(ORIGIN, spec, n, derive_rng(seed, n, rep))
                try:
                    report, dt = timed(lambda: attack(obs, ORIGIN, None), calls)
                except inference.DiagnosticsFailed:
                    raised += 1
                    continue
                ref = reference_mse(obs, theta, REF_NODES)
                ref_gaps.append(abs(ref - reference_mse(obs, theta, 2 * REF_NODES)) / ref)
                err = abs(report.posterior_mse - ref) / ref
                rules[f"{report.rule} ({report.nodes})"] += 1
                gaps.append(report.rule_gap)
                errs.append(err)
                within += err <= 2.0 * report.rule_gap + ROUNDING
                times.append(dt)
            rule_text = ", ".join(f"{k}: {v}" for k, v in sorted(rules.items()))
            if not errs:
                print(f"| {setting_tag(spec)} | {n} | | {raised}/{reps} | | | | | |")
                continue
            print(
                f"| {setting_tag(spec)} | {n} | {rule_text} | {raised}/{reps} | {max(gaps):.1e} | "
                f"{max(errs):.1e} | {within}/{len(errs)} | {1e3 * statistics.median(times):.2f} | "
                f"{max(ref_gaps):.1e} |"
            )


def random_radius_rows(settings, sizes, reps, calls, seed):
    print("| matched to | n | rule (N) | gap | err new | err old | ms new | ms old |")
    print("|---|---|---|---|---|---|---|---|")
    for k, tb in enumerate(settings):
        g = calibrate_random_radius(tb).matched_gamma
        for n in sizes:
            rules, gaps, err_new, err_old, t_new, t_old = set(), [], [], [], [], []
            for rep in range(reps):
                obs = generate_observations(ORIGIN, RandomRadius(g), n, derive_rng(seed, k, n, rep, 1))
                fit = inference._rr_laplace(obs.positions, g.alpha, g.beta)
                if fit is None:
                    continue
                mode, cov = fit
                half = 8.0 * np.sqrt(np.diag(cov))
                window = (mode[0] - half[0], mode[0] + half[0], mode[1] - half[1], mode[1] + half[1])
                ref = grid_posterior(lambda p: rr_log_posterior(p, obs), window, n=256).mse_against(ORIGIN)[0]
                new, dt = timed(lambda: attack(obs, ORIGIN, None), calls)
                old, dt_old = timed(lambda: laplace_grid(obs), calls)
                rules.add(f"{new.rule} ({new.nodes})")
                gaps.append(new.rule_gap)
                err_new.append(abs(new.posterior_mse - ref) / ref)
                err_old.append(abs(old - ref) / ref)
                t_new.append(dt)
                t_old.append(dt_old)
            if not gaps:
                continue
            print(
                f"| {setting_tag(tb)} (a={g.alpha:.3g}) | {n} | {', '.join(sorted(rules))} | {max(gaps):.1e} | "
                f"{max(err_new):.1e} | {max(err_old):.1e} | {1e3 * statistics.median(t_new):.2f} | "
                f"{1e3 * statistics.median(t_old):.2f} |"
            )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--replicates", type=int, default=6)
    ap.add_argument("--calls", type=int, default=3, help="calls per attack; the fastest is kept")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--skip-extra", action="store_true", help="only the six study settings")
    args = ap.parse_args()
    cases = [(spec, STUDY_SIZES) for spec in TABLE1_SETTINGS] + ([] if args.skip_extra else list(EXTRA_CASES))
    print(f"two-balls: polar rule against a {REF_NODES} x {2 * REF_NODES} polar reference\n")
    two_balls_rows(cases, args.replicates, args.calls, args.seed)
    print("\nrandom-radius: Gauss-Hermite rule against a 256^2 grid on mode +- 8 sd\n")
    random_radius_rows(TABLE1_SETTINGS, RR_SIZES, args.replicates, args.calls, args.seed)


if __name__ == "__main__":
    main()
