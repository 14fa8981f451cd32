"""Accuracy and cost of the attacks' Gauss rules, against references and
against the midpoint grids they replace.

For each two-balls setting x n it prints the rule the attack accepted (the
polar rule's N, Gauss-Jacobi nodes in u by 2N angles, the midpoint
fallback, or "none" for the closed form at n = 1), the largest gap to the
half-size rule, the largest relative MSE error of the attack ("new") and
of the 64^2 midpoint grid on the support square that it replaces ("old"),
each against a 256 x 512 Gauss-Jacobi x trapezoid reference built from the
public pointwise `tb_log_posterior`, and the median per-attack time of
both (best of --calls calls each). At n = 1 the reference and the old grid
integrate the offset from the unknown center, the quadrature the closed
form replaced.

For random-radius, with the Gamma matched to each setting, it prints the
same for the 16 x 16 Gauss-Hermite rule against a 256^2 midpoint grid on
the Laplace fit's mode +- 8 sd; "old" is the 64^2 grid on that window
(the attack before the Gauss rules).

Run from the root of a checkout:

    PYTHONPATH=src python tools/rule_table.py --replicates 3 --sizes 1 2 3 50 200 1600
"""

import argparse
import math
import statistics
import time

import numpy as np
from scipy.special import roots_jacobi

from privregion import inference
from privregion.core import BetaParams, Point, derive_rng
from privregion.experiments import TABLE1_SETTINGS, setting_tag
from privregion.inference import (
    CenterArc,
    UniqueCenter,
    attack,
    grid_posterior,
    recover_center,
    rr_log_posterior,
    tb_log_posterior,
)
from privregion.strategies import (
    ExitObservationSet,
    RandomRadius,
    TwoBalls,
    calibrate_random_radius,
    generate_observations,
)

EXTRA_SETTINGS = tuple(
    TwoBalls(r, R, BetaParams(a, b)) for r, R, a, b in ((2.0, 3.0, 2.0, 0.3), (1.0, 5.0, 4.0, 0.5), (2.9, 3.0, 4.0, 0.5))
)
ORIGIN = Point(0.0, 0.0)


def polar_reference(obs, c, N=256):
    """(log mass, mean, cov) on B(c, r) by the N x 2N rule, from the
    pointwise log-posterior with the Beta weight divided out."""
    spec = obs.strategy
    r, a, b = spec.r, spec.beta.alpha, spec.beta.beta
    x, w = roots_jacobi(N, b - 1.0, a - 1.0)
    u = 0.5 * (1.0 + x)
    phi = math.pi * np.arange(2 * N) / N
    ring = np.column_stack([np.cos(phi), np.sin(phi)])
    pts = (c + (r * np.sqrt(u))[:, None, None] * ring).reshape(-1, 2)
    logw = tb_log_posterior(pts, c, obs).reshape(N, 2 * N)
    logw += (np.log(w) - (a - 1.0) * np.log(u) - (b - 1.0) * np.log1p(-u))[:, None]
    peak = logw.max()
    wts = np.exp(logw - peak).ravel()
    total = wts.sum()
    wts /= total
    mean = wts @ pts
    d = pts - mean
    return peak + math.log(total), mean, (d.T * wts) @ d


def reference_mse(obs, theta):
    spec = obs.strategy
    est = recover_center(obs.positions, spec.R)
    if isinstance(est, CenterArc):
        R = spec.R
        one = ExitObservationSet(spec, [[-R, 0.0]], [[0.0, 0.0]], [R], [R * R])
        _, m, cov = polar_reference(one, np.zeros(2))
        return float(((est.base.as_array() - theta) ** 2).sum() + (m[0] + R) ** 2 + m[1] ** 2 + np.trace(cov))
    centers = (est.center,) if isinstance(est, UniqueCenter) else (est.plus, est.minus)
    parts = [polar_reference(obs, cpt.as_array()) for cpt in centers]
    lm = np.array([p[0] for p in parts])
    wts = np.exp(lm - lm.max())
    wts /= wts.sum()
    mean = sum(w * p[1] for w, p in zip(wts, parts))
    var = sum(w * (np.trace(p[2]) + ((p[1] - mean) ** 2).sum()) for w, p in zip(wts, parts))
    return float(((mean - theta) ** 2).sum() + var)


def square_grid(z, c, r, R, a, b):
    """The two-balls attack before the polar rule: the midpoint grid on the
    support square, refined as the fallback still is."""
    square = (c[0] - r, c[0] + r, c[1] - r, c[1] + r)
    return inference._integrate(inference._tb_target(z, c, r, R, a, b), square, square)


def old_attack(obs):
    """Posterior MSE of the two-balls attack before the polar rule: the
    midpoint grid on the support square, and at n = 1 (before the closed
    form) that grid over the offset q from the unknown center, with
    E|theta - z1|^2 = E|(R, 0) + q|^2."""
    spec = obs.strategy
    if len(obs) == 1:
        R = spec.R
        gp, _ = square_grid(np.array([[-R, 0.0]]), np.zeros(2), spec.r, R, spec.beta.alpha, spec.beta.beta)
        bias2 = float(((obs.positions[0] - ORIGIN.as_array()) ** 2).sum())
        return bias2 + float((gp.mean[0] + R) ** 2 + gp.mean[1] ** 2 + np.trace(gp.cov))
    real = inference._tb_disk
    inference._tb_disk = square_grid
    try:
        return attack(obs, ORIGIN, None).posterior_mse
    finally:
        inference._tb_disk = real


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


def two_balls_rows(settings, sizes, reps, calls, seed):
    theta = ORIGIN.as_array()
    print("| setting | n | rule (N) | gap | err new | err old | ms new | ms old |")
    print("|---|---|---|---|---|---|---|---|")
    for k, spec in enumerate(settings):
        for n in sizes:
            rules, gaps, err_new, err_old, t_new, t_old = set(), [], [], [], [], []
            for rep in range(reps):
                obs = generate_observations(ORIGIN, spec, n, derive_rng(seed, k, n, rep))
                ref = reference_mse(obs, theta)
                try:
                    new, dt = timed(lambda: attack(obs, ORIGIN, None), calls)
                    old, dt_old = timed(lambda: old_attack(obs), calls)
                except inference.DiagnosticsFailed:
                    rules.add("DiagnosticsFailed")
                    continue
                rules.add(f"{new.rule} ({new.nodes})")
                gaps.append(new.rule_gap)
                err_new.append(abs(new.posterior_mse - ref) / ref)
                err_old.append(abs(old - ref) / ref)
                t_new.append(dt)
                t_old.append(dt_old)
            if not gaps:
                print(f"| {setting_tag(spec)} | {n} | {', '.join(sorted(rules))} | | | | | |")
                continue
            print(
                f"| {setting_tag(spec)} | {n} | {', '.join(sorted(rules))} | {max(gaps):.1e} | "
                f"{max(err_new):.1e} | {max(err_old):.1e} | {1e3 * statistics.median(t_new):.2f} | "
                f"{1e3 * statistics.median(t_old):.2f} |"
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
    ap.add_argument("--replicates", type=int, default=3)
    ap.add_argument("--sizes", type=int, nargs="+", default=[1, 2, 3, 50, 200, 1600])
    ap.add_argument("--calls", type=int, default=3, help="calls per attack; the fastest is kept")
    ap.add_argument("--seed", type=int, default=20261018)
    ap.add_argument("--skip-extra", action="store_true", help="only the six study settings")
    args = ap.parse_args()
    settings = TABLE1_SETTINGS + (() if args.skip_extra else EXTRA_SETTINGS)
    print("two-balls: polar rule against a 256 x 512 polar reference\n")
    two_balls_rows(settings, args.sizes, args.replicates, args.calls, args.seed)
    print("\nrandom-radius: Gauss-Hermite rule against a 256^2 grid on mode +- 8 sd\n")
    random_radius_rows(TABLE1_SETTINGS, [n for n in args.sizes if n >= 40] or [50], args.replicates, args.calls, args.seed)


if __name__ == "__main__":
    main()
