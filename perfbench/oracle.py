"""Exact posterior MSE by grid quadrature, written apart from privregion.

This module imports numpy only. Given the exits an attack saw and the
strategy parameters the attacker knows, it integrates the exact posterior
of the home location on a midpoint grid and returns E_post |x - theta|^2,
the number the program's `posterior_mse` estimates by Metropolis sampling.

* two-balls: the shared center c is fitted from the exits (algebraic circle
  fit; the exits lie exactly on |z - c| = R). The home lies in |x - c| < r
  with prior density proportional to u^(a-1) (1-u)^(b-1), u = |x - c|^2/r^2,
  and each exit adds the Poisson kernel (R^2 - |x - c|^2) / |z_i - x|^2.
* random-radius: improper uniform prior; each exit adds the Gamma(a, rate b)
  log-density of s_i = |z_i - x|^2, i.e. (a-1) log s_i - b s_i.

Both grids run in two passes: a coarse grid finds where the mass is, and a
fine grid on mean +- 8 sd integrates it. The fine grid's edge mass (share of
mass in its outermost ring of cells, wherever the window is not clipped by a
hard support edge) says whether the window held the posterior.
"""

from __future__ import annotations

import numpy as np

COARSE = 48
FINE = 64
WINDOW_SD = 8.0


def circle_center(z: np.ndarray) -> tuple[np.ndarray, float]:
    """Algebraic (Kasa) circle fit: (center, fitted radius)."""
    a = np.column_stack([2.0 * z[:, 0], 2.0 * z[:, 1], np.ones(len(z))])
    sol = np.linalg.lstsq(a, (z**2).sum(axis=1), rcond=None)[0]
    c = sol[:2]
    return c, float(np.sqrt(sol[2] + c @ c))


def _grid(x0, x1, y0, y1, m):
    hx, hy = (x1 - x0) / m, (y1 - y0) / m
    xs = x0 + hx * (np.arange(m) + 0.5)
    ys = y0 + hy * (np.arange(m) + 0.5)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _moments(pts, logp, m, theta, open_sides):
    """Normalized mean, sd, E|x - theta|^2 and edge mass of one grid pass."""
    ok = np.isfinite(logp)
    if not ok.any():
        raise ValueError("posterior is zero on the whole window")
    w = np.zeros(len(logp))
    w[ok] = np.exp(logp[ok] - logp[ok].max())
    w /= w.sum()
    mean = w @ pts
    sd = np.sqrt(w @ ((pts - mean) ** 2))
    mse = float(w @ ((pts - theta) ** 2).sum(axis=1))
    ring = np.zeros((m, m), dtype=bool)
    i0, i1, j0, j1 = open_sides
    if i0:
        ring[0, :] = True
    if i1:
        ring[-1, :] = True
    if j0:
        ring[:, 0] = True
    if j1:
        ring[:, -1] = True
    return mean, sd, mse, float(w[ring.ravel()].sum())


def _two_pass(logpost, box, box_open, theta, scale):
    """Coarse pass on `box`, fine pass on mean +- WINDOW_SD sd clipped to `box`.

    `box_open` flags the sides of `box` that are not a hard support edge.
    `scale` floors the sd used for the window so that a coarse pass whose
    mass sits in one cell still gets a window several cells wide. The edge
    mass returned is the larger of the two passes'.
    """
    x0, x1, y0, y1 = box
    pts = _grid(x0, x1, y0, y1, COARSE)
    mean, sd, _, coarse_edge = _moments(pts, logpost(pts), COARSE, theta, box_open)
    half = WINDOW_SD * np.maximum(sd, scale)
    win = (
        max(x0, mean[0] - half[0]),
        min(x1, mean[0] + half[0]),
        max(y0, mean[1] - half[1]),
        min(y1, mean[1] + half[1]),
    )
    open_sides = tuple(
        o or inner for o, inner in zip(box_open, (win[0] > x0, win[1] < x1, win[2] > y0, win[3] < y1))
    )
    pts = _grid(*win, FINE)
    _, _, mse, edge = _moments(pts, logpost(pts), FINE, theta, open_sides)
    return mse, max(edge, coarse_edge)


def _sum_log_sep2(pts, z):
    out = np.zeros(len(pts))
    for lo in range(0, len(pts), 4096):
        p = pts[lo : lo + 4096]
        out[lo : lo + 4096] = np.log(((p[:, None, :] - z[None, :, :]) ** 2).sum(axis=2)).sum(axis=1)
    return out


def two_balls_mse(z, theta, r, R, a, b):
    """(posterior MSE, edge mass, center-fit radius error) under two-balls."""
    z = np.asarray(z, dtype=float)
    c, fitted_R = circle_center(z)

    def logpost(pts):
        u = ((pts - c) ** 2).sum(axis=1) / (r * r)
        out = np.full(len(pts), -np.inf)
        inside = u < 1.0
        ui = u[inside]
        out[inside] = (
            (a - 1.0) * np.log(ui)
            + (b - 1.0) * np.log1p(-ui)
            + len(z) * np.log(R * R - r * r * ui)
            - _sum_log_sep2(pts[inside], z)
        )
        return out

    box = (c[0] - r, c[0] + r, c[1] - r, c[1] + r)
    mse, edge = _two_pass(
        logpost, box, (False,) * 4, np.asarray(theta, float), 2.0 * r / COARSE
    )
    return mse, edge, abs(fitted_R - R) / R


def random_radius_mse(z, theta, a, b):
    """(posterior MSE, edge mass) under random-radius with Gamma(a, rate b)."""
    z = np.asarray(z, dtype=float)
    mid = z.mean(axis=0)
    # Exits scatter about the home with per-axis variance E r^2 / 2 = a / (2b);
    # the posterior is no wider than their centroid's spread, sqrt(a / (2 b n)).
    half = 12.0 * np.sqrt(a / (2.0 * b * len(z)))

    def logpost(pts):
        out = np.zeros(len(pts))
        for lo in range(0, len(pts), 4096):
            p = pts[lo : lo + 4096]
            s = np.maximum(((p[:, None, :] - z[None, :, :]) ** 2).sum(axis=2), 1e-300)
            out[lo : lo + 4096] = ((a - 1.0) * np.log(s) - b * s).sum(axis=1)
        return out

    box = (mid[0] - half, mid[0] + half, mid[1] - half, mid[1] + half)
    return _two_pass(logpost, box, (True,) * 4, np.asarray(theta, float), 2.0 * half / COARSE)
