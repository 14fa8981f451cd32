"""Bayesian attacks that recover a home location from exit observations.

The attacker sees exit points and knows the strategy parameters. Each
strategy yields a tractable unnormalized posterior:

* random-radius: a uniform improper prior on theta times the Gamma
  densities of the squared exit distances (with a 1/pi planar change of
  variables);
* two-balls: the Beta placement prior, under which the normalized squared
  offset ||theta - c||^2/r^2 of theta from the shared center c follows
  Beta(alpha, beta), times the product of disk exit densities; c itself is
  pinned down by the exits: exactly for three or more, up to a mirrored
  pair of candidates for two, whose posteriors mix by their masses.

Both likelihoods hold the exit term sum_i log|z_i - theta|^2, and both
evaluate it through one local expansion of the 2-D log potential
(`_sep_expansion`): about c with reach r for two-balls, and for
random-radius about the center of its window (the box around the Laplace
rule's nodes, or the fallback box) with a reach to the window's corners;
points a refinement pads past them take the direct sum. Exits far from
the expansion point enter through coefficients computed once, so a node
costs a few dozen terms plus the near exits, whatever the exit count; on
the two-balls polar rule those terms are one matrix product. The rest of
the random-radius likelihood, sum_i |z_i - theta|^2, is a quadratic in
theta.

A single exit has a closed-form posterior mean and variance for every
strategy (`attack`). On two or more exits every attack integrates its
posterior with a deterministic quadrature rule, checked against the rule
of half its size (`_rule_gap`, reported as `AttackReport.rule_gap`):

* two-balls: a polar product rule on the support disk B(c, r),
  Gauss-Jacobi nodes in u = |theta - c|^2/r^2 that carry the Beta
  placement prior exactly, times equispaced angles. It holds the support
  exactly, so nothing is truncated, and an attack that POLAR_CAP nodes do
  not certify fails with `DiagnosticsFailed`;
* random-radius: a Gauss-Hermite product rule about the Laplace fit (mode
  by Newton's method) when the posterior is narrow and the Gamma shape
  exceeds 1, else a midpoint grid on a Gamma-quantile box around the
  exits.

The random-radius box is a midpoint grid (`grid_posterior`, GRID_NODES
nodes per axis to start), refined when the posterior sd spans too few
cells; an attack fails with `DiagnosticsFailed` when the box truncates
visible mass. The attacks take no options: every rule size is a constant
of this module.
Fixed-radius regions need no integration at all: every region is centered
on theta with the known radius, so theta is the circle center that
`recover_center` finds, one point for three or more exits and two equally
likely points for two.

`rwm_sample`, `split_r_hat`, `effective_sample_size` and `posterior_mse`
(adaptive Metropolis and its diagnostics) are reached by no runner, CLI
command or demo; they stay only because the benchmark's tracer
(`perfbench/tracer.py`) looks them up by name.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import Point, as_xy, betaln, fit_circle_center, gammainccinv, hermegauss, jacobi_rule
from .strategies import ExitObservationSet, FixedRadius, RandomRadius, TwoBalls, sp_mean

__all__ = [
    "NonFiniteInit",
    "AdaptationFailed",
    "DiagnosticsFailed",
    "InconsistentExits",
    "NoIntersection",
    "PosteriorSamples",
    "AttackReport",
    "GridPosterior",
    "recover_center",
    "rr_log_posterior",
    "tb_log_posterior",
    "rwm_sample",
    "split_r_hat",
    "effective_sample_size",
    "posterior_mse",
    "grid_posterior",
    "quadrature_window",
    "attack",
]

# Squared-distance clamp inside the random-radius likelihood. With alpha < 1
# the density diverges as theta approaches an exit; the clamp keeps the log
# finite there. Experiments all use alpha >= 2.
SQ_DIST_FLOOR = 1e-12

# A circle fit through >= 3 exits must be this good, relative to R, before
# the center is trusted; in the exact model the residual is float noise.
CENTER_FIT_RTOL = 1e-6

# Largest number of (point, exit) pairs the direct sum of _sep_expansion
# holds at once: it takes its points in blocks of PAIR_BUDGET // exits, so
# a log-target's memory does not grow with the exit count, and callers pass
# it any number of points. At 2^14 pairs (128 KB per float array) the
# block's four temporaries stay in a 1 MB L2 cache, 2.6 ns per pair in a
# random-radius target at 1600 exits on a 2-core AMD EPYC, against 6.1 ns
# at 2^15 and 6.2 ns at 2^17.
PAIR_BUDGET = 2**14
# glibc's malloc returns freed heap to the system once 128 KB lie free, until it frees a
# block it had mapped, then keeps twice that. One 4 MB array mapped and freed here keeps
# these blocks' pages mapped: 4 minor faults per table1 attack, against 19 without it.
np.empty(2**19)

# The local expansion keeps K terms, x^K <= SERIES_TOL at the largest ratio
# x of the reach to a far exit's distance: below the rounding of any float
# it is added to.
SERIES_TOL = 1e-17

# Gauss rules. A rule of N nodes per axis is checked against the rule of
# N/2 (`_rule_gap`): their gap is the error of the half-size rule, and the
# N rule is accepted when the gap is at most RULE_RTOL. Both rules converge
# geometrically, so the accepted rule's own error is far below the gap: at
# most 1.1e-11 relative in every case `tools/rule_table.py` measures.
RULE_RTOL = 1e-6

# Two-balls polar rule on B(c, r): POLAR_START Gauss-Jacobi nodes in u, and
# twice as many angles, doubled while the gap exceeds RULE_RTOL, up to
# POLAR_CAP. Posteriors concentrated far from c, at large n or with exits
# near the support, need the larger rules; one that POLAR_CAP nodes do not
# certify raises DiagnosticsFailed.
POLAR_START = 32
POLAR_CAP = 512

# Random-radius Laplace fits take a HERMITE_NODES^2 Gauss-Hermite rule.
HERMITE_NODES = 16

# Midpoint grid of the random-radius box: GRID_NODES nodes per axis to
# start. Over the matched Gammas of the six study settings, its largest
# relative MSE error at n = 1 to 20 is 1.1e-8 at 64 nodes, 6.7e-6 at 48 and
# 6.4e-5 at 32 (against 600^2 grids). A grid is refined when the posterior
# sd spans fewer than MIN_CELLS_PER_SD cells (the midpoint rule's error on
# a smooth peak falls like exp(-2 pi^2 (sd/cell)^2), about e^-79 at 2
# cells), at most MAX_REFINES times, onto the cells that each hold at least
# REFINE_CELL_MASS of the mass: together the others hold under 1e-10 at
# any node count used, and a minor mode far from the mean is kept.
# EDGE_MASS_MAX is the largest share of mass the outermost ring of cells
# may hold.
GRID_NODES = 64
MIN_CELLS_PER_SD = 2.0
MAX_REFINES = 3
REFINE_CELL_MASS = 1e-16
EDGE_MASS_MAX = 1e-4

# Random-radius rules. The fallback box keeps theta within the upper
# RR_TAIL quantile of one region's radius of every exit. The Laplace fit is
# used only when the Gamma shape exceeds 1 (below 1 the log-posterior is
# +inf at every exit, which no Gaussian fits; at 1 the box is exact) and the
# posterior sd is at most LAPLACE_SD_RATIO times the sd of one region's
# radius: then every exit's ring-shaped factor is close to linear across
# the peak. Wider posteriors (small n) can be ring-shaped or multimodal and
# get the fallback box.
RR_TAIL = 1e-12
LAPLACE_SD_RATIO = 0.25


class NonFiniteInit(ValueError):
    """rwm_sample was started where the log-target is not finite."""


class AdaptationFailed(RuntimeError):
    """Post-adaptation acceptance rate left the trustworthy range."""


class DiagnosticsFailed(RuntimeError):
    """A quadrature guard failed: the largest polar rule was not certified,
    the window truncated visible mass, or the posterior stayed narrower than
    the grid could resolve."""


class InconsistentExits(ValueError):
    """Exit points do not lie on any common radius-R circle."""


class NoIntersection(ValueError):
    """Two exits are farther apart than 2R, so no center fits both."""


@dataclass(frozen=True)
class PosteriorSamples:
    """Kept draws from one Metropolis run, plus convergence diagnostics.

    chains has shape (n_chains, n_keep, d); the first two coordinates are
    always the location theta. r_hat and ess are per-coordinate tuples.
    """

    chains: np.ndarray
    acceptance_rate: float
    r_hat: tuple[float, ...]
    ess: tuple[float, ...]
    step: float

    def __post_init__(self) -> None:
        chains = np.asarray(self.chains, dtype=float).copy()
        if chains.ndim != 3 or chains.shape[0] < 2 or chains.shape[1] < 4 or chains.shape[2] < 2:
            raise ValueError(f"chains must be (>=2 chains, >=4 draws, >=2 dims), got {chains.shape}")
        if not 0.0 < self.acceptance_rate < 1.0:
            raise ValueError(f"acceptance rate must lie in (0, 1), got {self.acceptance_rate}")
        d = chains.shape[2]
        if len(self.r_hat) != d or len(self.ess) != d:
            raise ValueError("r_hat and ess must have one entry per coordinate")
        chains.setflags(write=False)
        object.__setattr__(self, "chains", chains)
        object.__setattr__(self, "r_hat", tuple(float(v) for v in self.r_hat))
        object.__setattr__(self, "ess", tuple(float(v) for v in self.ess))

    def __len__(self) -> int:
        return self.chains.shape[0] * self.chains.shape[1]

    @property
    def flattened(self) -> np.ndarray:
        return self.chains.reshape(-1, self.chains.shape[2])

    @property
    def theta_draws(self) -> np.ndarray:
        return self.flattened[:, :2]


@dataclass(frozen=True)
class AttackReport:
    """Outcome of one attack: posterior location estimate and its MSE.

    rule names the rule that gave the posterior: "polar" (two-balls,
    Gauss-Jacobi in u times equispaced angles on the support disk),
    "hermite" (random-radius, Gauss-Hermite about the Laplace fit),
    "midpoint" (the random-radius box grid) or "none" (exact: fixed-radius
    recovery, and one exit under any strategy).
    rule_gap is the gap of the accepted Gauss rule to its half-size rule
    (`_rule_gap`), of their mixtures at a two-balls pair of candidate
    centers. The box grid reports 0, meaning "not measured", not "exact".
    edge_mass is the share of posterior mass in the box grid's outermost
    ring of cells (0 for every Gauss rule). grids counts the rules
    evaluated: the half-size check and every doubling of a Gauss rule, one
    per candidate center per size, and every midpoint grid, the Gauss rules
    before the box included. nodes is the most nodes per axis of a rule
    that gave the posterior: Gauss nodes in u for the polar rule, which has
    twice as many angles.
    """

    posterior_mean: Point
    posterior_mse: float
    bias2: float
    variance: float
    edge_mass: float
    rule_gap: float = field(default=0.0, kw_only=True)
    rule: str = field(default="", kw_only=True)
    grids: int
    nodes: int
    wall_time: float

    def __post_init__(self) -> None:
        vals = (self.posterior_mse, self.bias2, self.variance, self.edge_mass, self.rule_gap, self.wall_time)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"report fields must be finite, got {vals}")
        if self.posterior_mse < 0.0 or self.bias2 < 0.0 or self.variance < 0.0:
            raise ValueError("mse, bias2 and variance must be >= 0")
        if not 0.0 <= self.edge_mass <= 1.0 or self.rule_gap < 0.0 or self.grids < 0 or self.nodes < 0:
            raise ValueError(
                f"need edge mass in [0, 1] and rule gap, grids, nodes >= 0, got "
                f"{self.edge_mass}, {self.rule_gap}, {self.grids}, {self.nodes}"
            )
        gap = abs(self.posterior_mse - (self.bias2 + self.variance))
        if gap > 1e-9 * max(self.posterior_mse, 1e-12):
            raise ValueError(f"mse != bias2 + variance (gap {gap:g})")


def recover_center(positions: np.ndarray, R: float) -> np.ndarray:
    """The candidate centers of a radius-R circle through (n, 2) exits, as
    a (k, 2) array.

    Three or more exits determine it: one row (circle fit, residual checked
    against CENTER_FIT_RTOL * R). Two exits leave two rows, the candidates
    mirrored across the line through them. One exit leaves a whole circle
    of candidates, which is a ValueError.
    """
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (n, 2) exit positions, got shape {pts.shape}")
    n = len(pts)
    if n >= 3:
        center, rms = fit_circle_center(pts, R)
        if rms > CENTER_FIT_RTOL * R:
            raise InconsistentExits(f"circle-fit rms {rms:g} exceeds {CENTER_FIT_RTOL * R:g}")
        return np.array([[center.x, center.y]])
    if n < 2:
        raise ValueError(f"need two or more exits for finitely many candidate centers, got {n}")
    d = float(np.hypot(*(pts[1] - pts[0])))
    if d > 2.0 * R:
        raise NoIntersection(f"exits {d:g} apart cannot share a radius-{R:g} circle")
    if d == 0.0:
        raise InconsistentExits("coincident exits; use the single-exit form")
    mid = 0.5 * (pts[0] + pts[1])
    u = (pts[1] - pts[0]) / d
    q = math.sqrt(max(R * R - 0.25 * d * d, 0.0))
    normal = np.array([-u[1], u[0]])
    return np.array([mid + q * normal, mid - q * normal])


def _theta_batch(theta) -> tuple[np.ndarray, bool]:
    """Coerce a Point / pair / (m,2) array to (m,2); flag if input was single."""
    if isinstance(theta, Point):
        return theta.as_array()[None, :], True
    arr = np.asarray(theta, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def _series_terms(d2: np.ndarray, rho: float) -> tuple[np.ndarray, int]:
    """(far, K): the exits, at squared distances d2 from the expansion
    point, that the local expansion for reach rho takes, and its terms.

    Exits at least 2 rho away are far; K makes x^K <= SERIES_TOL at the
    largest ratio x = rho/|u_i| <= 1/2. No exit is far when K is not below
    their count, where their direct sum is cheaper.
    """
    far = (d2 >= 4.0 * rho * rho) & (d2 > 0.0)
    if far.any():
        x = rho / math.sqrt(float(d2[far].min()))
        K = 1 if x == 0.0 else max(1, math.ceil(math.log(SERIES_TOL) / math.log(x)))
        if K < far.sum():
            return far, K
    return np.zeros(len(d2), dtype=bool), 0


def _turns(n: int) -> np.ndarray:
    """exp(2 pi i l / n) for l = 0, ..., n - 1."""
    return np.exp(2j * math.pi * np.arange(n) / n)


@functools.lru_cache(maxsize=64)
def _fourier_rows(K: int, n: int) -> np.ndarray:
    """[cos k phi_l; -sin k phi_l] for k = 1, ..., K and phi_l = 2 pi l / n,
    a (2K, n) array read from one table of turns at k l mod n."""
    turn = _turns(n)[np.outer(np.arange(1, K + 1), np.arange(n)) % n]
    rows = np.vstack([turn.real, -turn.imag])
    rows.setflags(write=False)
    return rows


def _power_rows(v: np.ndarray, rows: int) -> np.ndarray:
    """(rows, len(v)) array of v^0, ..., v^(rows - 1). Rows m to 2m - 1 are
    rows 0 to m - 1 times v^m, so it takes about log2(rows) array products
    in place of one per row."""
    out = np.empty((rows, len(v)), dtype=complex)
    out[0] = 1.0
    m = 1
    while m < rows:
        step = min(m, rows - m)
        np.multiply(out[:step], out[m - 1] * v, out=out[m : m + step])
        m += step
    return out


def _power_sums(v: np.ndarray, K: int) -> np.ndarray:
    """S_k = sum_i v_i^k / k for k = aJ + b + 1 at entry (a, b) of a
    (ceil(K/J), J) table, J = ceil(sqrt(K)): one complex matrix product of
    the powers v^(aJ + 1) by the powers v^b. Its first K entries in row
    order are S_1, ..., S_K; the few past them are further terms."""
    J = math.isqrt(K - 1) + 1
    low = _power_rows(v, J)
    high = _power_rows(low[-1] * v, -(-K // J))
    high *= v
    table = high @ low.T
    return table / np.arange(1, table.size + 1).reshape(table.shape)


def _sep_expansion(z: np.ndarray, m: np.ndarray, rho: float):
    """sep(pts) = sum_i log|z_i - theta|^2 for theta in the disk
    |theta - m| <= rho.

    In complex numbers, with u_i = z_i - m and w = theta - m,
    log|z_i - theta|^2 = log|u_i|^2 - 2 Re sum_k (w/u_i)^k / k: the local
    expansion of the 2-D log potential about m (Greengard and Rokhlin,
    1987), which two-balls knows as the Poisson kernel's Fourier series
    about its center. Far exits (`_series_terms`) go through it: with s the
    smallest far |u_i|, the coefficients S_k = sum_i (s/u_i)^k / k are
    computed once and each theta costs K terms whatever the exit count; the
    truncation error, below n x^(K+1) / (1 - x), is under float rounding.
    Near exits go through the direct sum, their squared distances clamped
    at SQ_DIST_FLOOR, and so does every exit for a point outside the disk,
    where the series is not built to hold.

    Neither the coefficients nor the series take a Python loop over the K
    terms. Both split k = aJ + b + 1 into baby steps b < J = ceil(sqrt(K))
    and giant steps a (Paterson and Stockmeyer, SIAM J. Comput. 2, 1973),
    each a table of powers (`_power_rows`): the coefficients are one
    complex matrix product over the exits (`_power_sums`), and the series
    at a point is sum_a (w/s)^(aJ + 1) sum_b S_(aJ+b+1) (w/s)^b, the inner
    sums again one matrix product, taking the last row's few terms past K.

    sep takes any number of points: its direct sums run over blocks of at
    most PAIR_BUDGET (point, exit) pairs, its series over blocks of at most
    PAIR_BUDGET (point, power) pairs, so its memory does not grow with the
    exit count.

    sep.polar(radii, n_angles) evaluates sep on the polar grid
    m + radii_j (cos phi_l, sin phi_l), phi_l = 2 pi l / n_angles, radii at
    most rho, as a (radii, angles) array. There the far exits' series is
    one real matrix product, [Re, Im](S_k (rho_j/s)^k) @ [cos k phi; -sin k phi]
    (`_fourier_rows`).
    """
    mx, my = float(m[0]), float(m[1])

    def direct(pts: np.ndarray, zs: np.ndarray) -> np.ndarray:
        out = np.empty(len(pts))
        block = max(1, PAIR_BUDGET // max(1, len(zs)))
        for lo in range(0, len(pts), block):
            dx = pts[lo : lo + block, 0:1] - zs[:, 0]
            dy = pts[lo : lo + block, 1:2] - zs[:, 1]
            s = dx * dx
            s += dy * dy
            np.maximum(s, SQ_DIST_FLOOR, out=s)
            out[lo : lo + block] = np.log(s).sum(axis=1)
        return out

    def polar_points(radii: np.ndarray, n_angles: int) -> np.ndarray:
        turn = _turns(n_angles)
        xs = mx + np.outer(radii, turn.real)
        ys = my + np.outer(radii, turn.imag)
        return np.column_stack([xs.ravel(), ys.ravel()])

    ux = z[:, 0] - mx
    uy = z[:, 1] - my
    d2 = ux * ux + uy * uy
    far, K = _series_terms(d2, rho)
    near = z[~far]  # every exit when K = 0: no series, only the direct sum
    if K:
        const = float(np.log(d2[far]).sum())
        scale = math.sqrt(float(d2[far].min()))
        table = _power_sums(scale / (ux[far] + 1j * uy[far]), K)
        giant, J = table.shape
        coef = table.ravel()[:K]

    def series(w: np.ndarray) -> np.ndarray:
        """Re sum_k S_k w^k for w = (theta - m)/s."""
        out = np.empty(len(w))
        block = max(1, PAIR_BUDGET // J)
        for lo in range(0, len(w), block):
            wb = w[lo : lo + block]
            low = _power_rows(wb, J)
            inner = table @ low
            inner *= _power_rows(low[-1] * wb, giant)
            out[lo : lo + block] = (inner.sum(axis=0) * wb).real
        return out

    def sep(pts: np.ndarray) -> np.ndarray:
        if not K:
            return direct(pts, near)
        wx = pts[:, 0] - mx
        wy = pts[:, 1] - my
        r2 = wx * wx
        r2 += wy * wy
        if len(pts) and r2.max() > rho * rho:
            inside = r2 <= rho * rho
            out = np.empty(len(pts))
            out[~inside] = direct(pts[~inside], z)
            out[inside] = sep(pts[inside])
            return out
        total = const - 2.0 * series((wx + 1j * wy) / scale)
        if len(near):
            total += direct(pts, near)
        return total

    def polar(radii: np.ndarray, n_angles: int) -> np.ndarray:
        if not K:
            return direct(polar_points(radii, n_angles), near).reshape(len(radii), n_angles)
        a = coef * (radii[:, None] / scale) ** np.arange(1, K + 1)
        total = const - 2.0 * (np.hstack([a.real, a.imag]) @ _fourier_rows(K, n_angles))
        if len(near):
            total += direct(polar_points(radii, n_angles), near).reshape(total.shape)
        return total

    sep.polar = polar
    return sep


def _rr_target(z: np.ndarray, alpha: float, beta: float, window):
    """Log target of random-radius on the window (x0, x1, y0, y1).

    log f_Gamma(s_i) - log pi summed over exits, s_i = |z_i - theta|^2: the
    log terms go through _sep_expansion about the window's center m, with a
    reach to its corners, and sum_i s_i, with u_i = z_i - m and
    w = theta - m, is n |w|^2 - 2 w . sum_i u_i + sum_i |u_i|^2.
    """
    x0, x1, y0, y1 = window
    m = np.array([0.5 * (x0 + x1), 0.5 * (y0 + y1)])
    n = len(z)
    sep = _sep_expansion(z, m, 0.5 * math.hypot(x1 - x0, y1 - y0))
    u = z - m
    slope = 2.0 * beta * u.sum(axis=0)
    const = n * (alpha * math.log(beta) - math.lgamma(alpha) - math.log(math.pi))
    const -= beta * float((u * u).sum())

    def target(pts: np.ndarray) -> np.ndarray:
        w = pts - m
        return const + (alpha - 1.0) * sep(pts) - (w * (beta * n * w - slope)).sum(axis=1)

    return target


def rr_log_posterior(theta, obs: ExitObservationSet):
    """Unnormalized log-posterior of theta under the random-radius model.

    Each exit contributes log f_Gamma(||z_i - theta||^2) - log pi; the prior
    is improper uniform. Accepts a single location or an (m, 2) batch.
    """
    spec = obs.strategy
    if not isinstance(spec, RandomRadius):
        raise TypeError(f"observations carry {type(spec).__name__}, not RandomRadius")
    pts, single = _theta_batch(theta)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    window = (lo[0], hi[0], lo[1], hi[1])
    out = _rr_target(obs.positions, spec.gamma.alpha, spec.gamma.beta, window)(pts)
    return float(out[0]) if single else out


def tb_log_posterior(theta, c, obs: ExitObservationSet):
    """Unnormalized log-posterior of theta under two-balls with center c known.

    Support is the open disk ||theta - c|| < r (the prior on the center
    placement, inverted); outside it the value is -inf. The exit term is
    _sep_expansion about c with reach r: every exit lies R > r from c, and
    is far when R >= 2r, as in every study setting. Accepts a single
    location or an (m, 2) batch.
    """
    spec = obs.strategy
    if not isinstance(spec, TwoBalls):
        raise TypeError(f"observations carry {type(spec).__name__}, not TwoBalls")
    pts, single = _theta_batch(theta)
    z, c = obs.positions, as_xy(c)
    r, R, alpha, beta = spec.r, spec.R, spec.beta.alpha, spec.beta.beta
    n = len(z)
    t2 = ((pts - c) ** 2).sum(axis=1)
    out = np.full(len(pts), -np.inf)
    inside = t2 < r * r
    if inside.any():
        t2i = t2[inside]
        u = np.clip(t2i / (r * r), 1e-15, 1.0 - 1e-15)
        out[inside] = (
            -betaln(alpha, beta)
            - math.log(math.pi * r * r)
            - n * math.log(2.0 * math.pi * R)
            + (alpha - 1.0) * np.log(u)
            + (beta - 1.0) * np.log1p(-u)
            + n * np.log(R * R - t2i)
            - _sep_expansion(z, c, r)(pts[inside])
        )
    return float(out[0]) if single else out


def _wrap_periodic(arr: np.ndarray, periodic: dict[int, float] | None) -> None:
    if periodic:
        for dim, period in periodic.items():
            arr[:, dim] %= period


def rwm_sample(
    log_target,
    init,
    rng: np.random.Generator,
    *,
    n_chains: int = 4,
    n_burn: int = 1000,
    n_keep: int = 1000,
    target_accept: float = 0.234,
    initial_step: float = 1.0,
    periodic: dict[int, float] | None = None,
) -> PosteriorSamples:
    """Adaptive random-walk Metropolis with isotropic Gaussian proposals.

    log_target must accept an (m, d) batch of states and return (m,) log
    densities (finite or -inf). All chains advance in lockstep so each
    iteration costs one batched target evaluation. During burn-in the step
    size follows a Robbins-Monro recursion toward `target_accept` and is
    then frozen; kept draws feed split-R-hat and ESS diagnostics.

    `periodic` maps coordinate index -> period for angle-like coordinates,
    which are wrapped into [0, period) after every proposal. Diagnostics on
    a wrapped coordinate are not meaningful when its posterior straddles
    the cut; position coordinates come first, so gates read r_hat[:2].
    """
    start = np.asarray(init, dtype=float).ravel()
    d = start.size
    if d < 2:
        raise ValueError(f"need at least 2 coordinates, got {d}")
    if n_chains < 2 or n_keep < 4 or n_burn < 1:
        raise ValueError("need >= 2 chains, >= 1 burn step, >= 4 kept draws")
    if not (math.isfinite(initial_step) and initial_step > 0.0):
        raise ValueError(f"initial_step must be finite and > 0, got {initial_step}")
    lp0 = float(np.asarray(log_target(start[None, :]))[0])
    if not math.isfinite(lp0):
        raise NonFiniteInit(f"log target is {lp0} at the initial point {start}")

    # Spread the chains around init, shrinking the jitter until every
    # start lands in the support; stragglers fall back to init itself.
    x = np.tile(start, (n_chains, 1))
    lp = np.full(n_chains, lp0)
    pending = np.ones(n_chains, dtype=bool)
    jitter = initial_step
    for _ in range(40):
        if not pending.any():
            break
        cand = start + jitter * rng.standard_normal((n_chains, d))
        _wrap_periodic(cand, periodic)
        clp = np.asarray(log_target(cand))
        take = pending & np.isfinite(clp)
        x[take] = cand[take]
        lp[take] = clp[take]
        pending &= ~take
        jitter *= 0.5

    log_step = math.log(initial_step)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(1, n_burn + 1):
            prop = x + math.exp(log_step) * rng.standard_normal((n_chains, d))
            _wrap_periodic(prop, periodic)
            plp = np.asarray(log_target(prop))
            accept = np.log(rng.random(n_chains)) < plp - lp
            x = np.where(accept[:, None], prop, x)
            lp = np.where(accept, plp, lp)
            log_step += (float(accept.mean()) - target_accept) / t**0.6

        step = math.exp(log_step)
        chains = np.empty((n_chains, n_keep, d))
        accepted = 0
        for t in range(n_keep):
            prop = x + step * rng.standard_normal((n_chains, d))
            _wrap_periodic(prop, periodic)
            plp = np.asarray(log_target(prop))
            accept = np.log(rng.random(n_chains)) < plp - lp
            x = np.where(accept[:, None], prop, x)
            lp = np.where(accept, plp, lp)
            accepted += int(accept.sum())
            chains[:, t, :] = x

    rate = accepted / (n_chains * n_keep)
    if not 0.05 < rate < 0.95:
        raise AdaptationFailed(
            f"acceptance rate {rate:.3f} outside (0.05, 0.95) after adaptation"
        )
    return PosteriorSamples(
        chains,
        rate,
        tuple(split_r_hat(chains)),
        tuple(effective_sample_size(chains)),
        step,
    )


def _split_chains(chains: np.ndarray) -> np.ndarray:
    """(k, n, d) -> (2k, n//2, d), discarding the odd draw if n is odd."""
    c = np.asarray(chains, dtype=float)
    if c.ndim != 3:
        raise ValueError(f"chains must be (n_chains, n_draws, d), got shape {c.shape}")
    half = c.shape[1] // 2
    if half < 2:
        raise ValueError("need at least 4 draws per chain")
    return np.concatenate([c[:, :half, :], c[:, half : 2 * half, :]], axis=0)


def split_r_hat(chains) -> np.ndarray:
    """Split-chain potential scale reduction factor, one value per coordinate."""
    seqs = _split_chains(chains)
    n = seqs.shape[1]
    means = seqs.mean(axis=1)
    w = seqs.var(axis=1, ddof=1).mean(axis=0)
    var_plus = w * (n - 1) / n + means.var(axis=0, ddof=1)
    out = np.ones(seqs.shape[2])
    pos = w > 0.0
    out[pos] = np.sqrt(var_plus[pos] / w[pos])
    return out


def _autocov(seqs: np.ndarray) -> np.ndarray:
    """Per-row biased autocovariance of (m, n) sequences, via FFT."""
    m, n = seqs.shape
    x = seqs - seqs.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size, axis=1)
    return np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n] / n


def _ess_1d(seqs: np.ndarray) -> float:
    m, n = seqs.shape
    cap = float(m * n)
    acov = _autocov(seqs)
    w = float((acov[:, 0] * n / (n - 1.0)).mean())
    var_plus = w * (n - 1.0) / n + float(seqs.mean(axis=1).var(ddof=1))
    if w <= 0.0 or var_plus <= 0.0:
        return cap
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    # Geyer: sum autocorrelations in pairs, keep the initial positive
    # monotone stretch, stop at the first nonpositive pair.
    npairs = n // 2
    pairs = rho[0 : 2 * npairs : 2] + rho[1 : 2 * npairs : 2]
    neg = np.nonzero(pairs <= 0.0)[0]
    pairs = pairs[: neg[0]] if len(neg) else pairs
    if len(pairs) == 0:
        return cap
    tau = -1.0 + 2.0 * float(np.minimum.accumulate(pairs).sum())
    if tau <= 0.0:
        return cap
    return min(cap, cap / tau)


def effective_sample_size(chains) -> np.ndarray:
    """Autocorrelation-adjusted sample size per coordinate (split chains)."""
    seqs = _split_chains(chains)
    return np.array([_ess_1d(seqs[:, :, dim]) for dim in range(seqs.shape[2])])


def posterior_mse(samples, theta_true) -> tuple[float, float, float]:
    """(mse, bias2, variance) of location draws against the true location.

    mse is the mean squared distance, bias2 the squared distance of the
    sample mean, variance the trace of the 1/N-normalized sample
    covariance, so mse = bias2 + variance up to rounding.
    """
    draws = samples.theta_draws if isinstance(samples, PosteriorSamples) else None
    if draws is None:
        draws = np.atleast_2d(np.asarray(samples, dtype=float))[:, :2]
    t = as_xy(theta_true)
    sq = ((draws - t) ** 2).sum(axis=1)
    mse = float(sq.mean())
    center = draws.mean(axis=0)
    bias2 = float(((center - t) ** 2).sum())
    variance = float(((draws - center) ** 2).sum(axis=1).mean())
    return mse, bias2, variance


@dataclass(frozen=True)
class GridPosterior:
    """Midpoint-rule quadrature of an unnormalized posterior on a window.

    log_mass is the log of the integral of exp(log target) over the
    window; mean and cov are the normalized first two moments. [i, j]
    indexes (xs[i], ys[j]).
    """

    xs: np.ndarray
    ys: np.ndarray
    log_density: np.ndarray
    log_mass: float
    mean: np.ndarray
    cov: np.ndarray

    def mse_against(self, theta_true) -> tuple[float, float, float]:
        t = as_xy(theta_true)
        bias2 = float(((self.mean - t) ** 2).sum())
        variance = _trace(self.cov)
        return bias2 + variance, bias2, variance

    def edge_mass(self) -> float:
        """Share of the mass in the outermost ring of cells: how much the
        window may have truncated."""
        w = np.exp(self.log_density - self.log_density.max())
        ring = np.ones(w.shape, dtype=bool)
        ring[1:-1, 1:-1] = False
        return float(w[ring].sum() / w.sum())

    def mass_box(self, share: float) -> tuple[float, float, float, float]:
        """Box of the cells holding at least `share` of the mass each,
        padded by one cell."""
        w = np.exp(self.log_density - self.log_density.max())
        held = w >= share * w.sum()
        ix = np.nonzero(held.any(axis=1))[0]
        iy = np.nonzero(held.any(axis=0))[0]
        hx = self.xs[1] - self.xs[0]
        hy = self.ys[1] - self.ys[0]
        return (
            float(self.xs[ix[0]] - 1.5 * hx),
            float(self.xs[ix[-1]] + 1.5 * hx),
            float(self.ys[iy[0]] - 1.5 * hy),
            float(self.ys[iy[-1]] + 1.5 * hy),
        )


def grid_posterior(log_target, window, n: int = 400) -> GridPosterior:
    """Evaluate log_target on an n x n midpoint grid and integrate.

    window is (x0, x1, y0, y1); log_target maps an (m, 2) array of points
    to m log densities and gets the whole grid in one call. The targets
    here bound their own memory (`_sep_expansion`).
    """
    x0, x1, y0, y1 = (float(v) for v in window)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"window must have positive extent, got {window}")
    dx = (x1 - x0) / n
    dy = (y1 - y0) / n
    xs = x0 + (np.arange(n) + 0.5) * dx
    ys = y0 + (np.arange(n) + 0.5) * dy
    pts = np.column_stack([np.repeat(xs, n), np.tile(ys, n)])
    logd = np.asarray(log_target(pts), dtype=float).reshape(n, n)
    peak = float(logd.max())
    if not math.isfinite(peak):
        raise ValueError("log target is -inf (or nan) everywhere on the window")
    w = np.exp(logd - peak)
    total = float(w.sum())
    wn = w / total
    px = wn.sum(axis=1)
    py = wn.sum(axis=0)
    mean = np.array([float(px @ xs), float(py @ ys)])
    dxs = xs - mean[0]
    dys = ys - mean[1]
    cxx = float(px @ dxs**2)
    cyy = float(py @ dys**2)
    cxy = float(dxs @ wn @ dys)
    return GridPosterior(
        xs=xs,
        ys=ys,
        log_density=logd,
        log_mass=peak + math.log(total) + math.log(dx * dy),
        mean=mean,
        cov=np.array([[cxx, cxy], [cxy, cyy]]),
    )


def _integrate(target, window):
    """Grid posterior of target from GRID_NODES nodes per axis, refined
    until the posterior sd spans MIN_CELLS_PER_SD cells. Each refinement
    integrates again on the cells that hold mass (GridPosterior.mass_box),
    with up to twice the nodes when that box is still too wide for the sd,
    as for a multimodal posterior.

    Returns (grid, quadrature): the midpoint rule's edge mass, the grids
    integrated and the last grid's nodes per axis. Raises DiagnosticsFailed
    when MAX_REFINES refinements do not resolve the posterior, or when the
    edge mass exceeds EDGE_MASS_MAX.
    """
    nodes = GRID_NODES
    for grids in range(1, MAX_REFINES + 2):
        gp = grid_posterior(target, window, nodes)
        cells = np.array([window[1] - window[0], window[3] - window[2]]) / nodes
        sd = np.sqrt(np.diag(gp.cov))
        if np.all(sd >= MIN_CELLS_PER_SD * cells):
            edge = gp.edge_mass()
            if not edge <= EDGE_MASS_MAX:
                raise DiagnosticsFailed(
                    f"quadrature window truncates posterior mass: edge mass {edge:.3g} "
                    f"exceeds {EDGE_MASS_MAX:g}"
                )
            return gp, _Quadrature("midpoint", 0.0, edge, grids, nodes)
        window = gp.mass_box(REFINE_CELL_MASS)
        widths = np.array([window[1] - window[0], window[3] - window[2]])
        wanted = math.ceil(MIN_CELLS_PER_SD * float((widths / np.maximum(sd, cells)).max()))
        nodes = min(max(nodes, wanted), 2 * nodes)
    raise DiagnosticsFailed(
        f"posterior sd {sd.min():.3g} spans fewer than {MIN_CELLS_PER_SD:g} cells "
        f"after {MAX_REFINES} refinements"
    )


def _reach_box(z: np.ndarray, reach: float) -> tuple[float, float, float, float]:
    """Box of the points within `reach` of every exit, or of any exit when
    no point is within reach of all of them."""
    lo = z.max(axis=0) - reach
    hi = z.min(axis=0) + reach
    if np.any(lo >= hi):
        lo, hi = z.min(axis=0) - reach, z.max(axis=0) + reach
    return (float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]))


def quadrature_window(obs: ExitObservationSet):
    """Box that holds the whole random-radius posterior, from
    attacker-visible data only: where every exit is within the upper
    RR_TAIL quantile of a region radius.
    """
    spec = obs.strategy
    if not isinstance(spec, RandomRadius):
        raise TypeError(f"no quadrature window for {type(spec).__name__}")
    return _reach_box(obs.positions, math.sqrt(_gamma_tail(spec.gamma.alpha) / spec.gamma.beta))


@functools.lru_cache(maxsize=256)
def _gamma_tail(a: float) -> float:
    """The upper RR_TAIL quantile of the Gamma(a, 1) law, once per shape."""
    return gammainccinv(a, RR_TAIL)


def _trace(cov: np.ndarray) -> float:
    """Total variance of a 2 x 2 covariance, as np.trace sums it."""
    return float(cov[0, 0] + cov[1, 1])


class _Moments(NamedTuple):
    """Log of a posterior's mass, and its normalized mean and covariance."""

    log_mass: float
    mean: np.ndarray
    cov: np.ndarray


class _Quadrature(NamedTuple):
    """How a posterior was integrated: the AttackReport fields of these names."""

    rule: str
    rule_gap: float
    edge_mass: float
    grids: int
    nodes: int


def _rule_gap(fine: _Moments, coarse: _Moments) -> float:
    """Gap of a rule to its half-size rule: the largest of the relative
    changes in mass and in total variance and the change of the mean in
    posterior sd. The MSE against any theta moves by at most twice that,
    relative."""
    var = _trace(fine.cov)
    if not var > 0.0:
        return math.inf
    return max(
        abs(math.expm1(min(coarse.log_mass - fine.log_mass, 1.0))),
        abs(_trace(coarse.cov) - var) / var,
        math.hypot(*(fine.mean - coarse.mean)) / math.sqrt(var),
    )


def _mix(parts: list[_Moments]) -> _Moments:
    """The moments of the mixture of posteriors weighted by their masses,
    by the law of total variance. One part passes through as it is."""
    if len(parts) == 1:
        return parts[0]
    lm = np.array([p.log_mass for p in parts])
    peak = float(lm.max())
    wts = np.exp(lm - peak)
    total = float(wts.sum())
    wts /= total
    mean = sum(w * p.mean for w, p in zip(wts, parts))
    cov = sum(w * (p.cov + np.outer(p.mean - mean, p.mean - mean)) for w, p in zip(wts, parts))
    return _Moments(peak + math.log(total), mean, cov)


@functools.lru_cache(maxsize=None)
def _angle_moments(n: int) -> np.ndarray:
    """(n, 6) columns 1, cos, sin, cos^2, sin^2, cos sin at phi_l = 2 pi l / n."""
    cos, sin = _turns(n).real, _turns(n).imag
    cols = np.column_stack([np.ones(n), cos, sin, cos * cos, sin * sin, cos * sin])
    cols.setflags(write=False)
    return cols


@functools.lru_cache(maxsize=256)
def _polar_nodes(N: int, r: float, R: float, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The N-node polar rule's radii r sqrt(u) on B(c, r), with
    log(R^2 - r^2 u), the log of each exit density's numerator, and the log
    Gauss-Jacobi weights of Beta(alpha, beta)."""
    u, wu = jacobi_rule(N, alpha, beta)
    out = (r * np.sqrt(u), np.log(R * R - r * r * u), np.log(wu))
    for arr in out:
        arr.setflags(write=False)
    return out


def _polar_rule(sep, n: int, c: np.ndarray, r: float, R: float, alpha: float, beta: float, N: int) -> _Moments:
    """Two-balls posterior moments on B(c, r) by the N-node polar rule.

    With theta = c + r sqrt(u) (cos phi, sin phi) the area element is
    r^2/2 du dphi, so the prior Beta(u; alpha, beta) / (pi r^2) is
    Beta(u) du dphi / (2 pi): Gauss-Jacobi nodes in u carry it exactly and
    2N equispaced angles (the trapezoid rule, geometric for a periodic
    integrand; Trefethen and Weideman, SIAM Rev. 56, 2014) the uniform
    angle. The nodes then weigh the exit likelihood alone, whose exit term
    `sep` evaluates on the polar grid. The mass is on the scale of the
    grids' (the log target's integral), so rules mix across centers.
    """
    radii, log_room, log_wu = _polar_nodes(N, r, R, alpha, beta)
    logw = (n * log_room + log_wu)[:, None] - sep.polar(radii, 2 * N)
    peak = float(logw.max())
    # per radius, the weights' sums against 1, cos, sin, cos^2, sin^2, cos sin
    sums = np.exp(logw - peak) @ _angle_moments(2 * N)
    total = float(sums[:, 0].sum())
    m1 = radii @ sums[:, 1:3] / total
    m2 = (radii * radii) @ sums[:, 3:] / total
    # moments about c: the variance's relative rounding grows like
    # (|mean - c| / sd)^2, under 300 eps wherever the rule is accepted
    cov = np.array([[m2[0], m2[2]], [m2[2], m2[1]]]) - np.outer(m1, m1)
    log_mass = peak + math.log(total) - n * math.log(2.0 * math.pi * R) - math.log(2 * N)
    return _Moments(log_mass, c + m1, cov)


def _tb_disk(z: np.ndarray, centers: np.ndarray, r: float, R: float, alpha: float, beta: float):
    """(moments, quadrature) of the two-balls posterior on the support disks
    B(c, r) of the candidate centers c, rows of `centers`: the mixture of
    one polar rule per candidate (`_mix`).

    The polar rules start at POLAR_START nodes and double until their
    mixture is within RULE_RTOL of the mixture of the half-size rules.
    Raises DiagnosticsFailed when POLAR_CAP nodes are not.
    """
    seps = [_sep_expansion(z, c, r) for c in centers]

    def rule(N: int) -> _Moments:
        return _mix([_polar_rule(sep, len(z), c, r, R, alpha, beta, N) for sep, c in zip(seps, centers)])

    N, grids = POLAR_START, len(centers)
    coarse = rule(N // 2)
    while True:
        fine = rule(N)
        grids += len(centers)
        gap = _rule_gap(fine, coarse)
        if gap <= RULE_RTOL:
            return fine, _Quadrature("polar", gap, 0.0, grids, N)
        if N >= POLAR_CAP:
            raise DiagnosticsFailed(
                f"the {N}-node polar rule is {gap:.3g} from its half-size rule, "
                f"above RULE_RTOL = {RULE_RTOL:g}"
            )
        coarse, N = fine, 2 * N


@functools.lru_cache(maxsize=None)
def _hermite_nodes(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The N/2 x N/2 and the N x N Gauss-Hermite product rules of the
    standard normal law, stacked: nodes xi, (N^2 / 4 + N^2, 2), with the N/2
    rule's first; the terms |xi|^2 / 2 and log w_i w_j of each node's
    whitened log weight, the weights of each rule summing to 1; and the row
    where the N rule starts."""
    xis, halves, logws = [], [], []
    for size in (N // 2, N):
        x, w = hermegauss(size)
        w = w / w.sum()
        xi = np.column_stack([np.repeat(x, size), np.tile(x, size)])
        xis.append(xi)
        halves.append(0.5 * (xi * xi).sum(axis=1))
        logws.append(np.log(np.outer(w, w)).ravel())
    out = tuple(np.concatenate(parts) for parts in (xis, halves, logws))
    for arr in out:
        arr.setflags(write=False)
    return (*out, (N // 2) ** 2)


def _hermite_rules(target, mode: np.ndarray, chol: np.ndarray) -> tuple[_Moments, _Moments]:
    """Posterior moments by the HERMITE_NODES / 2 and the HERMITE_NODES
    Gauss-Hermite product rules in the whitened coordinates
    theta = mode + chol xi: each integrates p(theta) = |chol| p(mode + chol xi)
    against the standard normal law of xi once divided by that law's
    density, 2 pi |chol| exp(|xi|^2 / 2) p. The target is pointwise, so one
    call on both rules' nodes gives each rule's moments bit for bit as a
    call of its own would."""
    xi, half, logw_rule, split = _hermite_nodes(HERMITE_NODES)
    pts = mode + xi @ chol.T
    logw = target(pts) + half + logw_rule
    log_jac = math.log(2.0 * math.pi * chol[0, 0] * chol[1, 1])
    rules = []
    for part in (slice(0, split), slice(split, None)):
        p, lw = pts[part], logw[part]
        peak = float(lw.max())
        wts = np.exp(lw - peak)
        total = float(wts.sum())
        mean = wts @ p / total
        d = p - mean
        rules.append(_Moments(peak + math.log(total) + log_jac, mean, (d.T * wts) @ d / total))
    return tuple(rules)


def _attack_fixed(obs: ExitObservationSet):
    # theta is the center of a radius-r_star circle through every exit. Two
    # exits leave the two candidates that mirror each other across the
    # line z1z2, equally likely: point masses of equal mass.
    centers = recover_center(obs.positions, obs.strategy.r_star)
    post = _mix([_Moments(0.0, c, np.zeros((2, 2))) for c in centers])
    return post.mean, _trace(post.cov), _Quadrature("none", 0.0, 0.0, 0, 0)


def _radius_sd(alpha: float, beta: float) -> float:
    """sd of one random-radius region's radius r, r^2 ~ Gamma(alpha, beta)."""
    mean_r2 = math.exp(2.0 * (math.lgamma(alpha + 0.5) - math.lgamma(alpha)))
    return math.sqrt(max(alpha - mean_r2, 0.0) / beta)


def _rr_laplace(z: np.ndarray, alpha: float, beta: float):
    """(mode, covariance) of the Laplace approximation to the random-radius
    posterior, or None when Newton's method from the exit centroid does not
    reach a strict local maximum.

    Steps are capped at the RMS region radius. In complex numbers, with
    d_i = theta - z_i and s_i = |d_i|^2, the log-likelihood
    sum_i (alpha - 1) log s_i - beta s_i has gradient
    2 sum_i ((alpha - 1)/s_i - beta) d_i and Hessian
    -2 n beta I - 2 (alpha - 1) [[Re D, Im D], [Im D, -Re D]] with
    D = sum_i d_i^2 / s_i^2, since d d^T = (s I + [[Re d^2, Im d^2],
    [Im d^2, -Re d^2]]) / 2 (wherever no s_i is clamped at SQ_DIST_FLOOR).
    So a step takes two sums over the exits, and the 2 x 2 Hessian's
    largest eigenvalue, solve and inverse are in closed form.
    """
    n = len(z)
    mid = z.mean(axis=0)
    zc = (z[:, 0] - mid[0]) + 1j * (z[:, 1] - mid[1])
    scale = math.sqrt(alpha / beta)
    t = 0j
    for _ in range(50):
        d = t - zc
        s = d.real * d.real
        s += d.imag * d.imag
        np.maximum(s, SQ_DIST_FLOOR, out=s)
        ds = d / s
        grad = 2.0 * ((alpha - 1.0) * complex(ds.sum()) - beta * complex(d.sum()))
        D = complex(ds @ ds)
        hxx = -2.0 * n * beta - 2.0 * (alpha - 1.0) * D.real
        hyy = -2.0 * n * beta + 2.0 * (alpha - 1.0) * D.real
        hxy = -2.0 * (alpha - 1.0) * D.imag
        if 0.5 * (hxx + hyy) + math.hypot(0.5 * (hxx - hyy), hxy) >= 0.0:
            return None
        det = hxx * hyy - hxy * hxy
        gx, gy = grad.real, grad.imag
        step = complex(hxy * gy - hyy * gx, hxy * gx - hxx * gy) / det
        size = abs(step)
        if size <= 1e-10 * scale:
            return mid + np.array([t.real, t.imag]), np.array([[-hyy, hxy], [hxy, -hxx]]) / det
        t += step * min(1.0, scale / size)
    return None


def _attack_rr(obs: ExitObservationSet):
    spec = obs.strategy
    a, b = spec.gamma.alpha, spec.gamma.beta
    z = obs.positions
    grids = 0
    laplace = _rr_laplace(z, a, b) if a > 1.0 else None
    if laplace is not None:
        mode, cov = laplace
        if math.sqrt(float(cov.diagonal().max())) <= LAPLACE_SD_RATIO * _radius_sd(a, b):
            chol = np.linalg.cholesky(cov)
            # the expansion's window holds every node of both rules, with
            # room for rounding at its corners
            half = 1.001 * float(_hermite_nodes(HERMITE_NODES)[0].max()) * np.abs(chol).sum(axis=1)
            window = (mode[0] - half[0], mode[0] + half[0], mode[1] - half[1], mode[1] + half[1])
            coarse, fine = _hermite_rules(_rr_target(z, a, b, window), mode, chol)
            grids = 2
            gap = _rule_gap(fine, coarse)
            if gap <= RULE_RTOL:
                quad = _Quadrature("hermite", gap, 0.0, grids, HERMITE_NODES)
                return fine.mean, _trace(fine.cov), quad
    # Small n, or a posterior the Laplace fit does not describe: integrate
    # over every place the exits allow.
    box = quadrature_window(obs)
    gp, quad = _integrate(_rr_target(z, a, b, box), box)
    return gp.mean, _trace(gp.cov), quad._replace(grids=grids + quad.grids)


def _attack_tb(obs: ExitObservationSet):
    spec = obs.strategy
    z = obs.positions
    centers = recover_center(z, spec.R)
    post, quad = _tb_disk(z, centers, spec.r, spec.R, spec.beta.alpha, spec.beta.beta)
    return post.mean, _trace(post.cov), quad


def attack(
    obs: ExitObservationSet,
    theta_true,
    rng: np.random.Generator,
    config=None,
) -> AttackReport:
    """Run the strategy-appropriate attack and score it against the truth.

    One exit, any strategy: closed form, with rule "none". Nothing locates
    the region but the exit itself, so the attacker's prior on theta is
    flat and theta - z1 given z1 has the law of theta - z1 given theta: the
    posterior mean is the exit z1 and the posterior variance is the
    strategy's mean SP (`strategies.sp_mean`), r_star^2 for fixed-radius,
    alpha/beta for random-radius and R^2 - r^2 a/(a + b) for two-balls.
    Fixed-radius: the circle center through the exits, exact for n >= 3;
    for n = 2 the two candidates as equal point masses, whose mean is
    their midpoint.
    Random-radius: the Gauss-Hermite rule about the Laplace fit when the
    Gamma shape exceeds 1 and the posterior is narrow, else (or when the
    rule is not certified) the midpoint grid on the box the exits allow.
    Two-balls: center recovery first, then the polar rule on the support
    disk around each candidate center, one for n >= 3 and two for n = 2,
    mixed by their masses and certified as that mixture; DiagnosticsFailed
    when POLAR_CAP nodes do not certify it.

    Each strategy's attack returns only the posterior, its mean and total
    variance, and how it was integrated. It is scored here, once, as
    bias^2 + variance against theta_true.

    Every attack is deterministic and takes no options: rng and config are
    accepted, never used, because the benchmark's worker
    (`perfbench/worker.py`) calls attack with four positional arguments.
    """
    t0 = time.perf_counter()
    spec = obs.strategy
    if len(obs) == 1:
        post = obs.positions[0], sp_mean(spec), _Quadrature("none", 0.0, 0.0, 0, 0)
    elif isinstance(spec, FixedRadius):
        post = _attack_fixed(obs)
    elif isinstance(spec, RandomRadius):
        post = _attack_rr(obs)
    elif isinstance(spec, TwoBalls):
        post = _attack_tb(obs)
    else:
        raise TypeError(f"unknown strategy spec {spec!r}")
    mean, variance, quad = post
    bias2 = float(((mean - as_xy(theta_true)) ** 2).sum())
    return AttackReport(
        posterior_mean=Point(float(mean[0]), float(mean[1])),
        posterior_mse=bias2 + variance,
        bias2=bias2,
        variance=variance,
        edge_mass=quad.edge_mass,
        rule_gap=quad.rule_gap,
        rule=quad.rule,
        grids=quad.grids,
        nodes=quad.nodes,
        wall_time=time.perf_counter() - t0,
    )
