"""Bayesian attacks that recover a home location from exit observations.

The attacker sees exit points and knows the strategy parameters. Each
strategy yields a tractable unnormalized posterior:

* random-radius: a uniform improper prior on theta times the Gamma
  densities of the squared exit distances (with a 1/pi planar change of
  variables);
* two-balls: the Beta placement prior, under which the normalized squared
  offset ||theta - c||^2/r^2 of theta from the shared center c follows
  Beta(alpha, beta), times the product of disk exit densities; c itself is
  pinned down by the exits (exactly, for three or more).

Both likelihoods hold the exit term sum_i log|z_i - theta|^2, and both
evaluate it through one local expansion of the 2-D log potential
(`_sep_expansion`): about c with reach r for two-balls, and for
random-radius about the center of its window (the Laplace mode, or the
fallback box's center) with a reach to the window's corners; points a
refinement pads past them take the direct sum. Exits far from the expansion point enter through
coefficients computed once, so a grid point costs a few dozen terms plus
the near exits, whatever the exit count. The rest of the random-radius
likelihood, sum_i |z_i - theta|^2, is a quadratic in theta.

Every attack integrates its posterior with the midpoint rule on a grid
(`grid_posterior`), so it is deterministic and exact up to the grid. The
windows come from attacker-visible data: the known support square for
two-balls, the Laplace approximation at the Newton mode or a Gamma-quantile
box around the exits for random-radius. A window is refined when the
posterior sd spans too few cells, and an attack fails with
`DiagnosticsFailed` when a window truncates visible mass.
Fixed-radius regions need no integration at all: every region is centered
on theta with the known radius, so theta is the circle center that
`recover_center` finds, one point for three or more exits and in closed
form for fewer.

`rwm_sample`, `split_r_hat`, `effective_sample_size` and `posterior_mse`
(adaptive Metropolis and its diagnostics) are reached by no runner, CLI
command or demo; they stay only because the benchmark's tracer
(`perfbench/tracer.py`) looks them up by name.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, gammainccinv, gammaln

from .core import Point, as_xy, fit_circle_center
from .strategies import ExitObservationSet, FixedRadius, RandomRadius, TwoBalls

__all__ = [
    "NonFiniteInit",
    "AdaptationFailed",
    "DiagnosticsFailed",
    "InconsistentExits",
    "NoIntersection",
    "UniqueCenter",
    "CenterPair",
    "CenterArc",
    "CenterEstimate",
    "PosteriorSamples",
    "AttackConfig",
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

# The local expansion keeps K terms, x^K <= SERIES_TOL at the largest ratio
# x of the reach to a far exit's distance: below the rounding of any float
# it is added to.
SERIES_TOL = 1e-17

# A Laplace window spans +- WINDOW_SD posterior sd (a Gaussian tail of
# e^-32). A window is refined when the posterior sd spans fewer than
# MIN_CELLS_PER_SD cells (the midpoint rule's error on a smooth peak falls
# like exp(-2 pi^2 (sd/cell)^2), about e^-79 at 2 cells), at most
# MAX_REFINES times, onto the cells that each hold at least REFINE_CELL_MASS
# of the mass: together the others hold under 1e-10 at any node count used,
# and a minor mode far from the mean is kept. EDGE_MASS_MAX is the largest
# share of mass the outermost ring of cells may hold where a window cuts
# the support.
WINDOW_SD = 8.0
MIN_CELLS_PER_SD = 2.0
MAX_REFINES = 3
REFINE_CELL_MASS = 1e-16
EDGE_MASS_MAX = 1e-4

# Random-radius windows. The fallback box keeps theta within the upper
# RR_TAIL quantile of one region's radius of every exit. The Laplace window
# (mode +- WINDOW_SD sd) is used only when the posterior sd is at most
# LAPLACE_SD_RATIO times the sd of one region's radius: then every exit's
# ring-shaped factor is close to linear across the peak. Wider posteriors
# (small n) can be ring-shaped or multimodal and get the fallback box.
RR_TAIL = 1e-12
LAPLACE_SD_RATIO = 0.25


class NonFiniteInit(ValueError):
    """The sampler was started where the log-target is not finite."""


class AdaptationFailed(RuntimeError):
    """Post-adaptation acceptance rate left the trustworthy range."""


class DiagnosticsFailed(RuntimeError):
    """A quadrature guard failed: the window truncated visible mass, or the
    posterior stayed narrower than the grid could resolve."""


class InconsistentExits(ValueError):
    """Exit points do not lie on any common radius-R circle."""


class NoIntersection(ValueError):
    """Two exits are farther apart than 2R, so no center fits both."""


@dataclass(frozen=True)
class UniqueCenter:
    center: Point


@dataclass(frozen=True)
class CenterPair:
    plus: Point
    minus: Point


@dataclass(frozen=True)
class CenterArc:
    base: Point
    radius: float


CenterEstimate = UniqueCenter | CenterPair | CenterArc


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
class AttackConfig:
    """Quadrature setting shared by all strategy attacks.

    quad_nodes is the number of midpoint nodes per axis of every grid
    (refinements may double it). The default is measured: against 400^2
    grids over the six study settings at n = 3 to 1600, the largest
    two-balls MSE gap is 9e-4 at 64 nodes, 2e-3 at 48 and 3e-3 at 32
    (the support disk cuts grid cells); random-radius gaps stay below
    1e-10 at 64 nodes and reach 4e-4 at 32.
    """

    quad_nodes: int = 64

    def __post_init__(self) -> None:
        if self.quad_nodes < 16:
            raise ValueError(f"quad_nodes too small: {self.quad_nodes}")


@dataclass(frozen=True)
class AttackReport:
    """Outcome of one attack: posterior location estimate and its MSE.

    edge_mass is the largest share of posterior mass found in the outermost
    ring of cells wherever a quadrature window cut the posterior's support
    (0 when every window held the whole support); grids counts the grids
    integrated and nodes is the most nodes per axis any of them had.
    Fixed-radius recovery is exact and integrates none.
    """

    posterior_mean: Point
    posterior_mse: float
    bias2: float
    variance: float
    edge_mass: float
    grids: int
    nodes: int
    wall_time: float

    def __post_init__(self) -> None:
        vals = (self.posterior_mse, self.bias2, self.variance, self.edge_mass, self.wall_time)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"report fields must be finite, got {vals}")
        if self.posterior_mse < 0.0 or self.bias2 < 0.0 or self.variance < 0.0:
            raise ValueError("mse, bias2 and variance must be >= 0")
        if not 0.0 <= self.edge_mass <= 1.0 or self.grids < 0 or self.nodes < 0:
            raise ValueError(
                f"need edge mass in [0, 1] and grids, nodes >= 0, got "
                f"{self.edge_mass}, {self.grids}, {self.nodes}"
            )
        gap = abs(self.posterior_mse - (self.bias2 + self.variance))
        if gap > 1e-9 * max(self.posterior_mse, 1e-12):
            raise ValueError(f"mse != bias2 + variance (gap {gap:g})")


def recover_center(positions: np.ndarray, R: float) -> CenterEstimate:
    """Where can the center of a radius-R circle be, given (n, 2) exits on it?

    Three or more exits determine it (circle fit, residual checked against
    CENTER_FIT_RTOL * R); two exits leave a pair of candidates; one exit a
    whole circle of candidates.
    """
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (n, 2) exit positions, got shape {pts.shape}")
    n = len(pts)
    if n >= 3:
        center, rms = fit_circle_center(pts, R)
        if rms > CENTER_FIT_RTOL * R:
            raise InconsistentExits(f"circle-fit rms {rms:g} exceeds {CENTER_FIT_RTOL * R:g}")
        return UniqueCenter(center)
    if n == 2:
        d = float(np.hypot(*(pts[1] - pts[0])))
        if d > 2.0 * R:
            raise NoIntersection(f"exits {d:g} apart cannot share a radius-{R:g} circle")
        if d == 0.0:
            raise InconsistentExits("coincident exits; use the single-exit form")
        mid = 0.5 * (pts[0] + pts[1])
        u = (pts[1] - pts[0]) / d
        q = math.sqrt(max(R * R - 0.25 * d * d, 0.0))
        normal = np.array([-u[1], u[0]])
        return CenterPair(Point(*(mid + q * normal)), Point(*(mid - q * normal)))
    return CenterArc(Point(*pts[0]), R)


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


def _sep_expansion(z: np.ndarray, m: np.ndarray, rho: float):
    """sep(pts) = sum_i log|z_i - theta|^2 for theta in the disk
    |theta - m| <= rho.

    In complex numbers, with u_i = z_i - m and w = theta - m,
    log|z_i - theta|^2 = log|u_i|^2 - 2 Re sum_k (w/u_i)^k / k: the local
    expansion of the 2-D log potential about m (Greengard and Rokhlin,
    1987), which two-balls knows as the Poisson kernel's Fourier series
    about its center. Far exits (`_series_terms`) go through it: with s the
    smallest far |u_i|, the coefficients S_k = sum_i (s/u_i)^k are computed
    once and each theta costs K terms whatever the exit count; the
    truncation error, below n x^(K+1) / (1 - x), is under float rounding.
    Near exits go through the direct sum, their squared distances clamped
    at SQ_DIST_FLOOR, and so does every exit for a point outside the disk,
    where the series is not built to hold.

    sep takes any number of points: its direct sums run over blocks of at
    most PAIR_BUDGET (point, exit) pairs, and the series holds O(1) values
    per point, so its memory does not grow with the exit count.
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

    ux = z[:, 0] - mx
    uy = z[:, 1] - my
    d2 = ux * ux + uy * uy
    far, K = _series_terms(d2, rho)
    if not K:
        return lambda pts: direct(pts, z)

    near = z[~far]
    const = float(np.log(d2[far]).sum())
    scale = math.sqrt(float(d2[far].min()))
    v = scale / (ux[far] + 1j * uy[far])
    coef = np.empty(K, dtype=complex)
    power = np.ones_like(v)
    for k in range(K):
        power *= v
        coef[k] = power.sum() / (k + 1)

    def sep(pts: np.ndarray) -> np.ndarray:
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
        w = (wx + 1j * wy) / scale
        acc = np.full(len(w), coef[-1])
        for a in coef[-2::-1]:
            acc *= w
            acc += a
        total = const - 2.0 * (acc * w).real
        if len(near):
            total += direct(pts, near)
        return total

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
    const = n * (alpha * math.log(beta) - float(gammaln(alpha)) - math.log(math.pi))
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


def _tb_target(z: np.ndarray, c: np.ndarray, r: float, R: float, alpha: float, beta: float):
    """Log target of two-balls with center c known.

    The support is the disk |theta - c| < r, so the exit term is
    _sep_expansion about c with reach r: every exit lies R > r from c, and
    is far when R >= 2r, as in every study setting.
    """
    n = len(z)
    sep = _sep_expansion(z, c, r)
    const = (
        -float(betaln(alpha, beta))
        - math.log(math.pi * r * r)
        - n * math.log(2.0 * math.pi * R)
    )

    def target(pts: np.ndarray) -> np.ndarray:
        t2 = ((pts - c) ** 2).sum(axis=1)
        out = np.full(len(pts), -np.inf)
        inside = t2 < r * r
        if inside.any():
            t2i = t2[inside]
            u = np.clip(t2i / (r * r), 1e-15, 1.0 - 1e-15)
            out[inside] = (
                const
                + (alpha - 1.0) * np.log(u)
                + (beta - 1.0) * np.log1p(-u)
                + n * np.log(R * R - t2i)
                - sep(pts[inside])
            )
        return out

    return target


def tb_log_posterior(theta, c, obs: ExitObservationSet):
    """Unnormalized log-posterior of theta under two-balls with center c known.

    Support is the open disk ||theta - c|| < r (the prior on the center
    placement, inverted); outside it the value is -inf. Accepts a single
    location or an (m, 2) batch.
    """
    spec = obs.strategy
    if not isinstance(spec, TwoBalls):
        raise TypeError(f"observations carry {type(spec).__name__}, not TwoBalls")
    pts, single = _theta_batch(theta)
    target = _tb_target(obs.positions, as_xy(c), spec.r, spec.R, spec.beta.alpha, spec.beta.beta)
    out = target(pts)
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
        variance = float(np.trace(self.cov))
        return bias2 + variance, bias2, variance

    def edge_mass(self, sides=(True, True, True, True)) -> float:
        """Share of the mass in the outermost cells along the flagged sides
        (x0, x1, y0, y1): how much a window that cuts the posterior there
        may have truncated."""
        w = np.exp(self.log_density - self.log_density.max())
        ring = np.zeros(w.shape, dtype=bool)
        lo_x, hi_x, lo_y, hi_y = sides
        ring[0, :] |= lo_x
        ring[-1, :] |= hi_x
        ring[:, 0] |= lo_y
        ring[:, -1] |= hi_y
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


_PLANE = (-math.inf, math.inf, -math.inf, math.inf)


def _integrate(target, window, nodes: int, support=_PLANE):
    """Grid posterior of target, refined until the posterior sd spans
    MIN_CELLS_PER_SD cells. Each refinement integrates again on the cells
    that hold mass (GridPosterior.mass_box), clipped to `support`, the box
    the posterior lives in (the whole plane by default), with up to twice
    the nodes when that box is still too wide for the sd, as for a
    multimodal posterior.

    Returns (grid, edge mass along the sides that cut the support, grids
    integrated, nodes per axis). Raises DiagnosticsFailed when MAX_REFINES
    refinements do not resolve the posterior.
    """
    for grids in range(1, MAX_REFINES + 2):
        gp = grid_posterior(target, window, nodes)
        cells = np.array([window[1] - window[0], window[3] - window[2]]) / nodes
        sd = np.sqrt(np.diag(gp.cov))
        if np.all(sd >= MIN_CELLS_PER_SD * cells):
            # the window lies in the support, so a side cuts it where they differ
            sides = tuple(w != s for w, s in zip(window, support))
            return gp, gp.edge_mass(sides), grids, nodes
        box = gp.mass_box(REFINE_CELL_MASS)
        window = tuple(clip(b, s) for clip, b, s in zip((max, min, max, min), box, support))
        widths = np.array([window[1] - window[0], window[3] - window[2]])
        wanted = math.ceil(MIN_CELLS_PER_SD * float((widths / np.maximum(sd, cells)).max()))
        nodes = min(max(nodes, wanted), 2 * nodes)
    raise DiagnosticsFailed(
        f"posterior sd {sd.min():.3g} spans fewer than {MIN_CELLS_PER_SD:g} cells "
        f"after {MAX_REFINES} refinements"
    )


def _check_edge(edge: float) -> None:
    if not edge <= EDGE_MASS_MAX:
        raise DiagnosticsFailed(
            f"quadrature window truncates posterior mass: edge mass {edge:.3g} "
            f"exceeds {EDGE_MASS_MAX:g}"
        )


def _reach_box(z: np.ndarray, reach: float) -> tuple[float, float, float, float]:
    """Box of the points within `reach` of every exit, or of any exit when
    no point is within reach of all of them."""
    lo = z.max(axis=0) - reach
    hi = z.min(axis=0) + reach
    if np.any(lo >= hi):
        lo, hi = z.min(axis=0) - reach, z.max(axis=0) + reach
    return (float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]))


def quadrature_window(obs: ExitObservationSet, center: Point | None = None):
    """Integration window that holds the whole posterior, from
    attacker-visible data only.

    Two-balls posteriors live on the known support square around the
    recovered center. Random-radius ones live where every exit is within
    the upper RR_TAIL quantile of a region radius; fixed-radius ones where
    every exit is within r_star.
    """
    spec = obs.strategy
    if isinstance(spec, TwoBalls):
        if center is None:
            raise ValueError("two-balls window needs the recovered center")
        return (center.x - spec.r, center.x + spec.r, center.y - spec.r, center.y + spec.r)
    if isinstance(spec, RandomRadius):
        a, b = spec.gamma.alpha, spec.gamma.beta
        return _reach_box(obs.positions, math.sqrt(float(gammainccinv(a, RR_TAIL)) / b))
    return _reach_box(obs.positions, spec.r_star)


def _attack_fixed(obs: ExitObservationSet):
    # theta is the center of a radius-r_star circle through every exit.
    # Two exits leave the two candidates that mirror each other across the
    # line z1z2, equally likely; one exit leaves theta uniform on the circle
    # of radius r_star around it.
    est = recover_center(obs.positions, obs.strategy.r_star)
    if isinstance(est, UniqueCenter):
        return est.center.as_array(), 0.0, 0.0, 0, 0
    if isinstance(est, CenterPair):
        plus, minus = est.plus.as_array(), est.minus.as_array()
        return 0.5 * (plus + minus), float(((plus - minus) ** 2).sum()) / 4.0, 0.0, 0, 0
    return est.base.as_array(), est.radius**2, 0.0, 0, 0


def _radius_sd(alpha: float, beta: float) -> float:
    """sd of one random-radius region's radius r, r^2 ~ Gamma(alpha, beta)."""
    mean_r2 = math.exp(2.0 * (float(gammaln(alpha + 0.5)) - float(gammaln(alpha))))
    return math.sqrt(max(alpha - mean_r2, 0.0) / beta)


def _rr_laplace(z: np.ndarray, alpha: float, beta: float):
    """(mode, covariance) of the Laplace approximation to the random-radius
    posterior, or None when Newton's method from the exit centroid does not
    reach a strict local maximum.

    Steps are capped at the RMS region radius; the log-likelihood
    sum_i (alpha - 1) log s_i - beta s_i, s_i = |theta - z_i|^2, has
    gradient 2 sum_i g_i d_i and Hessian sum_i 2 g_i I - 4 (alpha - 1)
    d_i d_i^T / s_i^2, with d_i = theta - z_i and g_i = (alpha - 1)/s_i - beta.
    """
    mid = z.mean(axis=0)
    zc = z - mid
    scale = math.sqrt(alpha / beta)
    t = np.zeros(2)
    for _ in range(50):
        d = t - zc
        s = np.maximum((d * d).sum(axis=1), SQ_DIST_FLOOR)
        g = (alpha - 1.0) / s - beta
        grad = 2.0 * (g @ d)
        hess = 2.0 * g.sum() * np.eye(2) - 4.0 * (alpha - 1.0) * (d.T / s**2) @ d
        if np.linalg.eigvalsh(hess)[-1] >= 0.0:
            return None
        step = -np.linalg.solve(hess, grad)
        size = math.hypot(*step)
        if size <= 1e-10 * scale:
            return mid + t, np.linalg.inv(-hess)
        t = t + step * min(1.0, scale / size)
    return None


def _attack_rr(obs: ExitObservationSet, cfg: AttackConfig):
    spec = obs.strategy
    a, b = spec.gamma.alpha, spec.gamma.beta
    z = obs.positions
    grids = nodes = 0
    laplace = _rr_laplace(z, a, b)
    if laplace is not None:
        mode, cov = laplace
        sd = np.sqrt(np.diag(cov))
        if sd.max() <= LAPLACE_SD_RATIO * _radius_sd(a, b):
            lo, hi = mode - WINDOW_SD * sd, mode + WINDOW_SD * sd
            window = (float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]))
            gp, edge, grids, nodes = _integrate(_rr_target(z, a, b, window), window, cfg.quad_nodes)
            if edge <= EDGE_MASS_MAX:
                return gp.mean, float(np.trace(gp.cov)), edge, grids, nodes
    # Small n, or a posterior the Laplace window does not hold: integrate
    # over every place the exits allow.
    box = quadrature_window(obs)
    gp, edge, more, wide_nodes = _integrate(_rr_target(z, a, b, box), box, cfg.quad_nodes)
    _check_edge(edge)
    return gp.mean, float(np.trace(gp.cov)), edge, grids + more, max(nodes, wide_nodes)


def _attack_tb(obs: ExitObservationSet, cfg: AttackConfig):
    spec = obs.strategy
    z = obs.positions
    r, R, a, b = spec.r, spec.R, spec.beta.alpha, spec.beta.beta
    est = recover_center(z, R)

    if isinstance(est, CenterArc):
        # One exit: the center sits at c(psi) = z1 + R (cos psi, sin psi)
        # for an unknown psi. In the offset q = rot(-psi) (theta - c(psi)),
        # a change of variables with unit Jacobian, the posterior density
        # depends on q alone (through |q| and |R + q|, the exit sitting at
        # (-R, 0) from the center), so psi is uniform and independent of q.
        # Then theta = z1 + rot(psi) ((R, 0) + q) has mean z1 and
        # E|theta - z1|^2 = E|(R, 0) + q|^2: one 2-D grid over q.
        square = (-r, r, -r, r)
        target = _tb_target(np.array([[-R, 0.0]]), np.zeros(2), r, R, a, b)
        gp, edge, grids, nodes = _integrate(target, square, cfg.quad_nodes, square)
        _check_edge(edge)
        variance = float((gp.mean[0] + R) ** 2 + gp.mean[1] ** 2 + np.trace(gp.cov))
        return z[0], variance, edge, grids, nodes

    # One center (n >= 3), or a pair of candidates (n = 2) whose posterior
    # modes mix by their masses, by the law of total variance.
    centers = (est.center,) if isinstance(est, UniqueCenter) else (est.plus, est.minus)
    parts = []
    for cpt in centers:
        target = _tb_target(z, cpt.as_array(), r, R, a, b)
        square = quadrature_window(obs, cpt)
        parts.append(_integrate(target, square, cfg.quad_nodes, square))
    edge = max(p[1] for p in parts)
    _check_edge(edge)
    posts = [p[0] for p in parts]
    lm = np.array([g.log_mass for g in posts])
    wts = np.exp(lm - lm.max())
    wts /= wts.sum()
    mean = sum(w * g.mean for w, g in zip(wts, posts))
    variance = float(
        sum(w * (np.trace(g.cov) + ((g.mean - mean) ** 2).sum()) for w, g in zip(wts, posts))
    )
    grids = sum(p[2] for p in parts)
    return mean, variance, edge, grids, max(p[3] for p in parts)


def attack(
    obs: ExitObservationSet,
    theta_true,
    rng: np.random.Generator,
    config: AttackConfig | None = None,
) -> AttackReport:
    """Run the strategy-appropriate attack and score it against the truth.

    Fixed-radius: the circle center through the exits, exact for n >= 3;
    the midpoint of the two candidates for n = 2 and the exit itself for
    n = 1, with the closed-form variance of those candidates.
    Random-radius: quadrature on mode +- WINDOW_SD sd of the Laplace
    approximation, or, for small n, on the box the exits allow. Two-balls:
    center recovery first, then quadrature on the support square around the
    center (n >= 3), a mixture over the two candidate centers (n = 2), or
    one grid over the offset from the unknown center (n = 1).

    Each strategy's attack returns only the posterior: its mean, total
    variance, edge mass, grids and nodes. It is scored here, once, as
    bias^2 + variance against theta_true.

    Every attack is deterministic: rng is accepted so that all attacks
    share one signature, and is never drawn from.
    """
    cfg = config if config is not None else AttackConfig()
    t0 = time.perf_counter()
    spec = obs.strategy
    if isinstance(spec, FixedRadius):
        post = _attack_fixed(obs)
    elif isinstance(spec, RandomRadius):
        post = _attack_rr(obs, cfg)
    elif isinstance(spec, TwoBalls):
        post = _attack_tb(obs, cfg)
    else:
        raise TypeError(f"unknown strategy spec {spec!r}")
    mean, variance, edge, grids, nodes = post
    bias2 = float(((mean - as_xy(theta_true)) ** 2).sum())
    return AttackReport(
        posterior_mean=Point(float(mean[0]), float(mean[1])),
        posterior_mse=bias2 + variance,
        bias2=bias2,
        variance=variance,
        edge_mass=edge,
        grids=grids,
        nodes=nodes,
        wall_time=time.perf_counter() - t0,
    )
