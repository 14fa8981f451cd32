"""Privacy-region strategies, attack observations, SP laws and moment matching.

Three ways to choose privacy regions around a home location theta:

* fixed-radius: every region is the ball B(theta, r_star);
* random-radius: per-track balls B(theta, r_i) with r_i^2 ~ Gamma(alpha, beta);
* two-balls: one shared ball B(c, R) per user, c = theta + r rho (cos tau,
  sin tau) with rho^2 ~ Beta(alpha, beta) and tau uniform.

All draws are made in theta-relative coordinates, so shifting theta shifts
regions, exits, and published tracks rigidly while SP values stay
bit-identical under the same seed. `sp_cdf` gives each strategy's SP law
exactly, without drawing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import harmonic
from .core import BetaParams, Disk, GammaParams, Point, as_xy, betaln, gammainc, jacobi_rule
from .trajectory import CutResult, Trajectory, cut_privacy_region

__all__ = [
    "FixedRadius",
    "RandomRadius",
    "TwoBalls",
    "StrategySpec",
    "ExitObservationSet",
    "CalibrationResult",
    "DegenerateVariance",
    "sample_region",
    "generate_observations",
    "sample_sps",
    "sp_cdf",
    "sp_mean",
    "calibrate_random_radius",
    "obfuscate_track",
]


class DegenerateVariance(ValueError):
    """The SP law has no spread in float arithmetic, so no Gamma can match it."""


@dataclass(frozen=True)
class FixedRadius:
    """Privacy region B(theta, r_star) with a fixed, publicly known radius."""

    r_star: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_star) and self.r_star > 0):
            raise ValueError(f"r_star must be finite and > 0, got {self.r_star}")


@dataclass(frozen=True)
class RandomRadius:
    """Per-track regions B(theta, r_i) with r_i^2 ~ Gamma(alpha, rate beta)."""

    gamma: GammaParams


@dataclass(frozen=True)
class TwoBalls:
    """One shared region B(c, R) with c drawn inside B(theta, r), r < R."""

    r: float
    R: float
    beta: BetaParams

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"r must be finite and > 0, got {self.r}")
        if not (math.isfinite(self.R) and self.R > self.r):
            raise ValueError(f"R must be finite and > r ({self.r}), got {self.R}")


StrategySpec = FixedRadius | RandomRadius | TwoBalls


@dataclass(frozen=True, eq=False)
class ExitObservationSet:
    """What the attacker sees: exit points plus known strategy parameters.

    Row i of `positions` (n, 2) is an exit on the boundary of the region
    with center `centers[i]` (n, 2) and radius `radii[i]` (n,); `sps[i]`
    (n,) is its squared perturbation. All four are stored as read-only
    copies. Two-balls exits share one region. Sets compare by identity:
    field-wise == on arrays has no single truth value.
    """

    strategy: StrategySpec
    positions: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    sps: np.ndarray

    def __post_init__(self) -> None:
        arrays = {
            name: np.array(getattr(self, name), dtype=float)
            for name in ("positions", "centers", "radii", "sps")
        }
        pos, ctr, radii, sps = arrays.values()
        n = radii.size
        if n < 1 or {pos.shape, ctr.shape} != {(n, 2)} or {radii.shape, sps.shape} != {(n,)}:
            raise ValueError(
                f"need n >= 1 exits, positions and centers (n, 2), radii and sps (n,), got "
                f"{pos.shape}, {ctr.shape}, {radii.shape} and {sps.shape}"
            )
        if not (all(np.isfinite(a).all() for a in (pos, ctr, radii)) and np.all(radii > 0)):
            raise ValueError("exit positions, centers and radii must be finite, radii > 0")
        dist = np.hypot(pos[:, 0] - ctr[:, 0], pos[:, 1] - ctr[:, 1])
        err = np.abs(dist - radii) - harmonic.BOUNDARY_RTOL * radii
        off = err > 0.0
        if off.any():
            # forming an absolute coordinate (theta plus an offset) rounds it
            # by up to half an ulp of its size, which a tiny region cannot absorb
            p, c = pos[off], ctr[off]
            off[off] = err[off] > np.finfo(float).eps * (np.hypot(p[:, 0], p[:, 1]) + np.hypot(c[:, 0], c[:, 1]))
        if off.any():
            i = int(np.argmax(off))
            raise harmonic.PointNotOnBoundary(
                f"exit {i} at distance {dist[i]!r} not on boundary of radius {radii[i]!r}"
            )
        if isinstance(self.strategy, TwoBalls) and not (
            np.all(ctr == ctr[0]) and np.all(radii == radii[0])
        ):
            raise ValueError("two-balls exits must share one region")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.radii)

    @property
    def shared_region(self) -> Disk:
        if not isinstance(self.strategy, TwoBalls):
            raise TypeError("only two-balls observations share a region")
        cx, cy = self.centers[0].tolist()
        return Disk(Point(cx, cy), float(self.radii[0]))


@dataclass(frozen=True)
class CalibrationResult:
    """Gamma parameters whose first two moments match the exact SP moments."""

    matched_gamma: GammaParams
    sp_mean: float
    sp_var: float

    def __post_init__(self) -> None:
        g = self.matched_gamma
        if not (
            math.isclose(g.alpha, self.sp_mean**2 / self.sp_var, rel_tol=1e-12)
            and math.isclose(g.beta, self.sp_mean / self.sp_var, rel_tol=1e-12)
        ):
            raise ValueError("matched_gamma is not the method-of-moments fit to (mean, var)")


def _region_offsets(
    spec: StrategySpec, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n region draws in theta-relative coordinates: (center offsets (n,2), radii (n,))."""
    if isinstance(spec, FixedRadius):
        return np.zeros((n, 2)), np.full(n, spec.r_star)
    if isinstance(spec, RandomRadius):
        # r^2 ~ Gamma(alpha, rate beta): numpy takes the scale 1/beta
        radii = np.sqrt(rng.gamma(shape=spec.gamma.alpha, scale=1.0 / spec.gamma.beta, size=n))
        if not radii.all():
            raise harmonic.ThetaOutsideRegion(
                f"an r^2 draw of {spec.gamma} underflowed to 0: theta is not strictly "
                f"inside a radius-0 region"
            )
        return np.zeros((n, 2)), radii
    if isinstance(spec, TwoBalls):
        rho = np.sqrt(rng.beta(spec.beta.alpha, spec.beta.beta, size=n))
        tau = rng.uniform(0.0, 2.0 * math.pi, size=n)
        offsets = spec.r * rho[:, None] * np.column_stack([np.cos(tau), np.sin(tau)])
        return offsets, np.full(n, spec.R)
    raise TypeError(f"unknown strategy spec {spec!r}")


def sample_region(theta, spec: StrategySpec, rng: np.random.Generator) -> Disk:
    """Draw one privacy region for a user at `theta`."""
    t = as_xy(theta)
    offsets, radii = _region_offsets(spec, 1, rng)
    return Disk(Point(t[0] + offsets[0, 0], t[1] + offsets[0, 1]), float(radii[0]))


def generate_observations(
    theta, spec: StrategySpec, n: int, rng: np.random.Generator
) -> ExitObservationSet:
    """Exit observations for n tracks of a user living at `theta`.

    Two-balls draws ONE shared region and n exits from it; the other
    strategies draw n independent regions with one exit each. sps[i] is
    ||z_i - theta||^2, computed in relative coordinates.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 observations, got {n}")
    t = as_xy(theta)
    if isinstance(spec, TwoBalls):
        offsets, radii = _region_offsets(spec, 1, rng)
        offsets = np.broadcast_to(offsets, (n, 2))
        radii = np.broadcast_to(radii, (n,))
    else:
        offsets, radii = _region_offsets(spec, n, rng)
    # the path starts at theta, which sits at -offset from each region's center
    rel = offsets + harmonic.sample_exit_offsets(-offsets, radii, n, rng)  # z - theta
    sps = (rel**2).sum(axis=1)
    return ExitObservationSet(spec, t + rel, t + offsets, radii, sps)


def sample_sps(spec: StrategySpec, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """n_draws independent SP values, each from a fresh (region, exit) pair.

    These are draws from the marginal SP law of a single published track,
    which `sp_cdf` gives exactly; it does not depend on theta because the
    strategies are translation invariant.
    """
    if n_draws < 1:
        raise ValueError(f"need n_draws >= 1, got {n_draws}")
    offsets, radii = _region_offsets(spec, n_draws, rng)
    rel = offsets + harmonic.sample_exit_offsets(-offsets, radii, n_draws, rng)
    return (rel**2).sum(axis=1)


# Gauss nodes per panel of the two-balls SP law's quadrature (see sp_cdf),
# and the s values done at once, which bounds its node arrays' memory.
_PANEL_NODES = 24
_CDF_BLOCK = 1024


def _gauss_rule(alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of the _PANEL_NODES-node Gauss rule for
    the weight (1 - x)^alpha x^beta: the Beta(beta + 1, alpha + 1) rule
    (`core.jacobi_rule`, built once per process) with its weights scaled
    by the weight's mass B(alpha + 1, beta + 1)."""
    x, w = jacobi_rule(_PANEL_NODES, beta + 1.0, alpha + 1.0)
    return x, math.exp(betaln(alpha + 1.0, beta + 1.0)) * w


def _square(num: int, den: int) -> tuple[float, float]:
    """(num / den)^2 as the float nearest it and the float nearest what that
    leaves, from exact integers: Python's int true division rounds
    correctly, as float() of a Fraction does."""
    sq_den = den * den
    near = num * num / sq_den
    m, e = near.as_integer_ratio()
    return near, (num * num * e - m * sq_den) / (sq_den * e)


def _exact_squares(r: float, big_r: float) -> tuple[tuple[float, float], ...]:
    """R^2, (R - r)^2 and (R + r)^2, each as `_square` gives it. Both floats
    are integers over one power of two, so R +- r are exact."""
    (nr, dr), (nR, dR) = float(r).as_integer_ratio(), float(big_r).as_integer_ratio()
    den = max(dr, dR)
    nr, nR = nr * (den // dr), nR * (den // dR)
    return _square(nR, den), _square(nR - nr, den), _square(nR + nr, den)


def _two_balls_cdf(spec: TwoBalls, s: np.ndarray) -> np.ndarray:
    """P(SP <= s) for two-balls: the Beta mixture of the law given the offset.

    Given the centre's offset d = r t from theta, SP is
    (R^2 - d^2)^2 / (R^2 + d^2 + 2 R d cos psi) with psi uniform, so SP <= s
    has probability (2/pi) arctan(x), with
    x = (R + d)/(R - d) sqrt((s - (R - d)^2) / ((R + d)^2 - s)), on
    (R - d)^2 <= s <= (R + d)^2; it is 0 below and 1 above. s meets an end
    of that range at t_k = |sqrt(s) - R| / r, and t = rho has density
    2 t^(2a-1) (1 - t^2)^(b-1) / B(a, b) on [0, 1].

    On [t_k, 1] the integrand has a square-root kink at t_k, branch points
    at 0 and -t_k, and a (1 - t)^(b-1) end at 1. Panels [t_k, 2 t_k],
    [2 t_k, 4 t_k], ... keep the branch points at least half a panel away.
    The first panel is taken in tau, t = t_k + h tau^2, which smooths the
    kink; the last, from L in [1/4, 1/2) to 1, carries (1 - t)^(b-1) in a
    Gauss-Jacobi weight. For t_k >= 1/4 the two panels meet at (1 + t_k)/2.
    At t_k = 0 (s = R^2, no kink) [0, 1/2] carries t^(2a-1) in its weight.
    Above R^2 the integrand is 1 - P(SP <= s | t) and F is 1 minus it.
    Near an end of the support 1 - t_k sets the mass, so it is formed from
    the distance of s to that end, (R - r)^2 below R^2 and (R + r)^2 above,
    never as 1 minus t_k.
    """
    r, big_r, a, b = spec.r, spec.R, spec.beta.alpha, spec.beta.beta
    # s - R^2, s - (R - r)^2 and (R + r)^2 - s to full precision near those
    # squares: each is the float nearest it plus the float nearest the rest
    (r2, r2_err), (lo2, lo2_err), (hi2, hi2_err) = _exact_squares(r, big_r)
    gap = (s - r2) - r2_err
    above = gap >= 0.0
    out = above.astype(float)
    live = np.flatnonzero((s > (big_r - r) ** 2) & (s < (big_r + r) ** 2))
    root = np.sqrt(s[live])
    tk = np.abs(gap[live]) / ((root + big_r) * r)
    tk_comp = np.where(  # 1 - t_k
        above[live],
        ((hi2 - s[live]) + hi2_err) / ((root + (big_r + r)) * r),
        ((s[live] - lo2) - lo2_err) / ((root + (big_r - r)) * r),
    )
    keep = tk_comp > 0.0  # rounding at the support's ends
    live, tk, tk_comp = live[keep], tk[keep], tk_comp[keep]
    if live.size == 0:
        return out
    log_norm = math.log(2.0) - betaln(a, b)

    def density(t, log_rest):  # 2 t^(2a-1) / B(a, b) times exp(log_rest)
        return np.exp(log_norm + (2.0 * a - 1.0) * np.log(t) + log_rest)

    owners, offsets, weights = [], [], []  # per panel: s index, t - t_k, weight
    x, w = _gauss_rule(0.0, 0.0)
    mant, expo = np.frexp(tk)
    zero = tk == 0.0
    graded = (tk < 0.25) & ~zero
    # the last panel is [t_k + lead, 1], of length tail
    lead = np.where(zero, 0.5, np.where(graded, 0.5 * mant - tk, 0.5 * tk_comp))
    tail = np.where(zero, 0.5, np.where(graded, 1.0 - 0.5 * mant, 0.5 * tk_comp))

    i = np.flatnonzero(~zero)  # first panel [t_k, t_k + h], t = t_k + h tau^2
    h = np.where(graded, tk, 0.5 * tk_comp)[i, None]
    e = h * x**2
    t = tk[i, None] + e
    owners.append(i)
    offsets.append(e)
    log_rest = (b - 1.0) * np.log((tk_comp[i, None] - e) * (1.0 + t))  # (1 - t^2)^(b-1)
    weights.append(2.0 * h * x * w * density(t, log_rest))

    n_mid = np.where(graded, -expo - 2, 0)  # [2^j t_k, 2^(j+1) t_k], j >= 1
    i = np.repeat(np.arange(tk.size), n_mid)
    left = np.ldexp(tk[i], np.arange(i.size) - np.repeat(np.cumsum(n_mid) - n_mid, n_mid) + 1)
    e = (left - tk[i])[:, None] + left[:, None] * x
    t = tk[i, None] + e
    owners.append(i)
    offsets.append(e)
    weights.append(left[:, None] * w * density(t, (b - 1.0) * np.log1p(-t * t)))

    x_end, w_end = _gauss_rule(b - 1.0, 0.0)  # (1 - t)^(b-1) in the weight
    e = lead[:, None] + tail[:, None] * x_end
    t = tk[:, None] + e
    owners.append(np.arange(tk.size))
    offsets.append(e)
    weights.append(tail[:, None] ** b * w_end * density(t, (b - 1.0) * np.log1p(t)))

    if zero.any():  # [0, 1/2], t^(2a-1) in the weight
        x0, w0 = _gauss_rule(0.0, 2.0 * a - 1.0)
        t = 0.5 * x0
        i = np.flatnonzero(zero)
        owners.append(i)
        offsets.append(np.broadcast_to(t, (i.size, t.size)))
        weights.append(np.broadcast_to(
            w0 * np.exp(log_norm - 2.0 * a * math.log(2.0) + (b - 1.0) * np.log1p(-t * t)),
            (i.size, t.size),
        ))

    own = np.repeat(np.concatenate(owners), _PANEL_NODES)
    e = r * np.concatenate([o.ravel() for o in offsets])  # d - d_k, never a difference
    wt = np.concatenate([o.ravel() for o in weights])
    sg = np.where(above[live][own], 1.0, -1.0)
    dk = r * tk[own]
    d = dk + e
    # x below R^2 and 1/x above it, factored so that no term cancels at d_k
    ratio = e * (2.0 * big_r + sg * (2.0 * dk + e)) / ((2.0 * dk + e) * (2.0 * big_r - sg * e))
    cond = (2.0 / math.pi) * np.arctan((big_r - sg * d) / (big_r + sg * d) * np.sqrt(ratio))
    acc = np.bincount(own, weights=wt * cond, minlength=tk.size)
    out[live] = np.where(above[live], 1.0 - acc, acc)
    return out


def sp_cdf(spec: StrategySpec, s) -> np.ndarray:
    """P(SP <= s) for one published track under `spec`, vectorised over s.

    Random-radius SP is the region's r^2 ~ Gamma(alpha, beta), fixed-radius
    SP is r_star^2, and two-balls SP is a Beta mixture of closed-form laws
    that Gauss quadrature integrates to about 1e-14 (`_two_balls_cdf`).
    Nothing is drawn.
    """
    s = np.asarray(s, dtype=float)
    if isinstance(spec, FixedRadius):
        return (s >= spec.r_star**2).astype(float)
    if isinstance(spec, RandomRadius):
        return gammainc(spec.gamma.alpha, spec.gamma.beta * np.maximum(s, 0.0))
    if isinstance(spec, TwoBalls):
        flat = s.ravel()
        blocks = np.split(flat, range(_CDF_BLOCK, flat.size, _CDF_BLOCK))
        return np.concatenate([_two_balls_cdf(spec, part) for part in blocks]).reshape(s.shape)
    raise TypeError(f"unknown strategy spec {spec!r}")


def sp_mean(spec: StrategySpec) -> float:
    """E[SP] for one published track under `spec`: r_star^2, alpha/beta, or
    R^2 - r^2 a/(a + b) for two-balls, summed as (R - r)(R + r) + r^2 b/(a + b)
    so that nothing cancels."""
    if isinstance(spec, FixedRadius):
        return spec.r_star**2
    if isinstance(spec, RandomRadius):
        return spec.gamma.mean
    if isinstance(spec, TwoBalls):
        r, big_r, a, b = spec.r, spec.R, spec.beta.alpha, spec.beta.beta
        return (big_r - r) * (big_r + r) + r * r * (b / (a + b))
    raise TypeError(f"unknown strategy spec {spec!r}")


def calibrate_random_radius(spec_tb: TwoBalls) -> CalibrationResult:
    """Gamma parameters matching the exact first two SP moments of `spec_tb`.

    The exit density times |z - theta|^2 is constant on the circle, so for
    a center at distance d from theta, E[SP | d] = R^2 - d^2 and
    E[SP^2 | d] = R^4 - d^4. With d^2 = r^2 u, u ~ Beta(a, b) of mean mu and
    variance s2, the mean is m = R^2 - r^2 mu and the variance is
    v = r^2 (2 mu m - r^2 s2). m is a sum of positive terms (`sp_mean`),
    and 2 mu m exceeds r^2 s2 more than twice over, so neither cancels;
    E[SP^2] - m^2 would lose every digit of v as r/R -> 0. Under
    random-radius SP ~ Gamma(alpha, beta) exactly, so matching moments
    means alpha = m^2/v and beta = m/v.
    """
    if not isinstance(spec_tb, TwoBalls):
        raise TypeError(f"calibration starts from a two-balls spec, got {spec_tb!r}")
    r, a, b = spec_tb.r, spec_tb.beta.alpha, spec_tb.beta.beta
    mu = a / (a + b)
    s2 = mu * b / ((a + b) * (a + b + 1.0))
    m = sp_mean(spec_tb)
    v = r * r * (2.0 * mu * m - r * r * s2)
    if v <= 0.0:
        raise DegenerateVariance(f"SP variance {v} is not positive")
    return CalibrationResult(GammaParams(m**2 / v, m / v), m, v)


def obfuscate_track(
    traj: Trajectory, theta, spec: StrategySpec, rng: np.random.Generator
) -> CutResult:
    """Cut one real track with a freshly drawn privacy region."""
    region = sample_region(theta, spec, rng)
    return cut_privacy_region(traj, region)
