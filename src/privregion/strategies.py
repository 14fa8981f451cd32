"""Privacy-region strategies, attack observations, and SP moment matching.

Three ways to choose privacy regions around a home location theta:

* fixed-radius: every region is the ball B(theta, r_star);
* random-radius: per-track balls B(theta, r_i) with r_i^2 ~ Gamma(alpha, beta);
* two-balls: one shared ball B(c, R) per user, c = theta + r rho (cos tau,
  sin tau) with rho^2 ~ Beta(alpha, beta) and tau uniform.

All draws are made in theta-relative coordinates, so shifting theta shifts
regions, exits, and published tracks rigidly while SP values stay
bit-identical under the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import harmonic, trajectory
from .core import BetaParams, Disk, GammaParams, Point, as_xy, sample_beta, sample_gamma
from .harmonic import ExitPoint
from .trajectory import CutResult, Trajectory, cut_privacy_region

__all__ = [
    "FixedRadius",
    "RandomRadius",
    "TwoBalls",
    "StrategySpec",
    "ExitObservationSet",
    "CalibrationResult",
    "DegenerateVariance",
    "ExactExits",
    "SimulatedExits",
    "EXACT",
    "sample_region",
    "generate_observations",
    "sample_sps",
    "calibrate_random_radius",
    "obfuscate_track",
]


class DegenerateVariance(ValueError):
    """SP draws had no spread, so no Gamma can be moment-matched to them."""


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


@dataclass(frozen=True)
class ExactExits:
    """Draw exits straight from the disk exit law (this IS the model)."""


@dataclass(frozen=True)
class SimulatedExits:
    """Draw exits by stepping discrete Brownian paths until they leave.

    dt defaults to the per-region policy in `trajectory.default_exit_dt`.
    Exit samples overshoot the boundary by O(sqrt(sigma2 * dt)) and are
    projected radially onto the circle before becoming observations.
    """

    sigma2: float = 1.0
    dt: float | None = None
    max_steps: int = 1_000_000


EXACT = ExactExits()


@dataclass(frozen=True)
class ExitObservationSet:
    """What the attacker sees: exit points plus known strategy parameters."""

    strategy: StrategySpec
    exits: tuple[ExitPoint, ...]
    sps: np.ndarray
    # (n, 2) exit coordinates, read-only; derived from `exits` once
    positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        exits = tuple(self.exits)
        sps = np.asarray(self.sps, dtype=float).copy()
        if len(exits) < 1 or sps.shape != (len(exits),):
            raise ValueError(f"need matching exits and sps, got {len(exits)} and {sps.shape}")
        if isinstance(self.strategy, TwoBalls):
            region = exits[0].region
            if any(e.region != region for e in exits):
                raise ValueError("two-balls exits must share one region")
        positions = np.array([[e.pos.x, e.pos.y] for e in exits], dtype=float)
        sps.setflags(write=False)
        positions.setflags(write=False)
        object.__setattr__(self, "exits", exits)
        object.__setattr__(self, "sps", sps)
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.exits)

    @property
    def shared_region(self) -> Disk:
        if not isinstance(self.strategy, TwoBalls):
            raise TypeError("only two-balls observations share a region")
        return self.exits[0].region


@dataclass(frozen=True)
class CalibrationResult:
    """Gamma parameters whose first two moments match sampled SP moments."""

    matched_gamma: GammaParams
    sp_mean: float
    sp_var: float
    n_draws: int

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
        radii = np.sqrt(sample_gamma(spec.gamma, rng, size=n))
        return np.zeros((n, 2)), radii
    if isinstance(spec, TwoBalls):
        rho = np.sqrt(sample_beta(spec.beta, rng, size=n))
        tau = rng.uniform(0.0, 2.0 * math.pi, size=n)
        offsets = spec.r * rho[:, None] * np.column_stack([np.cos(tau), np.sin(tau)])
        return offsets, np.full(n, spec.R)
    raise TypeError(f"unknown strategy spec {spec!r}")


def sample_region(theta, spec: StrategySpec, rng: np.random.Generator) -> Disk:
    """Draw one privacy region for a user at `theta`."""
    t = as_xy(theta)
    offsets, radii = _region_offsets(spec, 1, rng)
    return Disk(Point(t[0] + offsets[0, 0], t[1] + offsets[0, 1]), float(radii[0]))


def _exit_offsets(
    center_offsets: np.ndarray,
    radii: np.ndarray,
    mode: ExactExits | SimulatedExits,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exit samples relative to the region centers, one per region.

    The path starts at theta, which sits at -center_offset relative to each
    region's center. Simulated exits are projected onto the circle.
    """
    starts = -center_offsets
    if isinstance(mode, ExactExits):
        return harmonic.sample_exit_offsets(starts, radii, len(radii), rng)
    dts = (
        np.full(len(radii), mode.dt)
        if mode.dt is not None
        else trajectory.default_exit_dt(radii, mode.sigma2)
    )
    raw = trajectory.simulate_exit_offsets(starts, radii, mode.sigma2, dts, mode.max_steps, rng)
    return raw * (radii / np.hypot(raw[:, 0], raw[:, 1]))[:, None]


def generate_observations(
    theta,
    spec: StrategySpec,
    n: int,
    rng: np.random.Generator,
    mode: ExactExits | SimulatedExits = EXACT,
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
    exit_offs = _exit_offsets(offsets, radii, mode, rng)
    rel = offsets + exit_offs  # z - theta
    sps = (rel**2).sum(axis=1)

    if isinstance(spec, TwoBalls):
        regions = [Disk(Point(t[0] + offsets[0, 0], t[1] + offsets[0, 1]), float(radii[0]))] * n
    else:
        regions = [
            Disk(Point(t[0] + off[0], t[1] + off[1]), float(r)) for off, r in zip(offsets, radii)
        ]
    exits = tuple(
        ExitPoint(Point(t[0] + rel[i, 0], t[1] + rel[i, 1]), regions[i]) for i in range(n)
    )
    return ExitObservationSet(spec, exits, sps)


def sample_sps(spec: StrategySpec, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """n_draws independent SP values, each from a fresh (region, exit) pair.

    This is the marginal SP distribution of a single published track; it
    does not depend on theta because the strategies are translation
    invariant.
    """
    if n_draws < 1:
        raise ValueError(f"need n_draws >= 1, got {n_draws}")
    offsets, radii = _region_offsets(spec, n_draws, rng)
    exit_offs = _exit_offsets(offsets, radii, EXACT, rng)
    rel = offsets + exit_offs
    return (rel**2).sum(axis=1)


def calibrate_random_radius(
    spec_tb: TwoBalls, n_draws: int, rng: np.random.Generator
) -> CalibrationResult:
    """Gamma parameters matching the first two sample SP moments of `spec_tb`.

    Under the random-radius strategy SP ~ Gamma(alpha, beta) exactly, so
    matching moments means alpha = m^2/v and beta = m/v for the sample mean
    m and variance v of two-balls SP draws.
    """
    if not isinstance(spec_tb, TwoBalls):
        raise TypeError(f"calibration starts from a two-balls spec, got {spec_tb!r}")
    if n_draws < 1000:
        raise ValueError(f"need n_draws >= 1000 for stable moments, got {n_draws}")
    sps = sample_sps(spec_tb, n_draws, rng)
    m = float(sps.mean())
    v = float(sps.var(ddof=1))
    if v <= 0.0:
        raise DegenerateVariance(f"SP sample variance {v} is not positive")
    return CalibrationResult(GammaParams(m**2 / v, m / v), m, v, n_draws)


def obfuscate_track(
    traj: Trajectory, theta, spec: StrategySpec, rng: np.random.Generator
) -> CutResult:
    """Cut one real track with a freshly drawn privacy region."""
    region = sample_region(theta, spec, rng)
    return cut_privacy_region(traj, region)
