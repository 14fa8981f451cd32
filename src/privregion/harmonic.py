"""Exit law of planar Brownian motion from a disk.

For a disk of center c and radius R, Brownian motion started at an interior
point theta first hits the boundary with density

    (R^2 - |theta - c|^2) / (2 pi R |z - theta|^2)

with respect to ARC LENGTH on the circle (not angle). This module evaluates
that density, samples it exactly through the disk automorphism
u -> (u + a) / (1 + conj(a) u) with a = (theta - c) / R, and provides the
closed-form second moment E||z - theta||^2 = R^2 - |theta - c|^2.

The same map gives the squared perturbation in closed form: for
u = exp(i phi) with phi uniform and d = |theta - c|,

    ||z - theta||^2 = (R^2 - d^2)^2 / (R^2 + d^2 + 2 R d cos psi),

psi = phi - arg(theta - c), which is uniform too. `strategies.sp_cdf`
builds the exact SP laws on it.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Disk, as_xy

__all__ = [
    "ThetaOutsideRegion",
    "PointNotOnBoundary",
    "harmonic_log_density",
    "sample_exit_offsets",
    "expected_sp_given_center",
    "BOUNDARY_RTOL",
]

BOUNDARY_RTOL = 1e-9

# Interior margin: the kernel blows up as theta approaches the boundary, and
# every strategy in this package keeps theta strictly interior, so points
# closer than this are rejected outright.
THETA_INTERIOR_MARGIN = 1e-6


class ThetaOutsideRegion(ValueError):
    """The start point is not strictly inside the disk."""


class PointNotOnBoundary(ValueError):
    """A point is not on its disk's boundary within BOUNDARY_RTOL."""


def _interior_offset(theta, region: Disk) -> np.ndarray:
    off = as_xy(theta) - region.center.as_array()
    if float(np.hypot(*off)) > (1.0 - THETA_INTERIOR_MARGIN) * region.radius:
        raise ThetaOutsideRegion(
            f"theta at distance {float(np.hypot(*off))!r} from center is not strictly "
            f"inside radius {region.radius!r}"
        )
    return off


def harmonic_log_density(z, theta, region: Disk) -> float:
    """Log exit density at boundary point `z` for motion started at `theta`.

    The density is w.r.t. arc length, so exp(log density) integrates to 1
    over the circle of circumference 2 pi R.
    """
    t_off = _interior_offset(theta, region)
    z_off = as_xy(z) - region.center.as_array()
    r = region.radius
    dist = float(np.hypot(*z_off))
    if abs(dist - r) > BOUNDARY_RTOL * r:
        raise PointNotOnBoundary(f"|z - c| = {dist!r} is not {r!r} within tolerance")
    sep2 = float(((z_off - t_off) ** 2).sum())
    return math.log(r**2 - float(t_off @ t_off)) - math.log(2.0 * math.pi * r) - math.log(sep2)


def sample_exit_offsets(
    theta_offsets: np.ndarray, radii, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact exit samples, center-relative, for vectorized use.

    `theta_offsets` is (2,) or (n, 2) start positions relative to the disk
    centers, `radii` scalar or (n,). Returns (n, 2) boundary offsets from the
    centers, projected exactly onto each circle so downstream circle
    recovery sees no float drift.
    """
    offs = np.broadcast_to(np.atleast_2d(np.asarray(theta_offsets, dtype=float)), (n, 2))
    radii = np.broadcast_to(np.asarray(radii, dtype=float), (n,))
    a = (offs[:, 0] + 1j * offs[:, 1]) / radii
    if np.any(np.abs(a) > 1.0 - THETA_INTERIOR_MARGIN):
        raise ThetaOutsideRegion("a start point is not strictly inside its region")
    u = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=n))
    w = (u + a) / (1.0 + np.conj(a) * u)
    w /= np.abs(w)  # |w| = 1 analytically; renormalize to kill float error
    return np.column_stack([w.real, w.imag]) * radii[:, None]


def expected_sp_given_center(theta, region: Disk) -> float:
    """E||z - theta||^2 for the exit point z: equals R^2 - |theta - c|^2."""
    t_off = _interior_offset(theta, region)
    return region.radius**2 - float(t_off @ t_off)
