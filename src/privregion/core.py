"""Planar geometry primitives, circle fitting, and scalar distribution utilities.

Distances are plain Euclidean meters; there is no geodesy here. Gamma
parameters follow the rate convention throughout the package: a
``GammaParams(alpha, beta)`` draw has mean ``alpha / beta`` and variance
``alpha / beta**2``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Point",
    "Disk",
    "GammaParams",
    "BetaParams",
    "DegenerateConfiguration",
    "fit_circle_center",
    "sample_gamma",
    "sample_beta",
    "jacobi_rule",
    "make_rng",
    "derive_rng",
]

class DegenerateConfiguration(ValueError):
    """A point set is too degenerate (e.g. collinear) for circle fitting."""


@dataclass(frozen=True)
class Point:
    """A planar position in meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def as_xy(point_like) -> np.ndarray:
    """Coerce a Point, pair, or length-2 array to a float ndarray of shape (2,)."""
    if isinstance(point_like, Point):
        return point_like.as_array()
    arr = np.asarray(point_like, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"expected a planar point, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Disk:
    """A closed disk: center plus strictly positive radius."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"disk radius must be finite and > 0, got {self.radius}")


@dataclass(frozen=True)
class GammaParams:
    """Gamma(shape alpha, rate beta); mean alpha/beta, variance alpha/beta^2."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"gamma shape must be finite and > 0, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"gamma rate must be finite and > 0, got {self.beta}")

    @property
    def mean(self) -> float:
        return self.alpha / self.beta

    @property
    def variance(self) -> float:
        return self.alpha / self.beta**2


@dataclass(frozen=True)
class BetaParams:
    """Beta(alpha, beta) on [0, 1]."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"beta alpha must be finite and > 0, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta beta must be finite and > 0, got {self.beta}")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


@functools.lru_cache(maxsize=256)
def jacobi_rule(N: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """N-node Gauss rule of the Beta(alpha, beta) law: nodes u in (0, 1) and
    weights summing to 1. Each rule is built once per process and shared,
    read-only, by every later call.

    These are scipy.special.roots_jacobi(N, beta - 1, alpha - 1) mapped by
    u = (1 + x)/2, computed here with numpy alone, as roots_jacobi would
    load scipy.linalg (6 MB resident): the eigenvalues of the Jacobi
    matrix of the Jacobi polynomials' three-term recurrence (Golub and
    Welsch, Math. Comp. 23, 1969), one Newton step on P_N, and weights
    1 / ((1 - x^2) P_N'(x)^2) with P_N' proportional to P_(N-1) of
    exponents one higher. At the 24 nodes of sp_cdf's panels, exponents
    -0.7 to 13, those weights match roots_jacobi's to 5.5e-13 relative;
    the eigenvectors' squared first components, the usual Golub-Welsch
    weights, are off by up to 1.5e-11, at exponents (0, 13).
    """
    # imported on first use: loaded with this module, scipy.special comes in
    # ahead of the package's other modules and the resident size after
    # `import privregion` grows by about 0.8 MB
    from scipy.special import eval_jacobi

    a, b = beta - 1.0, alpha - 1.0  # exponents of (1 - x) and (1 + x)
    s = 2.0 * np.arange(1.0, N) + a + b
    diag = np.concatenate([[(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))])
    # squared off-diagonal at k = 1, 2, ...: at k = 1 the factor k + a + b
    # cancels against 2k + a + b - 1, both zero when a + b = -1
    k, s = np.arange(2.0, N), s[1:]
    off2 = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    off2 = np.concatenate([[4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))], off2])
    off = np.sqrt(off2[: N - 1])
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    x -= eval_jacobi(N, a, b, x) / (0.5 * (N + a + b + 1.0) * eval_jacobi(N - 1, a + 1.0, b + 1.0, x))
    dp = eval_jacobi(N - 1, a + 1.0, b + 1.0, x)
    dp /= np.abs(dp).max()
    w = 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    u, w = 0.5 * (1.0 + x), w / w.sum()
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def make_rng(seed: int) -> np.random.Generator:
    """A counter-based generator for `seed`; see `derive_rng` for parallel streams."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """An independent stream keyed by (seed, *path).

    Streams for distinct paths are statistically independent and do not
    depend on the order in which they are created, so parallel replicates
    reproduce exactly regardless of scheduling.
    """
    if any(p < 0 for p in path):
        raise ValueError(f"stream path components must be non-negative, got {path}")
    seq = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))


def sample_gamma(params: GammaParams, rng: np.random.Generator, size=None):
    """Draw from Gamma(alpha, rate beta): mean alpha/beta."""
    return rng.gamma(shape=params.alpha, scale=1.0 / params.beta, size=size)


def sample_beta(params: BetaParams, rng: np.random.Generator, size=None):
    """Draw from Beta(alpha, beta) on [0, 1]."""
    return rng.beta(params.alpha, params.beta, size=size)


def fit_circle_center(points: np.ndarray, radius_known: float) -> tuple[Point, float]:
    """Best center for (n, 2) points known to lie on a circle of radius `radius_known`.

    All of it is 2 x 2 algebra on sums over the points, with no LAPACK
    call. The centered cloud's singular values s1 >= s2 are its spreads
    along its principal axes, at angle atan2(2 Sxy, Sxx - Syy) / 2 from the
    centered moments; projecting the points onto the axes keeps s2 accurate
    where the moments would cancel, and s2 <= 1e-12 s1 raises
    DegenerateConfiguration. Algebraic (Kasa) least squares,
    2 x cx + 2 y cy + c0 = x^2 + y^2, is diagonal in those axes and gives
    the starting center; Gauss-Newton steps, each a 2 x 2 normal-equation
    solve, then minimize sum((|z_i - c| - R)^2) with the radius held fixed.
    Returns (center, rms residual).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got shape {pts.shape}")
    n = len(pts)
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if not (math.isfinite(radius_known) and radius_known > 0):
        raise ValueError(f"radius must be finite and > 0, got {radius_known}")
    x, y = pts.T.copy()
    mx, my = float(x.sum()) / n, float(y.sum()) / n
    xs, ys = x - mx, y - my
    phi = 0.5 * math.atan2(2.0 * float(xs @ ys), float(xs @ xs) - float(ys @ ys))
    cos, sin = math.cos(phi), math.sin(phi)
    major = cos * xs + sin * ys
    minor = cos * ys - sin * xs
    s1, s2 = math.sqrt(float(major @ major)), math.sqrt(float(minor @ minor))
    if s1 == 0.0 or s2 <= 1e-12 * s1:
        raise DegenerateConfiguration("points are collinear within tolerance")

    # Kasa in the principal axes, where its normal matrix is diag(s1^2, s2^2)
    q = xs * xs + ys * ys
    a, b = float(major @ q) / (2.0 * s1 * s1), float(minor @ q) / (2.0 * s2 * s2)
    cx, cy = mx + cos * a - sin * b, my + sin * a + cos * b

    for _ in range(50):
        dx, dy = x - cx, y - cy
        dist = np.maximum(np.hypot(dx, dy), 1e-300)
        resid = dist - radius_known
        dx /= dist
        dy /= dist
        # unit vectors e_i = -J_i: solve (sum e e^T) step = sum e_i resid_i
        axx, ayy, axy = float(dx @ dx), float(dy @ dy), float(dx @ dy)
        gx, gy = float(dx @ resid), float(dy @ resid)
        det = axx * ayy - axy * axy
        if not det > 0.0:
            break
        sx, sy = (ayy * gx - axy * gy) / det, (axx * gy - axy * gx) / det
        cx, cy = cx + sx, cy + sy
        if math.hypot(sx, sy) <= 1e-14 * radius_known:
            break

    resid = np.hypot(x - cx, y - cy) - radius_known
    rms = math.sqrt(float(resid @ resid) / n)
    return Point(cx, cy), rms
