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
    "jacobi_rule",
    "hermegauss",
    "betaln",
    "gammainc",
    "gammaincinv",
    "gammainccinv",
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


def _jacobi_normalized(n: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    """P_n^(a, b)(x) / P_n^(a, b)(1) by the polynomials' three-term
    recurrence (DLMF 18.9.1) carried in differences d_k = p_k - p_(k-1),
    each a multiple of x - 1, so that no digits cancel near x = 1."""
    if n == 0:
        return np.ones_like(x)
    xm1 = x - 1.0
    d = (a + b + 2.0) * xm1 / (2.0 * (a + 1.0))
    p = 1.0 + d
    for k in range(1, n):
        t = 2.0 * k + a + b
        d = t * (t + 1.0) * (t + 2.0) * xm1 * p + 2.0 * k * (k + b) * (t + 2.0) * d
        d /= 2.0 * (k + a + 1.0) * (k + a + b + 1.0) * t
        p = p + d
    return p


@functools.lru_cache(maxsize=256)
def jacobi_rule(N: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """N-node Gauss rule of the Beta(alpha, beta) law: nodes u in (0, 1) and
    weights summing to 1. Each rule is built once per process and shared,
    read-only, by every later call.

    These are the Gauss-Jacobi nodes x of exponents (beta - 1, alpha - 1)
    mapped by u = (1 + x)/2: the eigenvalues of the Jacobi matrix of the
    Jacobi polynomials' three-term recurrence (Golub and Welsch, Math.
    Comp. 23, 1969), one Newton step on P_N, and weights
    1 / ((1 - x^2) P_N'(x)^2), with P_N' proportional to P_(N-1) of
    exponents one higher. Both polynomials come from the recurrence itself
    (`_jacobi_normalized`), at every node at once. The eigenvectors' squared
    first components, the usual Golub-Welsch weights, are off by up to
    1.5e-11, at exponents (0, 13).
    """
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
    # Newton's step x -= P_N / P_N', with P_N' = (N + a + b + 1)/2 P_(N-1) of
    # exponents (a + 1, b + 1), from the values divided by those at x = 1
    dp = _jacobi_normalized(N - 1, a + 1.0, b + 1.0, x)
    x -= 2.0 * (a + 1.0) * _jacobi_normalized(N, a, b, x) / (N * (N + a + b + 1.0) * dp)
    dp = _jacobi_normalized(N - 1, a + 1.0, b + 1.0, x)
    dp /= np.abs(dp).max()
    w = 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    u, w = 0.5 * (1.0 + x), w / w.sum()
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def _hermite_normalized(n: int, x: np.ndarray) -> np.ndarray:
    """He_n(x) / sqrt(n! sqrt(2 pi)), the orthonormal Hermite polynomial of
    the normal law's weight, by its recurrence run down from degree n."""
    c1 = 1.0 / math.sqrt(math.sqrt(2.0 * math.pi))
    if n == 0:
        return np.full(x.shape, c1)
    c0, nd = 0.0, float(n)
    for _ in range(n - 1):
        c0, c1 = -c1 * math.sqrt((nd - 1.0) / nd), c0 + c1 * x * math.sqrt(1.0 / nd)
        nd -= 1.0
    return c0 + c1 * x


def hermegauss(N: int) -> tuple[np.ndarray, np.ndarray]:
    """N-node Gauss rule of the weight exp(-x^2 / 2): nodes, and weights
    summing to sqrt(2 pi). The same algorithm, and the same bits, as
    numpy.polynomial.hermite_e.hermegauss, without loading that package:
    the eigenvalues of the symmetric tridiagonal Jacobi matrix (off-diagonal
    sqrt(k)), one Newton step on the orthonormal He_N, weights
    1 / He_(N-1)^2 scaled by their largest term, then nodes and weights
    symmetrized about 0."""
    off = np.sqrt(np.arange(1.0, N))
    x = np.linalg.eigvalsh(np.diag(off, -1) + np.diag(off, 1))
    x -= _hermite_normalized(N, x) / (_hermite_normalized(N - 1, x) * math.sqrt(N))
    fm = _hermite_normalized(N - 1, x)
    fm /= np.abs(fm).max()
    w = 1.0 / (fm * fm)
    w = (w + w[::-1]) / 2.0
    x = (x - x[::-1]) / 2.0
    w *= math.sqrt(2.0 * math.pi) / w.sum()
    return x, w


# Special functions from numpy and math alone; log Gamma is math.lgamma. The
# incomplete Gamma ratios P(a, x) = gamma(a, x) / Gamma(a) and Q = 1 - P take
# P's power series below x = a + 1 and Q's continued fraction (Lentz) above
# (Press et al., Numerical Recipes, 3rd ed., sect. 6.2), and below a = SMALL_SHAPE
# a series for Q where 1 - P would cancel. The inverses take Halley steps from
# DiDonato and Morris's starts (ACM TOMS 12(4), 1986), for a > 1 their eq. 31 from
# Temme's uniform expansion. Each loop stops at a tolerance rounding reaches.
SERIES_RTOL, FRACTION_RTOL, HALLEY_RTOL, MAX_TERMS, SMALL_SHAPE = 1e-17, 1e-15, 1e-10, 1000, 1.5
# their eq. 32, the normal quantile t - num(t) / den(t) at 1 - p, t = sqrt(-2 log p)
_NORMAL_NUM = (0.213623493715853, 4.28342155967104, 11.6616720288968, 3.31125922108741)
_NORMAL_DEN = (0.3611708101884203e-1, 1.27364489782223, 6.40691597760039, 6.61053765625462, 1.0)


def betaln(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _gamma_pq(a: float, x) -> tuple[np.ndarray, np.ndarray]:
    """P(a, x) and Q(a, x), each to about 1e-14 relative, for x >= 0."""
    shape, x = np.shape(x), np.asarray(x, dtype=float).ravel()
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
    front = np.exp(a * log_x - x - math.lgamma(a))  # x^a e^-x / Gamma(a)
    # below x = 700 and a = 100 no factor under- or overflows, and the product
    # of three rounded factors beats the exponential of a rounded exponent
    if a < 100.0:
        near = x < 700.0
        front[near] = x[near] ** a * np.exp(-x[near]) / math.gamma(a)
    p, q, low = np.empty_like(x), np.empty_like(x), x < a + 1.0
    xl = x[low]
    term, total, k = np.ones_like(xl), np.ones_like(xl), a
    last = np.argmax(xl) if xl.size else None  # the largest x converges last
    while last is not None and term[last] > SERIES_RTOL * total[last]:
        k += 1.0
        term *= xl / k
        total += term
    p[low] = front[low] * total / a
    q[low] = 1.0 - p[low]
    if a < SMALL_SHAPE:  # Q = 1 - x^a / Gamma(a + 1) (1 + a sum_n>0 (-x)^n / (n! (a + n)))
        term, total = np.ones_like(xl), np.zeros_like(xl)
        for n in range(1, MAX_TERMS):
            term *= -xl / n
            total += term / (a + n)
            if np.all(np.abs(term) <= SERIES_RTOL * (a + n) * np.abs(total)):
                break
        t = a * log_x[low] - math.log(math.gamma(a + 1.0))
        q[low] = -np.expm1(t) - np.exp(t) * a * total
    b = x[~low] + 1.0 - a
    c, d = np.full_like(b, np.inf), 1.0 / b
    frac = d.copy()
    for i in range(1, MAX_TERMS):
        an, b = -i * (i - a), b + 2.0
        d, c = 1.0 / (an * d + b), b + an / c
        frac *= d * c
        if np.abs(d * c - 1.0).max(initial=0.0) <= FRACTION_RTOL:  # they settle a few ulps off 1
            break
    q[~low] = front[~low] * frac
    p[~low] = 1.0 - q[~low]
    return p.reshape(shape), q.reshape(shape)


def gammainc(a: float, x) -> np.ndarray:
    """The Gamma(a) law's CDF P(a, x), elementwise over x >= 0."""
    return _gamma_pq(a, x)[0][()]


def _gamma_inverse(a: float, p: float, q: float) -> float:
    """x with P(a, x) = p and Q(a, x) = q = 1 - p, for 0 < p < 1."""
    x, lg = 0.0, math.lgamma(a)
    if a > 1.0:  # eq. 31
        t = math.sqrt(-2.0 * math.log(min(p, q)))
        s, ra = math.copysign(t - np.polyval(_NORMAL_NUM, t) / np.polyval(_NORMAL_DEN, t), p - q), math.sqrt(a)
        x = a + s * ra + (s * s - 1.0) / 3.0 + (s**3 - 7.0 * s) / (36.0 * ra)
        x += ((9.0 * s**5 + 256.0 * s**3 - 433.0 * s) / (48.0 * ra) - (3.0 * s**4 + 7.0 * s * s - 16.0)) / (810.0 * a)
    if x <= 0.0 and q * math.exp(lg) < 0.6:  # eq. 23, from Q's asymptotic series
        y = -math.log(q) - lg
        u = y - (1.0 - a) * math.log(y)
        x = y - (1.0 - a) * math.log(u) - math.log1p((1.0 - a) / (1.0 + u))
    elif x <= 0.0:  # eq. 21, from P's leading term
        u = math.exp((math.log(p) + math.lgamma(a + 1.0)) / a)
        x = u / (1.0 - u / (a + 1.0))
    for _ in range(MAX_TERMS):
        pa, qa = _gamma_pq(a, x)  # Newton's ratio from the smaller, accurate one
        t = (float(pa) - p if p <= q else q - float(qa)) / math.exp((a - 1.0) * math.log(x) - x - lg)
        step = t / (1.0 - 0.5 * min(1.0, t * ((a - 1.0) / x - 1.0)))
        x, last = (x - step if step < x else 0.5 * x), x
        if abs(x - last) <= HALLEY_RTOL * x:
            return x
    raise ArithmeticError(f"incomplete Gamma inverse did not converge at a = {a}, p = {p}")


def gammaincinv(a: float, p: float) -> float:
    """x with P(a, x) = p: the Gamma(a) law's p quantile."""
    return _gamma_inverse(a, p, 1.0 - p)


def gammainccinv(a: float, q: float) -> float:
    """x with Q(a, x) = q: the Gamma(a) law's upper q quantile."""
    return _gamma_inverse(a, 1.0 - q, q)


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
