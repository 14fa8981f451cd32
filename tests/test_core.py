import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from privregion.core import (
    BetaParams,
    DegenerateConfiguration,
    Disk,
    GammaParams,
    Point,
    derive_rng,
    fit_circle_center,
    make_rng,
)
from privregion.strategies import RandomRadius, TwoBalls, _region_offsets, generate_observations

coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestPrimitives:
    def test_point_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point(math.nan, 0.0)
        with pytest.raises(ValueError):
            Point(0.0, math.inf)

    def test_point_distance(self):
        assert Point(0.0, 0.0).distance_to(Point(3.0, 4.0)) == 5.0

    def test_disk_needs_positive_radius(self):
        with pytest.raises(ValueError):
            Disk(Point(0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            Disk(Point(0.0, 0.0), -1.0)

    def test_gamma_params_rate_convention(self):
        g = GammaParams(4.0, 2.0)
        assert g.mean == 2.0
        assert g.variance == 1.0
        with pytest.raises(ValueError):
            GammaParams(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaParams(1.0, -1.0)

    def test_beta_params_positive(self):
        BetaParams(0.5, 0.5)
        with pytest.raises(ValueError):
            BetaParams(0.0, 1.0)


class TestCircumcenter:
    """The center of the circle through exits, as fit_circle_center finds it."""

    @given(coord, coord, st.floats(min_value=0.01, max_value=100.0), st.data())
    def test_recovers_random_disk(self, cx, cy, radius, data):
        angles = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9),
                min_size=3,
                max_size=8,
                unique=True,
            )
        )
        pts = np.array([[cx + radius * math.cos(a), cy + radius * math.sin(a)] for a in angles])
        # The generated points miss the true circle by rounding, about
        # eps * (|center| + radius). Points that rise only h above their
        # longest chord (of length span) pin the center down to about
        # radius * rounding / h, so keep the sets where that is far below
        # the tolerance asserted here. area = h * span, twice a triangle's.
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        i, j = np.unravel_index(np.argmax(d2), d2.shape)
        span = math.sqrt(d2[i, j])
        chord, rel = pts[j] - pts[i], pts - pts[i]
        area = float(np.abs(chord[0] * rel[:, 1] - chord[1] * rel[:, 0]).max())
        rounding = sys.float_info.epsilon * (max(abs(cx), abs(cy)) + radius)
        assume(area > 1e-6 * span**2 and rounding * span / area < 2e-9)
        center, rms = fit_circle_center(pts, radius)
        assert center.distance_to(Point(cx, cy)) <= 1e-7 * radius
        assert rms <= 1e-7 * radius


class TestFitCircleCenter:
    def test_three_exact_points(self):
        center, rms = fit_circle_center(
            np.array([[8.0, 4.0], [3.0, 9.0], [-2.0, 4.0]]), radius_known=5.0
        )
        assert center.distance_to(Point(3.0, 4.0)) < 1e-9
        assert rms < 1e-9

    def test_many_exact_points(self, rng):
        true = Point(3.0, 4.0)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=100)
        pts = true.as_array() + 5.0 * np.column_stack([np.cos(angles), np.sin(angles)])
        center, rms = fit_circle_center(pts, radius_known=5.0)
        assert center.distance_to(true) < 1e-9
        assert rms < 1e-9

    def test_noisy_points_report_residual(self, rng):
        true = Point(-1.0, 2.0)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=200)
        radii = 3.0 + rng.normal(0.0, 0.01, size=200)
        pts = true.as_array() + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
        center, rms = fit_circle_center(pts, radius_known=3.0)
        assert center.distance_to(true) < 0.01
        assert 0.001 < rms < 0.05

    def test_collinear_raises(self):
        pts = np.array([[float(i), 2.0 * i] for i in range(5)])
        with pytest.raises(DegenerateConfiguration):
            fit_circle_center(pts, radius_known=1.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_circle_center(np.array([[0.0, 0.0], [1.0, 0.0]]), radius_known=1.0)


def reference_fit_circle_center(points, radius_known):
    """fit_circle_center as numpy.linalg computed it: an SVD for the
    collinearity test, then Kasa's fit and each Gauss-Newton step by lstsq."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    if s[0] == 0.0 or s[1] <= 1e-12 * s[0]:
        raise DegenerateConfiguration("points are collinear within tolerance")
    design = np.column_stack([2.0 * pts[:, 0], 2.0 * pts[:, 1], np.ones(n)])
    sol, *_ = np.linalg.lstsq(design, (pts**2).sum(axis=1), rcond=None)
    center = sol[:2]
    for _ in range(50):
        diff = pts - center
        dist = np.maximum(np.hypot(diff[:, 0], diff[:, 1]), 1e-300)
        step, *_ = np.linalg.lstsq(-diff / dist[:, None], radius_known - dist, rcond=None)
        center = center + step
        if float(np.hypot(*step)) <= 1e-14 * radius_known:
            break
    resid = np.hypot(*(pts - center).T) - radius_known
    return Point(center[0], center[1]), float(np.sqrt(np.mean(resid**2)))


class TestFitAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(3, 400),
        st.floats(0.01, 100.0),
        st.floats(0.05, 0.95),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_svd_and_lstsq(self, n, radius, ratio, seed):
        # exits of a two-balls region around a random home: spread along
        # the circle, as the attack sees them
        rng = make_rng(seed)
        theta = Point(*rng.uniform(-1e3, 1e3, 2))
        spec = TwoBalls(ratio * radius, radius, BetaParams(4.0, 4.0))
        pts = generate_observations(theta, spec, n, rng).positions
        center, rms = fit_circle_center(pts, radius)
        want, want_rms = reference_fit_circle_center(pts, radius)
        assert center.distance_to(want) <= 1e-12 * radius
        # the residuals are the rounding of the exits' coordinates
        assert max(rms, want_rms) <= 1e-12 * (radius + float(np.abs(pts).max()))

    @pytest.mark.parametrize("ratio, degenerate", [(1e-13, True), (1e-11, False)])
    def test_collinearity_threshold_is_the_svds(self, ratio, degenerate):
        # three points whose centered cloud has singular values sqrt(2) and
        # ratio * sqrt(2), in several orientations: s2 <= 1e-12 s1 raises,
        # in the closed form as in the SVD it replaces
        major = np.array([-1.0, 0.0, 1.0])
        minor = ratio / math.sqrt(3.0) * np.array([1.0, -2.0, 1.0])
        for angle in (0.0, 0.3, 1.0, 2.5):
            cos, sin = math.cos(angle), math.sin(angle)
            pts = np.column_stack([0.3 + cos * major - sin * minor, -0.2 + sin * major + cos * minor])
            s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
            assert s[1] / s[0] == pytest.approx(ratio, rel=1e-2)
            for fit in (fit_circle_center, reference_fit_circle_center):
                if degenerate:
                    with pytest.raises(DegenerateConfiguration):
                        fit(pts, 1.0)
                else:
                    center, rms = fit(pts, 1.0)
                    assert math.isfinite(center.x + center.y + rms)


def sample_gamma(params, rng, size):
    """r^2 of `size` random-radius regions, as the package draws them."""
    _, radii = _region_offsets(RandomRadius(params), size, rng)
    return radii**2


def sample_beta(params, rng, size):
    """|c - theta|^2 / r^2 of `size` two-balls centers (r = 1), as the
    package draws them."""
    offsets, _ = _region_offsets(TwoBalls(1.0, 2.0, params), size, rng)
    return (offsets**2).sum(axis=1)


class TestSamplers:
    # the package's Gamma draws take the rate convention, and its Beta
    # draws the placement law
    def test_gamma_moments(self):
        rng = make_rng(7)
        draws = sample_gamma(GammaParams(4.0, 4.0), rng, size=1_000_000)
        assert abs(draws.mean() - 1.0) < 0.01
        draws = sample_gamma(GammaParams(4.0, 2.0), rng, size=1_000_000)
        assert abs(draws.mean() - 2.0) < 0.02
        assert abs(draws.var() - 1.0) < 0.05

    def test_gamma_matches_scipy_law(self):
        draws = sample_gamma(GammaParams(2.5, 0.7), make_rng(11), size=20_000)
        res = stats.kstest(draws, stats.gamma(a=2.5, scale=1.0 / 0.7).cdf)
        assert res.pvalue > 0.01

    def test_beta_uniform_case(self):
        draws = sample_beta(BetaParams(1.0, 1.0), make_rng(3), size=50_000)
        assert abs(draws.mean() - 0.5) < 0.01
        res = stats.kstest(draws, stats.uniform.cdf)
        assert res.pvalue > 0.01

    def test_beta_matches_scipy_law(self):
        draws = sample_beta(BetaParams(4.0, 2.0), make_rng(5), size=20_000)
        res = stats.kstest(draws, stats.beta(4.0, 2.0).cdf)
        assert res.pvalue > 0.01


class TestRngDiscipline:
    def test_same_seed_same_stream(self):
        a = make_rng(123).standard_normal(32)
        b = make_rng(123).standard_normal(32)
        assert np.array_equal(a, b)

    def test_derive_rng_depends_on_path(self):
        a = derive_rng(9, 1, 2).standard_normal(8)
        b = derive_rng(9, 1, 3).standard_normal(8)
        c = derive_rng(9, 1, 2).standard_normal(8)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)

    def test_derive_rng_order_free(self):
        # Stream (9, 5, 0) is the same whether or not (9, 4, ...) was used first.
        _ = derive_rng(9, 4, 0).standard_normal(100)
        fresh = derive_rng(9, 5, 0).standard_normal(8)
        direct = derive_rng(9, 5, 0).standard_normal(8)
        assert np.array_equal(fresh, direct)

    def test_empty_path_matches_make_rng(self):
        assert np.array_equal(derive_rng(42).standard_normal(4), make_rng(42).standard_normal(4))
