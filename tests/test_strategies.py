import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from privregion import strategies
from privregion.core import BetaParams, Disk, GammaParams, Point, derive_rng, gammainc, make_rng
from privregion.experiments import TABLE1_SETTINGS, setting_tag
from privregion.harmonic import PointNotOnBoundary, sample_exit_offsets
from privregion.strategies import (
    CalibrationResult,
    DegenerateVariance,
    ExitObservationSet,
    FixedRadius,
    RandomRadius,
    TwoBalls,
    calibrate_random_radius,
    generate_observations,
    obfuscate_track,
    sample_region,
    sample_sps,
    sp_cdf,
)
from privregion.trajectory import Trajectory, simulate_brownian

TB_MAIN = TwoBalls(1.0, 3.0, BetaParams(4.0, 4.0))  # mean SP 9 - 0.5 = 8.5
RR_MAIN = RandomRadius(GammaParams(4.0, 4.0))
ORIGIN = Point(0.0, 0.0)


class TestSpecValidation:
    def test_fixed_radius_positive(self):
        FixedRadius(0.5)
        with pytest.raises(ValueError):
            FixedRadius(0.0)

    def test_two_balls_ordering(self):
        with pytest.raises(ValueError):
            TwoBalls(3.0, 1.0, BetaParams(1.0, 1.0))
        with pytest.raises(ValueError):
            TwoBalls(1.0, 1.0, BetaParams(1.0, 1.0))

    def test_observation_set_shapes(self):
        z = np.array([[1.0, 0.0]])
        c = np.zeros((1, 2))
        ExitObservationSet(FixedRadius(1.0), z, c, [1.0], [1.0])
        with pytest.raises(ValueError):
            ExitObservationSet(FixedRadius(1.0), z, c, [1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            ExitObservationSet(FixedRadius(1.0), z, c, [1.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            ExitObservationSet(FixedRadius(1.0), z, np.zeros(2), [1.0], [1.0])
        with pytest.raises(ValueError):
            ExitObservationSet(FixedRadius(1.0), z.T, c, [1.0], [1.0])
        with pytest.raises(ValueError):
            ExitObservationSet(FixedRadius(1.0), np.zeros((0, 2)), np.zeros((0, 2)), [], [])

    def test_off_circle_exit_refused(self):
        # exits must lie on their region's boundary within BOUNDARY_RTOL
        c = np.zeros((3, 2))
        on = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, 0.0]])
        radii = np.array([1.0, 2.0, 1.0])
        ExitObservationSet(RR_MAIN, on, c, radii, (on**2).sum(axis=1))
        for z in ([0.0, 1.9], [0.0, 2.1]):
            off = on.copy()
            off[1] = z
            with pytest.raises(PointNotOnBoundary, match="exit 1"):
                ExitObservationSet(RR_MAIN, off, c, radii, (off**2).sum(axis=1))

    def test_tiny_regions_away_from_origin_build(self):
        # Gamma shape 0.108 (matched to (2.9, 3, 4, 0.5)) draws radii far
        # below the rounding of |theta|; their exits, placed exactly in
        # theta-relative coordinates, must not be refused once theta is
        # added (148 of 200 draws were at (3, 4), 181 at (100, 0))
        spec = RandomRadius(calibrate_random_radius(TwoBalls(2.9, 3.0, BetaParams(4.0, 0.5))).matched_gamma)
        for theta in (Point(3.0, 4.0), Point(100.0, 0.0)):
            for rep in range(200):
                generate_observations(theta, spec, 50, derive_rng(1, rep))
        # an exit moved off its circle by 1e-6 of its radius still is
        obs = generate_observations(Point(100.0, 0.0), spec, 50, derive_rng(1, 0))
        i = int(np.argmax(obs.radii))
        pos = obs.positions.copy()
        pos[i] += 1e-6 * (pos[i] - obs.centers[i])
        with pytest.raises(PointNotOnBoundary, match=f"exit {i}"):
            ExitObservationSet(spec, pos, obs.centers, obs.radii, obs.sps)

    def test_two_balls_exits_share_region(self):
        z = np.array([[3.0, 0.0], [3.1, 0.0]])
        with pytest.raises(ValueError, match="share"):
            ExitObservationSet(TB_MAIN, z, [[0.0, 0.0], [0.1, 0.0]], [3.0, 3.0], [9.0, 9.61])
        with pytest.raises(ValueError, match="share"):
            ExitObservationSet(TB_MAIN, z, [[0.0, 0.0], [0.0, 0.0]], [3.0, 3.1], [9.0, 9.61])

    def test_sps_read_only(self, rng):
        obs = generate_observations(ORIGIN, RR_MAIN, 5, rng)
        with pytest.raises(ValueError):
            obs.sps[0] = 0.0

    def test_positions_stored_once_read_only(self, rng):
        theta = Point(2.0, -1.0)
        obs = generate_observations(theta, RR_MAIN, 5, make_rng(8))
        pos = obs.positions
        assert obs.positions is pos
        assert pos.shape == (5, 2)
        # the same draws, redone by hand: theta plus the exit's offset from it
        rng = make_rng(8)
        radii = np.sqrt(rng.gamma(4.0, 0.25, size=5))
        rel = sample_exit_offsets(np.zeros((5, 2)), radii, 5, rng)
        assert np.array_equal(pos, theta.as_array() + rel)
        assert np.array_equal(obs.radii, radii)
        for arr in (obs.positions, obs.centers, obs.radii, obs.sps):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_inputs_are_copied(self):
        z = np.array([[1.0, 0.0]])
        obs = ExitObservationSet(FixedRadius(1.0), z, np.zeros((1, 2)), [1.0], [1.0])
        z[0, 0] = 5.0
        assert obs.positions[0, 0] == 1.0 and z.flags.writeable

    def test_shared_region_only_for_two_balls(self, rng):
        obs = generate_observations(ORIGIN, RR_MAIN, 3, rng)
        with pytest.raises(TypeError):
            _ = obs.shared_region


class TestSampleRegion:
    def test_fixed_radius_is_deterministic(self, rng):
        region = sample_region(Point(2.0, -1.0), FixedRadius(0.7), rng)
        assert region == Disk(Point(2.0, -1.0), 0.7)

    def test_random_radius_squared_is_gamma(self, rng):
        draws = np.array(
            [sample_region(ORIGIN, RR_MAIN, rng).radius ** 2 for _ in range(4000)]
        )
        res = stats.kstest(draws, stats.gamma(a=4.0, scale=0.25).cdf)
        assert res.pvalue > 0.01

    def test_two_balls_center_law(self, rng):
        # ||c - theta||^2 / r^2 ~ Beta(alpha, beta); direction uniform.
        spec = TwoBalls(2.0, 5.0, BetaParams(4.0, 4.0))
        centers = np.array(
            [sample_region(ORIGIN, spec, rng).center.as_array() for _ in range(4000)]
        )
        rho2 = (centers**2).sum(axis=1) / 4.0
        assert stats.kstest(rho2, stats.beta(4.0, 4.0).cdf).pvalue > 0.01
        ang = np.mod(np.arctan2(centers[:, 1], centers[:, 0]), 2.0 * math.pi)
        assert stats.kstest(ang, stats.uniform(scale=2.0 * math.pi).cdf).pvalue > 0.01

    def test_two_balls_radius_fixed(self, rng):
        region = sample_region(ORIGIN, TB_MAIN, rng)
        assert region.radius == 3.0
        assert region.center.distance_to(ORIGIN) < 1.0


class TestGenerateObservations:
    def test_needs_at_least_one(self, rng):
        with pytest.raises(ValueError):
            generate_observations(ORIGIN, RR_MAIN, 0, rng)

    def test_fixed_radius_exits_at_r_star(self, rng):
        obs = generate_observations(Point(1.0, 2.0), FixedRadius(0.5), 20, rng)
        d = np.hypot(obs.positions[:, 0] - 1.0, obs.positions[:, 1] - 2.0)
        assert np.allclose(d, 0.5, rtol=1e-12)
        assert np.allclose(obs.sps, 0.25, rtol=1e-12)

    def test_sps_match_positions(self, rng):
        theta = Point(3.0, -1.0)
        for spec in (RR_MAIN, TB_MAIN, FixedRadius(1.2)):
            obs = generate_observations(theta, spec, 50, rng)
            sq = ((obs.positions - [3.0, -1.0]) ** 2).sum(axis=1)
            assert np.allclose(obs.sps, sq, rtol=1e-9)

    def test_two_balls_share_one_region(self, rng):
        obs = generate_observations(ORIGIN, TB_MAIN, 40, rng)
        region = obs.shared_region
        assert np.all(obs.centers == region.center.as_array())
        assert np.all(obs.radii == region.radius)
        d = np.hypot(
            obs.positions[:, 0] - region.center.x, obs.positions[:, 1] - region.center.y
        )
        assert np.allclose(d, region.radius, rtol=1e-9)

    def test_random_radius_regions_independent(self, rng):
        obs = generate_observations(ORIGIN, RR_MAIN, 30, rng)
        assert len(set(obs.radii.tolist())) == 30
        assert np.all(obs.centers == 0.0)

    def test_rr_sps_are_gamma(self, rng):
        obs = generate_observations(ORIGIN, RR_MAIN, 10_000, rng)
        res = stats.kstest(obs.sps, stats.gamma(a=4.0, scale=0.25).cdf)
        assert res.pvalue > 0.01

    def test_translation_leaves_sps_bit_identical(self):
        far = Point(1e4, -2e4)
        for spec in (RR_MAIN, TB_MAIN, FixedRadius(2.0)):
            a = generate_observations(ORIGIN, spec, 100, make_rng(5))
            b = generate_observations(far, spec, 100, make_rng(5))
            assert np.array_equal(a.sps, b.sps)
            assert np.allclose(b.positions - a.positions, [1e4, -2e4], rtol=0.0, atol=1e-8)

    def test_theta_always_strictly_inside_region(self, rng):
        for _ in range(2000):
            region = sample_region(ORIGIN, TB_MAIN, rng)
            assert region.center.distance_to(ORIGIN) < region.radius


class TestSampleSps:
    def test_fixed_radius_constant(self, rng):
        sps = sample_sps(FixedRadius(1.5), 100, rng)
        assert np.allclose(sps, 2.25, rtol=1e-12)

    def test_rr_mean(self, rng):
        sps = sample_sps(RR_MAIN, 100_000, rng)
        se = sps.std() / math.sqrt(len(sps))
        assert abs(sps.mean() - 1.0) < 5.0 * se

    def test_tb_mean_matches_identity(self, rng):
        # E[SP] = R^2 - r^2 E[rho^2] = 9 - 0.5
        sps = sample_sps(TB_MAIN, 100_000, rng)
        se = sps.std() / math.sqrt(len(sps))
        assert abs(sps.mean() - 8.5) < 5.0 * se

    def test_each_draw_fresh_region(self, rng):
        # unlike generate_observations, two-balls draws here never share a region
        sps = sample_sps(TB_MAIN, 50_000, rng)
        assert sps.min() > (3.0 - 1.0) ** 2 - 1e-9  # |z - theta| >= R - r
        assert sps.max() < (3.0 + 1.0) ** 2 + 1e-9
        assert np.unique(sps).size > 49_000


def quad_cdf(tb, s):
    """P(SP <= s) by adaptive quadrature over u = rho^2 ~ Beta(a, b), split at u_k.

    An independent reference for sp_cdf: the conditional law is evaluated
    as written, (2/pi) arctan((R + d)/(R - d) sqrt((s - (R - d)^2) /
    ((R + d)^2 - s))), and QUADPACK integrates it. Below u_k = ((sqrt(s) -
    R)/r)^2 the conditional law is 1 (s > R^2) or 0, which contributes
    betainc(a, b, u_k) or nothing.
    """
    r, big_r, a, b = tb.r, tb.R, tb.beta.alpha, tb.beta.beta
    root = math.sqrt(s)
    uk = ((root - big_r) / r) ** 2
    norm = math.exp(-special.betaln(a, b))

    def cond(u):
        d = r * math.sqrt(u)
        num = (big_r + d) * math.sqrt(max(s - (big_r - d) ** 2, 0.0))
        return 2.0 / math.pi * math.atan2(num, (big_r - d) * math.sqrt(max((big_r + d) ** 2 - s, 0.0)))

    # u = u_k + (1 - u_k) t^2 smooths the square-root kink at u_k; where
    # (1 - t)^(b-1) is singular QUADPACK's algebraic weight carries it
    def f(t, weighted_end=False):
        u = uk + (1.0 - uk) * t * t
        w = 2.0 * norm * (1.0 - uk) ** b * (1.0 + t) ** (b - 1.0) * u ** (a - 1.0) * t
        return cond(u) * w * (1.0 if weighted_end else (1.0 - t) ** (b - 1.0))

    # u^(a-1) varies on the scale t ~ eps near 0: cut there geometrically
    eps = math.sqrt(uk / (1.0 - uk))
    cuts = [0.0] + [c for c in eps * 4.0 ** np.arange(-2, 30) if c < 0.5] + [0.5, 1.0]
    total = lower = special.betainc(a, b, uk) if root >= big_r else 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi == 1.0:
            total += integrate.quad(f, lo, hi, args=(True,), weight="alg", wvar=(0.0, b - 1.0),
                                    epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        else:
            total += integrate.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    assert 0.0 <= lower <= total <= 1.0 + 1e-12
    return total


CDF_SHAPES = TABLE1_SETTINGS + tuple(
    TwoBalls(0.97 * 3.0, 3.0, BetaParams(a, b)) for a, b in ((0.2, 7.0), (7.0, 0.2), (0.5, 0.5))
)


class TestSpCdf:
    @settings(max_examples=500, deadline=None)
    @given(st.floats(1e-150, 1e150), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_exact_squares_are_the_fraction_ones(self, big_r, ratio):
        # R^2, (R - r)^2 and (R + r)^2 with their rounding errors, in int
        # arithmetic, against the same in Fraction arithmetic
        r = big_r * ratio
        assume(0.0 < r < big_r)

        def square(x):
            near = float(x * x)
            return near, float(x * x - Fraction(near))

        exact_r, exact_big_r = Fraction(r), Fraction(big_r)
        ref = (square(exact_big_r), square(exact_big_r - exact_r), square(exact_big_r + exact_r))
        got = strategies._exact_squares(r, big_r)
        assert [[v.hex() for v in pair] for pair in got] == [[v.hex() for v in pair] for pair in ref]

    @pytest.mark.parametrize("tb", CDF_SHAPES, ids=setting_tag)
    def test_matches_adaptive_quadrature(self, tb):
        # 114 values across the support, and 6 within 1e-6 of R^2
        lo, hi = (tb.R - tb.r) ** 2, (tb.R + tb.r) ** 2
        near = tb.R**2 + np.array([-1e-6, -1e-7, -1e-8, 1e-8, 1e-7, 1e-6])
        s = np.concatenate([np.linspace(lo, hi, 116)[1:-1], near])
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            # within 1e-7 of R^2 the conditional law as written loses digits
            # next to its kink, and QUADPACK says so; it still holds to 1e-11
            warnings.filterwarnings("ignore", "The occurrence of roundoff")
            ref = np.array([quad_cdf(tb, v) for v in s])
        assert np.abs(sp_cdf(tb, s) - ref).max() <= 1e-10

    @pytest.mark.parametrize("tb", CDF_SHAPES, ids=setting_tag)
    def test_within_dkw_bound_of_samples(self, tb):
        # Dvoretzky-Kiefer-Wolfowitz: P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2)
        n, delta = 200_000, 1e-6
        x = np.sort(sample_sps(tb, n, make_rng(9)))
        f = sp_cdf(tb, x)
        sup = max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())
        assert sup <= math.sqrt(math.log(2.0 / delta) / (2.0 * n))

    def test_random_radius_is_gamma(self):
        s = np.array([-1.0, 0.0, 0.3, 1.0, 2.5, 40.0])
        # core.gammainc, which tests/test_special.py holds to scipy's to 1e-13
        assert np.array_equal(sp_cdf(RR_MAIN, s), gammainc(4.0, 4.0 * np.maximum(s, 0.0)))
        assert np.allclose(sp_cdf(RR_MAIN, s), special.gammainc(4.0, 4.0 * np.maximum(s, 0.0)), rtol=1e-13, atol=0.0)
        assert sp_cdf(RR_MAIN, -1.0) == 0.0

    def test_fixed_radius_is_a_step(self):
        assert sp_cdf(FixedRadius(1.5), [2.2, 2.25, 3.0]).tolist() == [0.0, 1.0, 1.0]

    @pytest.mark.parametrize("tb", CDF_SHAPES, ids=setting_tag)
    def test_support_ends_and_monotone(self, tb):
        lo, hi = (tb.R - tb.r) ** 2, (tb.R + tb.r) ** 2
        assert sp_cdf(tb, [-1.0, 0.0, 0.5 * lo, lo]).tolist() == [0.0] * 4
        assert sp_cdf(tb, [hi, 2.0 * hi, math.inf]).tolist() == [1.0] * 3
        f = sp_cdf(tb, np.linspace(lo, hi, 2001))
        assert np.all(np.diff(f) >= 0.0)
        # R^2 itself, where the law given the offset has no kink, sits
        # between its float neighbours up to rounding
        r2 = np.nextafter(tb.R**2, [0.0, math.inf])
        below, at, above = sp_cdf(tb, [r2[0], tb.R**2, r2[1]])
        assert below - 1e-14 <= at <= above + 1e-14

    # F((R - r)^2 (1 + 10^-k)) for k = 6, 9, 12 on the b < 1 shapes of
    # CDF_SHAPES (r = 0.97 * 3.0, R = 3.0), at the floats s those products
    # round to. Computed with mpmath 1.3 at 60 digits: its tanh-sinh
    # quadrature of the conditional law times the Beta density over
    # t in [t_k, 1], with t = 1 - (1 - t_k) w^(1/b), which takes up the
    # (1 - t)^(b-1) end; splitting [0, 1] in w into 1 or 4 pieces agrees
    # to 1e-54 relative.
    LOWER_END = {
        (7.0, 0.2): (
            2.8519515478810546034e-5,
            2.2653867045497344602e-7,
            1.7997736213267762033e-9,
        ),
        (0.5, 0.5): (
            5.5985433811253405475e-8,
            5.5985464758561542992e-11,
            5.5999376909845086879e-14,
        ),
    }

    @pytest.mark.parametrize("shape", sorted(LOWER_END), ids=lambda s: f"a{s[0]:g}-b{s[1]:g}")
    def test_relative_accuracy_near_the_lower_end(self, shape):
        # there 1 - t_k sets the mass, and is never formed as 1 minus t_k
        tb = TwoBalls(0.97 * 3.0, 3.0, BetaParams(*shape))
        assert tb in CDF_SHAPES
        s = np.array([(tb.R - tb.r) ** 2 * (1.0 + 10.0**-k) for k in (6, 9, 12)])
        ref = np.array(self.LOWER_END[shape])
        assert np.abs(sp_cdf(tb, s) / ref - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("tb", TABLE1_SETTINGS, ids=setting_tag)
    def test_mean_is_integral_of_survival(self, tb):
        # E[SP] = int_0^inf (1 - F(s)) ds, split at R^2, where F has a kink
        lo, hi = (tb.R - tb.r) ** 2, (tb.R + tb.r) ** 2
        surv = lambda v: 1.0 - float(sp_cdf(tb, v))  # noqa: E731
        mean = lo + sum(
            integrate.quad(surv, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
            for a, b in ((lo, tb.R**2), (tb.R**2, hi))
        )
        assert mean == pytest.approx(calibrate_random_radius(tb).sp_mean, rel=1e-9)


class TestCalibration:
    def test_result_validates_moment_match(self):
        CalibrationResult(GammaParams(4.0, 2.0), 2.0, 1.0)
        with pytest.raises(ValueError):
            CalibrationResult(GammaParams(4.0, 2.1), 2.0, 1.0)

    def test_matched_moments_round_trip(self):
        cal = calibrate_random_radius(TB_MAIN)
        g = cal.matched_gamma
        assert g.mean == pytest.approx(cal.sp_mean, rel=1e-12)
        assert g.variance == pytest.approx(cal.sp_var, rel=1e-12)

    def test_matches_analytic_mean(self):
        # 9 - 0.5, and Var SP = r^2 (2 mu m - r^2 Var u) = 8.5 - 1/36
        cal = calibrate_random_radius(TB_MAIN)
        assert cal.sp_mean == 8.5
        assert cal.sp_var == pytest.approx(8.5 - 1.0 / 36.0, rel=1e-15)

    @pytest.mark.parametrize("shape", [(4.0, 4.0), (0.2, 7.0), (0.5, 0.5), (50.0, 0.01)])
    @pytest.mark.parametrize("ratio", [1e-9, 1e-3, 0.5, 1.0 - 1e-9])
    def test_moments_exact_against_fractions(self, ratio, shape):
        # the textbook E[SP^2] - m^2, here in exact rational arithmetic on
        # the same float inputs; in floats it returns v = 0 at r/R = 1e-9.
        # At r/R = 1 - 1e-9 with shape (50, 0.01), R^2 - r^2 mu in floats
        # is off by 7e-13.
        big_r = 3.0
        tb = TwoBalls(ratio * big_r, big_r, BetaParams(*shape))
        r, R, a, b = (Fraction(x) for x in (tb.r, tb.R, *shape))
        m = R**2 - r**2 * a / (a + b)
        v = R**4 - r**4 * a * (a + 1) / ((a + b) * (a + b + 1)) - m**2
        cal = calibrate_random_radius(tb)
        assert abs(Fraction(cal.sp_mean) / m - 1) < 1e-14
        assert abs(Fraction(cal.sp_var) / v - 1) < 1e-14

    @pytest.mark.parametrize(
        "tb", TABLE1_SETTINGS + (TwoBalls(1.0, 3.0, BetaParams(0.5, 0.5)),), ids=setting_tag
    )
    def test_sampled_moments_match_closed_form(self, tb):
        # 200k draws: the mean within 4 SE of m, the variance within 4 SE
        # of v, its SE from the sample's fourth central moment
        n = 200_000
        cal = calibrate_random_radius(tb)
        sps = sample_sps(tb, n, make_rng(8))
        dev = sps - sps.mean()
        s2 = float((dev**2).mean())
        assert abs(sps.mean() - cal.sp_mean) < 4.0 * math.sqrt(s2 / n)
        assert abs(s2 - cal.sp_var) < 4.0 * math.sqrt((float((dev**4).mean()) - s2**2) / n)

    def test_needs_two_balls(self):
        with pytest.raises(TypeError):
            calibrate_random_radius(RR_MAIN)

    def test_scaling_by_two_is_exact(self):
        # doubling r and R scales both moments by powers of two, so alpha is
        # bit-identical and beta is exactly a quarter
        base = calibrate_random_radius(TB_MAIN)
        scaled = calibrate_random_radius(TwoBalls(2.0, 6.0, BetaParams(4.0, 4.0)))
        assert scaled.matched_gamma.alpha == base.matched_gamma.alpha
        assert scaled.matched_gamma.beta == base.matched_gamma.beta / 4.0

    def test_degenerate_variance_guard(self):
        # a valid shape whose Beta mean underflows to 0: in float arithmetic
        # the centre sits on theta, every SP is R^2 and v = 0
        with pytest.raises(DegenerateVariance):
            calibrate_random_radius(TwoBalls(1.0, 3.0, BetaParams(5e-324, 4.0)))


class TestObfuscateTrack:
    def test_crossing_track_is_cut(self, rng):
        times = np.arange(5, dtype=float)
        pos = np.array([[0.0, 0.0], [0.1, 0.0], [4.0, 0.0], [5.0, 0.0], [0.0, 0.1]])
        traj = Trajectory(times, pos)
        cut = obfuscate_track(traj, ORIGIN, FixedRadius(1.0), rng)
        assert cut.t1 == 2.0 and cut.t2 == 3.0
        # ||(4,0) - (0,0)||^2 + ||(5,0) - (0,0.1)||^2
        assert cut.sp == pytest.approx(16.0 + 25.01)

    def test_track_inside_region_unpublished(self, rng):
        traj = simulate_brownian(ORIGIN, 1.0, 1e-4, 100, rng)
        cut = obfuscate_track(traj, ORIGIN, FixedRadius(100.0), rng)
        assert cut.published is None
        assert math.isinf(cut.sp)

    def test_brownian_round_trip_sp(self, rng):
        traj = simulate_brownian(Point(0.05, 0.0), 1.0, 1e-3, 5000, rng)
        cut = obfuscate_track(traj, Point(0.05, 0.0), RR_MAIN, rng)
        if cut.published is None:
            pytest.skip("track never left the drawn region")
        from privregion.trajectory import squared_perturbation

        assert cut.sp == squared_perturbation(cut.published, traj)
