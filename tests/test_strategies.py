import math

import numpy as np
import pytest
from scipy import stats

from privregion.core import BetaParams, Disk, GammaParams, Point, make_rng
from privregion.harmonic import ExitPoint
from privregion.strategies import (
    EXACT,
    CalibrationResult,
    DegenerateVariance,
    ExitObservationSet,
    FixedRadius,
    RandomRadius,
    SimulatedExits,
    TwoBalls,
    calibrate_random_radius,
    generate_observations,
    obfuscate_track,
    sample_region,
    sample_sps,
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
        region = Disk(ORIGIN, 1.0)
        e = ExitPoint(Point(1.0, 0.0), region)
        with pytest.raises(ValueError):
            ExitObservationSet(FixedRadius(1.0), (e,), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ExitObservationSet(FixedRadius(1.0), (), np.array([]))

    def test_two_balls_exits_share_region(self):
        r1 = Disk(ORIGIN, 3.0)
        r2 = Disk(Point(0.1, 0.0), 3.0)
        e1 = ExitPoint(Point(3.0, 0.0), r1)
        e2 = ExitPoint(Point(3.1, 0.0), r2)
        with pytest.raises(ValueError, match="share"):
            ExitObservationSet(TB_MAIN, (e1, e2), np.array([9.0, 9.61]))

    def test_sps_read_only(self, rng):
        obs = generate_observations(ORIGIN, RR_MAIN, 5, rng)
        with pytest.raises(ValueError):
            obs.sps[0] = 0.0

    def test_positions_stored_once_read_only(self, rng):
        obs = generate_observations(ORIGIN, RR_MAIN, 5, rng)
        pos = obs.positions
        assert obs.positions is pos
        assert not pos.flags.writeable
        assert pos.shape == (5, 2)
        assert np.array_equal(pos, [[e.pos.x, e.pos.y] for e in obs.exits])
        with pytest.raises(ValueError):
            pos[0, 0] = 0.0

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
        assert all(e.region == region for e in obs.exits)
        d = np.hypot(
            obs.positions[:, 0] - region.center.x, obs.positions[:, 1] - region.center.y
        )
        assert np.allclose(d, region.radius, rtol=1e-9)

    def test_random_radius_regions_independent(self, rng):
        obs = generate_observations(ORIGIN, RR_MAIN, 30, rng)
        radii = {e.region.radius for e in obs.exits}
        assert len(radii) == 30

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


class TestSimulatedMode:
    def test_exits_projected_onto_circle(self, rng):
        obs = generate_observations(
            ORIGIN, TB_MAIN, 30, rng, mode=SimulatedExits(dt=1e-3)
        )
        region = obs.shared_region
        d = np.hypot(
            obs.positions[:, 0] - region.center.x, obs.positions[:, 1] - region.center.y
        )
        assert np.allclose(d, region.radius, rtol=1e-12)

    def test_sp_law_approaches_exact_as_dt_shrinks(self):
        # Same seed -> same shared region in every mode; only the exits
        # differ. Fine steps reproduce the exact SP law, coarse steps
        # flatten the exit angles and push the SP mean off its target.
        from privregion.harmonic import expected_sp_given_center

        n = 3000
        exact = generate_observations(ORIGIN, TB_MAIN, n, make_rng(2))
        fine = generate_observations(ORIGIN, TB_MAIN, n, make_rng(2), mode=SimulatedExits())
        coarse = generate_observations(
            ORIGIN, TB_MAIN, n, make_rng(2), mode=SimulatedExits(dt=4.0)
        )
        region = exact.shared_region
        assert fine.shared_region == region and coarse.shared_region == region

        m = expected_sp_given_center(ORIGIN, region)
        se = fine.sps.std() / math.sqrt(n)
        assert abs(fine.sps.mean() - m) < 5.0 * se
        assert abs(coarse.sps.mean() - m) > abs(fine.sps.mean() - m)
        assert stats.ks_2samp(fine.sps, exact.sps).pvalue > 0.01


class TestCalibration:
    def test_result_validates_moment_match(self):
        CalibrationResult(GammaParams(4.0, 2.0), 2.0, 1.0, 5000)
        with pytest.raises(ValueError):
            CalibrationResult(GammaParams(4.0, 2.1), 2.0, 1.0, 5000)

    def test_matched_moments_round_trip(self, rng):
        cal = calibrate_random_radius(TB_MAIN, 50_000, rng)
        g = cal.matched_gamma
        assert g.mean == pytest.approx(cal.sp_mean, rel=1e-12)
        assert g.variance == pytest.approx(cal.sp_var, rel=1e-12)

    def test_matches_analytic_mean(self, rng):
        cal = calibrate_random_radius(TB_MAIN, 100_000, rng)
        assert abs(cal.sp_mean - 8.5) / 8.5 < 0.01

    def test_needs_two_balls(self, rng):
        with pytest.raises(TypeError):
            calibrate_random_radius(RR_MAIN, 5000, rng)

    def test_needs_enough_draws(self, rng):
        with pytest.raises(ValueError):
            calibrate_random_radius(TB_MAIN, 999, rng)

    def test_scaling_by_two_is_exact(self):
        # doubling r and R scales every SP draw by exactly 4, so alpha is
        # bit-identical and beta is exactly a quarter
        base = calibrate_random_radius(TB_MAIN, 20_000, make_rng(17))
        scaled = calibrate_random_radius(
            TwoBalls(2.0, 6.0, BetaParams(4.0, 4.0)), 20_000, make_rng(17)
        )
        assert scaled.matched_gamma.alpha == base.matched_gamma.alpha
        assert scaled.matched_gamma.beta == base.matched_gamma.beta / 4.0

    def test_degenerate_variance_guard(self, rng, monkeypatch):
        import privregion.strategies as mod

        monkeypatch.setattr(mod, "sample_sps", lambda spec, n, r: np.full(n, 2.0))
        with pytest.raises(DegenerateVariance):
            calibrate_random_radius(TB_MAIN, 5000, rng)


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
