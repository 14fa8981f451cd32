import math
import tracemalloc

import numpy as np
from numpy.polynomial.hermite_e import hermegauss as numpy_hermegauss
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import betaln, roots_jacobi

from privregion import inference
from privregion.core import BetaParams, GammaParams, Point, derive_rng, hermegauss, jacobi_rule, make_rng
from privregion.experiments import TABLE1_SETTINGS
from privregion.harmonic import harmonic_log_density
from privregion.inference import (
    AdaptationFailed,
    AttackReport,
    DiagnosticsFailed,
    InconsistentExits,
    NoIntersection,
    NonFiniteInit,
    PosteriorSamples,
    attack,
    effective_sample_size,
    grid_posterior,
    posterior_mse,
    quadrature_window,
    recover_center,
    rr_log_posterior,
    rwm_sample,
    split_r_hat,
    tb_log_posterior,
)
from privregion.strategies import (
    ExitObservationSet,
    FixedRadius,
    RandomRadius,
    TwoBalls,
    calibrate_random_radius,
    generate_observations,
)

TB_MAIN = TwoBalls(1.0, 3.0, BetaParams(4.0, 4.0))
RR_MAIN = RandomRadius(GammaParams(4.0, 4.0))
ORIGIN = Point(0.0, 0.0)
LOG_PI = 1.1447298858494002


def support_square(c: Point, r: float):
    """The square (x0, x1, y0, y1) around the two-balls support disk B(c, r)."""
    return (c.x - r, c.x + r, c.y - r, c.y + r)


def rr_obs_at(positions, gamma=GammaParams(1.0, 1.0)):
    """Observation set with prescribed exit positions, each on a region
    centered at the origin (or at (1, 0) for an exit at the origin)."""
    pts = np.atleast_2d(np.asarray(positions, dtype=float))
    sps = (pts**2).sum(axis=1)
    centers = np.where(sps[:, None] > 0, 0.0, [1.0, 0.0])
    radii = np.hypot(*(pts - centers).T)
    return ExitObservationSet(RandomRadius(gamma), pts, centers, radii, sps)


class TestRecoverCenter:
    def test_three_exits_unique(self):
        est = recover_center(
            np.array([[8.0, 4.0], [3.0, 9.0], [-2.0, 4.0]]), 5.0
        )
        assert est.shape == (1, 2)
        assert math.dist(est[0], (3.0, 4.0)) < 1e-9

    def test_many_exits_unique(self, rng):
        obs = generate_observations(ORIGIN, TB_MAIN, 50, rng)
        est = recover_center(obs.positions, TB_MAIN.R)
        true_c = obs.shared_region.center
        assert est.shape == (1, 2)
        assert math.dist(est[0], (true_c.x, true_c.y)) < 1e-9

    def test_inconsistent_exits(self):
        pts = np.array([[8.0, 4.0], [3.0, 9.0], [-2.0, 4.0], [3.0, 4.5]])
        with pytest.raises(InconsistentExits):
            recover_center(pts, 5.0)

    def test_two_exits_pair(self):
        # the candidates mirrored across the line z1 z2, the one to the
        # left of z1 -> z2 first
        est = recover_center(np.array([[0.0, 0.0], [2.0, 0.0]]), math.sqrt(2.0))
        assert est.shape == (2, 2)
        assert np.allclose(est, [[1.0, 1.0], [1.0, -1.0]], rtol=0.0, atol=1e-12)

    def test_two_exits_too_far(self):
        with pytest.raises(NoIntersection):
            recover_center(np.array([[0.0, 0.0], [5.0, 0.0]]), 2.0)

    def test_two_coincident_exits(self):
        with pytest.raises(InconsistentExits):
            recover_center(np.array([[1.0, 1.0], [1.0, 1.0]]), 2.0)

    def test_one_exit_raises(self):
        # a whole circle of candidates: the attacks take one exit in closed
        # form and never ask
        with pytest.raises(ValueError, match="need two or more exits"):
            recover_center(np.array([[2.0, 3.0]]), 1.5)


class TestRrLogPosterior:
    def test_value_at_exit_point(self):
        obs = rr_obs_at([[1.0, 0.0]])
        # Gamma(1,1): log f(s)/pi at s -> 0 is -log(pi) (clamped at the floor)
        assert rr_log_posterior(Point(1.0, 0.0), obs) == pytest.approx(-LOG_PI, abs=1e-9)

    def test_value_at_unit_distance(self):
        obs = rr_obs_at([[1.0, 0.0]])
        assert rr_log_posterior(ORIGIN, obs) == pytest.approx(-1.0 - LOG_PI, rel=1e-12)

    def test_batch_matches_single(self):
        obs = rr_obs_at([[1.0, 0.0], [0.0, 2.0], [-1.5, 0.5]], GammaParams(4.0, 4.0))
        pts = np.array([[0.0, 0.0], [0.3, 0.4], [2.0, -1.0]])
        batch = rr_log_posterior(pts, obs)
        singles = [rr_log_posterior(Point(*p), obs) for p in pts]
        assert np.allclose(batch, singles, rtol=1e-14)

    def test_sum_over_exits(self):
        both = rr_obs_at([[1.0, 0.0], [0.0, 2.0]], GammaParams(4.0, 4.0))
        one = rr_obs_at([[1.0, 0.0]], GammaParams(4.0, 4.0))
        other = rr_obs_at([[0.0, 2.0]], GammaParams(4.0, 4.0))
        t = Point(0.2, -0.1)
        assert rr_log_posterior(t, both) == pytest.approx(
            rr_log_posterior(t, one) + rr_log_posterior(t, other), rel=1e-12
        )

    def test_wrong_strategy_rejected(self, rng):
        obs = generate_observations(ORIGIN, TB_MAIN, 3, rng)
        with pytest.raises(TypeError):
            rr_log_posterior(ORIGIN, obs)

    def test_likelihood_integrates_to_one(self):
        # n = 1, Gamma(1,1): the posterior is a unit Gaussian in disguise,
        # so the grid quadrature should find unit mass and variance 1/2
        # per coordinate.
        obs = rr_obs_at([[1.0, 0.0]])
        grid = grid_posterior(lambda p: rr_log_posterior(p, obs), quadrature_window(obs))
        assert abs(grid.log_mass) < 1e-3
        assert np.allclose(grid.mean, [1.0, 0.0], atol=1e-6)
        assert np.allclose(grid.cov, 0.5 * np.eye(2), atol=1e-3)


class TestTbLogPosterior:
    def _obs(self, rng, n=4):
        return generate_observations(ORIGIN, TB_MAIN, n, rng)

    def test_support_is_open_disk(self, rng):
        obs = self._obs(rng)
        c = obs.shared_region.center
        inside = np.array([[c.x + 0.5, c.y]])
        outside = np.array([[c.x + 1.5, c.y], [c.x, c.y - 1.0001]])
        assert np.isfinite(tb_log_posterior(inside, c, obs)).all()
        assert np.all(tb_log_posterior(outside, c, obs) == -np.inf)

    def test_matches_prior_times_exit_law(self, rng):
        # route A: the implementation; route B: scipy's Beta density plus
        # the harmonic module's own log density, assembled by hand
        obs = self._obs(rng, n=3)
        region = obs.shared_region
        c = region.center
        spec = obs.strategy
        for off in ([0.3, 0.2], [-0.7, 0.1], [0.0, 0.05]):
            theta = Point(c.x + off[0], c.y + off[1])
            u = (off[0] ** 2 + off[1] ** 2) / spec.r**2
            prior = stats.beta(spec.beta.alpha, spec.beta.beta).logpdf(u) - math.log(
                math.pi * spec.r**2
            )
            harm = sum(harmonic_log_density(z, theta, region) for z in obs.positions)
            assert tb_log_posterior(theta, c, obs) == pytest.approx(prior + harm, rel=1e-10)

    def test_uniform_center_prior_is_flat(self, rng):
        spec = TwoBalls(1.0, 3.0, BetaParams(1.0, 1.0))
        obs = generate_observations(ORIGIN, spec, 3, rng)
        region = obs.shared_region
        c = region.center
        vals = []
        for off in ([0.2, 0.0], [-0.3, 0.55], [0.0, -0.9]):
            theta = Point(c.x + off[0], c.y + off[1])
            harm = sum(harmonic_log_density(z, theta, region) for z in obs.positions)
            vals.append(tb_log_posterior(theta, c, obs) - harm)
        assert np.allclose(vals, -math.log(math.pi * spec.r**2), rtol=1e-12)

    def test_prior_integrates_to_one(self, rng):
        # extract the prior factor and integrate it in polar coordinates
        spec = TwoBalls(2.0, 5.0, BetaParams(2.5, 3.5))
        obs = generate_observations(ORIGIN, spec, 2, rng)
        region = obs.shared_region
        c = region.center
        rho = np.linspace(0.0, spec.r, 20_001)[1:-1]
        thetas = np.column_stack([c.x + rho, np.full_like(rho, c.y)])
        harm = np.zeros_like(rho)
        for z in obs.positions:
            harm += np.array([harmonic_log_density(z, Point(*t), region) for t in thetas])
        prior = tb_log_posterior(thetas, c, obs) - harm
        total = np.trapezoid(np.exp(prior) * 2.0 * math.pi * rho, rho)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_wrong_strategy_rejected(self, rng):
        obs = generate_observations(ORIGIN, RR_MAIN, 3, rng)
        with pytest.raises(TypeError):
            tb_log_posterior(ORIGIN, ORIGIN, obs)


def _direct_sep(theta, z):
    """sum_i log|z_i - theta|^2 term by term, clamped as the attack clamps."""
    d2 = ((theta[:, None, :] - z[None, :, :]) ** 2).sum(axis=2)
    return np.log(np.maximum(d2, inference.SQ_DIST_FLOOR))


def _in_disk(rng, m, rho, k):
    """k points uniform in the disk |theta - m| <= rho, the last 4 on its rim."""
    rad = rho * np.sqrt(rng.uniform(0.0, 1.0, k))
    rad[-4:] = rho
    ang = rng.uniform(0.0, 2.0 * math.pi, k)
    return m + rad[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])


class TestPoissonKernelSeries:
    # Two-balls' exit term: _sep_expansion about the center c with reach r.
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(1e-6, 0.9),
        st.floats(0.05, 50.0),
        st.integers(1, 400),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_sum(self, ratio, R, n, seed):
        # sum_i log|z_i - theta|^2 for exits on the circle |z - c| = R and
        # theta anywhere in the support |theta - c| < r = ratio * R
        rng = make_rng(seed)
        c = rng.uniform(-100.0, 100.0, size=2)
        r = ratio * R
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        z = c + R * np.column_stack([np.cos(phi), np.sin(phi)])
        rho = r * np.sqrt(rng.uniform(0.0, 1.0, 30))
        ang = rng.uniform(0.0, 2.0 * math.pi, 30)
        theta = c + rho[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])

        sep = inference._sep_expansion(z, c, r)
        # exits at least 2r from c take the series, with K terms for the
        # largest ratio r/|z_i - c|, when K is below their count
        d2 = ((z - c) ** 2).sum(axis=1)
        outside = d2 >= 4.0 * r * r
        want_K = 0
        if outside.any():
            K = math.ceil(math.log(1e-17) / math.log(r / math.sqrt(d2[outside].min())))
            want_K = K if K < outside.sum() else 0
        far, K = inference._series_terms(d2, r)
        assert K == want_K
        assert np.array_equal(far, outside & (want_K > 0))
        terms = np.log(((theta[:, None, :] - z[None, :, :]) ** 2).sum(axis=2))
        scale = np.maximum(np.abs(terms).sum(axis=1), 1.0)
        assert np.all(np.abs(sep(theta) - terms.sum(axis=1)) <= 1e-12 * scale)

    def test_forty_three_terms_at_r_over_R_of_0_4(self):
        # K = 43 at r/R = 0.4: the series runs once it is cheaper than the
        # direct sum, from 44 exits on
        def ring(n):
            phi = 2.0 * math.pi * np.arange(n) / n
            return 5.0 * np.column_stack([np.cos(phi), np.sin(phi)])

        def split(n, rho):
            return inference._series_terms((ring(n) ** 2).sum(axis=1), rho)

        far, K = split(43, 2.0)
        assert K == 0 and not far.any()
        far, K = split(44, 2.0)
        assert K == 43 and far.all()
        # r = R: the series would diverge, so every exit takes the direct sum
        far, K = split(200, 5.0)
        assert K == 0 and not far.any()
        sep = inference._sep_expansion(ring(200), np.zeros(2), 5.0)
        theta = _in_disk(make_rng(3), np.zeros(2), 4.9, 20)
        assert np.allclose(sep(theta), _direct_sep(theta, ring(200)).sum(axis=1), rtol=1e-13)

    def test_log_posterior_takes_the_series_above_K_exits(self, rng):
        # n = 200 > K = 43 at r/R = 0.4: the series path against the
        # harmonic module's own exit density, term by term
        spec = TwoBalls(2.0, 5.0, BetaParams(4.0, 4.0))
        obs = generate_observations(ORIGIN, spec, 200, rng)
        region = obs.shared_region
        c = region.center
        for off in ([0.3, 0.2], [-1.7, 0.1], [0.0, 1.95]):
            theta = Point(c.x + off[0], c.y + off[1])
            u = (off[0] ** 2 + off[1] ** 2) / spec.r**2
            prior = stats.beta(4.0, 4.0).logpdf(u) - math.log(math.pi * spec.r**2)
            harm = sum(harmonic_log_density(z, theta, region) for z in obs.positions)
            assert tb_log_posterior(theta, c, obs) == pytest.approx(prior + harm, rel=1e-11)


class TestLocalExpansion:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 300),
        st.floats(1e-3, 1e3),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_sum(self, n, rho, near_share, seed):
        # exit clouds with near exits (|z - m| < 2 rho, some within reach of
        # theta) and far ones out to 1000 rho; theta anywhere in the disk
        rng = make_rng(seed)
        m = rng.uniform(-100.0, 100.0, size=2)
        near = rng.random(n) < near_share
        far = np.exp(rng.uniform(math.log(2.0), math.log(1e3), n))
        dist = rho * np.where(near, rng.uniform(0.0, 2.0, n), far)
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        z = m + dist[:, None] * np.column_stack([np.cos(phi), np.sin(phi)])
        theta = _in_disk(rng, m, rho, 40)

        sep = inference._sep_expansion(z, m, rho)
        d2 = ((z - m) ** 2).sum(axis=1)
        far, K = inference._series_terms(d2, rho)
        assert np.all(d2[far] >= 4.0 * rho * rho)
        assert K == 0 or 0 < K < far.sum()
        terms = _direct_sep(theta, z)
        tol = 1e-12 * np.maximum(np.abs(terms).sum(axis=1), 1.0)
        assert np.all(np.abs(sep(theta) - terms.sum(axis=1)) <= tol)

    def test_points_beyond_reach_take_the_direct_sum(self, monkeypatch):
        # 400 far exits: the series serves the disk; points outside it, as a
        # refined window's padding can reach, still get the exact sum, and
        # the size of the direct sum's blocks changes no value, bit for bit
        rng = make_rng(8)
        phi = rng.uniform(0.0, 2.0 * math.pi, 400)
        z = 3.0 * np.column_stack([np.cos(phi), np.sin(phi)])
        far, K = inference._series_terms((z**2).sum(axis=1), 0.5)
        assert far.all() and 0 < K < 400
        theta = np.concatenate(
            [_in_disk(rng, np.zeros(2), 0.5, 30), _in_disk(rng, np.zeros(2), 1.4, 30)]
        )
        got = inference._sep_expansion(z, np.zeros(2), 0.5)(theta)
        want = _direct_sep(theta, z).sum(axis=1)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
        for budget in (1, 4000):  # one point, or 10 points, per block
            monkeypatch.setattr(inference, "PAIR_BUDGET", budget)
            assert np.array_equal(inference._sep_expansion(z, np.zeros(2), 0.5)(theta), got)

    def test_random_radius_grid_cost_stops_growing_with_n(self, monkeypatch):
        # r1-R3-a4-b4's matched Gamma at n = 1600: every target of the
        # attack sums fewer than 100 exits directly, against 1600 without
        # the series
        cal = calibrate_random_radius(TB_MAIN)
        spec = RandomRadius(cal.matched_gamma)
        real = inference._series_terms
        direct = []

        def spy(d2, rho):
            far, K = real(d2, rho)
            direct.append(len(d2) - int(far.sum()))
            return far, K

        monkeypatch.setattr(inference, "_series_terms", spy)
        for rep in range(6):
            obs = generate_observations(ORIGIN, spec, 1600, derive_rng(2, rep))
            attack(obs, ORIGIN, None)
        assert len(direct) >= 6
        assert max(direct) < 100


def reference_power_sums(v, K):
    """_sep_expansion's coefficients S_k = sum_i v_i^k / k as a loop over
    the K terms computed them."""
    coef = np.empty(K, dtype=complex)
    power = np.ones_like(v)
    for k in range(K):
        power *= v
        coef[k] = power.sum() / (k + 1)
    return coef


def reference_series(coef, w):
    """sum_k coef_k w^k, k = 1, ..., K, by Horner's rule, one step per term."""
    acc = np.full(len(w), coef[-1])
    for a in coef[-2::-1]:
        acc *= w
        acc += a
    return acc * w


class TestSeriesKernels:
    @pytest.mark.parametrize("n", [1, 3, 50, 1600])
    def test_power_sums_match_the_term_loop(self, n):
        # v = s/u_i for far exits out to 1000 times the nearest one: |v| <= 1
        rng = make_rng(n)
        u = np.exp(rng.uniform(0.0, math.log(1e3), n) + 1j * rng.uniform(0.0, 2.0 * math.pi, n))
        v = np.abs(u).min() / u
        for K in range(1, 58):
            k = np.arange(1, K + 1)
            size = (np.abs(v)[None, :] ** k[:, None]).sum(axis=1) / k
            got = inference._power_sums(v, K).ravel()[:K]
            assert np.all(np.abs(got - reference_power_sums(v, K)) <= 1e-14 * size), K

    @pytest.mark.parametrize("n", [50, 1600])
    def test_series_matches_horner(self, n):
        # sep at points in the disk, far exits only, against the series
        # summed by Horner's rule on the loop's coefficients
        rng = make_rng(n + 1)
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        z = np.exp(rng.uniform(math.log(3.0), math.log(1e3), n))[:, None] * np.column_stack([np.cos(phi), np.sin(phi)])
        theta = _in_disk(rng, np.zeros(2), 1.0, 300)
        far, K = inference._series_terms((z**2).sum(axis=1), 1.0)
        assert far.all() and K > 0
        u = z[:, 0] + 1j * z[:, 1]
        scale = float(np.abs(u).min())
        w = (theta[:, 0] + 1j * theta[:, 1]) / scale
        want = np.log(np.abs(u) ** 2).sum() - 2.0 * reference_series(reference_power_sums(scale / u, K), w).real
        got = inference._sep_expansion(z, np.zeros(2), 1.0)(theta)
        size = np.abs(_direct_sep(theta, z)).sum(axis=1)
        assert np.all(np.abs(got - want) <= 1e-14 * size)


class TestRwmSample:
    def test_standard_normal_target(self):
        target = lambda x: -0.5 * (x**2).sum(axis=1)
        out = rwm_sample(
            target, np.zeros(2), make_rng(31), n_chains=4, n_burn=800, n_keep=3000
        )
        draws = out.flattened
        ess = min(out.ess)
        assert ess > 500
        assert max(out.r_hat) < 1.02
        assert 0.1 < out.acceptance_rate < 0.45
        se = draws.std(axis=0) / math.sqrt(ess)
        assert np.all(np.abs(draws.mean(axis=0)) < 5.0 * se)
        assert np.allclose(draws.var(axis=0), 1.0, rtol=0.15)

    def test_adapts_toward_target_rate(self):
        target = lambda x: -0.5 * (x**2).sum(axis=1)
        out = rwm_sample(
            target,
            np.zeros(2),
            make_rng(7),
            n_chains=4,
            n_burn=2000,
            n_keep=2000,
            initial_step=40.0,  # far too big; adaptation must recover
        )
        assert 0.12 < out.acceptance_rate < 0.4

    def test_periodic_coordinate(self):
        def target(x):
            return -0.5 * (x[:, 0] ** 2 + x[:, 1] ** 2) + np.cos(x[:, 2] - 1.0)

        out = rwm_sample(
            target,
            np.array([0.0, 0.0, 0.5]),
            make_rng(13),
            n_chains=4,
            n_burn=800,
            n_keep=1500,
            periodic={2: 2.0 * math.pi},
        )
        ang = out.flattened[:, 2]
        assert np.all((ang >= 0.0) & (ang < 2.0 * math.pi))
        mean_dir = np.angle(np.exp(1j * ang).mean())
        assert abs(mean_dir - 1.0) < 0.15

    def test_non_finite_init_rejected(self):
        target = lambda x: np.where(x[:, 0] > 10.0, -0.5 * (x**2).sum(axis=1), -np.inf)
        with pytest.raises(NonFiniteInit):
            rwm_sample(target, np.zeros(2), make_rng(1))

    def test_flat_target_fails_adaptation(self):
        target = lambda x: np.zeros(len(x))
        with pytest.raises(AdaptationFailed):
            rwm_sample(target, np.zeros(2), make_rng(1), n_burn=50, n_keep=50)

    def test_needs_two_coordinates(self):
        with pytest.raises(ValueError):
            rwm_sample(lambda x: np.zeros(len(x)), np.zeros(1), make_rng(1))


class TestDiagnostics:
    def test_r_hat_near_one_for_iid(self):
        chains = make_rng(3).standard_normal((4, 500, 2))
        assert np.all(split_r_hat(chains) < 1.02)

    def test_r_hat_detects_shifted_chain(self):
        chains = make_rng(3).standard_normal((4, 500, 2))
        chains[0, :, 0] += 5.0
        r = split_r_hat(chains)
        assert r[0] > 1.5
        assert r[1] < 1.02

    def test_ess_close_to_n_for_iid(self):
        chains = make_rng(5).standard_normal((4, 1000, 2))
        ess = effective_sample_size(chains)
        assert np.all(ess > 2000.0)
        assert np.all(ess <= 4000.0 + 1e-9)

    def test_ess_small_for_random_walk(self):
        steps = make_rng(5).standard_normal((4, 1000, 2))
        chains = np.cumsum(steps, axis=1)
        ess = effective_sample_size(chains)
        assert np.all(ess < 200.0)

    def test_posterior_samples_validation(self):
        chains = make_rng(1).standard_normal((4, 100, 2))
        PosteriorSamples(chains, 0.3, (1.0, 1.0), (50.0, 50.0), 0.5)
        with pytest.raises(ValueError):
            PosteriorSamples(chains, 1.0, (1.0, 1.0), (50.0, 50.0), 0.5)
        with pytest.raises(ValueError):
            PosteriorSamples(chains[:1], 0.3, (1.0, 1.0), (50.0, 50.0), 0.5)
        with pytest.raises(ValueError):
            PosteriorSamples(chains, 0.3, (1.0,), (50.0, 50.0), 0.5)


class TestPosteriorMse:
    def test_draws_at_truth(self):
        draws = np.tile([2.0, -1.0], (10, 1))
        assert posterior_mse(draws, Point(2.0, -1.0)) == (0.0, 0.0, 0.0)

    def test_point_mass_at_unit_distance(self):
        draws = np.tile([1.0, 0.0], (10, 1))
        mse, bias2, var = posterior_mse(draws, ORIGIN)
        assert (mse, bias2, var) == (1.0, 1.0, 0.0)

    def test_gaussian_cloud(self):
        sigma = 0.7
        draws = ORIGIN.as_array() + sigma * make_rng(9).standard_normal((20_000, 2))
        mse, bias2, var = posterior_mse(draws, ORIGIN)
        # E[mse] = 2 sigma^2; se of the mean of sq distances at this n
        assert abs(mse - 2.0 * sigma**2) < 0.035
        assert bias2 < 0.01
        assert var == pytest.approx(mse - bias2, rel=1e-9)

    def test_accepts_posterior_samples(self):
        chains = make_rng(1).standard_normal((2, 50, 3))
        ps = PosteriorSamples(chains, 0.3, (1.0, 1.0, 1.0), (10.0, 10.0, 10.0), 0.2)
        a = posterior_mse(ps, ORIGIN)
        b = posterior_mse(ps.theta_draws, ORIGIN)
        assert a == b

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-100.0, 100.0, allow_nan=False),
                st.floats(-100.0, 100.0, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        ),
        st.floats(-50.0, 50.0, allow_nan=False),
        st.floats(-50.0, 50.0, allow_nan=False),
    )
    def test_decomposition_identity(self, draws, tx, ty):
        mse, bias2, var = posterior_mse(np.array(draws), Point(tx, ty))
        assert mse == pytest.approx(bias2 + var, rel=1e-9, abs=1e-12)


class TestGridPosterior:
    def test_recovers_gaussian_moments(self):
        mu = np.array([0.5, -1.0])
        cov_true = np.array([[0.3, 0.1], [0.1, 0.5]])
        prec = np.linalg.inv(cov_true)

        def target(p):
            d = p - mu
            return -0.5 * np.einsum("ij,jk,ik->i", d, prec, d)

        grid = grid_posterior(target, (-3.0, 4.0, -5.0, 3.0), n=400)
        norm = math.log(2.0 * math.pi) + 0.5 * math.log(np.linalg.det(cov_true))
        assert grid.log_mass == pytest.approx(norm, abs=1e-6)
        assert np.allclose(grid.mean, mu, atol=1e-8)
        assert np.allclose(grid.cov, cov_true, atol=1e-4)

    def test_mse_against_decomposition(self):
        def target(p):
            return -0.5 * ((p - [1.0, 2.0]) ** 2).sum(axis=1)

        grid = grid_posterior(target, (-5.0, 7.0, -4.0, 8.0), n=200)
        mse, bias2, var = grid.mse_against(Point(0.0, 2.0))
        assert bias2 == pytest.approx(1.0, abs=1e-6)
        assert var == pytest.approx(2.0, abs=1e-4)
        assert mse == bias2 + var

    def test_block_rows_do_not_matter(self, monkeypatch):
        # the direct sums of a 1600-exit random-radius grid, and of a
        # two-balls grid with near exits (r/R = 0.8), at the default block
        # size against blocks of one point and of 7 points: bit for bit
        rr_obs = generate_observations(ORIGIN, RR_MAIN, 1600, make_rng(4))
        tb_obs = generate_observations(
            ORIGIN, TwoBalls(2.4, 3.0, BetaParams(4.0, 4.0)), 300, make_rng(5)
        )
        c = tb_obs.shared_region.center
        grids = (
            (lambda p: rr_log_posterior(p, rr_obs), quadrature_window(rr_obs)),
            (lambda p: tb_log_posterior(p, c, tb_obs), support_square(c, tb_obs.strategy.r)),
        )
        want = [grid_posterior(target, window, n=24) for target, window in grids]
        for budget in (1, 7 * 1600):
            monkeypatch.setattr(inference, "PAIR_BUDGET", budget)
            for (target, window), w in zip(grids, want):
                got = grid_posterior(target, window, n=24)
                assert got.log_mass == w.log_mass
                assert np.array_equal(got.log_density, w.log_density)

    def test_blocks_stay_within_pair_budget_at_1600_exits(self, monkeypatch):
        # the public log-posterior on a 128 x 128 grid, and every attack at
        # 1600 exits, square at most PAIR_BUDGET (point, exit) distances at once
        n_exits = 1600
        real = np.maximum
        sizes = []

        def spy(a, *args, **kwargs):
            sizes.append(np.size(a))
            return real(a, *args, **kwargs)

        obs = generate_observations(ORIGIN, RR_MAIN, n_exits, make_rng(17))
        monkeypatch.setattr(np, "maximum", spy)
        grid_posterior(lambda p: rr_log_posterior(p, obs), quadrature_window(obs), n=128)
        assert sizes and max(sizes) <= inference.PAIR_BUDGET
        for spec in (RR_MAIN, TB_MAIN):
            attack(generate_observations(ORIGIN, spec, n_exits, make_rng(17)), ORIGIN, make_rng(1))
        assert max(sizes) <= inference.PAIR_BUDGET

    def test_peak_memory_stays_bounded_at_1600_exits(self):
        # tracemalloc sees numpy's buffers: an attack, and a grid of the
        # public log-posteriors, at 1600 exits allocate under 8 MB at peak,
        # where one (point, exit) array of the 128 x 128 grid would take 210 MB
        def peak(fn):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                fn()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        rr = generate_observations(ORIGIN, RR_MAIN, 1600, make_rng(17))
        tb = generate_observations(ORIGIN, TB_MAIN, 1600, make_rng(17))
        c = tb.shared_region.center
        runs = {
            "rr attack": lambda: attack(rr, ORIGIN, None),
            "tb attack": lambda: attack(tb, ORIGIN, None),
            "rr grid": lambda: grid_posterior(
                lambda p: rr_log_posterior(p, rr), quadrature_window(rr), n=128
            ),
            "tb grid": lambda: grid_posterior(
                lambda p: tb_log_posterior(p, c, tb), support_square(c, TB_MAIN.r), n=128
            ),
        }
        peaks = {name: peak(fn) for name, fn in runs.items()}
        assert max(peaks.values()) < 8 * 2**20, peaks

    def test_edge_mass_counts_the_outer_ring(self):
        grid = grid_posterior(lambda p: np.zeros(len(p)), (0.0, 1.0, 0.0, 1.0), n=10)
        assert grid.edge_mass() == pytest.approx(36 / 100)
        # a peak in one corner cell: all its mass is in the ring
        grid = grid_posterior(lambda p: -1e3 * ((p - 0.05) ** 2).sum(axis=1), (0.0, 1.0, 0.0, 1.0), n=10)
        assert grid.edge_mass() > 0.99

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            grid_posterior(lambda p: np.zeros(len(p)), (1.0, 1.0, 0.0, 2.0))

    def test_all_neg_inf_rejected(self):
        with pytest.raises(ValueError):
            grid_posterior(
                lambda p: np.full(len(p), -np.inf), (0.0, 1.0, 0.0, 1.0), n=16
            )


class TestQuadratureWindow:
    def test_two_balls_has_no_window(self, rng):
        # two-balls integrates on its support disk by the polar rule alone
        obs = generate_observations(ORIGIN, TB_MAIN, 4, rng)
        with pytest.raises(TypeError):
            quadrature_window(obs)

    def test_single_exit_window_has_scale(self):
        # one exit: the home is within the upper 1e-12 quantile of a
        # region radius, sqrt(Q / beta) with Q the Gamma(4, 1) quantile
        obs = rr_obs_at([[1.0, 0.0]], GammaParams(4.0, 4.0))
        x0, x1, y0, y1 = quadrature_window(obs)
        reach = math.sqrt(stats.gamma(4.0).isf(1e-12) / 4.0)
        assert x1 - x0 == pytest.approx(2.0 * reach, rel=1e-9)
        assert y1 - y0 == pytest.approx(2.0 * reach, rel=1e-9)
        assert (x0 + x1) / 2.0 == pytest.approx(1.0)

    def test_window_covers_home(self):
        for seed in range(10):
            theta = Point(3.0, -2.0)
            obs = generate_observations(theta, RR_MAIN, 20, make_rng(seed))
            x0, x1, y0, y1 = quadrature_window(obs)
            assert x0 < theta.x < x1 and y0 < theta.y < y1
            grid = grid_posterior(lambda p: rr_log_posterior(p, obs), (x0, x1, y0, y1))
            assert grid.edge_mass() < 1e-12


class TestAttackFixedRadius:
    def test_exact_recovery(self, rng):
        theta = Point(1.5, -0.25)
        obs = generate_observations(theta, FixedRadius(2.0), 6, rng)
        report = attack(obs, theta, rng)
        assert report.posterior_mean.distance_to(theta) <= 1e-9 * 2.0
        assert report.variance == 0.0
        assert report.grids == 0 and report.edge_mass == 0.0
        assert report.posterior_mse <= (1e-9 * 2.0) ** 2

    def test_two_exits_center_pair(self, rng):
        # theta is one of the two radius-r* circle centers through both
        # exits, equally likely: mean their midpoint, variance |plus - minus|^2 / 4
        theta = Point(1.5, -0.25)
        obs = generate_observations(theta, FixedRadius(2.0), 2, rng)
        z = obs.positions
        report = attack(obs, theta, rng)
        mid = z.mean(axis=0)
        half_chord2 = float(((z[1] - z[0]) ** 2).sum()) / 4.0
        assert np.allclose(report.posterior_mean.as_array(), mid, rtol=0.0, atol=1e-12)
        assert report.variance == pytest.approx(4.0 - half_chord2, rel=1e-12)
        assert report.bias2 == pytest.approx(float(((mid - theta.as_array()) ** 2).sum()), rel=1e-9)
        assert report.bias2 == pytest.approx(report.variance, rel=1e-9)
        assert report.grids == 0 and report.edge_mass == 0.0
        # two equal point masses at the candidates: the mean is their
        # midpoint bit for bit, the variance |plus - minus|^2 / 4 to
        # rounding, at most 2 ulp over 1000 replicates measured at two homes
        plus, minus = recover_center(z, 2.0)
        assert np.array_equal(report.posterior_mean.as_array(), 0.5 * (plus + minus))
        want = float(((plus - minus) ** 2).sum()) / 4.0
        assert abs(report.variance - want) <= 2 * math.ulp(want)

    def test_one_exit_center_arc(self, rng):
        # theta is uniform on the radius-r* circle around the exit
        theta = Point(1.5, -0.25)
        obs = generate_observations(theta, FixedRadius(2.0), 1, rng)
        report = attack(obs, theta, rng)
        assert report.posterior_mean == Point(*obs.positions[0])
        assert report.variance == 4.0
        assert report.bias2 == pytest.approx(4.0, rel=1e-12)
        assert report.posterior_mse == pytest.approx(8.0, rel=1e-12)


def _rel_gaps(report, grid, theta):
    """Relative MSE gap and mean gap in posterior sds, against an oracle grid."""
    mse = grid.mse_against(theta)[0]
    sd = math.sqrt(np.trace(grid.cov))
    mean_gap = float(np.hypot(*(report.posterior_mean.as_array() - grid.mean))) / sd
    return abs(report.posterior_mse - mse) / mse, mean_gap


class TestAttackRandomRadius:
    def test_matches_grid_oracle(self):
        theta = Point(0.4, -0.2)
        obs = generate_observations(theta, RR_MAIN, 6, make_rng(101))
        report = attack(obs, theta, make_rng(202))
        grid = grid_posterior(lambda p: rr_log_posterior(p, obs), quadrature_window(obs))
        mse_gap, mean_gap = _rel_gaps(report, grid, theta)
        assert mse_gap < 1e-8  # measured 4e-16
        assert mean_gap < 1e-8

    def test_report_identity_and_diagnostics(self, rng):
        obs = generate_observations(ORIGIN, RR_MAIN, 10, rng)
        report = attack(obs, ORIGIN, rng)
        assert report.posterior_mse == pytest.approx(report.bias2 + report.variance, rel=1e-9)
        assert report.edge_mass < inference.EDGE_MASS_MAX
        assert report.grids >= 1
        assert report.wall_time > 0.0
        # pure quadrature: any generator, or none, gives the same numbers
        again = attack(obs, ORIGIN, None)
        assert (again.posterior_mse, again.posterior_mean) == (
            report.posterior_mse,
            report.posterior_mean,
        )

    def test_translation_equivariance(self):
        shift = np.array([25.0, -40.0])
        a_obs = generate_observations(ORIGIN, RR_MAIN, 8, make_rng(55))
        b_obs = generate_observations(Point(*shift), RR_MAIN, 8, make_rng(55))
        a = attack(a_obs, ORIGIN, make_rng(77))
        b = attack(b_obs, Point(*shift), make_rng(77))
        assert b.posterior_mse == pytest.approx(a.posterior_mse, rel=1e-6)
        moved = np.array([a.posterior_mean.x, a.posterior_mean.y]) + shift
        assert b.posterior_mean.distance_to(Point(*moved)) < 1e-6

    def test_diagnostics_gates(self, rng, monkeypatch):
        obs = generate_observations(ORIGIN, RR_MAIN, 6, rng)
        attack(obs, ORIGIN, rng)
        # every open window leaves some mass in its edge cells
        monkeypatch.setattr(inference, "EDGE_MASS_MAX", 0.0)
        with pytest.raises(DiagnosticsFailed, match="edge mass"):
            attack(obs, ORIGIN, rng)
        monkeypatch.undo()
        # no grid resolves a posterior that must span 1e9 cells per sd
        monkeypatch.setattr(inference, "MIN_CELLS_PER_SD", 1e9)
        with pytest.raises(DiagnosticsFailed, match="cells"):
            attack(obs, ORIGIN, rng)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_small_n_matches_wide_grid(self, n):
        # Ring-shaped and multimodal posteriors: the attack must match a
        # 600 x 600 grid on a window far wider than the posterior. Measured
        # gaps are below 3e-12; at n = 3, replicate 0 (MSE 7.75) is where
        # the Metropolis attack gave 0.85.
        spec = RandomRadius(GammaParams(8.5, 1.0))
        for rep in range(6):
            obs = generate_observations(ORIGIN, spec, n, derive_rng(3, 2, n, rep, 1))
            report = attack(obs, ORIGIN, None)
            z = obs.positions
            mid = z.mean(axis=0)
            half = 12.0 + float(np.abs(z - mid).max())
            grid = grid_posterior(
                lambda p: rr_log_posterior(p, obs),
                (mid[0] - half, mid[0] + half, mid[1] - half, mid[1] + half),
                n=600,
            )
            mse_gap, mean_gap = _rel_gaps(report, grid, ORIGIN)
            assert mse_gap < 1e-6, (rep, report.posterior_mse, grid.mse_against(ORIGIN)[0])
            assert mean_gap < 1e-6

    def test_gamma_shape_below_one_stays_defined(self):
        spec = RandomRadius(GammaParams(0.7, 0.5))
        for n in (1, 4, 50):
            obs = generate_observations(ORIGIN, spec, n, make_rng(n))
            report = attack(obs, ORIGIN, None)
            assert math.isfinite(report.posterior_mse) and report.posterior_mse > 0.0

    def test_gamma_shape_below_one_skips_the_laplace_fit(self, monkeypatch):
        # below shape 1 the log-posterior is +inf at every exit: no Laplace
        # fit, so no Gauss-Hermite rule, only the box (or, for one exit, the
        # closed form); above it the fit runs
        real = inference._rr_laplace
        fits = []

        def spy(*args):
            fits.append(args)
            return real(*args)

        monkeypatch.setattr(inference, "_rr_laplace", spy)
        for n in (1, 4, 50):
            obs = generate_observations(ORIGIN, RandomRadius(GammaParams(0.7, 0.5)), n, make_rng(n))
            report = attack(obs, ORIGIN, None)
            assert report.rule == ("none" if n == 1 else "midpoint") and report.rule_gap == 0.0
        assert fits == []
        report = attack(generate_observations(ORIGIN, RR_MAIN, 50, make_rng(50)), ORIGIN, None)
        assert len(fits) == 1 and report.rule == "hermite"


class TestAttackTwoBalls:
    def test_matches_grid_oracle(self):
        theta = Point(-0.3, 0.6)
        obs = generate_observations(theta, TB_MAIN, 5, make_rng(303))
        report = attack(obs, theta, make_rng(404))

        (c,) = recover_center(obs.positions, TB_MAIN.R)
        grid = grid_posterior(
            lambda p: tb_log_posterior(p, c, obs),
            support_square(Point(*c), TB_MAIN.r),
        )
        mse_gap, mean_gap = _rel_gaps(report, grid, theta)
        # measured 1.8e-10 and 2.0e-10: the oracle's own error, where the
        # disk edge cuts its cells; the attack's polar rule holds the disk
        assert mse_gap < 1e-8
        assert mean_gap < 1e-8

    def test_fallback_diagnostics_gates(self, monkeypatch):
        # no polar rule is certified at RULE_RTOL = 0, and with no grid to
        # fall back to the two-balls attack fails after POLAR_CAP nodes. The
        # one grid left, the random-radius box (here for the Gamma matched
        # to the same setting, at n = 6), keeps its edge-mass and cell
        # guards.
        tb = TABLE1_SETTINGS[0]
        obs = generate_observations(ORIGIN, tb, 1600, derive_rng(3, 0, 1600))
        rr = generate_observations(
            ORIGIN, RandomRadius(calibrate_random_radius(tb).matched_gamma), 6, derive_rng(3, 0, 6)
        )
        assert attack(obs, ORIGIN, None).rule == "polar"
        assert attack(rr, ORIGIN, None).rule == "midpoint"
        monkeypatch.setattr(inference, "RULE_RTOL", 0.0)
        with pytest.raises(DiagnosticsFailed, match=f"{inference.POLAR_CAP}-node polar rule"):
            attack(obs, ORIGIN, None)
        monkeypatch.undo()
        monkeypatch.setattr(inference, "EDGE_MASS_MAX", 0.0)
        with pytest.raises(DiagnosticsFailed, match="edge mass"):
            attack(rr, ORIGIN, None)
        monkeypatch.undo()
        monkeypatch.setattr(inference, "MIN_CELLS_PER_SD", 1e9)
        with pytest.raises(DiagnosticsFailed, match="cells"):
            attack(rr, ORIGIN, None)

    def test_draws_stay_in_support(self, rng, monkeypatch):
        # every point at which the attack evaluates the two-balls target
        # lies in the open support disk: the polar rule's nodes sit at
        # c + radius (cos phi, sin phi), one rule per grid counted
        obs = generate_observations(ORIGIN, TB_MAIN, 6, rng)
        real = inference._sep_expansion
        centers, points = [], []

        def spy(z, m, rho):
            sep = real(z, m, rho)

            def polar(radii, n_angles):
                phi = 2.0 * math.pi * np.arange(n_angles) / n_angles
                ring = np.column_stack([np.cos(phi), np.sin(phi)])
                points.append(m + (radii[:, None, None] * ring).reshape(-1, 2))
                return sep.polar(radii, n_angles)

            def pointwise(pts):
                points.append(pts)
                return sep(pts)

            centers.append(m)
            pointwise.polar = polar
            return pointwise

        monkeypatch.setattr(inference, "_sep_expansion", spy)
        report = attack(obs, ORIGIN, rng)
        (c,) = recover_center(obs.positions, TB_MAIN.R)
        assert math.dist(report.posterior_mean.as_array(), c) < TB_MAIN.r
        assert report.rule == "polar"
        assert len(points) == report.grids == 2
        assert all(np.array_equal(m, c) for m in centers)
        for pts in points:
            assert np.all(np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]) < TB_MAIN.r)

    def test_two_exit_mixture(self, rng):
        obs = generate_observations(ORIGIN, TB_MAIN, 2, rng)
        report = attack(obs, ORIGIN, rng)
        # each candidate center: the polar rule and its half-size check
        assert report.grids == 4 and report.rule == "polar"
        assert report.posterior_mse == pytest.approx(report.bias2 + report.variance, rel=1e-9)
        assert report.posterior_mse < (2.0 * TB_MAIN.R + TB_MAIN.r) ** 2
        # pure quadrature: a second run reproduces the numbers exactly
        again = attack(obs, ORIGIN, make_rng(1))
        assert again.posterior_mse == report.posterior_mse
        assert again.posterior_mean == report.posterior_mean

    def test_pair_counts_one_rule_per_candidate_per_size(self, monkeypatch):
        # grids counts every polar rule evaluated: at a pair, one per
        # candidate center at each size, the half-size check included.
        # (2, 3, 2, 0.3) certifies at 32 or 64 nodes here
        real = inference._polar_rule
        calls = []

        def spy(sep, n, c, *args):
            calls.append((args[-1], tuple(c)))
            return real(sep, n, c, *args)

        monkeypatch.setattr(inference, "_polar_rule", spy)
        spec = TwoBalls(2.0, 3.0, BetaParams(2.0, 0.3))
        nodes = set()
        for rep in range(10):
            calls.clear()
            obs = generate_observations(ORIGIN, spec, 2, derive_rng(11, 2, rep))
            report = attack(obs, ORIGIN, None)
            sizes = {N for N, _ in calls}
            assert report.grids == len(calls) == 2 * len(sizes)
            assert max(sizes) == report.nodes and min(sizes) == inference.POLAR_START // 2
            assert len({c for _, c in calls}) == 2
            nodes.add(report.nodes)
        assert nodes == {32, 64}

    def test_single_exit_augmented_sampler(self, rng):
        # One exit: theta and the center angle psi are unknown. The attack
        # answers in closed form; check it against the direct tensor grid
        # over (psi, theta - c(psi)), periodic midpoint rule in psi, unit
        # Jacobian.
        obs = generate_observations(ORIGIN, TB_MAIN, 1, rng)
        report = attack(obs, ORIGIN, rng)
        z = obs.positions[0]
        R, r = TB_MAIN.R, TB_MAIN.r
        offs = -r + (np.arange(96) + 0.5) * (2.0 * r / 96)
        ox, oy = np.meshgrid(offs, offs, indexing="ij")
        o = np.column_stack([ox.ravel(), oy.ravel()])
        logs, thetas = [], []
        for psi in (np.arange(96) + 0.5) * (2.0 * math.pi / 96):
            c = z + R * np.array([math.cos(psi), math.sin(psi)])
            thetas.append(c + o)
            logs.append(tb_log_posterior(c + o, Point(*c), obs))
        lp = np.concatenate(logs)
        th = np.concatenate(thetas)
        w = np.exp(lp - lp.max())
        w /= w.sum()
        assert report.posterior_mean == Point(*z)
        assert np.allclose(w @ th, z, atol=1e-9)
        assert report.posterior_mse == pytest.approx(float(w @ (th**2).sum(axis=1)), rel=1e-5)
        assert report.grids == 0 and report.rule == "none"
        # With a flat prior on theta, theta - z1 given z1 follows the law of
        # theta - z1 given theta, so the posterior E|theta - z1|^2 is the
        # mean SP, R^2 - r^2 alpha / (alpha + beta).
        assert report.variance == pytest.approx(R**2 - r**2 * TB_MAIN.beta.mean, rel=1e-6)

    @pytest.mark.parametrize("rep, expected", [(0, 14.2), (2, 15.8), (5, 14.2)])
    def test_single_exit_ring_posterior(self, rep, expected):
        # instances where the Metropolis attack gave 18.6 / 25.9 / 11.9;
        # (theta, psi) grids up to 400^2 x 720 give 14.2 / 15.8 / 14.2
        obs = generate_observations(ORIGIN, TB_MAIN, 1, derive_rng(3, 2, 1, rep, 0))
        report = attack(obs, ORIGIN, None)
        assert report.posterior_mse == pytest.approx(expected, rel=0.01)

    def test_inconsistent_exits_surface(self, rng):
        a = np.array([0.0, 2.0, 4.0])
        z = 3.0 * np.column_stack([np.cos(a), np.sin(a)])
        # lie about the radius the attacker assumes
        spec = TwoBalls(1.0, 2.5, BetaParams(4.0, 4.0))
        obs = ExitObservationSet(spec, z, np.zeros((3, 2)), np.full(3, 3.0), np.full(3, 9.0))
        with pytest.raises(InconsistentExits):
            attack(obs, ORIGIN, rng)


def _polar_reference(obs, c, N=256):
    """(log mass, mean, cov) of the two-balls posterior on B(c, r) by the
    N x 2N Gauss-Jacobi x trapezoid rule, from the public pointwise
    log-posterior: the Beta weight u^(a-1) (1-u)^(b-1) that the Jacobi
    weights carry is divided out of tb_log_posterior at every node. The
    rule's constant factors are the same for every center of one spec.
    The nodes are core.jacobi_rule's at every N: test_jacobi_rule_has_scipys_nodes
    pins them to scipy's roots_jacobi, and test_jacobi_rule_is_exact_at_large_n
    holds their Beta moments to 1e-12, where roots_jacobi's are off by 2.7e-11
    at (2, 0.3) and 256 nodes."""
    spec = obs.strategy
    r, a, b = spec.r, spec.beta.alpha, spec.beta.beta
    u, w = jacobi_rule(N, a, b)
    phi = math.pi * np.arange(2 * N) / N
    ring = np.column_stack([np.cos(phi), np.sin(phi)])
    pts = (c + (r * np.sqrt(u))[:, None, None] * ring).reshape(-1, 2)
    logp = tb_log_posterior(pts, c, obs).reshape(N, 2 * N)
    logw = logp + (np.log(w) - (a - 1.0) * np.log(u) - (b - 1.0) * np.log1p(-u))[:, None]
    peak = logw.max()
    wts = np.exp(logw - peak).ravel()
    total = wts.sum()
    wts /= total
    mean = wts @ pts
    d = pts - mean
    return peak + math.log(total), mean, (d.T * wts) @ d


def _reference_tb(obs, theta, N=256):
    """Reference (posterior MSE, variance) of the two-balls attack, by the
    N-node polar reference."""
    spec = obs.strategy
    if len(obs) == 1:
        # one exit: the offset from the center, as the attack integrates it
        R = spec.R
        one = ExitObservationSet(spec, [[-R, 0.0]], [[0.0, 0.0]], [R], [R * R])
        _, m, cov = _polar_reference(one, np.zeros(2))
        var = float((m[0] + R) ** 2 + m[1] ** 2 + np.trace(cov))
        return float(((obs.positions[0] - theta) ** 2).sum()) + var, var
    parts = [_polar_reference(obs, c, N) for c in recover_center(obs.positions, spec.R)]
    lm = np.array([p[0] for p in parts])
    wts = np.exp(lm - lm.max())
    wts /= wts.sum()
    mean = sum(w * p[1] for w, p in zip(wts, parts))
    var = float(sum(w * (np.trace(p[2]) + ((p[1] - mean) ** 2).sum()) for w, p in zip(wts, parts)))
    return float(((mean - theta) ** 2).sum()) + var, var


TB_REFERENCE_CASES = [(tb, n) for tb in TABLE1_SETTINGS for n in (1, 2, 3, 50, 1600)] + [
    (TwoBalls(r, R, BetaParams(a, b)), n)
    for r, R, a, b in ((2.0, 3.0, 2.0, 0.3), (1.0, 5.0, 4.0, 0.5))
    for n in (3, 50, 300)
]


class TestGaussRules:
    @pytest.mark.parametrize(
        "spec, n",
        TB_REFERENCE_CASES,
        ids=[f"r{s.r:g}-R{s.R:g}-a{s.beta.alpha:g}-b{s.beta.beta:g}-n{n}" for s, n in TB_REFERENCE_CASES],
    )
    def test_two_balls_matches_polar_reference(self, spec, n):
        # the attack's rule (series as a matrix product, weights from the
        # Beta law) against a 256 x 512 rule on the pointwise log-posterior
        obs = generate_observations(ORIGIN, spec, n, derive_rng(11, n))
        report = attack(obs, ORIGIN, None)
        mse, var = _reference_tb(obs, ORIGIN.as_array())
        assert report.posterior_mse == pytest.approx(mse, rel=1e-10, abs=0.0)
        assert report.variance == pytest.approx(var, rel=1e-10, abs=0.0)
        assert report.rule_gap <= inference.RULE_RTOL

    def test_pair_is_certified_as_one_mixture(self):
        # n = 2 at (2, 3, 2, 0.3): the rule doubles until the mixture of the
        # two candidates' posteriors is within RULE_RTOL of its half-size
        # mixture. In replicate 9 that takes 32 nodes, where either disk on
        # its own takes 64; each replicate lies within twice its gap of the
        # 256 x 512 reference
        spec = TwoBalls(2.0, 3.0, BetaParams(2.0, 0.3))
        r, R, a, b = spec.r, spec.R, spec.beta.alpha, spec.beta.beta
        for rep in range(10):
            obs = generate_observations(ORIGIN, spec, 2, derive_rng(11, 2, rep))
            report = attack(obs, ORIGIN, None)
            mse, var = _reference_tb(obs, ORIGIN.as_array())
            tol = 2.0 * report.rule_gap + 1e-12
            assert abs(report.posterior_mse - mse) <= tol * mse, rep
            assert abs(report.variance - var) <= tol * var, rep
            if rep == 9:
                z = obs.positions
                alone = [inference._tb_disk(z, c[None], r, R, a, b)[1].nodes for c in recover_center(z, R)]
                assert (report.nodes, alone) == (32, [64, 64])

    @pytest.mark.parametrize("n", [40, 50, 200, 1600])
    def test_random_radius_matches_wide_grid(self, n):
        # the six matched Gammas: the Gauss-Hermite attack against a 256^2
        # midpoint grid on the Laplace fit's mode +- 8 sd. At n = 40 a
        # posterior may still be too wide for the fit (r2-R5 here), and the
        # box it takes instead must match as well
        for k, tb in enumerate(TABLE1_SETTINGS):
            gamma = calibrate_random_radius(tb).matched_gamma
            obs = generate_observations(ORIGIN, RandomRadius(gamma), n, derive_rng(12, n, k))
            report = attack(obs, ORIGIN, None)
            assert report.rule == "hermite" or n == 40, (k, report.rule)
            assert report.rule_gap <= inference.RULE_RTOL
            mode, cov = inference._rr_laplace(obs.positions, gamma.alpha, gamma.beta)
            half = 8.0 * np.sqrt(np.diag(cov))
            window = (mode[0] - half[0], mode[0] + half[0], mode[1] - half[1], mode[1] + half[1])
            grid = grid_posterior(lambda p: rr_log_posterior(p, obs), window, n=256)
            mse, _, var = grid.mse_against(ORIGIN)
            assert report.posterior_mse == pytest.approx(mse, rel=1e-10, abs=0.0), (k, n)
            assert report.variance == pytest.approx(var, rel=1e-10, abs=0.0), (k, n)

    def test_concentrated_near_edge_certifies_or_raises(self):
        # r/R = 0.97: exits 0.1 from the support, where the likelihood peaks
        # sharply. An attack either certifies its polar rule and matches a
        # 1024-node reference, or raises. Replicates 0 and 1 certify at 512
        # nodes, within 1e-13 of the reference (the 256-node reference is
        # itself 1.1e-10 off at replicate 0); 2 and 3 raise.
        spec = TwoBalls(2.9, 3.0, BetaParams(4.0, 0.5))
        outcomes = []
        for rep in range(4):
            obs = generate_observations(ORIGIN, spec, 50, derive_rng(13, rep))
            try:
                report = attack(obs, ORIGIN, None)
            except DiagnosticsFailed as e:
                assert "polar rule" in str(e)
                outcomes.append("raised")
                continue
            outcomes.append(report.rule)
            assert report.rule_gap <= inference.RULE_RTOL
            mse, _ = _reference_tb(obs, ORIGIN.as_array(), N=1024)
            assert report.posterior_mse == pytest.approx(mse, rel=1e-10, abs=0.0)
        assert outcomes == ["polar", "polar", "raised", "raised"]

    # the polar rule's Beta priors, and the laws sp_cdf's panels weigh by:
    # Beta(1, 1), Beta(1, b) and Beta(2a, 1)
    @pytest.mark.parametrize(
        "a, b",
        [(4.0, 4.0), (2.0, 0.3), (0.5, 0.5), (37.0, 1.5), (1.0, 1.0), (1.0, 0.5), (1.0, 4.0), (8.0, 1.0), (14.0, 1.0)],
    )
    def test_jacobi_rule_has_scipys_nodes(self, a, b):
        # built without scipy.linalg, the rule keeps roots_jacobi's nodes;
        # its weights agree to rounding of the smallest ones
        for N in (1, 2, 16, 24, 32, 64, 128):
            u, w = jacobi_rule(N, a, b)
            x, ws = roots_jacobi(N, b - 1.0, a - 1.0)
            assert np.allclose(u, 0.5 * (1.0 + x), rtol=0.0, atol=1e-15)
            assert np.allclose(w, ws / ws.sum(), rtol=1e-9, atol=0.0)

    def test_hermegauss_is_numpys_bit_for_bit(self):
        # the package builds the Gauss-Hermite rule without numpy.polynomial,
        # by the same steps, so the random-radius attack's numbers stay put
        for N in range(2, 65):
            for got, ref in zip(hermegauss(N), numpy_hermegauss(N)):
                assert got.tobytes() == ref.tobytes(), N

    @pytest.mark.parametrize("a, b", [(4.0, 4.0), (4.0, 2.0), (2.0, 4.0), (4.0, 0.5), (2.0, 0.3)])
    def test_jacobi_rule_is_exact_at_large_n(self, a, b):
        # the polar rule's largest sizes, and the 1024-node reference: the
        # Beta moments E[u^k], k < 64, to 1e-12 (measured at most 3.5e-13,
        # at (2, 0.3) and 1024 nodes, where roots_jacobi is off by 4.5e-10)
        k = np.arange(64)
        exact = np.exp([betaln(a + j, b) - betaln(a, b) for j in k])
        for N in (256, 512, 1024):
            u, w = jacobi_rule(N, a, b)
            got = w @ u[:, None] ** k
            assert np.allclose(got, exact, rtol=1e-12, atol=0.0), (N, np.abs(got / exact - 1).max())

    def test_rules_are_exact_on_their_weights(self):
        # the N-node Gauss-Jacobi rule integrates u^k, k < 2N, against
        # Beta(a, b) exactly; the Gauss-Hermite rule x^k against N(0, 1)
        a, b = 2.0, 0.3
        u, w = jacobi_rule(8, a, b)
        for k in range(16):
            exact = math.exp(betaln(a + k, b) - betaln(a, b))
            assert w @ u**k == pytest.approx(exact, rel=1e-13)
        # the 8 x 8 half of the attack's Gauss-Hermite table, in x_i: its
        # weights w_i w_j sum to w_i over j
        xi, _, logw, split = inference._hermite_nodes(16)
        x, w = xi[:split, 0], np.exp(logw[:split])
        for k in range(16):
            exact = 0.0 if k % 2 else math.prod(range(1, k, 2))
            scale = math.prod(range(1, k + 1, 2))  # E|x|^k's order
            assert w @ x**k == pytest.approx(exact, rel=1e-12, abs=1e-13 * scale)


def reference_hermite_moments(target, mode, chol, N):
    """(log mass, mean, cov) by the N x N Gauss-Hermite rule, with a target
    call of its own: each rule as the attack computed it before both rules
    shared one call."""
    x, w = hermegauss(N)
    w = w / w.sum()
    xi = np.column_stack([np.repeat(x, N), np.tile(x, N)])
    pts = mode + xi @ chol.T
    logw = target(pts) + 0.5 * (xi * xi).sum(axis=1) + np.log(np.outer(w, w)).ravel()
    peak = float(logw.max())
    wts = np.exp(logw - peak)
    total = float(wts.sum())
    mean = wts @ pts / total
    d = pts - mean
    log_mass = peak + math.log(total) + math.log(2.0 * math.pi * chol[0, 0] * chol[1, 1])
    return log_mass, mean, (d.T * wts) @ d / total


class TestHermiteRulePair:
    @pytest.mark.parametrize("n", [50, 200, 1600])
    def test_one_target_call_gives_each_rules_moments(self, n, monkeypatch):
        # the six matched Gammas: both rules from one call of the target on
        # their 320 nodes, bit for bit as two calls of their own
        for k, tb in enumerate(TABLE1_SETTINGS):
            g = calibrate_random_radius(tb).matched_gamma
            z = generate_observations(ORIGIN, RandomRadius(g), n, derive_rng(14, n, k)).positions
            mode, cov = inference._rr_laplace(z, g.alpha, g.beta)
            chol = np.linalg.cholesky(cov)
            half = 1.001 * float(inference._hermite_nodes(16)[0].max()) * np.abs(chol).sum(axis=1)
            window = (mode[0] - half[0], mode[0] + half[0], mode[1] - half[1], mode[1] + half[1])
            target = inference._rr_target(z, g.alpha, g.beta, window)
            calls = []

            def counted(pts):
                calls.append(len(pts))
                return target(pts)

            got = inference._hermite_rules(counted, mode, chol)
            assert calls == [8 * 8 + 16 * 16]
            for rule, N in zip(got, (8, 16)):
                want = reference_hermite_moments(target, mode, chol, N)
                assert rule.log_mass == want[0]
                assert np.array_equal(rule.mean, want[1])
                assert np.array_equal(rule.cov, want[2])


class TestSingleExit:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.01, 0.99),
        st.floats(0.1, 50.0),
        st.floats(0.2, 10.0),
        st.floats(0.2, 10.0),
        st.floats(0.05, 40.0),
        st.floats(0.05, 20.0),
        st.floats(0.1, 20.0),
        st.integers(0, 2**32 - 1),
    )
    def test_attacks_are_the_closed_form(self, ratio, R, a, b, alpha, rate, r_star, seed):
        # one exit, flat prior on theta: mean the exit, variance the mean SP.
        # The exits come from a home at the origin, where a region far
        # smaller than the home's rounding (Gamma shape 0.05) still has its
        # exit on its boundary; the attack is scored against another point.
        rng = make_rng(seed)
        theta = Point(*rng.uniform(-100.0, 100.0, 2))
        r = ratio * R
        cases = (
            (TwoBalls(r, R, BetaParams(a, b)), R * R - r * r * a / (a + b)),
            (RandomRadius(GammaParams(alpha, rate)), alpha / rate),
            (FixedRadius(r_star), r_star * r_star),
        )
        for spec, variance in cases:
            obs = generate_observations(ORIGIN, spec, 1, rng)
            report = attack(obs, theta, None)
            z = obs.positions[0]
            assert report.posterior_mean == Point(*z)
            assert report.variance == pytest.approx(variance, rel=1e-13, abs=0.0)
            assert report.bias2 == pytest.approx(float(((z - theta.as_array()) ** 2).sum()), rel=1e-15)
            assert (report.rule, report.rule_gap, report.edge_mass, report.grids, report.nodes) == (
                "none", 0.0, 0.0, 0, 0
            )

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 0.99), st.floats(0.2, 10.0), st.floats(0.2, 10.0))
    def test_offset_disk_matches_the_exact_moments(self, ratio, a, b):
        # The polar rule as a quadrature oracle for the closed form. One exit
        # at (-R, 0) from the center leaves the Beta law of u unchanged and
        # weighs the angle by the Poisson kernel, so the offset q from the
        # center has E[q] = (-r^2 a / ((a + b) R), 0) and E|q|^2 = r^2 a / (a + b).
        # Wherever the rule certifies itself, it lies within twice its gap.
        # Examples that POLAR_CAP nodes do not certify raise and are rejected.
        R = 3.0
        r = ratio * R
        try:
            post, quad = inference._tb_disk(np.array([[-R, 0.0]]), np.zeros((1, 2)), r, R, a, b)
        except DiagnosticsFailed:
            reject()
        q2 = r * r * a / (a + b)
        var = float(np.trace(post.cov))
        tol = 2.0 * quad.rule_gap + 1e-12
        assert math.hypot(post.mean[0] + q2 / R, post.mean[1]) <= tol * math.sqrt(var)
        assert abs(var + float(post.mean @ post.mean) - q2) <= tol * q2


class TestAttackReport:
    def test_identity_enforced(self):
        AttackReport(Point(0.0, 0.0), 2.0, 1.5, 0.5, 0.0, 1, 64, 0.01)
        with pytest.raises(ValueError):
            AttackReport(Point(0.0, 0.0), 2.0, 1.5, 0.6, 0.0, 1, 64, 0.01)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            AttackReport(Point(0.0, 0.0), -1.0, -1.5, 0.5, 0.0, 1, 64, 0.01)
        with pytest.raises(ValueError):
            AttackReport(Point(0.0, 0.0), 2.0, 1.5, 0.5, 1.5, 1, 64, 0.01)

    def test_rule_gap_must_be_finite_and_nonnegative(self):
        ok = AttackReport(Point(0.0, 0.0), 2.0, 1.5, 0.5, 0.0, 2, 32, 0.01, rule_gap=1e-9, rule="polar")
        assert (ok.rule_gap, ok.rule) == (1e-9, "polar")
        for gap in (-1e-9, math.inf):
            with pytest.raises(ValueError):
                AttackReport(Point(0.0, 0.0), 2.0, 1.5, 0.5, 0.0, 2, 32, 0.01, rule_gap=gap)
