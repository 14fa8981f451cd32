import math

import numpy as np
import pytest
from scipy import stats

from privregion.core import Disk, Point, make_rng
from privregion.harmonic import (
    PointNotOnBoundary,
    ThetaOutsideRegion,
    expected_sp_given_center,
    harmonic_log_density,
    sample_exit_offsets,
)

UNIT = Disk(Point(0.0, 0.0), 1.0)


def density(z, theta, region):
    return math.exp(harmonic_log_density(z, theta, region))


def boundary_densities(theta, region, angles):
    c = region.center.as_array()
    zs = c + region.radius * np.column_stack([np.cos(angles), np.sin(angles)])
    return np.array([density(z, theta, region) for z in zs])


class TestDensityValues:
    def test_centered_is_uniform(self):
        for ang in (0.0, 1.0, 2.5, 4.0):
            z = Point(math.cos(ang), math.sin(ang))
            assert density(z, Point(0.0, 0.0), UNIT) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
        big = Disk(Point(3.0, -2.0), 7.0)
        z = Point(3.0 + 7.0, -2.0)
        assert density(z, big.center, big) == pytest.approx(1.0 / (2.0 * math.pi * 7.0), rel=1e-12)

    def test_off_center_values(self):
        # Unit disk, theta = (0.5, 0): value (1 - 0.25) / (2 pi |z - theta|^2).
        assert density(Point(1.0, 0.0), Point(0.5, 0.0), UNIT) == pytest.approx(
            0.477464829275686, rel=1e-12
        )
        assert density(Point(-1.0, 0.0), Point(0.5, 0.0), UNIT) == pytest.approx(
            0.05305164769729845, rel=1e-12
        )

    def test_nearest_point_is_mode(self):
        theta = Point(0.6, 0.0)
        vals = boundary_densities(theta, UNIT, np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False))
        assert np.argmax(vals) == 0

    def test_translation_invariance(self):
        shifted = Disk(Point(10.0, -3.0), 1.0)
        a = harmonic_log_density(Point(1.0, 0.0), Point(0.5, 0.0), UNIT)
        b = harmonic_log_density(Point(11.0, -3.0), Point(10.5, -3.0), shifted)
        assert a == pytest.approx(b, rel=1e-14)

    def test_theta_outside_rejected(self):
        with pytest.raises(ThetaOutsideRegion):
            harmonic_log_density(Point(1.0, 0.0), Point(2.0, 0.0), UNIT)
        # within the interior margin of the boundary also counts as outside
        with pytest.raises(ThetaOutsideRegion):
            harmonic_log_density(Point(1.0, 0.0), Point(1.0 - 1e-8, 0.0), UNIT)

    def test_z_off_boundary_rejected(self):
        with pytest.raises(PointNotOnBoundary):
            harmonic_log_density(Point(0.9, 0.0), Point(0.0, 0.0), UNIT)


class TestNormalization:
    @pytest.mark.parametrize("offset", [0.0, 0.3, 0.7, 0.95])
    def test_arclength_density_integrates_to_one(self, offset):
        region = Disk(Point(-1.0, 2.0), 2.0)
        theta = Point(-1.0 + offset * 2.0, 2.0)
        angles = np.linspace(0.0, 2.0 * math.pi, 10_001)
        vals = boundary_densities(theta, region, angles)
        total = np.trapezoid(vals, angles) * region.radius
        assert abs(total - 1.0) < 1e-8


class TestSampling:
    def test_offsets_exactly_on_circle(self, rng):
        radii = np.full(1000, 2.5)
        offs = sample_exit_offsets(np.tile([1.0, 0.5], (1000, 1)), radii, 1000, rng)
        assert np.allclose(np.hypot(offs[:, 0], offs[:, 1]), 2.5, rtol=1e-12, atol=0.0)

    def test_mean_is_theta(self, rng):
        # E[exit] = theta by optional stopping.
        n = 100_000
        theta_off = np.tile([0.5, 0.0], (n, 1))
        offs = sample_exit_offsets(theta_off, np.ones(n), n, rng)
        se = offs.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(offs.mean(axis=0) - [0.5, 0.0]) < 5.0 * se)

    def test_second_moment_matches_identity(self, rng):
        # E||exit - theta||^2 = R^2 - |theta - c|^2.
        n = 100_000
        offs = sample_exit_offsets(np.tile([0.5, 0.0], (n, 1)), np.ones(n), n, rng)
        sq = ((offs - [0.5, 0.0]) ** 2).sum(axis=1)
        se = sq.std() / math.sqrt(n)
        assert abs(sq.mean() - 0.75) < 5.0 * se

    def test_sp_is_the_image_of_the_uniform_angle(self):
        # SP = (R^2 - d^2)^2 / (R^2 + d^2 + 2 R d cos psi) with d = |theta - c|
        # and psi = phi - arg(theta - c), phi the uniform angle the sampler draws
        n, big_r = 1000, 2.5
        theta_off = np.array([0.9, -1.2])
        offs = sample_exit_offsets(theta_off, np.full(n, big_r), n, make_rng(3))
        phi = make_rng(3).uniform(0.0, 2.0 * math.pi, size=n)
        d = math.hypot(*theta_off)
        psi = phi - math.atan2(theta_off[1], theta_off[0])
        expected = (big_r**2 - d**2) ** 2 / (big_r**2 + d**2 + 2.0 * big_r * d * np.cos(psi))
        sp = ((offs - theta_off) ** 2).sum(axis=1)
        assert np.allclose(sp, expected, rtol=1e-12, atol=0.0)

    def test_centered_angles_uniform(self, rng):
        offs = sample_exit_offsets(np.zeros((20_000, 2)), np.ones(20_000), 20_000, rng)
        ang = np.mod(np.arctan2(offs[:, 1], offs[:, 0]), 2.0 * math.pi)
        res = stats.kstest(ang, stats.uniform(scale=2.0 * math.pi).cdf)
        assert res.pvalue > 0.01

    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_angle_histogram_matches_density(self, rng, offset):
        # chi^2 with 50 equiprobable-by-integral bins against the density.
        n = 50_000
        offs = sample_exit_offsets(np.tile([offset, 0.0], (n, 1)), np.ones(n), n, rng)
        ang = np.mod(np.arctan2(offs[:, 1], offs[:, 0]), 2.0 * math.pi)
        edges = np.linspace(0.0, 2.0 * math.pi, 51)
        fine = np.linspace(0.0, 2.0 * math.pi, 50 * 200 + 1)
        vals = boundary_densities(Point(offset, 0.0), UNIT, fine)
        cdf = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) / 2.0 * np.diff(fine))])
        probs = np.diff(np.interp(edges, fine, cdf))
        probs /= probs.sum()
        counts, _ = np.histogram(ang, bins=edges)
        res = stats.chisquare(counts, f_exp=n * probs)
        assert res.pvalue > 0.01


class TestExpectedSp:
    def test_centered(self):
        assert expected_sp_given_center(Point(0.0, 0.0), UNIT) == pytest.approx(1.0)

    def test_off_center(self):
        assert expected_sp_given_center(Point(0.5, 0.0), UNIT) == pytest.approx(0.75)
        region = Disk(Point(1.0, 1.0), 5.0)
        assert expected_sp_given_center(Point(1.0, 4.0), region) == pytest.approx(25.0 - 9.0)

    def test_monte_carlo_agrees(self, rng):
        region = Disk(Point(0.0, 0.0), 2.0)
        theta = Point(0.7, -0.9)
        n = 100_000
        offs = sample_exit_offsets(np.tile([0.7, -0.9], (n, 1)), np.full(n, 2.0), n, rng)
        sq = ((offs - [0.7, -0.9]) ** 2).sum(axis=1)
        se = sq.std() / math.sqrt(n)
        assert abs(sq.mean() - expected_sp_given_center(theta, region)) < 5.0 * se
