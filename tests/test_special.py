"""The package's own special functions against scipy.special.

`privregion.core` computes log Beta, the incomplete Gamma ratio P(a, x),
its complement Q(a, x) and their inverses in x with numpy and math alone;
scipy stays the independent reference here. The shapes are every Gamma
shape the study, the benchmark and the tests use: the six matched Gammas,
obfuscate's Gamma(8.5, 1), and the small shapes of near-support two-balls
settings, whose Q takes its own series.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from privregion.core import _gamma_pq, betaln, gammainc, gammainccinv, gammaincinv
from privregion.experiments import TABLE1_SETTINGS
from privregion.inference import RR_TAIL
from privregion.strategies import calibrate_random_radius

MATCHED = [calibrate_random_radius(tb).matched_gamma.alpha for tb in TABLE1_SETTINGS]
SHAPES = MATCHED + [8.5, 0.108, 0.411, 1.48]
BETAS = [(4.0, 4.0), (4.0, 2.0), (2.0, 4.0), (2.0, 0.3), (4.0, 0.5), (1.0, 1.0), (8.0, 1.0), (37.0, 1.5)]


def assert_close(got, ref):
    """got within 1e-13 of scipy's ref, relative. Below 1e-100 scipy forms
    x^a e^-x / Gamma(a) as the exponential of an exponent in the hundreds,
    whose rounding alone grows with it (seen: scipy 1.2e-13 off at 5e-173,
    where 30-digit mpmath and core agree to 6e-16), so the bound grows in
    proportion to log(ref) there; a subnormal ref is met to 1e-300."""
    got, ref = np.asarray(got), np.asarray(ref)
    tol = 1e-13 * np.maximum(1.0, np.log(np.maximum(ref, 1e-300)) / math.log(1e-100))
    assert np.all(np.abs(got - ref) <= tol * ref + 1e-300), np.max(np.abs(got - ref) / np.maximum(ref, 1e-300))


def test_study_shapes_match_the_matched_gammas():
    assert min(MATCHED) == pytest.approx(5.78, abs=0.01) and max(MATCHED) == pytest.approx(37.07, abs=0.01)


@pytest.mark.parametrize("a", SHAPES, ids=lambda a: f"a{a:.4g}")
def test_incomplete_gamma_matches_scipy(a):
    x = a * np.logspace(-8.0, 3.0, 441)
    p, q = _gamma_pq(a, x)
    assert_close(p, special.gammainc(a, x))
    assert_close(q, special.gammaincc(a, x))
    assert np.array_equal(gammainc(a, x), p)
    assert _gamma_pq(a, 0.0) == (0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    log_a=st.floats(math.log(0.05), math.log(40.0)),
    log_ratio=st.floats(math.log(1e-8), math.log(1e3)),
)
def test_incomplete_gamma_sweep(log_a, log_ratio):
    a = math.exp(log_a)
    x = a * math.exp(log_ratio)
    p, q = _gamma_pq(a, x)
    assert_close(p, special.gammainc(a, x))
    assert_close(q, special.gammaincc(a, x))


@pytest.mark.parametrize("a", SHAPES, ids=lambda a: f"a{a:.4g}")
def test_inverses_match_scipy(a):
    # the curve's SP histogram range and the random-radius box's reach
    assert gammaincinv(a, 0.995) == pytest.approx(special.gammaincinv(a, 0.995), rel=1e-14, abs=0.0)
    assert gammainccinv(a, RR_TAIL) == pytest.approx(special.gammainccinv(a, RR_TAIL), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("a", [0.05, 0.3, 1.0, 2.5, 40.0, 150.0])
@pytest.mark.parametrize("p", [1e-10, 0.01, 0.5, 0.9, 0.995, 1.0 - 1e-9])
def test_inverses_invert(a, p):
    x = gammaincinv(a, p)
    assert float(gammainc(a, x)) == pytest.approx(p, rel=1e-13)
    x = gammainccinv(a, 1.0 - p)
    assert float(_gamma_pq(a, x)[1]) == pytest.approx(1.0 - p, rel=1e-13)


# Logs enter the package only through exponentials, where an absolute
# error is a relative one: 1e-14 relative, or absolute near log 1 = 0
# (math.lgamma is 5.5e-16 off at 1.98, where log Gamma is -0.0083).
@pytest.mark.parametrize("a", SHAPES, ids=lambda a: f"a{a:.4g}")
def test_log_gamma_matches_scipy(a):
    for s in (a, a + 0.5, a + 1.0):
        assert math.lgamma(s) == pytest.approx(special.gammaln(s), rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("a, b", BETAS)
def test_log_beta_matches_scipy(a, b):
    for da, db in ((0.0, 0.0), (1.0, 1.0), (5.0, 0.0)):
        assert betaln(a + da, b + db) == pytest.approx(special.betaln(a + da, b + db), rel=1e-14, abs=1e-14)
