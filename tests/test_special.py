"""The numpy special functions behind the copula margins and the entropic criterion."""

import mpmath
import numpy as np
import pytest
from scipy import special

from sysrisk import _special
from sysrisk.acceptance import entropic_rho

NDTR_ULPS = 7  # largest error measured against mpmath on [-37, 8]: 6.2 ulp, near z = -0.125


def _weideman_coefficients():
    # a_n = (1/2M) sum_{|k|<M} f(t_k) cos(n theta_k), f(t) = exp(-t^2) (L^2 + t^2),
    # t_k = L tan(theta_k / 2), theta_k = k pi / M, M = 2N, at 50 digits
    with mpmath.workdps(50):
        n_terms = len(_special._ERFCX_COEFFS)
        m = 2 * n_terms
        lam = mpmath.sqrt(n_terms / mpmath.sqrt(2))
        nodes = [(k * mpmath.pi / m, lam * mpmath.tan(k * mpmath.pi / (2 * m)))
                 for k in range(-m + 1, m)]
        f = [(theta, mpmath.exp(-t * t) * (lam * lam + t * t)) for theta, t in nodes]
        coeffs = [sum(v * mpmath.cos(n * theta) for theta, v in f) / (2 * m)
                  for n in range(1, n_terms + 1)]
        return float(lam), [float(c) for c in reversed(coeffs)]


def test_erfcx_literals_are_the_weideman_coefficients():
    lam, coeffs = _weideman_coefficients()
    assert _special._ERFCX_L == lam
    assert list(_special._ERFCX_COEFFS) == coeffs


def test_ndtr_against_mpmath():
    z = np.concatenate([np.linspace(-37.0, 8.0, 1801),
                        np.random.default_rng(3).uniform(-37.0, 8.0, 700),
                        [-38.4, -0.125, 0.0, 1e-300, -1e-300]])
    phi = _special.ndtr(z)
    with mpmath.workdps(40):
        exact = [mpmath.ncdf(mpmath.mpf(float(v))) for v in z]
        ulps = [abs(mpmath.mpf(float(p)) - e) / np.spacing(float(e)) for p, e in zip(phi, exact)]
    assert float(max(ulps)) <= NDTR_ULPS
    assert _special.ndtr(np.array([0.0]))[0] == 0.5


def _grid():
    # both tails and the middle: where I is tiny, where 1 - I is tiny, and in between
    return np.unique(np.concatenate([np.logspace(-300, -1, 60), np.linspace(0.0, 1.0, 41),
                                     1.0 - np.logspace(-15, -1, 40), [1.0]]))


def _incomplete_beta(a, b, x):
    # I_x(a, b) on [0, 1] through lower_tail: integer shapes reflect the upper half by hand,
    # past (a + 1) / (a + b + 2), where the fraction of all other shapes reflects itself
    if not _special._binomial(a, b):
        return _special.lower_tail(a, b, x)
    upper = x > (a + 1.0) / (a + b + 2.0)
    value = np.empty_like(x)
    value[~upper] = _special.lower_tail(a, b, x[~upper])
    value[upper] = 1.0 - _special.lower_tail(b, a, 1.0 - x[upper])
    return value


@pytest.mark.parametrize("a,b,rel,abs_", [
    (2.0, 5.0, 2e-15, 1e-15),  # the shipped margin: the binomial sum
    (5.0, 2.0, 2e-15, 1e-15),
    (0.5, 0.5, 5e-13, 3e-14),  # the continued fraction
    (2.5, 0.7, 5e-13, 3e-14),
    (30.0, 2.2, 5e-13, 3e-14),
    (0.1, 10.0, 5e-13, 3e-14),
    (1.5, 40.0, 5e-13, 3e-14),
])
def test_betainc_against_mpmath(a, b, rel, abs_):
    x = _grid()
    value = _incomplete_beta(a, b, x)
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.betainc(a, b, 0, mpmath.mpf(float(v)), regularized=True))
                          for v in x])
    assert np.abs(value - exact).max() <= abs_
    lower = (exact <= 0.5) & (exact > 1e-290)  # relative error where I is normal and <= 1/2
    assert (np.abs(value - exact)[lower] <= rel * exact[lower]).all()
    tail = _special.lower_tail(a, b, x[lower])
    assert (np.abs(tail - exact[lower]) <= rel * exact[lower]).all()


def test_betainc_endpoints():
    for a, b in [(2.0, 5.0), (0.5, 0.5), (1.0, 0.25)]:
        assert _incomplete_beta(a, b, np.array([0.0, 1.0])).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 300.0])
def test_entropic_rho_matches_library_logsumexp(scale):
    m = np.random.default_rng(11).standard_normal(5000) * scale
    expected = special.logsumexp(-m) - np.log(m.size) + 0.3
    # the two log-sum-exp evaluations round differently: a few ulp of the larger term
    assert entropic_rho(m, 0.3) == pytest.approx(expected, rel=1e-14, abs=1e-14)
