"""Special functions on float arrays: the normal CDF and the regularized incomplete beta.

They serve the copula margins in scenarios.py, with numpy alone. Every
function here is elementwise, so a value never depends on the other values
of its call.
"""

from __future__ import annotations

import math

import numpy as np

# Weideman's rational series for erfcx (SIAM J. Numer. Anal. 31, 1994): with Z = (L - x) / (L + x),
# erfcx(x) = 2 p(Z) / (L + x)**2 + 1 / (sqrt(pi) (L + x)) and p(Z) = sum_{n=1}^{N} a_n Z**(n-1),
# N = 40 and L = sqrt(N / sqrt(2)). a_n = (1/2M) sum_{|k|<M} f(t_k) cos(n theta_k) is the DFT of
# f(t) = exp(-t**2) (L**2 + t**2) at t_k = L tan(theta_k / 2), theta_k = k pi / M, M = 2N. The
# literals are that sum at 50 digits rounded to float64, highest degree first; a test recomputes
# them. Literals, not an FFT at import, keep the copula stream the same on every platform. N = 40
# is the least N at this L whose truncation error (8e-18 at x = 0) lies below float64 rounding;
# N = 32 leaves 3e-14 at x = 0.
_ERFCX_L = 5.3182958969449885
_ERFCX_COEFFS = (
    -1.899694947394927e-15, 1.128073562364402e-15, 1.1357687198999241e-14,
    -5.409310282882142e-15, -7.074086260286855e-14, 1.37256205867155e-14,
    4.5329666782606727e-13, 1.2031458219387989e-13, -2.907688342182867e-12,
    -2.7276023158200452e-12, 1.7714495214011192e-11, 3.47272670930455e-11,
    -9.055124450928292e-11, -3.5632339865976533e-10, 2.1086006347066517e-10,
    3.0177805400090707e-09, 3.2497465180436973e-09, -1.8315616783040462e-08,
    -6.35177348504429e-08, 1.4198642399935674e-08, 5.912136951899494e-07,
    1.483566113220078e-06, -1.0660138984947143e-06, -1.8007447144750956e-05,
    -5.591309264248318e-05, -3.939363145489569e-05, 0.0004398070159869668,
    0.0027054056330737914, 0.010048186242783424, 0.029202916471241867,
    0.07182361779074337, 0.15504263802479495, 0.29989437996150065,
    0.5266528988277086, 0.8472174576593818, 1.2563815675765133,
    1.7253830848179779, 2.201513794878312, 2.61605415276186,
    2.8996245093897053,
)
_RSQRT_PI = 0.5641895835477563  # 1 / sqrt(pi)
_SQRT1_2 = 0.7071067811865476  # 1 / sqrt(2)

# The binomial sum is used while n = a + b - 1 <= 56: every C(n, j) is then exact in float64.
_BINOMIAL_MAX_N = 56
_CF_TOL = 2.0**-52
_CF_MAX_TERMS = 1000
_CF_TINY = 1e-300


def ndtr(z) -> np.ndarray:
    """Standard normal CDF Phi(z), elementwise, to a few ulp in both tails.

    Phi(-|z|) = exp(-z**2 / 2) erfcx(|z| / sqrt(2)) / 2, and Phi(z) = 1 - Phi(-z) for z > 0.
    The Gaussian factor splits |z| into h, |z| truncated to a multiple of 1/16, and the rest:
    exp(-h**2 / 2) exp(-(|z| - h)(|z| + h) / 2). h**2 is exact, so z**2 is never rounded
    before the exponential, which at z = -37 would cost several hundred ulp.
    """
    z = np.asarray(z, dtype=float)
    t = np.abs(z)
    x = t * _SQRT1_2
    shifted = _ERFCX_L + x
    ratio = (_ERFCX_L - x) / shifted
    poly = np.full_like(ratio, _ERFCX_COEFFS[0])
    for coeff in _ERFCX_COEFFS[1:]:
        poly *= ratio
        poly += coeff
    poly *= 2.0
    poly /= shifted
    poly += _RSQRT_PI
    poly /= shifted  # erfcx(x)
    head = np.floor(t * 16.0) / 16.0
    poly *= np.exp(-0.5 * head * head)
    rest = (t - head) * (t + head)
    rest *= -0.5
    poly *= np.exp(rest)
    poly *= 0.5  # Phi(-|z|)
    return np.where(z > 0, 1.0 - poly, poly)


def expit(r) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-r)); 0 where exp(-r) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(r, dtype=float)))


def betaln(a: float, b: float) -> float:
    """log B(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b)."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _binomial(a: float, b: float) -> bool:
    """Whether I_x(a, b) is evaluated by the binomial sum."""
    return float(a).is_integer() and float(b).is_integer() and a + b - 1 <= _BINOMIAL_MAX_N


def lower_tail(a: float, b: float, x) -> np.ndarray:
    """I_x(a, b) to full relative precision where I <= 1/2.

    Integer shapes with a + b - 1 <= 56 (Beta(2, 5), every shipped margin,
    among them) use the finite binomial sum alone: all its terms are
    positive wherever x < 1, so it needs no reflection below the median.
    All others use the continued fraction, reflected past
    (a + 1) / (a + b + 2), which on the upper half gives I to full absolute
    precision. The binomial branch exists for speed: per 4096 values at
    (2, 5) the continued fraction takes 0.8 ms and the sum 0.05 ms (2 vCPU).
    At three evaluations per value, the fraction would add about 15 ms to
    the set-up of the benchmark's two_tier_B2 workload.
    """
    x = np.asarray(x, dtype=float)
    if _binomial(a, b):
        return _binomial_sum(a, b, x)
    return _reflected_fraction(a, b, x, betaln(a, b))


def lower_tails(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """lower_tail(a, b, x[0]) and lower_tail(b, a, x[1]), stacked, bit for bit.

    For non-integer shapes both rows share one continued fraction: it takes
    elementwise shapes, and betaln(a, b) == betaln(b, a) exactly, since
    float addition commutes. The (a, b) -> (b, a) pair is what a beta
    distribution and its reflection need.
    """
    if _binomial(a, b):
        return np.stack([_binomial_sum(a, b, x[0]), _binomial_sum(b, a, x[1])])
    return _reflected_fraction(np.array([[a], [b]]), np.array([[b], [a]]), x, betaln(a, b))


def _reflected_fraction(a, b, x: np.ndarray, lbeta: float) -> np.ndarray:
    """I_x(a, b) by one pass of the fraction, with the shapes swapped where x is reflected.

    a and b may be arrays that broadcast against x, all of one pair of shapes.
    """
    flip = x > (a + 1.0) / (a + b + 2.0)
    value = _continued_fraction(np.where(flip, b, a), np.where(flip, a, b),
                                np.where(flip, 1.0 - x, x), lbeta)
    return np.where(flip, 1.0 - value, value)


def _binomial_sum(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """I_x(a, b) = x**a (1-x)**(b-1) sum_{i<b} C(a+b-1, a+i) r**i with r = x / (1-x), integer a, b.

    Horner's form in r; every term is positive. Near x = 1 r**(b-1) overflows.
    """
    a, b = int(a), int(b)
    n = a + b - 1
    total = x**a
    if b > 1:
        y = 1.0 - x
        r = x / y
        poly = r + float(n)  # C(n, n) r + C(n, n - 1)
        for i in range(b - 3, -1, -1):
            poly *= r
            poly += float(math.comb(n, a + i))
        total *= poly
        total *= y ** (b - 1)
    return total


def _continued_fraction(a: np.ndarray, b: np.ndarray, x: np.ndarray, lbeta: float) -> np.ndarray:
    """I_x(a, b) for x <= (a + 1) / (a + b + 2) by the modified Lentz method, elementwise.

    Numerical Recipes (Press et al.) section 6.4; DiDonato and Morris, ACM TOMS 708
    (1992). The prefactor x**a (1-x)**b / (a B(a, b)) is exp(a log x + b log1p(-x) -
    lbeta) / a, with lbeta = log B(a, b), which swapping a and b leaves unchanged. A
    value stops changing once its factor is within 2**-52 of 1.
    """
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = _nonzero(1.0 - qab * x / qap)
    np.divide(1.0, d, out=d)
    h = d.copy()
    done = np.zeros(x.shape, dtype=bool)
    for m in range(1, _CF_MAX_TERMS + 1):
        if done.all():
            break
        m2 = 2 * m
        for aa in (m * (b - m) / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) / ((a + m2) * (qap + m2))):
            d = 1.0 / _nonzero(1.0 + aa * x * d)
            c = _nonzero(1.0 + aa * x / c)
            factor = d * c
            h = np.where(done, h, h * factor)
        done |= np.abs(factor - 1.0) <= _CF_TOL
    with np.errstate(divide="ignore"):
        front = np.exp(a * np.log(x) + b * np.log1p(-x) - lbeta) / a
    return front * h


def _nonzero(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _CF_TINY, _CF_TINY, v)
