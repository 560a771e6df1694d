"""Scalar acceptance criteria on empirical sample vectors.

Every criterion is reduced to the same normal form: a scalar risk value
rho(samples) plus a configured additive shift, with acceptability meaning
rho(samples) + shift <= 0. Shifted rules ("pay at least 90% of promised",
"expected log utility above -10") are therefore configuration, not separate
code paths.

Membership compares a float against zero, so exact ties are resolved in a
fixed direction: values within 1e-12 of zero count as acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import ConvergenceError, ParameterError

__all__ = [
    "AcceptanceSpec",
    "ExpLoss",
    "PolynomialLoss",
    "Log1pUtility",
    "AvarUtility",
    "avar",
    "ubsr",
    "entropic_rho",
    "oce_rho",
    "rho",
    "is_acceptable",
    "make_loss",
    "make_utility",
]

TIE_TOLERANCE = 1e-12
UBSR_RESIDUAL_TOL = 1e-10
OCE_ETA_TOL = 1e-9

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _as_samples(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ParameterError("sample vector must be non-empty")
    if not np.isfinite(arr).all():
        raise ParameterError("sample vector contains non-finite values")
    return arr


# ---------------------------------------------------------------------------
# loss functions (for UBSR) and utilities (for OCE)


@dataclass(frozen=True)
class ExpLoss:
    """l(t) = e^t. Strictly increasing and convex on all of R."""

    def __call__(self, t):
        with np.errstate(over="ignore"):
            return np.exp(t)


@dataclass(frozen=True)
class PolynomialLoss:
    """l(t) = max(t, 0)^power; convex and non-decreasing for power >= 1."""

    power: float

    def __post_init__(self):
        if self.power < 1:
            raise ParameterError(f"polynomial loss needs power >= 1, got {self.power}")

    def __call__(self, t):
        return np.maximum(t, 0.0) ** self.power


@dataclass(frozen=True)
class Log1pUtility:
    """u(t) = log(1 + t) on t > -1, -inf below."""

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.log1p(t)
        return np.where(t > -1.0, vals, -np.inf)


@dataclass(frozen=True)
class AvarUtility:
    """u(t) = t/lam for t <= 0, else 0. Plugging this into the OCE recovers AV@R at level lam."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ParameterError(f"lam must lie in (0, 1), got {self.lam}")

    def __call__(self, t):
        return np.minimum(t, 0.0) / self.lam


def make_loss(name: str, power: float | None = None):
    if name == "exp":
        return ExpLoss()
    if name == "polynomial":
        if power is None:
            raise ParameterError("polynomial loss requires a power")
        return PolynomialLoss(power)
    raise ParameterError(f"unknown loss function {name!r}")


def make_utility(name: str, lam: float | None = None):
    if name == "log1p":
        return Log1pUtility()
    if name == "avar":
        if lam is None:
            raise ParameterError("avar utility requires a tail level lam")
        return AvarUtility(lam)
    raise ParameterError(f"unknown utility function {name!r}")


# ---------------------------------------------------------------------------
# risk functionals


def avar(samples, lam: float) -> float:
    """Empirical average value at risk at tail level lam.

    Equals min over r of { r + mean((-M - r)^+) / lam } evaluated exactly:
    the minimum is attained on the lower tail of the empirical distribution,
    so the value is the negated average of the worst lam-fraction of
    outcomes, with fractional weight on the marginal order statistic.
    """
    m = _as_samples(samples)
    if not 0.0 < lam < 1.0:
        raise ParameterError(f"lam must lie in (0, 1), got {lam}")
    a = np.sort(m)
    t = lam * a.size
    whole = int(np.floor(t))
    frac = t - whole
    tail = float(a[:whole].sum())
    if frac > 0.0:
        tail += frac * float(a[whole])
    return -tail / t


def ubsr(samples, loss_fn, z: float) -> float:
    """Utility-based shortfall risk: the root m* of mean(l(-M - m*)) = z.

    The map m -> mean(l(-M - m)) is non-increasing (l non-decreasing), so the
    root is found by geometric bracket expansion followed by bisection. The
    returned value satisfies |mean(l(-M - m*)) - z| <= 1e-10.
    """
    m = _as_samples(samples)
    if not np.isfinite(z):
        raise ParameterError("z must be finite")

    def g(level: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.mean(loss_fn(-m - level))) - z

    half_width = 1.0 + float(np.max(np.abs(m)))
    lo, hi = -half_width, half_width
    # need g(lo) >= 0 >= g(hi); double outward until bracketed
    for _ in range(200):
        if g(lo) >= 0.0:
            break
        lo *= 2.0
    else:
        raise ConvergenceError("ubsr bracket expansion failed on the lower side")
    for _ in range(200):
        if g(hi) <= 0.0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("ubsr bracket expansion failed on the upper side")

    best = hi
    best_residual = abs(g(hi))
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent floats, interval cannot shrink further
        val = g(mid)
        if abs(val) < best_residual:
            best, best_residual = mid, abs(val)
        if best_residual <= UBSR_RESIDUAL_TOL:
            return best
        if val > 0.0:
            lo = mid
        else:
            hi = mid
    if best_residual <= UBSR_RESIDUAL_TOL:
        return best
    raise ConvergenceError(
        f"ubsr bisection stalled with residual {best_residual:.3e} > {UBSR_RESIDUAL_TOL:.0e}"
    )


def entropic_rho(samples, level: float) -> float:
    """Entropic risk at a given acceptability level: log mean(e^(-M)) + level.

    This is the closed form of shortfall risk with exponential loss and
    z = e^(-level), evaluated by log-sum-exp so that no exponential overflows.
    """
    if not np.isfinite(level):
        raise ParameterError("entropic level must be finite")
    m = _as_samples(samples)
    return float(logsumexp(-m) - np.log(m.size) + level)


def oce_rho(samples, utility_fn) -> float:
    """Negated optimized certainty equivalent: -sup over eta of { eta + mean(u(M - eta)) }.

    The objective is concave in eta for concave u, and any admissible utility
    (concave, non-decreasing, u(0) = 0, u(x) <= x) has a maximizer inside
    [min(M), max(M)]: u(x) <= x with u(0) = 0 forces slopes >= 1 left of zero
    and <= 1 right of zero, so the objective is non-decreasing below min(M)
    and non-increasing above max(M). Golden-section search over that bracket
    to tolerance 1e-9 in eta. For u = log(1+x) the bracket is additionally
    capped below min(M) + 1 to stay inside the domain.
    """
    m = _as_samples(samples)
    lo = float(m.min())
    hi = float(m.max())
    if isinstance(utility_fn, Log1pUtility):
        hi = min(hi, lo + 1.0 - OCE_ETA_TOL)
    if hi <= lo:
        # constant sample (or fully capped bracket): eta = min(M), u(0) = 0
        return -lo - float(np.mean(utility_fn(m - lo)))

    def h(eta: float) -> float:
        return eta + float(np.mean(utility_fn(m - eta)))

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = h(x1), h(x2)
    while b - a > OCE_ETA_TOL:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = h(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = h(x1)
    eta = 0.5 * (a + b)
    # the endpoints can beat the interior when the max sits on the bracket edge
    best = max(h(eta), h(lo), h(hi))
    return -best


# ---------------------------------------------------------------------------
# criterion dispatch


@dataclass(frozen=True)
class AcceptanceSpec:
    """Configured acceptance criterion.

    criterion selects the risk functional; the remaining fields are its
    parameters. shift is added to the risk value before the sign test, in
    the same currency units as the samples.
    """

    criterion: str
    shift: float = 0.0
    lam: float | None = None
    loss: str | None = None
    power: float | None = None
    z: float | None = None
    utility: str | None = None
    utility_lam: float | None = None
    level: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.shift):
            raise ParameterError("shift must be finite")
        if self.criterion == "avar":
            if self.lam is None or not 0.0 < self.lam < 1.0:
                raise ParameterError("avar criterion needs lam in (0, 1)")
        elif self.criterion == "ubsr":
            if self.loss is None or self.z is None:
                raise ParameterError("ubsr criterion needs a loss function and target z")
            if self.z <= 0:
                raise ParameterError("z must be interior to the loss range: z > 0")
            make_loss(self.loss, self.power)  # validates name/power
        elif self.criterion == "oce":
            if self.utility is None:
                raise ParameterError("oce criterion needs a utility function")
            make_utility(self.utility, self.utility_lam)
        elif self.criterion == "entropic":
            if self.level is None or not np.isfinite(self.level):
                raise ParameterError("entropic criterion needs a finite level")
        else:
            raise ParameterError(f"unknown criterion {self.criterion!r}")


def rho(samples, spec: AcceptanceSpec) -> float:
    """Risk value of a sample vector under the configured criterion (shift not applied)."""
    if spec.criterion == "avar":
        return avar(samples, spec.lam)
    if spec.criterion == "ubsr":
        return ubsr(samples, make_loss(spec.loss, spec.power), spec.z)
    if spec.criterion == "oce":
        return oce_rho(samples, make_utility(spec.utility, spec.utility_lam))
    if spec.criterion == "entropic":
        return entropic_rho(samples, spec.level)
    raise ParameterError(f"unknown criterion {spec.criterion!r}")


def is_acceptable(samples, spec: AcceptanceSpec) -> bool:
    """True iff rho(samples) + shift <= 0, with ties within 1e-12 acceptable."""
    return rho(samples, spec) + spec.shift <= TIE_TOLERANCE
