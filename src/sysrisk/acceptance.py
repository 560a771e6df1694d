"""Scalar acceptance criteria on empirical sample vectors.

Every criterion is reduced to the same normal form: a scalar risk value
rho(samples) plus a configured additive shift, with acceptability meaning
rho(samples) + shift <= 0. Shifted rules ("pay at least 90% of promised",
"expected log utility above -10") are therefore configuration, not separate
code paths.

There are four criteria, one function each, with plain float parameters:
avar(samples, lam), ubsr(samples, power, z) with the loss max(t, 0)^power,
oce_rho(samples) with the log utility, and entropic_rho(samples, level).
Two other criteria are these under another name: the OCE with the utility
min(t, 0) / lam is AV@R at lam (Ben-Tal and Teboulle), and shortfall risk
with the loss e^t is the entropic risk at level -log z (Foellmer and
Schied). resolve_config folds configs that still spell them so.

Membership compares a float against zero, so exact ties are resolved in a
fixed direction: values within 1e-12 of zero count as acceptable.

Error budgets: shortfall risk bisects until its bracket is at most
1e-10 max(1, |rho|) wide, so its value lies within that width of the root;
the OCE takes Newton steps on its first-order condition until a step
moves eta by at most 1e-9 (or eta cannot move), then evaluates the value
once; average value at risk and the entropic risk are closed forms.
bracket_verdict decides from samples known only between two bounds, and
only when the bounds clear the tie by the bounds' own error plus that
budget (1e-12, the tie, for the closed forms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError

__all__ = [
    "AcceptanceSpec",
    "avar",
    "ubsr",
    "entropic_rho",
    "oce_rho",
    "rho",
    "is_acceptable",
    "bracket_verdict",
]

TIE_TOLERANCE = 1e-12
UBSR_WIDTH_TOL = 1e-10
OCE_ETA_TOL = 1e-9
OCE_MAX_PASSES = 200


def _as_samples(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ParameterError("sample vector must be non-empty")
    if not np.isfinite(arr).all():
        raise ParameterError("sample vector contains non-finite values")
    return arr


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


def ubsr(samples, power: float, z: float) -> float:
    """Utility-based shortfall risk: the root m* of mean(l(-M - m*)) = z.

    The loss l(t) = max(t, 0)^power is convex and non-decreasing for
    power >= 1, so m -> mean(l(-M - m)) is non-increasing, and strictly
    decreasing where it exceeds 0 < z. Every loss is 0 at m = 1 + max|M|;
    the lower end of the bracket doubles outward from -(1 + max|M|) until
    the mean reaches z. Bisection then stops once the bracket is at most
    1e-10 max(1, |mid|) wide, or spans adjacent doubles, and returns its
    midpoint: the root lies within that width of the value returned. A
    residual test would not bound the error in m, since the slope
    mean(l'(-M - m*)) can be far below 1.
    """
    m = _as_samples(samples)
    _check_shortfall(power, z)

    def g(level: float) -> float:
        with np.errstate(over="ignore"):
            losses = np.maximum(-m - level, 0.0) ** power
            mean = float(np.mean(losses))
            if mean == math.inf and np.isfinite(losses).all():  # the sum overflowed, no loss did
                mean = float(np.sum(losses / losses.size))
        return mean - z

    hi = 1.0 + float(np.max(np.abs(m)))
    lo = -hi
    while g(lo) < 0.0:
        lo *= 2.0
        if lo == -math.inf:
            raise ConvergenceError(f"ubsr: no finite level brings the mean loss up to z = {z}")
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= _ubsr_width(mid) or mid == lo or mid == hi:
            return mid
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _ubsr_width(value: float) -> float:
    """The bracket width at which ubsr stops, and so its error, around a value."""
    return UBSR_WIDTH_TOL * max(1.0, abs(value))


def _check_shortfall(power, z) -> None:
    if not (math.isfinite(power) and power >= 1.0):
        raise ParameterError(f"ubsr needs a finite power >= 1, got {power}")
    if not (math.isfinite(z) and z > 0.0):
        raise ParameterError(f"ubsr needs a finite target z > 0, got {z}")


def entropic_rho(samples, level: float) -> float:
    """Entropic risk at a given acceptability level: log mean(e^(-M)) + level.

    This is the closed form of shortfall risk with exponential loss and
    z = e^(-level), evaluated by log-sum-exp shifted by the largest -M, so
    that no exponential overflows and the largest term is exactly 1.
    """
    if not np.isfinite(level):
        raise ParameterError("entropic level must be finite")
    m = _as_samples(samples)
    top = -float(m.min())
    return float(np.log(np.exp(-m - top).sum()) + top - np.log(m.size) + level)


def oce_rho(samples) -> float:
    """Negated optimized certainty equivalent: -sup over eta of { eta + mean(u(M - eta)) }.

    The utility is u(t) = log(1 + t). The objective h is concave and its maximizer lies in
    the bracket [min(M), min(max(M), cap)]: h'(eta) = 1 - mean(u'(M - eta))
    is >= 0 at min(M) and <= 0 at max(M), and the cap keeps eta below the
    pole at min(M) + 1. The cap is min(M) + 1 - 1e-9, or the largest float
    below min(M) + 1 where that rounds up to the pole. Inside the bracket,
    Newton's method solves the first-order condition in reciprocal form,
    phi(eta) = 1 / mean(u'(M - eta)) - 1 = 0. With S = mean(u'), Q =
    mean(u'^2) and u'' = -u'^2 the step is S (1 - S) / Q. phi is decreasing
    and concave (mean(u'^2)^2 <= mean(u') mean(u'^3) by Cauchy-Schwarz), so
    Newton started at the upper end of the bracket descends monotonically
    to the root; a step that leaves the bracket falls back to bisection. It
    stops once a step moves eta by at most 1e-9, or when eta or the bracket
    cannot move at all, then evaluates h once at the final eta. Near the
    pole phi is almost linear where h' is not: one sample far below the
    rest puts the maximizer within about 1 / len(M) of the pole.
    """
    m = _as_samples(samples)
    lo = float(m.min())
    hi = min(float(m.max()), lo + 1.0 - OCE_ETA_TOL, float(np.nextafter(lo + 1.0, -np.inf)))
    if hi <= lo:
        # constant sample, or lo + 1 rounds to lo: eta = min(M), u(0) = 0
        return -lo - float(np.mean(_log_utility(m - lo)))

    a, b, eta = lo, hi, hi
    for _ in range(OCE_MAX_PASSES):
        w = _log_utility_slope(m - eta)
        s = float(np.mean(w))
        if s < 1.0:
            a = eta  # h' > 0: the maximizer lies above
        elif s > 1.0:
            b = eta
        else:
            break
        step = s * (1.0 - s) / (float(np.dot(w, w)) / w.size)
        nxt = eta + step
        if abs(step) <= OCE_ETA_TOL or nxt == eta:
            eta = min(max(nxt, a), b)
            break
        if not a < nxt < b:
            nxt = 0.5 * (a + b)
            if not a < nxt < b:
                break  # adjacent floats, the bracket cannot shrink further
        eta = nxt
    else:
        raise ConvergenceError(
            f"oce Newton iteration did not settle in {OCE_MAX_PASSES} passes "
            f"(bracket [{a!r}, {b!r}])"
        )
    return -(eta + float(np.mean(_log_utility(m - eta))))


def _log_utility(t: np.ndarray) -> np.ndarray:
    """u(t) = log(1 + t) on t > -1, -inf below."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log1p(t, out=np.empty(t.shape))
    # log1p is NaN below -1; fmax maps NaN to -inf
    return np.fmax(vals, -np.inf, out=vals)


def _log_utility_slope(t: np.ndarray) -> np.ndarray:
    """u'(t) = 1 / (1 + t) on t > -1; u'' = -u'^2."""
    vals = np.add(t, 1.0, dtype=float)
    return np.reciprocal(vals, out=vals)


# ---------------------------------------------------------------------------
# criterion dispatch

# each criterion's risk function and the spec fields it takes, in the function's order
CRITERIA = {"avar": (avar, ("lam",)), "ubsr": (ubsr, ("power", "z")), "oce": (oce_rho, ()),
            "entropic": (entropic_rho, ("level",))}


@dataclass(frozen=True)
class AcceptanceSpec:
    """Configured acceptance criterion.

    criterion selects the risk functional, and CRITERIA the fields it needs,
    the only ones it may set: lam for avar, power and z for ubsr, level for
    entropic (oce has none). shift is added to the risk value before the
    sign test, in the same currency units as the samples.
    """

    criterion: str
    shift: float = 0.0
    lam: float | None = None
    power: float | None = None
    z: float | None = None
    level: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.shift):
            raise ParameterError("shift must be finite")
        if not (isinstance(self.criterion, str) and self.criterion in CRITERIA):
            raise ParameterError(f"unknown criterion {self.criterion!r}")
        takes = CRITERIA[self.criterion][1]
        for name in ("lam", "power", "z", "level"):
            value = getattr(self, name)
            if value is not None and name not in takes:
                raise ParameterError(f"the {self.criterion} criterion takes no {name}, got {value}")
            if value is None and name in takes:
                raise ParameterError(f"the {self.criterion} criterion needs a {name}")
        if self.criterion == "avar" and not 0.0 < self.lam < 1.0:
            raise ParameterError("avar criterion needs lam in (0, 1)")
        if self.criterion == "ubsr":
            _check_shortfall(self.power, self.z)
        if self.criterion == "entropic" and not np.isfinite(self.level):
            raise ParameterError("entropic criterion needs a finite level")


def rho(samples, spec: AcceptanceSpec) -> float:
    """Risk value of a sample vector under the configured criterion (shift not applied)."""
    function, names = CRITERIA[spec.criterion]
    return function(samples, *(getattr(spec, name) for name in names))


def is_acceptable(samples, spec: AcceptanceSpec) -> bool:
    """True iff rho(samples) + shift <= 0, with ties within 1e-12 acceptable."""
    return rho(samples, spec) + spec.shift <= TIE_TOLERANCE


def bracket_verdict(lower, upper, spec: AcceptanceSpec, slack: float) -> bool | None:
    """The verdict on every Y with lower <= Y <= upper, or None if the bracket cannot decide.

    rho is monotone, so rho(upper) <= rho(Y) <= rho(lower). A verdict needs
    the bracket to clear the tie by the error budget: slack (the error of
    the bounds) plus the criterion's own numerical error at the value found,
    the shortfall bisection's final width 1e-10 max(1, |rho|), the OCE
    Newton step 1e-9, and the tie 1e-12 for the closed forms.
    """
    high = rho(lower, spec)
    if high + spec.shift <= TIE_TOLERANCE - (slack + _own_error(spec, high)):
        return True
    low = rho(upper, spec)
    if low + spec.shift > TIE_TOLERANCE + (slack + _own_error(spec, low)):
        return False
    return None


def _own_error(spec: AcceptanceSpec, value: float) -> float:
    if spec.criterion == "ubsr":
        return _ubsr_width(value)
    if spec.criterion == "oce":
        return OCE_ETA_TOL
    return TIE_TOLERANCE
