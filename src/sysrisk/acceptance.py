"""Scalar acceptance criteria on empirical sample vectors.

Every criterion is reduced to the same normal form: a scalar risk value
rho(samples) plus a configured additive shift, with acceptability meaning
rho(samples) + shift <= 0. Shifted rules ("pay at least 90% of promised",
"expected log utility above -10") are therefore configuration, not separate
code paths.

Membership compares a float against zero, so exact ties are resolved in a
fixed direction: values within 1e-12 of zero count as acceptable.

Error budgets: shortfall risk bisects to a residual of 1e-10; the OCE with
log utility takes Newton steps on its first-order condition until a step
moves eta by at most 1e-9 (or eta cannot move), then evaluates the value
once; average value at risk, the entropic risk and the OCE with the AV@R
utility are closed forms. bracket_verdict decides from samples known only
between two bounds, and only when the bounds clear the tie by the bounds'
own error plus that budget (1e-12, the tie, for the closed forms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    "bracket_verdict",
    "make_loss",
    "make_utility",
]

TIE_TOLERANCE = 1e-12
UBSR_RESIDUAL_TOL = 1e-10
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
    """u(t) = log(1 + t) on t > -1, -inf below; u'(t) = 1 / (1 + t) and u'' = -u'^2."""

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.log1p(t, out=np.empty(t.shape))
        # log1p is NaN below -1; fmax maps NaN to -inf
        return np.fmax(vals, -np.inf, out=vals)

    def derivative(self, t):
        """u'(t) on t > -1."""
        vals = np.add(t, 1.0, dtype=float)
        return np.reciprocal(vals, out=vals)


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
    z = e^(-level), evaluated by log-sum-exp shifted by the largest -M, so
    that no exponential overflows and the largest term is exactly 1.
    """
    if not np.isfinite(level):
        raise ParameterError("entropic level must be finite")
    m = _as_samples(samples)
    top = -float(m.min())
    return float(np.log(np.exp(-m - top).sum()) + top - np.log(m.size) + level)


def oce_rho(samples, utility_fn) -> float:
    """Negated optimized certainty equivalent: -sup over eta of { eta + mean(u(M - eta)) }.

    For the AV@R utility u(t) = min(t, 0) / lam the OCE is AV@R at level lam
    (Rockafellar-Uryasev), so this returns avar(samples, lam) exactly.

    For u = log(1 + t) the objective h is concave and its maximizer lies in
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
    if isinstance(utility_fn, AvarUtility):
        return avar(m, utility_fn.lam)
    if not isinstance(utility_fn, Log1pUtility):
        raise ParameterError(f"oce_rho needs a log1p or avar utility, got {utility_fn!r}")
    lo = float(m.min())
    hi = min(float(m.max()), lo + 1.0 - OCE_ETA_TOL, float(np.nextafter(lo + 1.0, -np.inf)))
    if hi <= lo:
        # constant sample, or lo + 1 rounds to lo: eta = min(M), u(0) = 0
        return -lo - float(np.mean(utility_fn(m - lo)))

    a, b, eta = lo, hi, hi
    for _ in range(OCE_MAX_PASSES):
        w = utility_fn.derivative(m - eta)
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
    return -(eta + float(np.mean(utility_fn(m - eta))))


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


def bracket_verdict(lower, upper, spec: AcceptanceSpec, slack: float) -> bool | None:
    """The verdict on every Y with lower <= Y <= upper, or None if the bracket cannot decide.

    rho is monotone, so rho(upper) <= rho(Y) <= rho(lower). A verdict needs
    the bracket to clear the tie by the error budget: slack (the error of
    the bounds) plus the criterion's own numerical error, the shortfall
    residual 1e-10, the OCE Newton step 1e-9 with log utility, and the tie
    1e-12 for the closed forms.
    """
    if spec.criterion == "ubsr":
        own = UBSR_RESIDUAL_TOL
    elif spec.criterion == "oce" and spec.utility == "log1p":
        own = OCE_ETA_TOL
    else:
        own = TIE_TOLERANCE
    budget = slack + own
    high = rho(lower, spec) + spec.shift
    if high <= TIE_TOLERANCE - budget:
        return True
    low = rho(upper, spec) + spec.shift
    if low > TIE_TOLERANCE + budget:
        return False
    return None
