"""Interbank clearing with fire-sale price impact.

Firms 1..n owe nominal amounts to each other and to node 0 (society).
Given liquid holdings x and illiquid holdings s per firm, payments and the
share price solve a joint fixed point: each firm pays the smaller of what it
owes and what it has (liquid assets, incoming payments, and illiquid assets
marked at the clearing price), while the price is set by an inverse demand
function of the total quantity of shares that distressed firms must sell.

The clearing map is monotone (Eisenberg and Noe, Management Science
2001), so iterating it down from the top (full payments, price f(0)) gives
payments above the greatest fixed point. After every sweep the clearing
yields (lower, upper) bounds on society equity per scenario. A caller that
needs only a verdict stops as soon as the bounds decide it
(NetworkValueModel.bounds_at, consumed by riskmeasure.membership_oracle);
one that needs the clearing runs it to its end (samples_at). A
NetworkValueModel fixes its regime once, when it is built, from the price
range its scenarios can reach, and each call runs one of two generators:

- Constant price on the reachable range, f(0) == f(largest sale), as for
  ConstantPrice or s == 0 (_top_down). The top-down iteration runs alone
  on an (n, m) array. Money is conserved, so the last step of an iterate
  bounds how far society equity there lies above the exact equity, on
  every network, closed cycles included: each sweep yields, per scenario,
  equity at the iterate and that minus a radius. The fixed point is
  piecewise linear in the payments, and fictitious default finds it
  exactly. Once the iteration has converged or _WARMUP_SWEEPS sweeps have
  run, the default set of the iterate, which lies inside the true one,
  seeds the solve: the scenario columns are grouped by default set, each
  group takes one linear solve, and new defaults are added until the set
  stops growing. tol, scaled by max(1, max pbar), bounds the final
  fixed-point residual |min(pbar, x + pi*s + A'p) - p|. The iteration
  alone would not do: its step shrinks by the spectral radius rho of the
  defaulting firms' share matrix, so it takes about
  log(pbar/tol)/(1 - rho) sweeps and stops up to tol/(1 - rho) above the
  fixed point. A cycle of three firms that leaks 1e-4 of one obligation
  to society needs about 7e5 sweeps; the solve clears it exactly in one
  round.
- Price impact (_paired). Equilibria need not be unique (Cifuentes,
  Ferrucci and Shin, JEEA 2005), so the map is iterated as well up from
  the bottom (no payments, the price at the largest sale), which gives
  payments below the least fixed point. Both halves run as one (n, 2m)
  iteration, and each sweep yields society equity at both. The top-down
  half is iterated until it has converged, and its iterate is the result.

Both generators return society equity at the finished clearing.

The iteration has converged when its largest step in payments or price,
over all its scenario columns, is at most tol. Every sweep works on all
the columns of its call, so a converged scenario sweeps on with the
slowest of its call, and the last bits of a price-impact result depend on
the other scenarios of the call. The exact solve works on a lone column
twice over (_batch).

Warm starts. Clearing is monotone in capital as well, so the iterates of
an evaluated allocation bound those of another (Tarski; Eisenberg and Noe):
for k'' >= k, every top-down iterate U of k'' satisfies Phi_k(U) <=
Phi_k''(U) <= U, so iterating k from U stays above k's greatest fixed
point, and the firms U leaves short default at k too; dually, a bottom-up
iterate of k' <= k lies below k's least fixed point. The minimum of such
upper starts is one again, and so is the maximum of lower starts. A
NetworkValueModel keeps the last _HISTORY evaluated points with their
final payments (and, with price impact, prices), and starts each call
from the minimum over the points with at least k capital in every group
and, with price impact, the bottom-up half from the maximum over those
with at most k; a price always goes with its payments. A warm start
changes how many sweeps a verdict takes, never the verdict, and never the
finished result: a constant-price call seeds the exact solve with the
default set of its warm top-down iterate, which lies inside the true one,
and a price-impact call restarts its top-down half from the top once both
halves have converged.
ClearingStats.warm counts the calls that started from an evaluated point.

max_iter bounds the sweeps plus the solve rounds of a call; a call still
unfinished then raises ConvergenceError naming the residual and the width
of its last society equity bracket. Every sweep checks that the top-down
iterates only fall, the bottom-up ones only rise and the lower bound
stays below the upper one; a violation raises ModelError.

Rounding in the payments grows with the obligations, so the checks that
only raise scale with the largest obligation max(1, max pbar): the final
residual check of the exact solve, and the slack by which a payment
iterate may move the wrong way or cross the other bound, which the radius
also takes as one sweep's rounding. Stopping tests stay absolute, and
price checks keep the unscaled slack.
"""

from __future__ import annotations

import collections
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .aggregation import GroupMap
from .errors import ConfigurationError, ConvergenceError, ModelError, ParameterError
from .scenarios import ScenarioMatrix

__all__ = [
    "LiabilityNetwork",
    "ClearingStats",
    "ConstantPrice",
    "LinearCapPrice",
    "LinearSqrtPrice",
    "TabulatedPrice",
    "make_inverse_demand",
    "validate_inverse_demand",
    "NetworkValueModel",
    "read_edge_csv",
    "write_edge_csv",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

_MONO_SLACK = 1e-12  # float headroom for checks on mathematically monotone quantities
_WARMUP_SWEEPS = 16  # top-down sweeps before a constant-price call is cleared exactly
_HISTORY = 4  # evaluated points a network model keeps as starts for its brackets


# ---------------------------------------------------------------------------
# inverse demand curves


def _finite(name: str, value):
    try:
        ok = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        ok = False
    if not ok:
        raise ParameterError(f"{name} must be a finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class ConstantPrice:
    """No price impact: f(y) = price for all y."""

    price: float = 1.0

    def __post_init__(self):
        if not _finite("price", self.price) > 0:
            raise ParameterError(f"price must be positive, got {self.price}")

    def __call__(self, y):
        return np.full_like(np.asarray(y, dtype=float), self.price)[()]


@dataclass(frozen=True)
class LinearCapPrice:
    """f(y) = max(1 - slope*y, floor)."""

    slope: float
    floor: float

    def __post_init__(self):
        if _finite("slope", self.slope) < 0:
            raise ParameterError(f"slope must be >= 0, got {self.slope}")
        if not 0 < _finite("floor", self.floor) <= 1:
            raise ParameterError(f"floor must lie in (0, 1], got {self.floor}")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return np.maximum(1.0 - self.slope * y, self.floor)[()]


@dataclass(frozen=True)
class LinearSqrtPrice:
    """Linear decay 1 - (2/3)y up to y = 1/2, then sqrt(2)/(3*sqrt(y)); both branches meet at 2/3."""

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            tail = np.sqrt(2.0) / (3.0 * np.sqrt(np.maximum(y, 0.5)))
        return np.where(y <= 0.5, 1.0 - (2.0 / 3.0) * y, tail)[()]


@dataclass(frozen=True)
class TabulatedPrice:
    """Piecewise-linear interpolation of (quantity, price) knots, constant beyond the ends."""

    quantities: tuple[float, ...]
    prices: tuple[float, ...]

    def __init__(self, quantities, prices):
        q = tuple(float(_finite(f"quantities[{i}]", v)) for i, v in enumerate(quantities))
        p = tuple(float(_finite(f"prices[{i}]", v)) for i, v in enumerate(prices))
        if len(q) != len(p) or len(q) < 2:
            raise ParameterError("need at least two (quantity, price) knots")
        if any(b <= a for a, b in zip(q, q[1:])):
            raise ParameterError("quantities must be strictly increasing")
        for i, price in enumerate(p):
            if price <= 0:
                raise ParameterError(f"prices[{i}] must be positive, got {price}")
        object.__setattr__(self, "quantities", q)
        object.__setattr__(self, "prices", p)

    def __call__(self, y):
        return np.interp(np.asarray(y, dtype=float), self.quantities, self.prices)[()]


def make_inverse_demand(kind: str, **params):
    """Construct an inverse demand curve from a config key and parameters."""
    if kind == "constant":
        return ConstantPrice(**params)
    if kind == "linear_cap":
        return LinearCapPrice(**params)
    if kind == "linear_sqrt":
        if params:
            raise ParameterError("linear_sqrt takes no parameters")
        return LinearSqrtPrice()
    if kind == "tabulated":
        return TabulatedPrice(**params)
    raise ParameterError(f"unknown inverse demand kind {kind!r}")


def validate_inverse_demand(f, y_max: float) -> None:
    """Check the structural assumptions on an inverse demand curve numerically.

    On a log-spaced grid of 10^4 points in (0, y_max] plus y = 0: prices must
    be strictly positive, non-increasing in y, and y*f(y) must be strictly
    increasing (sales always raise revenue). Violations raise ModelError.
    """
    if not np.isfinite(y_max) or y_max < 0:
        raise ParameterError(f"y_max must be finite and non-negative, got {y_max}")
    if y_max == 0:
        y_max = 1.0  # nothing to sell; still sanity-check a unit range
    grid = np.concatenate([[0.0], np.geomspace(y_max * 1e-9, y_max, 10_000)])
    prices = np.asarray(f(grid), dtype=float)
    if prices.shape != grid.shape:
        raise ModelError("inverse demand must map arrays to arrays of the same shape")
    if not np.isfinite(prices).all() or (prices <= 0).any():
        raise ModelError("inverse demand must be finite and strictly positive")
    if (np.diff(prices) > 0).any():
        raise ModelError("inverse demand must be non-increasing in quantity")
    revenue = grid * prices
    if (np.diff(revenue) <= 0).any():
        raise ModelError("quantity times price must be strictly increasing")


# ---------------------------------------------------------------------------
# network structure


class LiabilityNetwork:
    """Immutable nominal liability matrix with its relative-share decomposition.

    nominal[i, j] is the amount node i owes node j; node 0 is society.
    Society owes nothing (row 0 is zero), every diagonal entry is zero.
    pbar[i] is node i's total obligations, relative[i, j] the fraction owed
    to j, and payment_scale = max(1, max pbar) scales the payment checks.
    """

    def __init__(self, nominal, groups: GroupMap | None = None):
        mat = np.array(nominal, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
            raise ParameterError(f"nominal matrix must be square (n+1 >= 2), got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ParameterError("nominal matrix contains non-finite entries")
        if (mat < 0).any():
            raise ParameterError("nominal liabilities must be non-negative")
        if np.diagonal(mat).any():
            raise ParameterError("self-liabilities are not allowed (diagonal must be zero)")
        if mat[0].any():
            raise ParameterError("society (node 0) must not owe anything")
        n = mat.shape[0] - 1
        if groups is None:
            groups = GroupMap([n])
        if groups.n_firms != n:
            raise ConfigurationError(f"groups cover {groups.n_firms} firms, network has {n}")
        mat.setflags(write=False)
        totals = mat.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(totals[:, None] > 0, mat / totals[:, None], 0.0)
        rel.setflags(write=False)
        totals.setflags(write=False)  # payment_scale is read from it once
        self.nominal = mat
        self.pbar = totals  # row sums, totals[0] = 0
        self.payment_scale = max(1.0, float(totals.max()))
        self.relative = rel
        self.groups = groups

    @property
    def n_firms(self) -> int:
        return self.nominal.shape[0] - 1

    @property
    def society_promised(self) -> float:
        """Total nominal obligations owed to node 0."""
        return float(self.nominal[1:, 0].sum())


def read_edge_csv(path, groups: GroupMap | None = None) -> LiabilityNetwork:
    """Load a network from an edge list CSV with header from,to,amount (node 0 = society).

    Each line is checked before the matrix is allocated: node ids must be
    non-negative and, when groups is given, at most its firm count, and an
    edge runs from a firm to another node with a finite, non-negative
    amount. Lines on one edge are summed.
    """
    top = math.inf if groups is None else groups.n_firms
    allowed = "non-negative" if groups is None else f"in 0..{top}, society and the groups' firms"
    rows = []
    try:  # utf-8-sig: a spreadsheet's export may begin with a byte order mark
        with open(path, encoding="utf-8-sig") as fh:
            header, *lines = fh.read().split("\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot read edge list {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"cannot read edge list {path}: not UTF-8 text ({exc.reason} "
                                 f"at byte {exc.start})") from None
    header = header.strip()
    if header.replace(" ", "") != "from,to,amount":
        raise ConfigurationError(f"{path}: expected header 'from,to,amount', got {header!r}")
    for line_no, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigurationError(f"{path} line {line_no}: expected 3 fields, got {len(parts)}")
        try:
            i, j, amount = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ConfigurationError(f"{path} line {line_no}: expected integer node ids and a "
                                     f"number, got {line!r}") from None
        if not (0 <= i <= top and 0 <= j <= top):
            raise ConfigurationError(f"{path} line {line_no}: node ids must be {allowed}, "
                                     f"got {i} and {j}")
        if not (i not in (0, j) and math.isfinite(amount) and amount >= 0):
            raise ConfigurationError(f"{path} line {line_no}: expected an edge from a firm "
                                     f"to another node, amount finite and >= 0, got {line!r}")
        rows.append((i, j, amount))
    if not rows:
        raise ConfigurationError(f"{path}: edge list is empty")
    size = max(max(i, j) for i, j, _ in rows) + 1
    nominal = np.zeros((size, size))
    for i, j, amount in rows:
        nominal[i, j] += amount
    return LiabilityNetwork(nominal, groups)


def write_edge_csv(network: LiabilityNetwork, path) -> None:
    """Dump the nonzero edges of a network as from,to,amount CSV."""
    with open(path, "w") as fh:
        fh.write("from,to,amount\n")
        nominal = network.nominal
        for i in range(nominal.shape[0]):
            for j in range(nominal.shape[1]):
                if nominal[i, j] != 0.0:
                    fh.write(f"{i},{j},{float(nominal[i, j])!r}\n")


# ---------------------------------------------------------------------------
# the clearing fixed point


@dataclass
class ClearingStats:
    """Work counters of one or more clearing calls.

    sweeps counts sweeps: at constant price one step of the top-down
    iteration over m scenario columns, with price impact one paired step of
    the top-down and the bottom-up iteration over 2m. rounds counts the
    default-set solve rounds, solves the linear solves, one per default set
    and round. decided counts the calls whose bounds settled the verdict
    before clearing finished, warm the calls that started from an
    evaluated point. max_residual is the worst final fixed-point residual
    on the constant-price path and the worst last top-down step on the
    price-impact path, over the calls that finished. closest_tie is the
    smallest |rho(Y) + shift| of the verdicts taken from finished clearing
    (None while there is none): the margin by which the nearest such
    verdict cleared the tie.
    """

    calls: int = 0
    decided: int = 0
    warm: int = 0
    sweeps: int = 0
    rounds: int = 0
    solves: int = 0
    max_residual: float = 0.0
    closest_tie: float | None = None

    def record_tie(self, margin: float) -> None:
        """Keep |margin| if no finished verdict came closer to the tie."""
        if self.closest_tie is None or abs(margin) < self.closest_tie:
            self.closest_tie = abs(margin)


@dataclass
class _Point:
    """An evaluated allocation k and the iterates of its clearing.

    At constant price p (n, m) holds the top-down payments and pi stays
    None. With price impact p (n, 2m) holds the top-down payments in
    columns [0, m) and the bottom-up ones in [m, 2m), pi (2m,) the prices
    that go with them.
    """

    k: np.ndarray | None
    p: np.ndarray | None = None
    pi: np.ndarray | None = None


def _batch(cols: np.ndarray) -> np.ndarray:
    """Scenario columns for one solve of _clear_constant_price: cols, or a lone column twice.

    BLAS multiplies and solves a single column by other routines than a
    batch, and numpy sums a single column pairwise, so a lone column's last
    bits would depend on which other columns share its work. A sweep always
    works on all m (or 2m) columns of its call, so its bits depend on the
    call's size, never on its history.
    """
    return np.repeat(cols, 2) if cols.size == 1 else cols


def _not_converged(max_iter: int, residual: float, tol: float, width: float) -> ConvergenceError:
    return ConvergenceError(
        f"clearing did not converge within {max_iter} iterations "
        f"(residual {residual:.3e} > tol {tol:.1e}, equity bracket width {width:.3e})"
    )


def _top_down(network: LiabilityNetwork, cash, tol: float, max_iter: int, stats: ClearingStats,
              above, point: _Point):
    """Clear at constant price, yielding (lower, upper) society equity after every sweep.

    cash (n, m) is every firm's outside assets c. The payments are iterated
    down from full payment, or from the elementwise minimum of the top-down
    payments of the points above, so every iterate lies above the fixed
    point p*. upper = e0 is society equity at the iterate, lower = max(e0 -
    radius, 0), and radius = h.|q - p| + offset for a sweep from q to p,
    with h = A 1 each firm's share owed to other firms.

    Proof that Y* = s.p* >= e0 - h.(q - p). With A = relative[1:, 1:], s =
    relative[1:, 0], q >= p*, p = min(pbar, c + A'q), D = q - p and e = p -
    p*: (1) min(pbar, .) is monotone and 1-Lipschitz, so e <= A'(q - p*) =
    A'(D + e); (2) summed over firms, sum_j (1 - h_j) e_j <= h.D; (3) 1 - h_j
    = s_j for a firm that owes something, and e_j = 0 for one that owes
    nothing (pbar_j = 0), so s.e <= h.D. Equivalently, money is conserved:
    at p* all outside cash ends with society or as solvent firms' equity,
    so Y* >= sum(c) - sum(max(c + A'q - pbar, 0)) = sum(p) - h.q for every
    q >= p*. No contraction is needed, so closed cycles are bounded too.

    Rounding never makes the radius too small. With delta = _MONO_SLACK *
    max(1, max pbar), the slack the monotonicity checks give one sweep, and
    up = 1 + 4(n + 2) eps, offset = (2n delta + 2(n + 2) eps sum(pbar)) up.
    Per firm, p may miss the exact map by delta, and q dip below p* by
    delta, which the start max(q, p*) covers at a cost in h.q: n delta
    each. The rows of the stored shares sum to 1 within (n + 2) eps, so 1 -
    h_j misses s_j by that times p_j <= pbar_j; e0 = s.p and e0 - radius
    round by as much again. h, |D| and h.|D| are each rounded within (n +
    2) eps relatively, so h and h.|D| are multiplied by up, and the
    offset's up covers their sum.

    Once the iteration has converged or _WARMUP_SWEEPS sweeps have run, the
    default set of p seeds the exact solve of _clear_constant_price, whose
    iterates lie between p* and the last sweep, so its largest radius still
    bounds them, and the generator returns society equity at p*. An iterate
    that moves up, or a start that is no upper bound, raises ModelError.
    """
    stats.calls += 1
    stats.warm += bool(above)
    n, m = cash.shape
    pbar = network.pbar[1:][:, None]  # (n, 1)
    a_firms = network.relative[1:, 1:]  # a_firms[i, j]: share of firm i+1 owed to firm j+1
    shares = network.relative[1:, 0]  # each firm's share owed to society
    pay_slack = _MONO_SLACK * network.payment_scale
    eps = np.finfo(float).eps
    up = 1.0 + 4 * (n + 2) * eps
    owed_on = a_firms.sum(axis=1) * up  # h, rounded up
    offset = (2 * n * pay_slack + 2 * (n + 2) * eps * float(network.pbar.sum())) * up
    p = np.repeat(pbar, m, axis=1)
    for start in above:  # the minimum of super-solutions is one
        np.minimum(p, start.p, out=p)
    point.p = p
    spare = np.empty_like(p)  # scratch for the next iterate
    limit = min(_WARMUP_SWEEPS, max_iter)
    sweeps = 0

    while True:
        p_new = np.matmul(a_firms.T, p, out=spare)  # inflows
        p_new += cash
        np.minimum(p_new, pbar, out=p_new)
        change = np.subtract(p_new, p, out=p)  # p is not needed any more
        if not change.max(initial=-np.inf) <= pay_slack:
            raise ModelError("clearing map is not monotone: a payment iterate increased")
        residual = float(np.abs(change, out=change).max(initial=0.0))
        radius = owed_on @ change * up + offset
        p, spare = p_new, p
        point.p = p
        sweeps += 1
        stats.sweeps += 1
        e0 = shares @ p
        yield np.maximum(e0 - radius, 0.0), e0
        if residual <= tol or sweeps >= limit:
            break

    del spare  # the exact solve allocates its own arrays
    width = float(radius.max(initial=0.0))
    residual = _clear_constant_price(network, cash, p, width, tol, max_iter, sweeps, stats)
    stats.max_residual = max(stats.max_residual, residual)
    return shares @ p


def _paired(network: LiabilityNetwork, x, s, f, price_top: float, price_floor: float, tol: float,
            max_iter: int, stats: ClearingStats, above, below, point: _Point):
    """Clear with price impact, yielding (lower, upper) society equity after every sweep.

    x and s are (n, m) liquid and illiquid holdings, price_top = f(0) and
    price_floor = f(largest sale). The payment/price map is monotone, so it
    is iterated as one (n, 2m) array: columns [0, m) down from the top
    (full payments, price f(0)), whose iterates lie above the greatest
    fixed point, and columns [m, 2m) up from the bottom (no payments, the
    price at the largest sale), whose iterates lie below the least one.
    The top-down half starts at the elementwise minimum of the top-down
    iterates of the points above, the bottom-up half at the maximum of the
    bottom-up ones of the points below, each price with its payments.
    After every paired sweep it yields society equity at the bottom-up and
    at the top-down payments. Every sweep works on all 2m columns; column
    updates never interact across scenarios. A half has converged when its
    largest step over all its columns is at most tol.

    The top-down half runs until it has converged, and the generator
    returns society equity at its iterate. A top-down half that started
    below the top runs on until both halves have converged and the bracket
    cannot tighten any more, then restarts from the top, so that the result
    does not depend on the start; it yields no pair after the restart.

    Sweeps above max_iter raise ConvergenceError. An iterate that moves the
    wrong way, or a lower bound above the upper one, raises ModelError, and
    so does a start that is not a bound.
    """
    stats.calls += 1
    stats.warm += bool(above or below)
    n, m = x.shape
    pbar = network.pbar[1:][:, None]  # (n, 1)
    a_firms = network.relative[1:, 1:]  # a_firms[i, j]: share of firm i+1 owed to firm j+1
    shares = network.relative[1:, 0]  # each firm's share owed to society
    pay_slack = _MONO_SLACK * network.payment_scale
    p = np.zeros((n, 2 * m))
    p[:, :m] = pbar
    pi = np.repeat([price_top, price_floor], m)
    # the minimum of super-solutions is one, and so is the maximum of sub-solutions
    for start in above:
        np.minimum(p[:, :m], start.p[:, :m], out=p[:, :m])
        np.minimum(pi[:m], start.pi[:m], out=pi[:m])
    for start in below:
        np.maximum(p[:, m:], start.p[:, m:], out=p[:, m:])
        np.maximum(pi[m:], start.pi[m:], out=pi[m:])
    point.p, point.pi = p, pi
    spare = np.empty_like(p)  # scratch for the next iterate and the checks
    x2 = np.concatenate([x, x], axis=1)
    s2 = np.concatenate([s, s], axis=1)
    sweeps = 0
    bracketing = True
    # a top-down iterate from a warm start converges to other last bits than one from the top
    rewind = bool(above)

    while True:
        p_new = np.matmul(a_firms.T, p, out=spare)  # inflows
        p_new += x2  # liquid resources
        shortfall = np.maximum(pbar - p_new, 0.0)
        sold = np.minimum(shortfall / pi, s2).sum(axis=0)
        p_new += pi * s2
        pi_new = np.asarray(f(sold), dtype=float)
        if not (pi_new[:m] <= pi[:m] + _MONO_SLACK).all():
            raise ModelError("clearing map is not monotone: a price iterate increased")
        if not (pi_new[m:] >= pi[m:] - _MONO_SLACK).all():
            raise ModelError("clearing map is not monotone: a price iterate decreased")
        np.minimum(p_new, pbar, out=p_new)
        change = np.subtract(p_new, p, out=p)  # p is not needed any more
        rise = change.max(axis=0)
        fall = -change.min(axis=0)
        # iterates from the top only move down, iterates from the bottom only up
        if not (rise[:m] <= pay_slack).all():
            raise ModelError("clearing map is not monotone: a payment iterate increased")
        if not (fall[m:] <= pay_slack).all():
            raise ModelError("clearing map is not monotone: a payment iterate decreased")
        step = np.maximum(np.maximum(rise, fall), np.abs(pi_new - pi))
        pi[:] = pi_new
        p, spare = p_new, p
        point.p = p
        lower, upper = p[:, m:], p[:, :m]
        if not np.subtract(lower, upper, out=spare[:, :m]).max(initial=-np.inf) <= pay_slack:
            raise ModelError(
                "clearing bracket is inverted: a lower payment bound exceeds the upper"
            )
        if not (pi[m:] <= pi[:m] + _MONO_SLACK).all():
            raise ModelError("clearing bracket is inverted: a lower price bound exceeds the upper")
        if not (pi_new >= price_floor - _MONO_SLACK).all():
            raise ModelError("clearing price fell below the inverse demand at the largest sale")
        residual = float(step[:m].max(initial=0.0))
        sweeps += 1
        stats.sweeps += 1
        if bracketing:
            yield shares @ lower, shares @ upper

        if not rewind and residual <= tol:
            break  # the top-down half has converged
        if rewind and step.max(initial=0.0) <= tol:
            # both halves have converged: finish clearing from the top
            p[:, :m] = pbar
            pi[:m] = price_top
            bracketing = rewind = False
        if sweeps >= max_iter:
            raise _not_converged(max_iter, residual, tol, float((shares @ (upper - lower)).max()))

    stats.max_residual = max(stats.max_residual, residual)
    return shares @ upper


def _clear_constant_price(network: LiabilityNetwork, cash, p, width: float, tol: float,
                          max_iter: int, sweeps: int, stats: ClearingStats) -> float:
    """Solve for the greatest clearing payments in place, from a top-down iterate p (n, m).

    Every firm's outside assets are the fixed cash (n, m). Fictitious
    default: given a default set D inside the true one, the firms outside D
    pay in full and those in D pay everything they have,

        (I - A_DD') p_D = cash_D + A_{ND,D}' pbar_ND,

    whose solution lies above the fixed point; firms it leaves short join D,
    and once D stops growing the solution is the greatest fixed point. The
    firms p leaves short seed D, since a top-down iterate lies above the
    fixed point. Columns sharing a default set share one solve with a
    right-hand side each, and every solution lies between the fixed point
    and the payments before it, so width, the equity bracket width when the
    solve starts, still bounds it.
    A firm short by no more than the rounding slack counts as paying in
    full: the relative shares of a closed cycle that owes as much as it is
    owed can round so that A'pbar leaves its firms an ulp short, and a
    default set made of such firms is singular.
    sweeps plus solve rounds above max_iter raise ConvergenceError naming
    the residual and width, and so does a final fixed-point
    residual above tol times the payment scale; a system that is singular
    all the same raises ModelError.
    Returns that residual.
    """
    pbar = network.pbar[1:][:, None]  # (n, 1)
    a_firms = network.relative[1:, 1:]
    scale = network.payment_scale
    short = pbar - _MONO_SLACK * scale  # a firm paying less than this defaults

    def fixed_point_residual() -> float:
        return float(np.abs(np.minimum(pbar, cash + a_firms.T @ p) - p).max(initial=0.0))

    defaulted = p < short
    todo = np.flatnonzero(defaulted.any(axis=0))  # columns whose default set may still grow
    rounds = 0
    while todo.size:
        todo = _batch(todo)
        if sweeps + rounds >= max_iter:
            raise _not_converged(max_iter, fixed_point_residual(), tol, width)
        d_todo = defaulted[:, todo]
        p_todo = np.where(d_todo, 0.0, pbar)
        rhs = cash[:, todo] + a_firms.T @ p_todo  # own cash plus full pay from solvent firms
        keys = np.packbits(d_todo, axis=0)
        keys = np.ascontiguousarray(keys.T).view(f"V{keys.shape[0]}").ravel()
        _, group, sizes = np.unique(keys, return_inverse=True, return_counts=True)
        # cols: the positions in todo of the columns that share one default set
        for cols in np.split(np.argsort(group, kind="stable"), np.cumsum(sizes)[:-1]):
            cols = _batch(cols)
            d = np.flatnonzero(d_todo[:, cols[0]])
            try:
                p_todo[d[:, None], cols] = np.linalg.solve(
                    np.eye(d.size) - a_firms[d[:, None], d].T, rhs[d[:, None], cols]
                )
            except np.linalg.LinAlgError:
                raise ModelError(
                    f"clearing is singular: the defaulting firms {(d + 1).tolist()} "
                    "leave no payment determined"
                ) from None
            stats.solves += 1
        rounds += 1
        stats.rounds += 1
        p[:, todo] = p_todo
        grown = (cash[:, todo] + a_firms.T @ p_todo < short) & ~d_todo
        defaulted[:, todo] = d_todo | grown
        todo = todo[grown.any(axis=0)]

    residual = fixed_point_residual()
    if not residual <= tol * scale:
        raise ConvergenceError(
            f"clearing fixed-point residual {residual:.3e} exceeds tol {tol:.1e} "
            f"times the payment scale {scale:.3g} after {rounds} solve rounds"
        )
    return residual


# ---------------------------------------------------------------------------
# network value model


class NetworkValueModel:
    """Capital-indexed society equity Y_k = e_0(X + g(k); S) over shared scenarios.

    Capital allocations are restricted to the non-negative orthant; adding
    capital raises liquid holdings firm by firm, which never lowers payments,
    so the model is monotone in k. Capital never changes the illiquid
    holdings, so the model fixes its clearing regime when it is built:
    _top_down when f(0) == f(largest sale over its scenarios), _paired
    otherwise. It keeps the last _HISTORY evaluated points with their final
    iterates, and starts each clearing call from those with more and (with
    price impact) less capital.

    Its attributes are network, scenarios_x, scenarios_s, f, tol, max_iter,
    groups (the network's; groups.check tests every k), stats and
    payment_tolerance, tol times network.payment_scale.
    """

    def __init__(
        self,
        network: LiabilityNetwork,
        scenarios_x: ScenarioMatrix,
        scenarios_s: ScenarioMatrix,
        f,
        tol: float = DEFAULT_TOL,
        max_iter: int = DEFAULT_MAX_ITER,
    ):
        if not (math.isfinite(tol) and tol > 0 and max_iter >= 1):
            raise ParameterError(f"tol must be finite and positive and max_iter at least 1, "
                                 f"got {tol} and {max_iter}")
        n = network.n_firms
        if scenarios_x.n_firms != n or scenarios_s.n_firms != n:
            raise ConfigurationError(
                f"scenario matrices must have {n} firm rows, got "
                f"{scenarios_x.n_firms} and {scenarios_s.n_firms}"
            )
        if scenarios_x.n_scenarios != scenarios_s.n_scenarios:
            raise ConfigurationError("liquid and illiquid scenario counts differ")
        if (scenarios_x.values < 0).any() or (scenarios_s.values < 0).any():
            raise ConfigurationError("holdings scenarios must be non-negative")
        largest_sale = float(scenarios_s.values.sum(axis=0).max(initial=0.0))
        validate_inverse_demand(f, largest_sale)  # f > 0 up to the largest sale
        self.network = network
        self.scenarios_x = scenarios_x
        self.scenarios_s = scenarios_s
        self.f = f
        self.tol = tol
        self.max_iter = max_iter
        self.groups = network.groups
        price_top, price_floor = float(f(0.0)), float(f(largest_sale))  # the reachable price range
        self._prices = (price_top, price_floor)
        # at constant price nonzero illiquid holdings count as cash, pi * s at every k
        self._cash = None
        if price_top == price_floor and scenarios_s.values.any():
            self._cash = price_top * scenarios_s.values
        self.stats = ClearingStats()  # summed over every call
        self._history = collections.deque(maxlen=_HISTORY)  # _Points, oldest first
        self.payment_tolerance = tol * network.payment_scale  # in units of society equity

    def bounds_at(self, k):
        """Yield (lower, upper) society equity per scenario, tightening with every clearing sweep.

        Capital k is injected as liquid holdings, and the model's regime
        clears the call: _top_down at constant price, _paired with price
        impact. Each pair encloses the exact equity, so a monotone criterion
        puts rho(Y) between rho(upper) and rho(lower). Once clearing has
        finished, the last pair is (Y, Y), the same array twice, and the
        generator ends. Closing it before that counts the call as decided.

        Clearing starts from the remembered points with at least and (with
        price impact) at most k in every group. Such a start only tightens
        the bounds, and the finished Y does not depend on it. A call is
        remembered once its clearing has ended, decided or finished.
        """
        k = self.groups.check(k)  # a fresh copy, kept with the point
        if (k < 0).any():
            raise ParameterError(f"capital allocations must be non-negative, got {k}")
        x = self.scenarios_x.values + self.groups.expand(k)[:, None]
        point = _Point(k)
        above = [e for e in self._history if (e.k >= k).all()]
        if self._prices[0] == self._prices[1]:
            if self._cash is not None:
                x += self._cash
            clearing = _top_down(self.network, x, self.tol, self.max_iter, self.stats, above,
                                 point)
        else:
            below = [e for e in self._history if (e.k <= k).all()]
            clearing = _paired(self.network, x, self.scenarios_s.values, self.f, *self._prices,
                               self.tol, self.max_iter, self.stats, above, below, point)
        try:
            y = yield from clearing
        except GeneratorExit:  # yield from has closed the clearing: point holds its last iterates
            self.stats.decided += 1
            self._history.append(point)
            raise
        cap = self.network.society_promised
        if not ((y >= -1e-9).all() and (y <= cap + max(1e-9, 1e-12 * cap)).all()):
            raise ModelError(f"society equity left the range [0, {cap}] of its promised payments")
        self._history.append(point)
        yield y, y

    def samples_at(self, k) -> np.ndarray:
        """Society equity per scenario at capital k: bounds_at(k) run to its end."""
        *_, (_, e0) = self.bounds_at(k)
        return e0
