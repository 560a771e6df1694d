"""Interbank clearing with fire-sale price impact.

Firms 1..n owe nominal amounts to each other and to node 0 (society).
Given liquid holdings x and illiquid holdings s per firm, payments and the
share price solve a joint fixed point: each firm pays the smaller of what it
owes and what it has (liquid assets, incoming payments, and illiquid assets
marked at the clearing price), while the price is set by an inverse demand
function of the total quantity of shares that distressed firms must sell.

The solver iterates the monotone payment/price map from the top point
(full payments, undisturbed price), producing a componentwise non-increasing
sequence whose limit is the greatest fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import GroupMap
from .errors import ConfigurationError, ConvergenceError, ModelError, ParameterError
from .scenarios import ScenarioMatrix

__all__ = [
    "LiabilityNetwork",
    "ClearingResult",
    "ConstantPrice",
    "LinearCapPrice",
    "LinearSqrtPrice",
    "TabulatedPrice",
    "make_inverse_demand",
    "validate_inverse_demand",
    "clear",
    "equity",
    "NetworkValueModel",
    "read_edge_csv",
    "write_edge_csv",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

_MONO_SLACK = 1e-12  # float headroom for checks on mathematically monotone quantities


# ---------------------------------------------------------------------------
# inverse demand curves


@dataclass(frozen=True)
class ConstantPrice:
    """No price impact: f(y) = price for all y."""

    price: float = 1.0

    def __post_init__(self):
        if not self.price > 0:
            raise ParameterError(f"price must be positive, got {self.price}")

    def __call__(self, y):
        return np.full_like(np.asarray(y, dtype=float), self.price)[()]


@dataclass(frozen=True)
class LinearCapPrice:
    """f(y) = max(1 - slope*y, floor)."""

    slope: float
    floor: float

    def __post_init__(self):
        if self.slope < 0:
            raise ParameterError(f"slope must be >= 0, got {self.slope}")
        if not 0 < self.floor <= 1:
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
        q = tuple(float(v) for v in quantities)
        p = tuple(float(v) for v in prices)
        if len(q) != len(p) or len(q) < 2:
            raise ParameterError("need at least two (quantity, price) knots")
        if any(b <= a for a, b in zip(q, q[1:])):
            raise ParameterError("quantities must be strictly increasing")
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
    relative[i, j] is the fraction of i's total obligations owed to j.
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
        self.nominal = mat
        self.pbar = totals  # row sums, totals[0] = 0
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
    """Load a network from an edge list CSV with header from,to,amount (node 0 = society)."""
    rows = []
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read edge list {path}: {exc.strerror}") from None
    with fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "from,to,amount":
            raise ConfigurationError(f"{path}: expected header 'from,to,amount', got {header!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ConfigurationError(
                    f"{path} line {line_no}: expected 3 fields, got {len(parts)}"
                )
            try:
                rows.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError:
                raise ConfigurationError(
                    f"{path} line {line_no}: expected integer node ids and a number, got {line!r}"
                ) from None
    if not rows:
        raise ConfigurationError(f"{path}: edge list is empty")
    size = max(max(i, j) for i, j, _ in rows) + 1
    nominal = np.zeros((size, size))
    for i, j, amount in rows:
        if i < 0 or j < 0:
            raise ConfigurationError("node ids must be non-negative")
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


@dataclass(frozen=True)
class ClearingResult:
    """Payments of firms 1..n, the clearing price, and iteration diagnostics."""

    p: np.ndarray
    pi: float
    iterations: int
    residual: float


def _clear_batch(network: LiabilityNetwork, x, s, f, tol: float, max_iter: int):
    """Clear m scenarios at once; x and s are (n, m) liquid/illiquid holdings.

    Scenario columns whose payment/price update falls below tol are frozen
    and skipped in later sweeps, which only changes where each column stops,
    not its value: column updates never interact across scenarios.
    """
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    n = network.n_firms
    if x.shape != s.shape or x.ndim != 2 or x.shape[0] != n:
        raise ParameterError(f"holdings must both be (n, m) with n={n}, got {x.shape} and {s.shape}")
    if (x < 0).any() or (s < 0).any():
        raise ParameterError("holdings must be non-negative")
    if not (np.isfinite(x).all() and np.isfinite(s).all()):
        raise ParameterError("holdings must be finite")
    if tol <= 0 or max_iter < 1:
        raise ParameterError("tol must be positive and max_iter at least 1")

    m = x.shape[1]
    pbar = network.pbar[1:][:, None]  # (n, 1)
    a_firms = network.relative[1:, 1:]  # a_firms[i, j]: share of firm i+1 owed to firm j+1
    price_top = float(f(0.0))
    price_floor = float(f(float(s.sum(axis=0).max(initial=0.0))))
    if not price_floor > 0.0:
        raise ModelError(
            f"inverse demand must stay strictly positive, got {price_floor} at the largest sale"
        )

    p = np.broadcast_to(pbar, (n, m)).copy()
    pi = np.full(m, price_top)
    active = np.ones(m, dtype=bool)
    iterations = 0
    worst_residual = np.inf

    while active.any():
        if iterations >= max_iter:
            raise ConvergenceError(
                f"clearing did not converge within {max_iter} iterations "
                f"(residual {worst_residual:.3e} > tol {tol:.1e})"
            )
        cols = np.flatnonzero(active)
        p_cur = p[:, cols]
        pi_cur = pi[cols]
        x_cur = x[:, cols]
        s_cur = s[:, cols]

        inflow = a_firms.T @ p_cur
        resources = x_cur + inflow
        p_new = np.minimum(pbar, resources + pi_cur * s_cur)
        shortfall = np.maximum(pbar - resources, 0.0)
        sold = np.minimum(shortfall / pi_cur, s_cur).sum(axis=0)
        pi_new = np.asarray(f(sold), dtype=float)

        # the map is monotone and we started at the top, so iterates only move down
        if not (p_new <= p_cur + _MONO_SLACK).all():
            raise ModelError("clearing map is not monotone: a payment iterate increased")
        if not (pi_new <= pi_cur + _MONO_SLACK).all():
            raise ModelError("clearing map is not monotone: a price iterate increased")
        if not (pi_new >= price_floor - _MONO_SLACK).all():
            raise ModelError("clearing price fell below the inverse demand at the largest sale")

        col_residual = np.maximum(np.abs(p_new - p_cur).max(axis=0), np.abs(pi_new - pi_cur))
        p[:, cols] = p_new
        pi[cols] = pi_new
        worst_residual = float(col_residual.max())
        active[cols[col_residual <= tol]] = False
        iterations += 1

    return p, pi, iterations, worst_residual


def clear(
    network: LiabilityNetwork,
    x,
    s,
    f,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ClearingResult:
    """Compute the greatest clearing fixed point for one scenario.

    x and s are per-firm liquid and illiquid holdings (length n, firms only).
    Payments start at full nominals and the price at f(0); both decrease
    monotonically until the sup-norm step change drops below tol.
    """
    x = np.asarray(x, dtype=float).ravel()
    s = np.asarray(s, dtype=float).ravel()
    validate_inverse_demand(f, max(float(s.sum()), 0.0) if s.size else 0.0)
    p, pi, iterations, residual = _clear_batch(network, x[:, None], s[:, None], f, tol, max_iter)
    return ClearingResult(p=p[:, 0], pi=float(pi[0]), iterations=iterations, residual=residual)


def equity(
    network: LiabilityNetwork,
    x,
    s,
    f,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Post-clearing equity of all n+1 nodes; entry 0 is society's intake.

    e_i = inflows + x_i + pi*s_i - pbar_i for firms; society holds no outside
    position, so e_0 is simply the payments it receives.
    """
    x = np.asarray(x, dtype=float).ravel()
    s = np.asarray(s, dtype=float).ravel()
    result = clear(network, x, s, f, tol, max_iter)
    rel = network.relative
    inflow_all = rel[1:, :].T @ result.p  # (n+1,): payments received by each node
    e = np.empty(network.n_firms + 1)
    e[0] = inflow_all[0]
    e[1:] = inflow_all[1:] + x + result.pi * s - network.pbar[1:]
    return e


# ---------------------------------------------------------------------------
# network value model


class NetworkValueModel:
    """Capital-indexed society equity Y_k = e_0(X + g(k); S) over shared scenarios.

    Capital allocations are restricted to the non-negative orthant; adding
    capital raises liquid holdings firm by firm, which never lowers payments,
    so the model is monotone in k.
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
        validate_inverse_demand(f, float(scenarios_s.values.sum(axis=0).max(initial=0.0)))
        self.network = network
        self.scenarios_x = scenarios_x
        self.scenarios_s = scenarios_s
        self.f = f
        self.tol = tol
        self.max_iter = max_iter
        self.groups = network.groups
        self._society_shares = network.relative[1:, 0]
        self.last_iterations = 0

    @property
    def n_groups(self) -> int:
        return self.groups.n_groups

    @property
    def total_promised_to_society(self) -> float:
        return self.network.society_promised

    def samples_at(self, k) -> np.ndarray:
        """Society equity per scenario with capital k injected as liquid holdings."""
        k = np.asarray(k, dtype=float).ravel()
        if (k < 0).any():
            raise ParameterError(f"capital allocations must be non-negative, got {k}")
        x = self.scenarios_x.values + self.groups.expand(k)[:, None]
        p, pi, iterations, _ = _clear_batch(
            self.network, x, self.scenarios_s.values, self.f, self.tol, self.max_iter
        )
        self.last_iterations = iterations
        e0 = self._society_shares @ p
        cap = self.total_promised_to_society
        if not ((e0 >= -1e-9).all() and (e0 <= cap + max(1e-9, 1e-12 * cap)).all()):
            raise ModelError(f"society equity left the range [0, {cap}] of its promised payments")
        return e0

    def with_scenarios(
        self, scenarios_x: ScenarioMatrix, scenarios_s: ScenarioMatrix
    ) -> "NetworkValueModel":
        return NetworkValueModel(
            self.network, scenarios_x, scenarios_s, self.f, self.tol, self.max_iter
        )

    def blend(self, other: "NetworkValueModel", alpha: float) -> "NetworkValueModel":
        """Model over scenario-wise convex combinations of both holdings matrices."""
        if not 0.0 <= alpha <= 1.0:
            raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
        if self.network is not other.network and not np.array_equal(
            self.network.nominal, other.network.nominal
        ):
            raise ConfigurationError("blending requires the same liability network")
        mix_x = ScenarioMatrix(
            alpha * self.scenarios_x.values + (1.0 - alpha) * other.scenarios_x.values
        )
        mix_s = ScenarioMatrix(
            alpha * self.scenarios_s.values + (1.0 - alpha) * other.scenarios_s.values
        )
        return self.with_scenarios(mix_x, mix_s)
