"""Aggregation-based value models: firm wealth collapsed to one scalar per scenario.

A value model maps a group-level capital allocation k (one entry per firm
group) to the sample vector of aggregate outcomes over a fixed scenario
matrix. Capital can enter after aggregation ("insensitive": Y_k = Lambda(X)
+ sum_j n_j k_j) or before ("sensitive": Y_k = Lambda(X + g(k)) with g
repeating k_j across group j). Either way the model is componentwise
non-decreasing in k, which the frontier search exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ModelError, ParameterError
from .scenarios import ScenarioMatrix

__all__ = ["GroupMap", "AggregationSpec", "AggregationValueModel", "aggregate"]

AGGREGATION_KINDS = ("sum", "loss", "exp")
AGGREGATION_MODES = ("insensitive", "sensitive")


@dataclass(frozen=True)
class GroupMap:
    """Partition of firms 1..n into contiguous groups sharing one capital level."""

    group_sizes: tuple[int, ...]

    def __init__(self, group_sizes):
        sizes = tuple(int(s) for s in group_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ParameterError(f"group sizes must be positive integers, got {group_sizes}")
        object.__setattr__(self, "group_sizes", sizes)

    @property
    def n_groups(self) -> int:
        return len(self.group_sizes)

    @property
    def n_firms(self) -> int:
        return sum(self.group_sizes)

    def expand(self, k) -> np.ndarray:
        """Group allocation in R^l -> per-firm vector in R^n."""
        k = np.asarray(k, dtype=float).ravel()
        if k.size != self.n_groups:
            raise ParameterError(f"allocation has {k.size} entries for {self.n_groups} groups")
        return np.repeat(k, self.group_sizes)

    def firm_groups(self) -> np.ndarray:
        """Group index of each firm, in firm order."""
        return np.repeat(np.arange(self.n_groups), self.group_sizes)


@dataclass(frozen=True)
class AggregationSpec:
    kind: str
    mode: str
    theta: float = 2.0

    def __post_init__(self):
        if self.kind not in AGGREGATION_KINDS:
            raise ParameterError(f"kind must be one of {AGGREGATION_KINDS}, got {self.kind!r}")
        if self.mode not in AGGREGATION_MODES:
            raise ParameterError(f"mode must be one of {AGGREGATION_MODES}, got {self.mode!r}")
        if self.kind == "exp" and not self.theta > 0:
            raise ParameterError(f"theta must be positive, got {self.theta}")


def _aggregate_array(x: np.ndarray, spec: AggregationSpec) -> np.ndarray:
    """Column sums of the chosen per-firm transform; works on (n,) or (n, m) arrays."""
    if spec.kind == "sum":
        return x.sum(axis=0)
    losses = np.maximum(-x, 0.0)
    if spec.kind == "loss":
        return -losses.sum(axis=0)
    with np.errstate(over="ignore"):
        penalties = np.exp(spec.theta * losses)
    if np.isinf(penalties).any():
        worst = float(losses.max())
        raise ModelError(
            f"exp aggregation overflowed: theta*loss = {spec.theta * worst:.4g} exceeds float range"
        )
    return (1.0 - penalties).sum(axis=0)


def aggregate(x, spec: AggregationSpec) -> float:
    """Aggregate a per-firm wealth vector to a single outcome.

    sum: total wealth. loss: negated total shortfall (profits cannot subsidize
    losses). exp: sum of 1 - exp(theta * shortfall_i), penalizing large
    individual losses progressively harder.
    """
    x = np.asarray(x, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise ParameterError("wealth vector contains non-finite values")
    return float(_aggregate_array(x, spec))


class AggregationValueModel:
    """Capital-indexed sample vectors Y_k over a shared scenario matrix.

    Insensitive mode precomputes Lambda(X) once; adding capital then only
    shifts the aggregate by the group-weighted total sum_j n_j k_j. For the
    sum kind that shift is an exact algebraic identity of the aggregate, so
    sensitive mode reuses the same fast path and the two modes coincide
    bit for bit. Other sensitive models re-aggregate X + g(k) per call.
    """

    def __init__(self, scenarios: ScenarioMatrix, spec: AggregationSpec, groups: GroupMap):
        if scenarios.n_firms != groups.n_firms:
            raise ConfigurationError(
                f"scenario matrix has {scenarios.n_firms} firms, groups cover {groups.n_firms}"
            )
        self.scenarios = scenarios
        self.spec = spec
        self.groups = groups
        self._sizes = np.asarray(groups.group_sizes, dtype=float)
        if spec.mode == "insensitive" or spec.kind == "sum":
            self._base = _aggregate_array(scenarios.values, spec)
        else:
            self._base = None

    @property
    def n_groups(self) -> int:
        return self.groups.n_groups

    def samples_at(self, k) -> np.ndarray:
        """Per-scenario aggregate outcomes at group allocation k."""
        k = np.asarray(k, dtype=float).ravel()
        if k.size != self.n_groups:
            raise ParameterError(f"allocation has {k.size} entries for {self.n_groups} groups")
        if self._base is not None:
            return self._base + float(self._sizes @ k)
        shifted = self.scenarios.values + self.groups.expand(k)[:, None]
        return _aggregate_array(shifted, self.spec)

    def with_scenarios(self, scenarios: ScenarioMatrix) -> "AggregationValueModel":
        """Same model structure over a different scenario matrix."""
        return AggregationValueModel(scenarios, self.spec, self.groups)

    def blend(self, other: "AggregationValueModel", alpha: float) -> "AggregationValueModel":
        """Model over the scenario-wise convex combination alpha*X_self + (1-alpha)*X_other."""
        if not 0.0 <= alpha <= 1.0:
            raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
        if self.spec != other.spec or self.groups != other.groups:
            raise ConfigurationError("blending requires identical model structure")
        if self.scenarios.values.shape != other.scenarios.values.shape:
            raise ConfigurationError("blending requires scenario matrices of equal shape")
        mixed = ScenarioMatrix(
            alpha * self.scenarios.values + (1.0 - alpha) * other.scenarios.values
        )
        return self.with_scenarios(mixed)
