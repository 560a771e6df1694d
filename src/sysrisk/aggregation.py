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

__all__ = ["GroupMap", "AggregationSpec", "AggregationStats", "AggregationValueModel"]

AGGREGATION_KINDS = ("sum", "loss", "exp")
AGGREGATION_MODES = ("insensitive", "sensitive")


@dataclass(frozen=True)
class GroupMap:
    """Partition of firms 1..n into contiguous groups sharing one capital level.

    check(k) is the one test of the allocations every value model takes:
    one finite entry per group.
    """

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

    def check(self, k) -> np.ndarray:
        """k as a fresh float vector, once it has one finite entry per group (else ParameterError)."""
        k = np.array(k, dtype=float).ravel()
        if k.size != self.n_groups:
            raise ParameterError(f"allocation has {k.size} entries for {self.n_groups} groups")
        finite = np.isfinite(k)
        if not finite.all():
            j = int(np.argmin(finite))
            raise ParameterError(f"allocation entry {j} is not finite: {k[j]}")
        return k

    def expand(self, k) -> np.ndarray:
        """Group allocation in R^l -> per-firm vector in R^n."""
        return np.repeat(self.check(k), self.group_sizes)

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
    """Column sums of the chosen per-firm transform of an (n, m) wealth array.

    sum: total wealth. loss: negated total shortfall (profits cannot subsidize
    losses). exp: sum of 1 - exp(theta * shortfall_i), penalizing large
    individual losses progressively harder.
    """
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


@dataclass
class AggregationStats:
    """Work counters of an aggregation model.

    calls counts samples_at calls, block_sums the group block sums G_j
    evaluated and tables the sorted prefix tables built; the last two stay 0
    on the precomputed path of insensitive and sum models.
    """

    calls: int = 0
    block_sums: int = 0
    tables: int = 0


class AggregationValueModel:
    """Capital-indexed sample vectors Y_k over a shared scenario matrix.

    Insensitive mode precomputes Lambda(X) once; adding capital then only
    shifts the aggregate by the group-weighted total sum_j n_j k_j. For the
    sum kind that shift is an exact algebraic identity of the aggregate, so
    sensitive mode reuses the same fast path and the two modes coincide
    bit for bit.

    Other sensitive models split the aggregate by group: capital is constant
    within a group, so Lambda(X + g(k)) = sum_j G_j(k_j), where G_j is the
    column sum of the transformed row block of group j. At level k only the
    firms with X_i < -k contribute, and in a column sorted ascending they
    form a prefix whose length c is counted on the unsorted block. So each
    group gets one (n_j + 1) x scenarios prefix table, built on the group's
    first evaluation, and G_j(k) is a count, a gather and one exp per
    scenario:

    - loss: G_j(k) = T_c + c k, T the cumulative sum of the sorted column;
    - exp: G_j(k) = c - exp(-theta (k + x_min)) S_c, x_min the column
      minimum and S the cumulative sum of exp(-theta (x - x_min)) over the
      sorted column. Every term of S is at most 1, so the table never
      overflows; the factor overflows exactly when theta times the worst
      loss does, which raises ModelError.

    The last (level, G_j) pair of every group is kept, so a call recomputes
    only the groups whose capital level changed since the previous call.
    The scenario matrix is read-only, so neither a table nor a kept block
    sum can go stale. The result differs from aggregating X + g(k) in one
    pass only in rounding, i.e. in the last bits. The model keeps
    scenarios, spec and groups as given, groups.check tests every k, and
    stats counts the work.
    """

    def __init__(self, scenarios: ScenarioMatrix, spec: AggregationSpec, groups: GroupMap):
        if scenarios.n_firms != groups.n_firms:
            raise ConfigurationError(
                f"scenario matrix has {scenarios.n_firms} firms, groups cover {groups.n_firms}"
            )
        self.scenarios = scenarios
        self.spec = spec
        self.groups = groups
        self.stats = AggregationStats()
        self._sizes = np.asarray(groups.group_sizes, dtype=float)
        if spec.mode == "insensitive" or spec.kind == "sum":
            self._base = _aggregate_array(scenarios.values, spec)
        else:
            self._base = None
            ends = np.cumsum(groups.group_sizes)
            self._blocks = [scenarios.values[end - size:end]
                            for end, size in zip(ends, groups.group_sizes)]
            self._tables = [None] * groups.n_groups  # (x_min, prefix table), built on first use
            self._columns = np.arange(scenarios.n_scenarios)
            self._last = [(None, None)] * groups.n_groups  # (level, block sum) per group

    def samples_at(self, k) -> np.ndarray:
        """Per-scenario aggregate outcomes at group allocation k, checked by groups.check."""
        k = self.groups.check(k)
        self.stats.calls += 1
        if self._base is not None:
            return self._base + float(self._sizes @ k)
        total = None
        for j, level in enumerate(k.tolist()):
            last_level, block_sum = self._last[j]
            if level != last_level:
                block_sum = self._block_sum(j, level)
                self._last[j] = (level, block_sum)
            if total is None:
                total = block_sum.copy()  # never hand out the kept block sum itself
            else:
                total += block_sum
        return total

    def _block_sum(self, j: int, level: float) -> np.ndarray:
        """G_j(level): column sums of the transformed block of group j, from its prefix table."""
        self.stats.block_sums += 1
        block = self._blocks[j]
        x_min, table = self._tables[j] or self._build_table(j)
        # loss prefix length per column, summed as bytes into the smallest type that holds n_j:
        # about twice as fast as count_nonzero, which casts every entry to intp
        count = (block < -level).view(np.uint8).sum(axis=0, dtype=np.min_scalar_type(len(block)))
        # table[count, columns] as one gather from the flat table: about twice as fast
        index = np.multiply(count, table.shape[1], dtype=np.intp)
        index += self._columns
        prefix = table.ravel().take(index)
        if self.spec.kind == "loss":
            return prefix + count * level
        with np.errstate(over="ignore"):
            scale = np.exp((x_min + level) * -self.spec.theta)
        if np.isinf(scale).any():
            worst = -(float(x_min.min()) + level)
            raise ModelError(
                f"exp aggregation overflowed: theta*loss = {self.spec.theta * worst:.4g} "
                "exceeds float range"
            )
        return count - scale * prefix

    def _build_table(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Sort group j's block by column and keep its prefix sums, with a zero row on top.

        The table is the one full-size array: the block is copied into rows
        1.., sorted there, transformed in place (exp kind) and summed row by
        row, t[i] = t[i-1] + t[i], which is np.cumsum's sequential sum bit
        for bit.
        """
        block = self._blocks[j]
        table = np.empty((len(block) + 1, block.shape[1]))
        table[0] = 0.0
        ordered = table[1:]
        ordered[:] = block
        ordered.sort(axis=0)
        x_min = ordered[0].copy()
        if self.spec.kind == "exp":
            with np.errstate(over="ignore"):  # an infinite spread only underflows exp to 0
                ordered -= x_min
                ordered *= -self.spec.theta
            np.exp(ordered, out=ordered)
        for i in range(2, len(table)):
            np.add(table[i - 1], table[i], out=table[i])
        self._tables[j] = (x_min, table)
        self.stats.tables += 1
        return x_min, table
