"""Random grouped liability networks.

Firms are partitioned into groups; a directed obligation from firm i to firm
j exists with a probability and size that depend only on the pair of groups
(a stochastic-block construction). Obligations to society (node 0) are
deterministic per group. Self-links never occur and society owes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import GroupMap
from .clearing import LiabilityNetwork
from .errors import ParameterError

__all__ = ["NetworkGenSpec", "sample_network"]


@dataclass(frozen=True)
class NetworkGenSpec:
    """Block parameters: q[a][b] is the link probability and w[a][b] the obligation
    size from a group-a firm to a group-b firm; w_society[a] is every group-a
    firm's obligation to node 0."""

    group_sizes: tuple[int, ...]
    q: tuple[tuple[float, ...], ...]
    w: tuple[tuple[float, ...], ...]
    w_society: tuple[float, ...]
    seed: int

    def __init__(self, group_sizes, q, w, w_society, seed):
        sizes = GroupMap(group_sizes).group_sizes
        l = len(sizes)
        q_arr = np.asarray(q, dtype=float)
        w_arr = np.asarray(w, dtype=float)
        soc = np.asarray(w_society, dtype=float).ravel()
        if q_arr.shape != (l, l) or w_arr.shape != (l, l):
            raise ParameterError(f"q and w must be {l}x{l} matrices")
        if soc.shape != (l,):
            raise ParameterError(f"w_society must have one entry per group ({l})")
        if not np.isfinite(q_arr).all() or (q_arr < 0).any() or (q_arr > 1).any():
            raise ParameterError("link probabilities must lie in [0, 1]")
        if not np.isfinite(w_arr).all() or (w_arr < 0).any():
            raise ParameterError("obligation weights must be non-negative")
        if not np.isfinite(soc).all() or (soc < 0).any():
            raise ParameterError("society weights must be non-negative")
        object.__setattr__(self, "group_sizes", sizes)
        object.__setattr__(self, "q", tuple(tuple(row) for row in q_arr))
        object.__setattr__(self, "w", tuple(tuple(row) for row in w_arr))
        object.__setattr__(self, "w_society", tuple(soc))
        object.__setattr__(self, "seed", int(seed))


def sample_network(spec: NetworkGenSpec) -> LiabilityNetwork:
    """Draw one liability network; identical output for identical spec (seed included).

    A full n x n uniform block is drawn row-major and thresholded against the
    per-pair probabilities, so two specs differing only in q share edge
    indicators monotonically under a common seed: raising any probability can
    only add edges, never remove them.
    """
    groups = GroupMap(spec.group_sizes)
    n = groups.n_firms
    gidx = groups.firm_groups()
    q_full = np.asarray(spec.q, dtype=float)[np.ix_(gidx, gidx)]
    w_full = np.asarray(spec.w, dtype=float)[np.ix_(gidx, gidx)]

    gen = np.random.Generator(np.random.Philox(spec.seed))
    uniforms = gen.random((n, n))
    edges = uniforms < q_full
    np.fill_diagonal(edges, False)

    nominal = np.zeros((n + 1, n + 1))
    nominal[1:, 1:] = np.where(edges, w_full, 0.0)
    nominal[1:, 0] = np.asarray(spec.w_society, dtype=float)[gidx]
    return LiabilityNetwork(nominal, groups)
