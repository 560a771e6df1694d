"""Set-valued capital requirements approximated on a grid.

The object of interest is the upper set R = {k : model output at k is
acceptable}. With scenarios fixed once per run, the membership oracle is
deterministic and monotone, so R restricted to a box is completely described
by its staircase boundary. The search labels every lattice point while
calling the oracle as rarely as possible: each verdict is propagated to the
full upper or lower orthant it implies, a diagonal bisection seeds the
labels, and a galloping walk then follows the staircase of every 2-D slice.

The walk runs over the last two axes, once per index prefix of the other
axes in lexicographic order. Column i is the line along the last axis at
index i of the second-to-last; row j is the line along the second-to-last
axis at index j of the last. The walk bisects column 0 for its threshold
t, the first acceptable index. It then alternates two legs. A horizontal
leg gallops along row t - 1 (steps 1, 2, 4, ..., then bisection) to the
first column acceptable there; every column it passes has the same
threshold t. A vertical leg gallops down that column from its known
acceptable point to the column's own threshold. The walk ends when a leg runs off the slice or
the threshold reaches 0. Every leg searches only the unknown gap its line
still has, so points labelled earlier (by propagation from other prefixes
or by the diagonal seed) cost nothing. A 1-D lattice is a single bisection
of its one line, which the diagonal seed has already closed.

On the presets at their seed 1 the walk asks the oracle 37 times on
agg_lognormal:exp_sensitive, where bisecting every column asked 258 times;
53 against 133 on two_tier:B2 and 24 against 47 on three_tier:alpha=0.6.

The result is certified as a sandwich: the minimal acceptable lattice points
(inner frontier) are inside R, and every maximal unacceptable point moved up
by one grid spacing in all coordinates is acceptable or outside the box, so
the true boundary lies within one spacing of the reported one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acceptance import AcceptanceSpec, is_acceptable
from .errors import DegenerateBoxError, ModelError, ParameterError

__all__ = [
    "GridSpec",
    "GridApproximation",
    "EarResult",
    "ProbeReport",
    "PinnedAllocationModel",
    "membership_oracle",
    "grid_search",
    "ear",
    "quasiconvexity_probe",
    "write_frontier_csv",
    "write_labels_csv",
    "ear_record",
]

UNKNOWN, UNACCEPTABLE, ACCEPTABLE = -1, 0, 1

EAR_TIE_RTOL = 1e-9
MAX_DIMENSIONS = 4


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned search box with a fixed lattice resolution per dimension.

    The lattice has resolution[d] points along dimension d, spaced
    (upper - lower) / (resolution - 1) apart, endpoints included. With
    nonneg_constraint the box is clipped at zero, reflecting a hard
    restriction of allocations to the non-negative orthant rather than a
    mere viewing window.

    The lattice grows exponentially with the number of dimensions, so more
    than 4 groups must be enabled explicitly via allow_high_dim.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    resolution: tuple[int, ...]
    nonneg_constraint: bool = False
    allow_high_dim: bool = False

    def __init__(self, lower, upper, resolution, nonneg_constraint=False, allow_high_dim=False):
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        up = np.atleast_1d(np.asarray(upper, dtype=float))
        ndim = max(lo.size, up.size)
        if lo.size == 1 and ndim > 1:
            lo = np.repeat(lo, ndim)
        if up.size == 1 and ndim > 1:
            up = np.repeat(up, ndim)
        if lo.size != up.size:
            raise ParameterError(f"lower has {lo.size} entries, upper {up.size}")
        res = np.atleast_1d(np.asarray(resolution, dtype=float))
        if not (np.isfinite(res).all() and (res == np.round(res)).all()):
            raise ParameterError(f"resolution entries must be integers, got {resolution}")
        res = res.astype(int)
        if res.size == 1 and ndim > 1:
            res = np.repeat(res, ndim)
        if res.size != ndim:
            raise ParameterError(f"resolution has {res.size} entries for {ndim} dimensions")
        if not (np.isfinite(lo).all() and np.isfinite(up).all()):
            raise ParameterError("box bounds must be finite")
        if nonneg_constraint:
            lo = np.maximum(lo, 0.0)
        if (lo >= up).any():
            raise ParameterError("lower must be strictly below upper in every dimension")
        if (res < 2).any():
            raise ParameterError("resolution must be at least 2 per dimension")
        if ndim > MAX_DIMENSIONS and not allow_high_dim:
            raise ParameterError(
                f"{ndim} dimensions exceed the default limit of {MAX_DIMENSIONS} "
                "(lattice size is exponential in dimensions); pass allow_high_dim=True to override"
            )
        object.__setattr__(self, "lower", tuple(lo))
        object.__setattr__(self, "upper", tuple(up))
        object.__setattr__(self, "resolution", tuple(int(r) for r in res))
        object.__setattr__(self, "nonneg_constraint", bool(nonneg_constraint))
        object.__setattr__(self, "allow_high_dim", bool(allow_high_dim))

    @property
    def ndim(self) -> int:
        return len(self.lower)

    @property
    def spacing(self) -> np.ndarray:
        return (np.array(self.upper) - np.array(self.lower)) / (np.array(self.resolution) - 1)

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, up, res)
            for lo, up, res in zip(self.lower, self.upper, self.resolution)
        ]


@dataclass(frozen=True)
class GridApproximation:
    """Fully labeled lattice plus the two frontier antichains.

    inner_frontier holds the minimal acceptable lattice points, outer_frontier
    the maximal unacceptable ones, both as coordinate rows in lexicographic
    order (index rows in *_indices). v is the grid spacing: the certified
    accuracy of the sandwich. A box entirely inside or outside the acceptance
    region is flagged in degenerate and carries empty frontiers, since the
    true boundary was never bracketed.
    """

    grid: GridSpec
    labels: np.ndarray
    inner_frontier: np.ndarray
    outer_frontier: np.ndarray
    inner_indices: np.ndarray
    outer_indices: np.ndarray
    v: np.ndarray
    oracle_calls: int
    degenerate: str | None
    certified: bool


@dataclass(frozen=True)
class EarResult:
    """Minimizers of w . m over the inner frontier.

    on_box_boundary warns that some minimizer touches the search box edge
    (ignoring a lower edge pinned at zero by the non-negativity constraint):
    the reported optimum may then be an artifact of a too-small box or of a
    weight vector pointing outside the admissible dual cone.
    """

    weights: np.ndarray
    minimizers: np.ndarray
    min_value: float
    on_box_boundary: bool


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the scenario-blending convexity check."""

    alpha: float
    checked: int
    total_points: int
    violations: np.ndarray


# ---------------------------------------------------------------------------
# membership


class PinnedAllocationModel:
    """Adapter holding some group allocations at fixed values.

    The wrapped model keeps its full group dimension; searches run over the
    remaining free groups only. Monotonicity in the free coordinates is
    inherited from the underlying model.
    """

    def __init__(self, model, pinned: dict[int, float]):
        n_groups = model.n_groups
        if not pinned:
            raise ParameterError("pinned must fix at least one group index")
        if not all(0 <= j < n_groups for j in pinned):
            raise ParameterError(f"pinned group indices must lie in [0, {n_groups})")
        if len(pinned) >= n_groups:
            raise ParameterError("at least one group must remain free")
        self.model = model
        self.pinned = dict(sorted(pinned.items()))
        self.free = [j for j in range(n_groups) if j not in pinned]

    @property
    def n_groups(self) -> int:
        return len(self.free)

    def samples_at(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float).ravel()
        if k.size != len(self.free):
            raise ParameterError(f"allocation has {k.size} entries for {len(self.free)} free groups")
        full = np.empty(self.model.n_groups)
        full[self.free] = k
        for j, value in self.pinned.items():
            full[j] = value
        return self.model.samples_at(full)


def membership_oracle(model, spec: AcceptanceSpec):
    """Bind model and criterion into the boolean oracle used by the grid search."""

    def oracle(k) -> bool:
        return is_acceptable(model.samples_at(k), spec)

    return oracle


# ---------------------------------------------------------------------------
# label store with orthant propagation


class _LabelStore:
    """Lattice labels; every oracle verdict is propagated to the orthant it implies.

    For a monotone oracle the labels are ground truth whatever order the
    points are queried in. Monotonicity of the oracle is an unchecked
    precondition of grid_search: query only asks about unlabelled points,
    and no verdict there can contradict a propagated label, so a
    non-monotone oracle yields the monotone labels its queried verdicts
    imply. mark still raises ModelError when called directly with a
    contradicting verdict.
    """

    def __init__(self, oracle, grid: GridSpec):
        self.oracle = oracle
        self.grid = grid
        self.axes = grid.axes()
        self.labels = np.full(grid.resolution, UNKNOWN, dtype=np.int8)
        self.calls = 0

    def point(self, idx) -> np.ndarray:
        return np.array([self.axes[d][i] for d, i in enumerate(idx)])

    def query(self, idx) -> int:
        cached = self.labels[idx]
        if cached != UNKNOWN:
            return int(cached)
        verdict = ACCEPTABLE if self.oracle(self.point(idx)) else UNACCEPTABLE
        self.calls += 1
        self.mark(idx, verdict)
        return verdict

    def mark(self, idx, verdict: int) -> None:
        if verdict == ACCEPTABLE:
            region = tuple(slice(i, None) for i in idx)
            conflict = UNACCEPTABLE
        else:
            region = tuple(slice(0, i + 1) for i in idx)
            conflict = ACCEPTABLE
        view = self.labels[region]
        if (view == conflict).any():
            raise ModelError(
                f"membership oracle is not monotone: verdict at lattice index {tuple(idx)} "
                "contradicts an already-established label"
            )
        view[...] = verdict


def _seed_labels(store: _LabelStore) -> None:
    """Corner checks, then diagonal bisection to seed both orthants.

    An acceptable bottom corner or an unacceptable top corner labels the
    whole box, so every later query of a degenerate box hits a propagated
    label and costs nothing.
    """
    res = store.grid.resolution
    nd = store.grid.ndim
    store.query((0,) * nd)
    store.query(tuple(r - 1 for r in res))
    lo, hi = 0, min(res) - 1
    if store.query((hi,) * nd) == ACCEPTABLE:  # cached for square grids (it is the top corner)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if store.query((mid,) * nd) == ACCEPTABLE:
                hi = mid
            else:
                lo = mid


def _threshold(store: _LabelStore, line: tuple, gallop: int) -> int:
    """First acceptable position on one lattice line, or the line length if there is none.

    line indexes store.labels with exactly one slice, the axis searched.
    Orthant propagation only ever writes a low block of unacceptable labels
    and a high block of acceptable ones into a line, so the unknown gap
    between them is contiguous and only its points are queried. gallop=+1
    probes up from the low end of the gap in steps 1, 2, 4, ..., gallop=-1
    probes down from the high end, until a verdict flips; bisection then
    closes what is left. gallop=0 bisects from the start.
    """
    labels = store.labels[line]
    ones = np.flatnonzero(labels == ACCEPTABLE)
    hi = int(ones[0]) if ones.size else labels.size
    zeros = np.flatnonzero(labels == UNACCEPTABLE)
    lo = int(zeros[-1]) if zeros.size else -1
    step = 1
    while hi - lo > 1:
        if gallop > 0:
            probe = min(lo + step, hi - 1)
        elif gallop < 0:
            probe = max(hi - step, lo + 1)
        else:
            probe = (lo + hi) // 2
        step *= 2
        idx = tuple(probe if isinstance(s, slice) else s for s in line)
        if store.query(idx) == ACCEPTABLE:
            hi = probe
            gallop = min(gallop, 0)
        else:
            lo = probe
            gallop = max(gallop, 0)
    return hi


def _walk(store: _LabelStore) -> None:
    """Label every UNKNOWN point by walking the staircase of each 2-D slice.

    Worst case per r1 x r2 slice, whatever is already labelled: at most
    ceil(log2(r2 + 1)) + floor(3 * (r1 + r2) / 2) oracle calls. Column 0
    is a bisection over at most r2 unknown points. A leg that moves the
    walk d steps (d columns, or a threshold drop of d) probes offsets 1, 3,
    7, ... and then bisects: 2 * ceil(log2(d + 1)) - 1 calls, never more
    than 3d/2. The horizontal legs move at most r1 columns in total and the
    vertical legs drop the threshold by at most r2.
    """
    res = store.grid.resolution
    if len(res) == 1:
        _threshold(store, (slice(None),), 0)
        return
    rows = res[-2]
    for prefix in np.ndindex(*res[:-2]):  # lexicographic for reproducibility
        t = _threshold(store, prefix + (0, slice(None)), 0)
        while t > 0:
            i = _threshold(store, prefix + (slice(None), t - 1), +1)
            if i == rows:
                break
            t = _threshold(store, prefix + (i, slice(None)), -1)


def _extract_frontiers(labels: np.ndarray):
    """Minimal acceptable and maximal unacceptable lattice points, vectorized.

    A lattice point is minimal acceptable iff it is acceptable and every
    in-box step down is unacceptable (missing neighbors at the box edge do
    not block); dually for maximal unacceptable. For monotone labels the
    single-step test is equivalent to true minimality/maximality.
    """
    acceptable = labels == ACCEPTABLE
    unacceptable = labels == UNACCEPTABLE
    nd = labels.ndim
    minimal = acceptable.copy()
    maximal = unacceptable.copy()
    for d in range(nd):
        below = [slice(None)] * nd
        above = [slice(None)] * nd
        below[d] = slice(None, -1)
        above[d] = slice(1, None)
        neighbor_down = np.zeros_like(acceptable)
        neighbor_down[tuple(above)] = acceptable[tuple(below)]
        minimal &= ~neighbor_down
        neighbor_up = np.zeros_like(unacceptable)
        neighbor_up[tuple(below)] = unacceptable[tuple(above)]
        maximal &= ~neighbor_up
    return np.argwhere(minimal), np.argwhere(maximal)  # argwhere order is lexicographic


def _coords(axes, idx: np.ndarray) -> np.ndarray:
    """Coordinate rows of lattice index rows; an empty (0, ndim) array for none."""
    if not idx.size:
        return np.empty((0, len(axes)))
    return np.column_stack([axis[idx[:, d]] for d, axis in enumerate(axes)])


def _finalize(store: _LabelStore) -> GridApproximation:
    labels = store.labels
    grid = store.grid
    if (labels == UNKNOWN).any():
        raise ModelError("grid search left unlabeled points")
    degenerate = None
    if (labels == ACCEPTABLE).all():
        degenerate = "all_in"
    elif (labels == UNACCEPTABLE).all():
        degenerate = "all_out"

    nd = grid.ndim
    if degenerate is not None:
        inner_idx = np.empty((0, nd), dtype=int)
        outer_idx = np.empty((0, nd), dtype=int)
    else:
        inner_idx, outer_idx = _extract_frontiers(labels)
        res = np.array(grid.resolution)
        for o in outer_idx:
            stepped = o + 1
            if (stepped < res).all() and labels[tuple(stepped)] != ACCEPTABLE:
                raise ModelError(
                    f"sandwich certificate failed at lattice index {tuple(o)}: "
                    "point plus one spacing is inside the box but not acceptable"
                )

    labels_ro = labels.copy()
    labels_ro.setflags(write=False)
    return GridApproximation(
        grid=grid,
        labels=labels_ro,
        inner_frontier=_coords(store.axes, inner_idx),
        outer_frontier=_coords(store.axes, outer_idx),
        inner_indices=inner_idx,
        outer_indices=outer_idx,
        v=grid.spacing,
        oracle_calls=store.calls,
        degenerate=degenerate,
        certified=True,
    )


# ---------------------------------------------------------------------------
# public search operations


def grid_search(oracle, grid: GridSpec) -> GridApproximation:
    """Label the whole lattice and extract the frontier sandwich.

    The oracle must be monotone (true at k stays true at any k' >= k). This
    is not verified: only unlabelled points are queried, and no verdict at
    such a point can contradict a propagated label, so a non-monotone oracle
    gets the monotone labels its queried verdicts imply. For a monotone
    oracle the labels are ground truth regardless of evaluation order.
    """
    store = _LabelStore(oracle, grid)
    _seed_labels(store)
    _walk(store)
    return _finalize(store)


def ear(approximation: GridApproximation, w) -> EarResult:
    """Efficient allocations: minimizers of the weighted capital cost w . m over the inner frontier.

    Ties within a relative tolerance of 1e-9 are all reported (a flat
    frontier stretch orthogonal to w yields a whole segment of minimizers).
    """
    grid = approximation.grid
    w = np.asarray(w, dtype=float).ravel()
    if w.size != grid.ndim:
        raise ParameterError(f"weight vector has {w.size} entries for {grid.ndim} dimensions")
    if not np.isfinite(w).all() or (w <= 0).any():
        raise ParameterError("weights must be strictly positive and finite")
    if approximation.degenerate is not None or approximation.inner_indices.shape[0] == 0:
        raise DegenerateBoxError(
            "no acceptability frontier inside the search box"
            + (f" (degenerate: {approximation.degenerate})" if approximation.degenerate else "")
            + "; enlarge or move the box"
        )
    values = approximation.inner_frontier @ w
    min_value = float(values.min())
    keep = values <= min_value + EAR_TIE_RTOL * abs(min_value)
    minimizers = approximation.inner_frontier[keep]
    indices = approximation.inner_indices[keep]

    res = np.array(grid.resolution)
    lower = np.array(grid.lower)
    on_upper = (indices == res - 1).any()
    lower_exempt = approximation.grid.nonneg_constraint & (lower == 0.0)
    on_lower = ((indices == 0) & ~lower_exempt).any()
    return EarResult(
        weights=w,
        minimizers=minimizers,
        min_value=min_value,
        on_box_boundary=bool(on_upper or on_lower),
    )


def quasiconvexity_probe(model_a, model_b, alpha: float, spec: AcceptanceSpec, grid: GridSpec) -> ProbeReport:
    """Check set-valued quasi-convexity across two scenario draws on a lattice.

    Builds the blended model over alpha*X_a + (1-alpha)*X_b and verifies that
    every lattice point acceptable under both inputs stays acceptable under
    the blend. With a concave aggregation (so blending can only improve
    outcomes) and a convex acceptance criterion no violations should occur;
    non-concave models can and do violate, and the report lists where, in
    lexicographic lattice order.

    The three lattices are labelled by grid_search, so model_a, model_b and
    their blend must all be monotone in capital, as every value model the
    library builds is. The search does not verify this: for a non-monotone
    model the report reflects the labels its queried points imply, not a
    point-by-point check.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
    blend = model_a.blend(model_b, alpha)
    a, b, mixed = (
        grid_search(membership_oracle(model, spec), grid).labels == ACCEPTABLE
        for model in (model_a, model_b, blend)
    )
    both = a & b
    violations = _coords(grid.axes(), np.argwhere(both & ~mixed))
    return ProbeReport(
        alpha=alpha, checked=int(both.sum()), total_points=both.size, violations=violations
    )


# ---------------------------------------------------------------------------
# dataset output


def write_frontier_csv(points: np.ndarray, path) -> None:
    """Write frontier coordinates as CSV with columns k_1..k_l."""
    points = np.asarray(points, dtype=float)
    ndim = points.shape[1] if points.ndim == 2 else 0
    with open(path, "w") as fh:
        fh.write(",".join(f"k_{d + 1}" for d in range(ndim)) + "\n")
        for row in points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_labels_csv(approximation: GridApproximation, path) -> None:
    """Write all lattice points with their 0/1 labels, lexicographically ordered."""
    axes = approximation.grid.axes()
    nd = approximation.grid.ndim
    with open(path, "w") as fh:
        fh.write(",".join(f"k_{d + 1}" for d in range(nd)) + ",label\n")
        for idx in np.ndindex(*approximation.grid.resolution):
            coords = ",".join(repr(float(axes[d][i])) for d, i in enumerate(idx))
            fh.write(f"{coords},{int(approximation.labels[idx])}\n")


def ear_record(result: EarResult) -> dict:
    """JSON-ready summary of an EAR extraction."""
    return {
        "weights": [float(v) for v in result.weights],
        "minimizers": [[float(v) for v in row] for row in result.minimizers],
        "min_value": result.min_value,
        "on_box_boundary": result.on_box_boundary,
    }
