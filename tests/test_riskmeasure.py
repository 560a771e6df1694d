"""Grid search engine: labels, frontiers, EAR extraction, probes."""

import itertools
import json
import math

import numpy as np
import pytest

import oracles
from sysrisk import (
    AcceptanceSpec,
    AggregationSpec,
    AggregationValueModel,
    ConfigurationError,
    DegenerateBoxError,
    GridSpec,
    GroupMap,
    ModelError,
    ParameterError,
    PinnedAllocationModel,
    ScenarioMatrix,
    build_run,
    ear,
    ear_record,
    grid_search,
    is_acceptable,
    membership_oracle,
    preset_config,
    quasiconvexity_probe,
    resolve_config,
    write_frontier_csv,
    write_labels_csv,
)
from sysrisk.riskmeasure import ACCEPTABLE, UNACCEPTABLE, _finalize, _LabelStore, _walk

BOX04 = GridSpec([0.0, 0.0], [4.0, 4.0], 5)


def half_space(threshold):
    return lambda k: float(np.sum(k)) >= threshold


def staircase_oracle(labels, grid):
    """Ground-truth membership look-up for a prelabeled lattice."""
    axes = grid.axes()

    def oracle(k):
        idx = tuple(int(np.argmin(np.abs(axes[d] - k[d]))) for d in range(grid.ndim))
        return bool(labels[idx])

    return oracle


def random_staircase(rng, shape, max_corners=4):
    """Monotone truth from random corners, none at the origin, so it is not all acceptable."""
    while True:
        corners = [
            tuple(int(rng.integers(0, r)) for r in shape)
            for _ in range(int(rng.integers(1, max_corners + 1)))
        ]
        if all(any(c) for c in corners):
            return oracles.upper_set_from_corners(shape, corners)


def unit_grid(shape):
    return GridSpec([0.0] * len(shape), [float(r - 1) for r in shape], shape)


def walk_bound(r1, r2):
    """The worst case stated in riskmeasure._walk for one r1 x r2 slice."""
    return math.ceil(math.log2(r2 + 1)) + 3 * (r1 + r2) // 2


def seed_bound(shape):
    """Corner checks, the diagonal end point and the diagonal bisection of _seed_labels."""
    return 3 + math.ceil(math.log2(min(shape) - 1))


def assert_matches_truth(approx, truth):
    assert np.array_equal(approx.labels, truth)
    ref_inner, ref_outer = oracles.frontier_scan(truth)
    assert np.array_equal(approx.inner_indices, ref_inner)
    assert np.array_equal(approx.outer_indices, ref_outer)


# ---------------------------------------------------------------------------
# grid geometry


def test_grid_spec_axes_and_spacing():
    assert BOX04.ndim == 2
    assert np.array_equal(BOX04.spacing, [1.0, 1.0])
    axes = BOX04.axes()
    assert np.array_equal(axes[0], [0.0, 1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(axes[1], [0.0, 1.0, 2.0, 3.0, 4.0])


def test_grid_spec_scalar_broadcast():
    g = GridSpec(0.0, [4.0, 2.0], 5)
    assert g.lower == (0.0, 0.0)
    assert g.upper == (4.0, 2.0)
    assert g.resolution == (5, 5)
    mixed = GridSpec([0.0, 1.0], [4.0, 5.0], (5, 3))
    assert mixed.resolution == (5, 3)


def test_grid_spec_nonneg_clips_lower():
    g = GridSpec([-2.0, -1.0], [4.0, 4.0], 5, nonneg_constraint=True)
    assert g.lower == (0.0, 0.0)


def test_grid_spec_validation():
    with pytest.raises(ParameterError):
        GridSpec([0.0, 0.0, 0.0], [4.0, 4.0], 5)
    with pytest.raises(ParameterError):
        GridSpec([0.0], [0.0], 5)
    with pytest.raises(ParameterError):
        GridSpec([0.0], [4.0], 1)
    with pytest.raises(ParameterError):
        GridSpec([0.0], [math.inf], 5)
    with pytest.raises(ParameterError):
        GridSpec([0.0] * 5, [1.0] * 5, 3)
    high = GridSpec([0.0] * 5, [1.0] * 5, 3, allow_high_dim=True)
    assert high.ndim == 5


def test_grid_spec_rejects_fractional_resolution():
    with pytest.raises(ParameterError, match="resolution entries must be integers"):
        GridSpec([0.0, 0.0], [1.0, 1.0], [5.7, 5])
    with pytest.raises(ParameterError, match="resolution entries must be integers"):
        GridSpec([0.0], [1.0], math.nan)
    assert GridSpec([0.0, 0.0], [1.0, 1.0], [5.0, np.int64(3)]).resolution == (5, 3)


# ---------------------------------------------------------------------------
# membership


class _AffineModel:
    """Minimal monotone model: one group, samples = base + slope * k."""

    n_groups = 1

    def __init__(self, base, slope=1.0):
        self.base = np.asarray(base, dtype=float)
        self.slope = slope

    def samples_at(self, k):
        return self.base + self.slope * float(np.sum(k))


def test_membership_factory_binds_model_and_spec():
    model = _AffineModel([0.0, -2.0])
    spec = AcceptanceSpec("avar", lam=0.5)
    oracle = membership_oracle(model, spec)
    for k in ([0.0], [1.0], [2.0]):
        assert oracle(k) == is_acceptable(model.samples_at(k), spec)
    # avar of (0,-2) at the 50% level is 2.0: acceptable exactly from k = 2 on
    assert not oracle([1.99])
    assert oracle([2.0])
    assert oracle([2.5])


def test_membership_collapses_to_total_capital_for_insensitive_sum():
    rng = np.random.default_rng(1234)
    scen = ScenarioMatrix(rng.normal(0.0, 1.0, size=(100, 300)))
    model = AggregationValueModel(scen, AggregationSpec("sum", "insensitive"), GroupMap([50, 50]))
    oracle = membership_oracle(model, AcceptanceSpec("avar", lam=0.1))

    def at_total(t):
        return oracle([t / 2.0, t / 2.0])

    assert not at_total(0.0)
    assert at_total(2.0)
    lo, hi = 0.0, 2.0
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2.0
        if at_total(mid):
            hi = mid
        else:
            lo = mid
    threshold = hi
    # membership must depend on k only through its weighted total
    for k1, k2 in [(0.0, 0.8), (0.4, 0.4), (0.8, 0.0), (0.1, 0.7)]:
        assert oracle([k1, k2]) == at_total(k1 + k2)
    for t in np.linspace(0.0, 2.0, 21):
        if abs(t - threshold) > 1e-6:
            assert at_total(t) == (t > threshold)


# ---------------------------------------------------------------------------
# grid search


def test_half_space_frontiers_exact():
    approx = grid_search(half_space(2.0), BOX04)
    assert approx.degenerate is None
    assert approx.certified
    assert np.array_equal(approx.v, [1.0, 1.0])
    assert np.array_equal(approx.inner_frontier, [[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    assert np.array_equal(approx.outer_frontier, [[0.0, 1.0], [1.0, 0.0]])
    assert approx.oracle_calls < 25


def test_grid_search_short_diagonal_lattice():
    # 5 x 2 lattice: the index diagonal stops at (1, 1) = coords (1.0, 1.0) without
    # entering the region, so the walk alone must find the boundary
    grid = GridSpec([0.0, 0.0], [4.0, 1.0], (5, 2))
    oracle = half_space(3.5)
    axes = grid.axes()
    truth = np.array([[oracle(np.array([x, y])) for y in axes[1]] for x in axes[0]], dtype=np.int8)
    approx = grid_search(oracle, grid)
    assert approx.degenerate is None
    assert approx.labels[1, 1] == UNACCEPTABLE
    assert_matches_truth(approx, truth)


def test_half_space_labels_match_truth_everywhere():
    approx = grid_search(half_space(2.0), BOX04)
    for i in range(5):
        for j in range(5):
            assert approx.labels[i, j] == (1 if i + j >= 2 else 0)


def test_grid_search_sandwich_at_three_spacings():
    for res, h in ((5, 1.0), (9, 0.5), (17, 0.25)):
        grid = GridSpec([0.0, 0.0], [4.0, 4.0], res)
        approx = grid_search(half_space(2.0), grid)
        assert np.allclose(approx.v, h)
        inner_totals = approx.inner_frontier.sum(axis=1)
        outer_totals = approx.outer_frontier.sum(axis=1)
        # inner frontier sits on the true boundary, outer one spacing below
        assert np.allclose(inner_totals, 2.0)
        assert (outer_totals >= 2.0 - 2 * h - 1e-12).all()
        assert (outer_totals <= 2.0 - h + 1e-12).all()


def test_random_staircases_match_oracle_frontiers():
    rng = np.random.default_rng(88)
    for trial in range(40):
        shape = [(6, 6), (5, 4), (3, 11), (17, 17), (2, 9)][trial % 5]
        truth = random_staircase(rng, shape)
        grid = unit_grid(shape)
        approx = grid_search(staircase_oracle(truth, grid), grid)
        assert_matches_truth(approx, truth)
        assert approx.oracle_calls <= truth.size
        assert approx.oracle_calls <= seed_bound(shape) + walk_bound(*shape)


@pytest.mark.parametrize("shape", [(2,), (3,), (9,), (16,), (33,)])
def test_one_dimensional_lattices(shape):
    (r,) = shape
    grid = unit_grid(shape)
    for t in range(1, r):  # first acceptable index; 0 and r are degenerate boxes
        truth = (np.arange(r) >= t).astype(np.int8)
        approx = grid_search(staircase_oracle(truth, grid), grid)
        assert_matches_truth(approx, truth)
        # the diagonal seed is the whole lattice: nothing is left to walk
        assert approx.oracle_calls <= 2 + math.ceil(math.log2(r - 1))
    for t in range(r + 1):  # the walk alone bisects its one line
        truth = (np.arange(r) >= t).astype(np.int8)
        store = _LabelStore(staircase_oracle(truth, grid), grid)
        _walk(store)
        assert np.array_equal(store.labels, truth)
        assert store.calls <= math.ceil(math.log2(r + 1))


@pytest.mark.parametrize("shape", [(2, 2), (2, 5), (5, 2), (3, 4), (4, 4), (5, 5), (4, 6)])
def test_walk_call_bound_holds_on_every_small_staircase(shape):
    r1, r2 = shape
    grid = unit_grid(shape)
    for thresholds in itertools.combinations_with_replacement(range(r2 + 1), r1):
        # every non-increasing threshold sequence, degenerate boxes included
        corners = [(i, t) for i, t in enumerate(reversed(thresholds)) if t < r2]
        truth = oracles.upper_set_from_corners(shape, corners)
        store = _LabelStore(staircase_oracle(truth, grid), grid)
        _walk(store)
        assert np.array_equal(store.labels, truth)
        assert store.calls <= walk_bound(r1, r2)


def test_walk_call_bound_on_random_slices():
    rng = np.random.default_rng(89)
    for trial in range(60):
        shape = tuple(int(v) for v in rng.integers(2, 41, size=2))
        if trial % 3 == 0:
            # a fine staircase of steps 2 wide and 2 high, the costliest galloping legs
            r = int(rng.integers(4, 21))
            shape = (r, r)
            corners = [(2 * k, r - 2 * k - 1) for k in range(r // 2)]
            truth = oracles.upper_set_from_corners(shape, corners)
        else:
            truth = random_staircase(rng, shape, max_corners=12)
        grid = unit_grid(shape)
        store = _LabelStore(staircase_oracle(truth, grid), grid)
        _walk(store)
        assert np.array_equal(store.labels, truth)
        assert store.calls <= walk_bound(*shape)


def test_walk_gallops_past_long_flat_stretches():
    # one corner: column 0 plus three legs (along, down, along), each logarithmic
    shape = (65, 65)
    grid = unit_grid(shape)
    leg = 2 * math.ceil(math.log2(65 + 1)) - 1
    for corner in [(32, 20), (1, 63), (63, 1), (40, 40), (5, 50)]:
        truth = oracles.upper_set_from_corners(shape, [corner])
        store = _LabelStore(staircase_oracle(truth, grid), grid)
        _walk(store)
        assert np.array_equal(store.labels, truth)
        assert store.calls <= math.ceil(math.log2(65 + 1)) + 3 * leg


@pytest.mark.parametrize("shape", [(5, 5, 5), (4, 7, 3), (3, 4, 3, 5), (4, 4, 4, 4)])
def test_higher_dimensional_staircases(shape):
    rng = np.random.default_rng(90)
    grid = unit_grid(shape)
    slices = math.prod(shape[:-2])
    for trial in range(8):
        truth = random_staircase(rng, shape)
        approx = grid_search(staircase_oracle(truth, grid), grid)
        assert_matches_truth(approx, truth)
        assert approx.oracle_calls <= seed_bound(shape) + slices * walk_bound(*shape[-2:])
        assert approx.oracle_calls < truth.size


def test_three_dimensional_staircase():
    shape = (5, 5, 5)
    truth = oracles.upper_set_from_corners(shape, [(1, 2, 3), (3, 1, 0), (0, 4, 2)])
    grid = GridSpec([0.0] * 3, [4.0] * 3, 5)
    approx = grid_search(staircase_oracle(truth, grid), grid)
    assert_matches_truth(approx, truth)


@pytest.mark.parametrize(
    "coarse_shape,factor", [((5, 5), 2), ((4, 6), 3), ((6, 5), 4), ((3, 4, 4), 2)]
)
def test_refine_walks_prepainted_lattices(coarse_shape, factor):
    # a refine factor F searches the (r-1)*F+1 lattice directly: its labels
    # match the truth, hold the coarse labels at every F-th index, and the
    # search stays within the diagonal seed plus one walk per slice
    rng = np.random.default_rng(91)
    fine_shape = tuple((r - 1) * factor + 1 for r in coarse_shape)
    upper = [float(r - 1) for r in fine_shape]
    coarse_grid = GridSpec([0.0] * len(coarse_shape), upper, coarse_shape)
    fine_grid = unit_grid(fine_shape)
    coincident = (slice(None, None, factor),) * len(coarse_shape)
    slices = math.prod(fine_shape[:-2])
    for trial in range(8):
        truth = random_staircase(rng, fine_shape)
        oracle = staircase_oracle(truth, fine_grid)
        coarse = grid_search(oracle, coarse_grid)
        fine = grid_search(oracle, fine_grid)
        assert fine.grid.resolution == fine_shape
        assert_matches_truth(fine, truth)
        assert np.array_equal(fine.labels[coincident], coarse.labels)
        assert fine.oracle_calls <= seed_bound(fine_shape) + slices * walk_bound(*fine_shape[-2:])


def test_labels_independent_of_evaluation_order():
    # stores that already hold verdicts queried in random orders, as the
    # diagonal seed and neighbouring slices leave them, walk to the same
    # labels, and the walk's worst case holds whatever is already labelled
    rng = np.random.default_rng(92)
    grid = GridSpec([0.0, 0.0], [4.0, 4.0], 21)
    oracle = half_space(3.3)
    reference = grid_search(oracle, grid)
    for trial in range(20):
        store = _LabelStore(oracle, grid)
        order = rng.permutation(reference.labels.size)[: int(rng.integers(0, 60))]
        for flat in order:
            store.query(np.unravel_index(flat, reference.labels.shape))
        queried = store.calls
        _walk(store)
        assert store.calls - queried <= walk_bound(*grid.resolution)
        assert np.array_equal(store.labels, reference.labels)
        approx = _finalize(store)
        assert np.array_equal(approx.inner_frontier, reference.inner_frontier)
        assert np.array_equal(approx.outer_frontier, reference.outer_frontier)


def test_finalize_rejects_unlabeled_points():
    store = _LabelStore(half_space(2.0), BOX04)
    store.query((2, 2))
    with pytest.raises(ModelError, match="unlabeled"):
        _finalize(store)


def test_agg_sum_refine_call_budget():
    # refine 4 searches the 197 x 197 lattice directly; a coarse search followed
    # by a walk of the subdivided coarse labels spent 339 calls there
    raw = preset_config("agg_lognormal:sum")
    raw["refine"] = 4
    plan = build_run(resolve_config(raw))
    assert plan.grid.resolution == (197, 197)
    approx = grid_search(membership_oracle(plan.model, plan.acceptance), plan.grid)
    assert approx.oracle_calls <= 339


def test_degenerate_boxes_are_flagged():
    full = grid_search(lambda k: True, BOX04)
    assert full.degenerate == "all_in"
    assert full.inner_frontier.shape == (0, 2)
    assert full.outer_frontier.shape == (0, 2)
    assert (full.labels == 1).all()
    empty = grid_search(lambda k: False, BOX04)
    assert empty.degenerate == "all_out"
    assert (empty.labels == 0).all()


def test_labels_form_an_upper_set():
    approx = grid_search(half_space(2.7), BOX04)
    labels = approx.labels
    for i in range(5):
        for j in range(5):
            if labels[i, j] == 1:
                assert (labels[i:, j:] == 1).all()


def test_labels_are_read_only():
    approx = grid_search(half_space(2.0), BOX04)
    with pytest.raises(ValueError):
        approx.labels[0, 0] = 1


def test_grid_level_cash_invariance():
    # searching a box shifted by a lattice vector m with the oracle queried
    # at k - m reproduces the original labels exactly
    rng = np.random.default_rng(99)
    scen = ScenarioMatrix(rng.normal(0.0, 1.0, size=(4, 200)))
    model = AggregationValueModel(scen, AggregationSpec("loss", "insensitive"), GroupMap([2, 2]))
    spec = AcceptanceSpec("avar", lam=0.2, shift=-1.0)
    oracle = membership_oracle(model, spec)
    base_grid = GridSpec([0.0, 0.0], [4.0, 4.0], 5)
    base = grid_search(oracle, base_grid)
    m = np.array([1.0, 2.0])
    shifted_grid = GridSpec([1.0, 2.0], [5.0, 6.0], 5)
    shifted = grid_search(lambda k: oracle(np.asarray(k) - m), shifted_grid)
    assert np.array_equal(base.labels, shifted.labels)


def test_label_store_rejects_contradictory_marks():
    store = _LabelStore(lambda k: True, BOX04)
    store.mark((2, 2), UNACCEPTABLE)
    with pytest.raises(ModelError, match="not monotone"):
        store.mark((1, 1), ACCEPTABLE)
    fresh = _LabelStore(lambda k: True, BOX04)
    fresh.mark((1, 1), ACCEPTABLE)
    with pytest.raises(ModelError, match="not monotone"):
        fresh.mark((2, 2), UNACCEPTABLE)


def test_fine_lattice_agrees_with_coarse_at_coincident_points():
    # the 13-point lattice over BOX04 holds the 5-point one at every third index
    rng = np.random.default_rng(111)
    fine_grid = GridSpec([0.0, 0.0], [4.0, 4.0], 13)
    for _ in range(5):
        oracle = half_space(float(rng.uniform(1.0, 7.0)))
        fine = grid_search(oracle, fine_grid)
        assert np.array_equal(fine.labels[::3, ::3], grid_search(oracle, BOX04).labels)


def test_refine_degenerate_box_stays_degenerate():
    # the corner checks label a degenerate box whole, so a finer lattice
    # costs no further oracle calls
    fine_grid = GridSpec([0.0, 0.0], [4.0, 4.0], 9)
    for oracle, flag, label in [(lambda k: True, "all_in", 1), (lambda k: False, "all_out", 0)]:
        coarse = grid_search(oracle, BOX04)
        fine = grid_search(oracle, fine_grid)
        assert fine.degenerate == coarse.degenerate == flag
        assert (fine.labels == label).all()
        assert fine.inner_frontier.shape == fine.outer_frontier.shape == (0, 2)
        assert fine.oracle_calls == coarse.oracle_calls


def test_refine_rejects_small_factor():
    # a factor of 1 searches the configured lattice; below 1 there is no lattice
    raw = preset_config("agg_lognormal:sum")
    for factor, resolution in [(1, (50, 50)), (2, (99, 99)), (3, (148, 148))]:
        raw["refine"] = factor
        assert build_run(resolve_config(raw)).grid.resolution == resolution
    for factor in (0, -2):
        raw["refine"] = factor
        with pytest.raises(ConfigurationError, match="must be at least 1"):
            resolve_config(raw)


# ---------------------------------------------------------------------------
# efficient allocation extraction


def test_ear_symmetric_weights_keep_the_tie_segment():
    approx = grid_search(half_space(2.0), BOX04)
    result = ear(approx, [1.0, 1.0])
    assert result.min_value == pytest.approx(2.0, abs=1e-12)
    assert np.array_equal(result.minimizers, [[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    assert not result.weights is None


def test_ear_asymmetric_weights_pick_one_corner():
    approx = grid_search(half_space(2.0), BOX04)
    result = ear(approx, [2.0, 1.0])
    assert np.array_equal(result.minimizers, [[0.0, 2.0]])
    assert result.min_value == pytest.approx(2.0, abs=1e-12)


def test_ear_matches_full_scan_oracle():
    rng = np.random.default_rng(222)
    grid = GridSpec([0.0, 0.0], [5.0, 5.0], 6)
    for trial in range(10):
        corners = [tuple(rng.integers(0, 6, size=2)) for _ in range(3)]
        truth = oracles.upper_set_from_corners((6, 6), corners)
        if truth[0, 0] == 1 or truth[5, 5] == 0:
            continue
        approx = grid_search(staircase_oracle(truth, grid), grid)
        w = rng.uniform(0.5, 3.0, size=2)
        result = ear(approx, w)
        ref_points, ref_value = oracles.ear_scan(truth, grid.axes(), w)
        assert result.min_value == pytest.approx(ref_value, rel=1e-12)
        mine = {tuple(row) for row in result.minimizers}
        theirs = {tuple(row) for row in ref_points}
        assert mine == theirs


def test_ear_minimizers_are_undominated():
    rng = np.random.default_rng(333)
    grid = GridSpec([0.0, 0.0], [5.0, 5.0], 6)
    truth = oracles.upper_set_from_corners((6, 6), [(1, 4), (3, 2), (5, 0)])
    approx = grid_search(staircase_oracle(truth, grid), grid)
    result = ear(approx, rng.uniform(0.5, 2.0, size=2))
    inner = approx.inner_frontier
    for m in result.minimizers:
        dominated = ((inner <= m).all(axis=1) & (inner < m).any(axis=1)).any()
        assert not dominated


def test_ear_weight_validation():
    approx = grid_search(half_space(2.0), BOX04)
    with pytest.raises(ParameterError):
        ear(approx, [1.0])
    with pytest.raises(ParameterError):
        ear(approx, [1.0, 0.0])
    with pytest.raises(ParameterError):
        ear(approx, [1.0, -2.0])
    with pytest.raises(ParameterError):
        ear(approx, [1.0, math.inf])


def test_ear_degenerate_box_raises():
    with pytest.raises(DegenerateBoxError, match="all_in"):
        ear(grid_search(lambda k: True, BOX04), [1.0, 1.0])
    with pytest.raises(DegenerateBoxError, match="all_out"):
        ear(grid_search(lambda k: False, BOX04), [1.0, 1.0])


def test_ear_flags_upper_boundary_minimizers():
    approx = grid_search(half_space(7.0), BOX04)
    result = ear(approx, [1.0, 1.0])
    assert result.on_box_boundary  # minimizers (3,4)/(4,3) touch the box edge


def test_ear_lower_edge_exemption_under_nonneg_constraint():
    constrained = GridSpec([0.0, 0.0], [4.0, 4.0], 5, nonneg_constraint=True)
    approx = grid_search(half_space(2.0), constrained)
    assert not ear(approx, [1.0, 1.0]).on_box_boundary
    # same geometry without the constraint: touching k = 0 is suspicious
    plain = grid_search(half_space(2.0), BOX04)
    assert ear(plain, [1.0, 1.0]).on_box_boundary


def test_ear_record_is_json_ready():
    approx = grid_search(half_space(2.0), BOX04)
    record = ear_record(ear(approx, [2.0, 1.0]))
    text = json.dumps(record)
    back = json.loads(text)
    assert back["weights"] == [2.0, 1.0]
    assert back["minimizers"] == [[0.0, 2.0]]
    assert back["min_value"] == 2.0
    assert back["on_box_boundary"] is True  # (0, 2) touches k1 = 0 without the constraint


# ---------------------------------------------------------------------------
# pinned allocations


def test_pinned_model_holds_groups_fixed():
    rng = np.random.default_rng(444)
    scen = ScenarioMatrix(rng.normal(size=(6, 30)))
    full = AggregationValueModel(scen, AggregationSpec("loss", "sensitive"), GroupMap([2, 2, 2]))
    pinned = PinnedAllocationModel(full, {0: 0.5})
    assert pinned.n_groups == 2
    assert np.array_equal(pinned.samples_at([1.0, 2.0]), full.samples_at([0.5, 1.0, 2.0]))
    middle = PinnedAllocationModel(full, {1: 0.25})
    assert np.array_equal(middle.samples_at([1.0, 2.0]), full.samples_at([1.0, 0.25, 2.0]))


def test_pinned_model_validation():
    rng = np.random.default_rng(445)
    scen = ScenarioMatrix(rng.normal(size=(4, 10)))
    model = AggregationValueModel(scen, AggregationSpec("sum", "insensitive"), GroupMap([2, 2]))
    with pytest.raises(ParameterError):
        PinnedAllocationModel(model, {})
    with pytest.raises(ParameterError):
        PinnedAllocationModel(model, {0: 0.0, 1: 0.0})
    with pytest.raises(ParameterError):
        PinnedAllocationModel(model, {5: 0.0})
    pinned = PinnedAllocationModel(model, {0: 0.0})
    with pytest.raises(ParameterError):
        pinned.samples_at([1.0, 2.0])


def test_pinned_model_searchable():
    rng = np.random.default_rng(446)
    scen = ScenarioMatrix(rng.normal(size=(6, 100)))
    full = AggregationValueModel(scen, AggregationSpec("sum", "insensitive"), GroupMap([2, 2, 2]))
    pinned = PinnedAllocationModel(full, {2: 0.0})
    spec = AcceptanceSpec("avar", lam=0.2)
    approx = grid_search(membership_oracle(pinned, spec), GridSpec([0.0, 0.0], [20.0, 20.0], 9))
    assert approx.degenerate is None or approx.degenerate == "all_in"


# ---------------------------------------------------------------------------
# quasi-convexity probe


class _MaxModel:
    """Convex (not concave) aggregation: worst case for the blending inequality."""

    n_groups = 2

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)  # firms x scenarios

    def samples_at(self, k):
        k = np.asarray(k, dtype=float)
        return (self.values + k[:, None]).max(axis=0)

    def blend(self, other, alpha):
        return _MaxModel(alpha * self.values + (1.0 - alpha) * other.values)


def _two_group_models(seed_a, seed_b):
    groups = GroupMap([2, 2])
    spec = AggregationSpec("sum", "sensitive")
    a = AggregationValueModel(
        ScenarioMatrix(np.random.default_rng(seed_a).normal(size=(4, 60))), spec, groups
    )
    b = AggregationValueModel(
        ScenarioMatrix(np.random.default_rng(seed_b).normal(size=(4, 60))), spec, groups
    )
    return a, b


def test_probe_concave_aggregation_has_zero_violations():
    a, b = _two_group_models(10, 11)
    spec = AcceptanceSpec("avar", lam=0.25)
    grid = GridSpec([0.0, 0.0], [3.0, 3.0], 10)
    report = quasiconvexity_probe(a, b, 0.5, spec, grid)
    assert report.total_points == 100
    assert report.violations.shape == (0, 2)
    assert 0 < report.checked <= report.total_points


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_probe_endpoint_blends_cannot_violate(alpha):
    a, b = _two_group_models(12, 13)
    spec = AcceptanceSpec("avar", lam=0.25)
    grid = GridSpec([0.0, 0.0], [3.0, 3.0], 6)
    report = quasiconvexity_probe(a, b, alpha, spec, grid)
    assert report.violations.shape[0] == 0


def test_probe_flags_convex_aggregation():
    # max-aggregation: each input is fine on its own, the average is not
    a = _MaxModel([[0.0], [-10.0]])
    b = _MaxModel([[-10.0], [0.0]])
    spec = AcceptanceSpec("avar", lam=0.5)
    grid = GridSpec([0.0, 0.0], [1.0, 1.0], 2)
    report = quasiconvexity_probe(a, b, 0.5, spec, grid)
    assert report.checked >= 1
    assert report.violations.shape[0] >= 1
    assert [0.0, 0.0] in report.violations.tolist()


def test_probe_matches_pointwise_scan():
    rng = np.random.default_rng(716)
    grid = GridSpec([0.0, 0.0], [2.0, 2.0], 7)
    cases = [(*_two_group_models(16, 17), AcceptanceSpec("avar", lam=lam)) for lam in (0.1, 0.5)]
    for _ in range(12):  # convex max-aggregation pairs, which do violate
        cases.append((
            _MaxModel(rng.normal(-1.0, 1.0, size=(2, 5))),
            _MaxModel(rng.normal(-1.0, 1.0, size=(2, 5))),
            AcceptanceSpec("avar", lam=float(rng.uniform(0.2, 0.8))),
        ))
    violating = 0
    for a, b, spec in cases:
        for alpha in (0.0, 0.3, 0.5):
            report = quasiconvexity_probe(a, b, alpha, spec, grid)
            checked, total, violations = oracles.probe_scan(
                *(membership_oracle(m, spec) for m in (a, b, a.blend(b, alpha))), grid.axes()
            )
            assert (report.checked, report.total_points) == (checked, total)
            assert np.array_equal(report.violations, violations)
            violating += violations.shape[0] > 0
    assert violating > 0


class _CountingModel:
    """Pass-through model counting samples_at calls, blends included, in one shared list."""

    def __init__(self, model, calls):
        self.model = model
        self.calls = calls
        self.n_groups = model.n_groups

    def samples_at(self, k):
        self.calls.append(k)
        return self.model.samples_at(k)

    def blend(self, other, alpha):
        return _CountingModel(self.model.blend(other.model, alpha), self.calls)


def test_probe_costs_no_more_than_three_searches():
    a, b = _two_group_models(18, 19)
    spec = AcceptanceSpec("avar", lam=0.25)
    grid = GridSpec([0.0, 0.0], [3.0, 3.0], 30)
    searches = [grid_search(membership_oracle(m, spec), grid) for m in (a, b, a.blend(b, 0.5))]
    assert all(s.degenerate is None for s in searches)
    calls = []
    counted = [_CountingModel(m, calls) for m in (a, b)]
    report = quasiconvexity_probe(*counted, 0.5, spec, grid)
    assert report.total_points == 900
    assert len(calls) <= sum(s.oracle_calls for s in searches)
    assert len(calls) < report.checked  # far fewer calls than points checked


def test_probe_alpha_validation():
    a, b = _two_group_models(14, 15)
    with pytest.raises(ParameterError):
        quasiconvexity_probe(a, b, 1.5, AcceptanceSpec("avar", lam=0.5), BOX04)


# ---------------------------------------------------------------------------
# dataset writers


def test_frontier_csv_format(tmp_path):
    approx = grid_search(half_space(2.0), BOX04)
    path = tmp_path / "inner.csv"
    write_frontier_csv(approx.inner_frontier, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k_1,k_2"
    assert lines[1:] == ["0.0,2.0", "1.0,1.0", "2.0,0.0"]


def test_frontier_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    write_frontier_csv(np.empty((0, 2)), path)
    assert path.read_text() == "k_1,k_2\n"


def test_labels_csv_format(tmp_path):
    approx = grid_search(half_space(2.0), GridSpec([0.0, 0.0], [1.0, 1.0], 2))
    path = tmp_path / "labels.csv"
    write_labels_csv(approx, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k_1,k_2,label"
    assert lines[1:] == ["0.0,0.0,0", "0.0,1.0,0", "1.0,0.0,0", "1.0,1.0,1"]
