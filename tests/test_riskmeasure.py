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
    LiabilityNetwork,
    LinearSqrtPrice,
    ModelError,
    NetworkValueModel,
    ParameterError,
    ScenarioMatrix,
    build_run,
    ear,
    ear_record,
    grid_search,
    is_acceptable,
    membership_oracle,
    preset_config,
    resolve_config,
    rho,
    write_frontier_csv,
    write_labels_csv,
)
from sysrisk.riskmeasure import (
    ACCEPTABLE,
    UNACCEPTABLE,
    _finalize,
    _LabelStore,
    _walk,
)

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
    return 3 * (r1 + r2) // 2 + math.ceil(math.log2(r1)) + math.ceil(math.log2(r2)) - 3


def two_by_two_staircase(r, start):
    """An r x r truth whose threshold drops 2 every 2 columns from column start (0 or 1)."""
    corners = [(start + 2 * k, r - 2 * k - 1) for k in range(r // 2)]
    return oracles.upper_set_from_corners((r, r), corners)


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
    assert GridSpec([0.0, 1.0], 4.0, 5).upper == (4.0, 4.0)


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
    with pytest.raises(ParameterError, match="^resolution has 3 entries for 2 dimensions$"):
        GridSpec([0.0, 0.0], [4.0, 4.0], [5, 5, 5])
    with pytest.raises(ParameterError):
        GridSpec([0.0], [math.inf], 5)
    with pytest.raises(ParameterError, match="5 dimensions exceed the limit of 4"):
        GridSpec([0.0] * 5, [1.0] * 5, 3)
    assert GridSpec([0.0] * 4, [1.0] * 4, 3).ndim == 4


def test_grid_spec_rejects_fractional_resolution():
    with pytest.raises(ParameterError, match="resolution entries must be integers"):
        GridSpec([0.0, 0.0], [1.0, 1.0], [5.7, 5])
    with pytest.raises(ParameterError, match="resolution entries must be integers"):
        GridSpec([0.0], [1.0], math.nan)
    assert GridSpec([0.0, 0.0], [1.0, 1.0], [5.0, np.int64(3)]).resolution == (5, 3)


@pytest.mark.parametrize("resolution", [1e20, 2**63, [5, 2.0**63]])
def test_grid_spec_rejects_resolution_past_the_index_range(resolution):
    # casting such an entry to an index would wrap it negative, with a RuntimeWarning
    with pytest.raises(ParameterError, match=f"at most {np.iinfo(np.intp).max}, the index range"):
        GridSpec([0.0, 0.0], [1.0, 1.0], resolution)


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
    assert np.array_equal(approx.grid.spacing, [1.0, 1.0])
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
        assert np.allclose(approx.grid.spacing, h)
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
        assert approx.oracle_calls <= walk_bound(*shape)


@pytest.mark.parametrize("shape", [(2,), (3,), (9,), (16,), (33,)])
def test_one_dimensional_lattices(shape):
    (r,) = shape
    grid = unit_grid(shape)
    for t in range(r + 1):  # first acceptable index; 0 and r are degenerate boxes
        truth = (np.arange(r) >= t).astype(np.int8)
        approx = grid_search(staircase_oracle(truth, grid), grid)
        assert np.array_equal(approx.labels, truth)
        if 0 < t < r:
            assert_matches_truth(approx, truth)
        # the walk bisects its one line
        assert approx.oracle_calls <= math.ceil(math.log2(r + 1))


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
            # a fine staircase of steps 2 wide and 2 high, the costliest galloping legs,
            # from column 0 or after an empty column 0 and so after the two bisecting legs
            r = int(rng.integers(4, 21))
            shape = (r, r)
            truth = two_by_two_staircase(r, trial % 2)
        else:
            truth = random_staircase(rng, shape, max_corners=12)
        grid = unit_grid(shape)
        store = _LabelStore(staircase_oracle(truth, grid), grid)
        _walk(store)
        assert np.array_equal(store.labels, truth)
        assert store.calls <= walk_bound(*shape)


def test_walk_worst_case_after_an_empty_first_column():
    # the two bisecting legs cost more than 3/2 per step, so behind an empty column 0 the
    # 2 x 2 staircase passes floor(3 (r1 + r2) / 2), the worst case of a walk that only gallops
    grid = unit_grid((40, 40))
    for start, calls in [(0, 117), (1, 124)]:
        truth = two_by_two_staircase(40, start)
        store = _LabelStore(staircase_oracle(truth, grid), grid)
        _walk(store)
        assert np.array_equal(store.labels, truth)
        assert store.calls == calls
    assert 3 * (40 + 40) // 2 == 120 < 124 <= walk_bound(40, 40) == 129


def test_walk_bisects_until_a_threshold_is_known():
    # the shape of agg_lognormal:exp_sensitive at seed 1: the first 20 columns hold no
    # acceptable point. Galloping along the top row from column 0 and then down column 20
    # from its top would take 28 calls; bisecting both legs takes 22
    shape = (50, 50)
    thresholds = np.array([50] * 20 + [22, 21] + [20] * 28)
    truth = (np.arange(50) >= thresholds[:, None]).astype(np.int8)
    grid = unit_grid(shape)
    store = _LabelStore(staircase_oracle(truth, grid), grid)
    _walk(store)
    assert np.array_equal(store.labels, truth)
    assert store.calls == 22


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
        assert approx.oracle_calls <= slices * walk_bound(*shape[-2:])
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
    # search stays within one walk per slice
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
        assert fine.oracle_calls <= slices * walk_bound(*fine_shape[-2:])


def test_labels_independent_of_evaluation_order():
    # stores that already hold verdicts queried in random orders, as
    # neighbouring slices leave them, walk to the same labels, and the
    # walk's worst case holds whatever is already labelled
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


def test_mark_names_a_contradicting_index_in_plain_ints():
    # numpy indices, as np.unravel_index returns them, print as (2, 2), not (np.int64(2), ...)
    store = _LabelStore(None, GridSpec([0.0, 0.0], [1.0, 1.0], 3))
    store.mark((1, 1), ACCEPTABLE)
    with pytest.raises(ModelError, match=r"^membership oracle is not monotone: verdict at lattice "
                                         r"index \(2, 2\) contradicts an already-established "
                                         "label$"):
        store.mark(np.unravel_index(8, (3, 3)), UNACCEPTABLE)


def test_finalize_rejects_unlabeled_points():
    store = _LabelStore(half_space(2.0), BOX04)
    store.query((2, 2))
    with pytest.raises(ModelError, match="unlabeled"):
        _finalize(store)


def test_finalize_rejects_a_failed_sandwich_certificate():
    # the store's propagation never leaves such labels; set by hand, (0, 0) is maximal
    # unacceptable while (1, 1), one spacing up, is not acceptable
    store = _LabelStore(None, GridSpec([0.0, 0.0], [1.0, 1.0], 2))
    store.labels[...] = [[UNACCEPTABLE, ACCEPTABLE], [ACCEPTABLE, UNACCEPTABLE]]
    with pytest.raises(ModelError, match=r"^sandwich certificate failed at lattice index \(0, 0\): "
                                         "point plus one spacing is inside the box but not "
                                         "acceptable$"):
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
    # a box entirely inside or outside stays flagged on a finer lattice,
    # searched within the walk's worst case
    fine_grid = GridSpec([0.0, 0.0], [4.0, 4.0], 9)
    for oracle, flag, label in [(lambda k: True, "all_in", 1), (lambda k: False, "all_out", 0)]:
        coarse = grid_search(oracle, BOX04)
        fine = grid_search(oracle, fine_grid)
        assert fine.degenerate == coarse.degenerate == flag
        assert (fine.labels == label).all()
        assert fine.inner_frontier.shape == fine.outer_frontier.shape == (0, 2)
        assert fine.oracle_calls <= walk_bound(*fine_grid.resolution)


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
    # each weight is finite, but every cost w . m on the inner frontier is inf
    with pytest.raises(ParameterError, match="overflows on the inner frontier"):
        ear(approx, [1.7e308, 1.7e308])
    assert np.isfinite(ear(approx, [1e307, 1e307]).min_value)


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
# fixed groups


def test_grid_allocation_inserts_fixed_groups():
    first = GridSpec([0.0, 0.0], [4.0, 4.0], 3, fixed={0: 0.5})
    assert first.fixed == ((0, 0.5),)
    assert np.array_equal(first.allocation([1.0, 2.0]), [0.5, 1.0, 2.0])
    middle = GridSpec([0.0, 0.0], [4.0, 4.0], 3, fixed={1: 0.25})
    assert np.array_equal(middle.allocation([1.0, 2.0]), [1.0, 0.25, 2.0])
    ends = GridSpec([0.0], [4.0], 3, fixed={2: 3.0, 0: 1})  # stored sorted, values as floats
    assert ends.fixed == ((0, 1.0), (2, 3.0))
    assert np.array_equal(ends.allocation([2.0]), [1.0, 2.0, 3.0])
    assert np.array_equal(GridSpec([0.0], [4.0], 3).allocation([2.0]), [2.0])


def test_grid_fixed_validation():
    bad = [{2: 0.0}, {-1: 0.0}, {0: 0.0, 3: 0.0}, {0.0: 0.0}, {"0": 0.0},
           {0: math.inf}, {0: math.nan}, {0: 10**400}, {0: "half"}, {0: None}]
    for fixed in bad:
        with pytest.raises(ParameterError, match="fixed"):
            GridSpec([0.0], [4.0], 3, fixed=fixed)
    # the free and fixed groups together must be the model's groups
    rng = np.random.default_rng(445)
    scen = ScenarioMatrix(rng.normal(size=(4, 10)))
    model = AggregationValueModel(scen, AggregationSpec("sum", "insensitive"), GroupMap([2, 2]))
    oracle = membership_oracle(model, AcceptanceSpec("avar", lam=0.2))
    with pytest.raises(ParameterError, match="3 entries for 2 groups"):
        grid_search(oracle, GridSpec([0.0, 0.0], [1.0, 1.0], 3, fixed={0: 0.0}))


def _small_network_model(rng):
    # six firms in three groups with defaults and price impact, so clearing brackets do work
    n = 6
    nominal = rng.uniform(0.0, 2.0, size=(n + 1, n + 1)) * (rng.random((n + 1, n + 1)) < 0.5)
    nominal[1:, 0] = rng.uniform(0.2, 1.0, size=n)
    nominal[0, :] = 0.0
    np.fill_diagonal(nominal, 0.0)
    network = LiabilityNetwork(nominal, groups=GroupMap([2, 2, 2]))
    x = rng.uniform(0.0, 0.8, size=(n, 40)) * network.pbar[1:, None]
    s = rng.uniform(0.0, 0.5, size=x.shape)
    return NetworkValueModel(network, ScenarioMatrix(x), ScenarioMatrix(s), LinearSqrtPrice())


def test_fixed_groups_search_like_the_hand_embedded_oracle():
    # the lattice inserts the fixed values; an oracle that inserts them itself must see the
    # same allocations in the same order, so labels and, for a network, clearing work agree
    rng = np.random.default_rng(446)
    scen = ScenarioMatrix(rng.normal(size=(6, 100)))
    network = _small_network_model(rng)
    cases = [
        (lambda: AggregationValueModel(scen, AggregationSpec("loss", "sensitive"),
                                       GroupMap([2, 2, 2])),
         GridSpec([0.0, 0.0], [4.0, 4.0], 9, fixed={2: 0.5}), lambda k: [k[0], k[1], 0.5]),
        (lambda: AggregationValueModel(scen, AggregationSpec("exp", "sensitive"),
                                       GroupMap([2, 2, 2])),
         GridSpec([0.0], [6.0], 17, fixed={0: 1.0, 2: 0.0}), lambda k: [1.0, k[0], 0.0]),
        (lambda: NetworkValueModel(network.network, network.scenarios_x, network.scenarios_s,
                                   network.f),
         GridSpec([0.0, 0.0], [1.0, 1.0], 7, fixed={1: 0.3}), lambda k: [k[0], 0.3, k[1]]),
    ]
    for build, grid, embed in cases:
        centre = (np.array(grid.lower) + np.array(grid.upper)) / 2
        spec = AcceptanceSpec("avar", lam=0.2)
        spec = AcceptanceSpec("avar", lam=0.2, shift=-rho(build().samples_at(embed(centre)), spec))
        pinned, by_hand = build(), build()
        searched = grid_search(membership_oracle(pinned, spec), grid)
        inner = membership_oracle(by_hand, spec)
        free = GridSpec(grid.lower, grid.upper, grid.resolution)
        reference = grid_search(lambda k: inner(np.array(embed(k))), free)
        assert 0 < searched.labels.sum() < searched.labels.size
        assert np.array_equal(searched.labels, reference.labels)
        assert searched.oracle_calls == reference.oracle_calls
        assert pinned.stats == by_hand.stats


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


def _two_group_models(seed_a, seed_b, alpha):
    """Sum aggregations over two scenario draws X_a, X_b and over alpha * X_a + (1 - alpha) * X_b."""
    groups = GroupMap([2, 2])
    spec = AggregationSpec("sum", "sensitive")
    xa, xb = (np.random.default_rng(seed).normal(size=(4, 60)) for seed in (seed_a, seed_b))
    return [AggregationValueModel(ScenarioMatrix(x), spec, groups)
            for x in (xa, xb, alpha * xa + (1.0 - alpha) * xb)]


def _probe(models, spec, grid):
    return oracles.probe_scan(*(membership_oracle(m, spec) for m in models), grid.axes())


def test_probe_concave_aggregation_has_zero_violations():
    spec = AcceptanceSpec("avar", lam=0.25)
    grid = GridSpec([0.0, 0.0], [3.0, 3.0], 10)
    checked, total, violations = _probe(_two_group_models(10, 11, 0.5), spec, grid)
    assert total == 100
    assert violations.shape == (0, 2)
    assert 0 < checked <= total


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_probe_endpoint_blends_cannot_violate(alpha):
    spec = AcceptanceSpec("avar", lam=0.25)
    grid = GridSpec([0.0, 0.0], [3.0, 3.0], 6)
    _, _, violations = _probe(_two_group_models(12, 13, alpha), spec, grid)
    assert violations.shape[0] == 0


def test_probe_flags_convex_aggregation():
    # max-aggregation: each input is fine on its own, the average is not
    xa, xb = np.array([[0.0], [-10.0]]), np.array([[-10.0], [0.0]])
    models = [_MaxModel(x) for x in (xa, xb, 0.5 * xa + 0.5 * xb)]
    spec = AcceptanceSpec("avar", lam=0.5)
    checked, _, violations = _probe(models, spec, GridSpec([0.0, 0.0], [1.0, 1.0], 2))
    assert checked >= 1
    assert violations.shape[0] >= 1
    assert [0.0, 0.0] in violations.tolist()


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
