"""Aggregation value models: formulas, mode identities, monotonicity, concavity."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sysrisk import (
    AggregationSpec,
    AggregationValueModel,
    ConfigurationError,
    ConstantPrice,
    GenerationError,
    GroupMap,
    LiabilityNetwork,
    ModelError,
    NetworkValueModel,
    ParameterError,
    ScenarioMatrix,
)
from sysrisk.aggregation import _aggregate_array
from sysrisk.config import build_run, resolve_config
from sysrisk.presets import preset_config

SUM = AggregationSpec("sum", "insensitive")
ALL_SPECS = [
    AggregationSpec(kind, mode)
    for kind in ("sum", "loss", "exp")
    for mode in ("insensitive", "sensitive")
]
SPEC_IDS = [f"{s.kind}_{s.mode}" for s in ALL_SPECS]


def random_matrix(seed, n_firms=6, n_scenarios=40, scale=2.0):
    rng = np.random.default_rng(seed)
    return ScenarioMatrix(rng.normal(0.0, scale, size=(n_firms, n_scenarios)))


# ---------------------------------------------------------------------------
# one scenario: a wealth vector aggregated to one outcome


def aggregate_one(x, spec):
    # one firm per row of a one-scenario matrix, no capital
    model = AggregationValueModel(ScenarioMatrix(np.reshape(x, (-1, 1))), spec, GroupMap([len(x)]))
    (value,) = model.samples_at([0.0])
    return float(value)


def test_loss_aggregation_counts_only_shortfalls():
    assert aggregate_one([1.0, -2.0, -3.0], AggregationSpec("loss", "insensitive")) == -5.0


def test_exp_aggregation_two_firms():
    value = aggregate_one([0.0, -1.0], AggregationSpec("exp", "insensitive", theta=2.0))
    assert value == pytest.approx(1.0 - math.e**2, abs=1e-12)


def test_sum_decomposes_into_loss_plus_gains():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.normal(size=9)
        total = aggregate_one(x, AggregationSpec("sum", "insensitive"))
        shortfall = aggregate_one(x, AggregationSpec("loss", "insensitive"))
        assert total == pytest.approx(shortfall + np.maximum(x, 0.0).sum(), abs=1e-12)


def test_aggregate_rejects_nonfinite_wealth():
    # neither the scenarios nor the capital can carry a non-finite wealth into the aggregation
    with pytest.raises(GenerationError):
        aggregate_one([1.0, math.nan], SUM)
    model = AggregationValueModel(ScenarioMatrix([[1.0], [2.0]]), SUM, GroupMap([2]))
    with pytest.raises(ParameterError, match="not finite"):
        model.samples_at([math.inf])


def test_exp_aggregation_overflow_is_diagnosed():
    with pytest.raises(ModelError, match="overflow"):
        aggregate_one([-1000.0], AggregationSpec("exp", "insensitive", theta=2.0))


def test_spec_validation():
    with pytest.raises(ParameterError):
        AggregationSpec("median", "insensitive")
    with pytest.raises(ParameterError):
        AggregationSpec("sum", "both")
    with pytest.raises(ParameterError):
        AggregationSpec("exp", "sensitive", theta=0.0)


# ---------------------------------------------------------------------------
# group map


def test_group_map_expansion():
    groups = GroupMap([2, 3])
    assert groups.n_groups == 2
    assert groups.n_firms == 5
    assert np.array_equal(groups.expand([1.0, -2.0]), [1.0, 1.0, -2.0, -2.0, -2.0])
    assert np.array_equal(groups.firm_groups(), [0, 0, 1, 1, 1])


def test_group_map_expansion_is_monotone():
    groups = GroupMap([3, 1, 2])
    lo = groups.expand([0.0, 1.0, 2.0])
    hi = groups.expand([0.5, 1.0, 2.25])
    assert (hi >= lo).all()


def test_group_map_validation():
    with pytest.raises(ParameterError):
        GroupMap([])
    with pytest.raises(ParameterError):
        GroupMap([2, 0])
    with pytest.raises(ParameterError):
        GroupMap([-1])
    with pytest.raises(ParameterError):
        GroupMap([2, 2]).expand([1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# value models


def test_make_cvm_rejects_firm_count_mismatch():
    with pytest.raises(ConfigurationError):
        AggregationValueModel(random_matrix(0, n_firms=4), SUM, GroupMap([2, 3]))


def test_samples_at_rejects_wrong_allocation_size():
    model = AggregationValueModel(random_matrix(1, n_firms=4), SUM, GroupMap([2, 2]))
    with pytest.raises(ParameterError):
        model.samples_at([1.0, 2.0, 3.0])


def test_sum_modes_identical_bit_for_bit():
    scen = random_matrix(11)
    groups = GroupMap([2, 4])
    before = AggregationValueModel(scen, AggregationSpec("sum", "sensitive"), groups)
    after = AggregationValueModel(scen, AggregationSpec("sum", "insensitive"), groups)
    rng = np.random.default_rng(12)
    for _ in range(30):
        k = rng.uniform(-3.0, 3.0, size=2)
        assert np.array_equal(before.samples_at(k), after.samples_at(k))


def test_sum_sensitive_agrees_with_elementwise_route():
    # guard on the fast path: recompute Lambda(X + g(k)) without the identity
    scen = random_matrix(13)
    groups = GroupMap([3, 3])
    model = AggregationValueModel(scen, AggregationSpec("sum", "sensitive"), groups)
    rng = np.random.default_rng(14)
    for _ in range(20):
        k = rng.uniform(-2.0, 2.0, size=2)
        direct = (scen.values + groups.expand(k)[:, None]).sum(axis=0)
        assert model.samples_at(k) == pytest.approx(direct, abs=1e-10)


def test_loss_sensitive_dominated_by_insensitive_on_nonneg_capital():
    scen = random_matrix(21)
    groups = GroupMap([2, 2, 2])
    before = AggregationValueModel(scen, AggregationSpec("loss", "sensitive"), groups)
    after = AggregationValueModel(scen, AggregationSpec("loss", "insensitive"), groups)
    rng = np.random.default_rng(22)
    for _ in range(30):
        k = rng.uniform(0.0, 3.0, size=3)
        assert (before.samples_at(k) <= after.samples_at(k) + 1e-12).all()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
def test_modes_coincide_at_zero_capital(spec):
    scen = random_matrix(31)
    groups = GroupMap([3, 3])
    model = AggregationValueModel(scen, spec, groups)
    twin_mode = "sensitive" if spec.mode == "insensitive" else "insensitive"
    twin = AggregationValueModel(scen, AggregationSpec(spec.kind, twin_mode, spec.theta), groups)
    k0 = np.zeros(2)
    assert model.samples_at(k0) == pytest.approx(twin.samples_at(k0), abs=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
def test_model_monotone_in_capital(spec):
    scen = random_matrix(41)
    groups = GroupMap([2, 4])
    model = AggregationValueModel(scen, spec, groups)
    rng = np.random.default_rng(42)
    for _ in range(25):
        k = rng.uniform(-1.0, 2.0, size=2)
        bigger = k + rng.uniform(0.0, 1.5, size=2)
        assert (model.samples_at(k) <= model.samples_at(bigger) + 1e-12).all()


@pytest.mark.parametrize("kind", ["sum", "loss", "exp"])
def test_sensitive_models_midpoint_concave_in_capital(kind):
    scen = random_matrix(51, scale=1.0)
    groups = GroupMap([3, 3])
    model = AggregationValueModel(scen, AggregationSpec(kind, "sensitive"), groups)
    rng = np.random.default_rng(52)
    for _ in range(25):
        a = rng.uniform(-1.0, 1.5, size=2)
        b = rng.uniform(-1.0, 1.5, size=2)
        mid = model.samples_at((a + b) / 2.0)
        assert (mid >= (model.samples_at(a) + model.samples_at(b)) / 2.0 - 1e-9).all()


def test_insensitive_shift_is_exactly_linear():
    # integer scenario values and dyadic capital keep every term representable,
    # so the single-scalar shift of insensitive mode is bitwise exact
    rng = np.random.default_rng(61)
    scen = ScenarioMatrix(rng.integers(-8, 9, size=(6, 40)).astype(float))
    groups = GroupMap([2, 4])
    model = AggregationValueModel(scen, AggregationSpec("loss", "insensitive"), groups)
    k = np.array([0.5, -1.25])
    m = np.array([0.25, 2.0])
    shift = 2 * 0.25 + 4 * 2.0
    assert np.array_equal(model.samples_at(k + m), model.samples_at(k) + shift)
    # random draws still satisfy the identity to float cancellation error
    loose = AggregationValueModel(random_matrix(62), AggregationSpec("loss", "insensitive"), groups)
    delta = loose.samples_at(k + m) - loose.samples_at(k)
    assert delta == pytest.approx(np.full(40, shift), abs=1e-12)


def test_exp_sensitive_overflow_raises_model_error():
    scen = random_matrix(71, n_firms=2)
    model = AggregationValueModel(scen, AggregationSpec("exp", "sensitive"), GroupMap([1, 1]))
    with pytest.raises(ModelError):
        model.samples_at([-500.0, -500.0])


# ---------------------------------------------------------------------------
# sensitive loss/exp models: group block sums and the last-level memo

SENSITIVE = [AggregationSpec(kind, "sensitive") for kind in ("loss", "exp")]
GROUP_SHAPES = [(5,), (2, 3), (1, 3, 2)]
LEVELS = np.linspace(-1.0, 2.0, 7)  # shared levels, so later queries hit the memo


def sensitive_model(spec, sizes, seed=111):
    scen = random_matrix(seed, n_firms=sum(sizes), scale=1.0)
    return AggregationValueModel(scen, spec, GroupMap(sizes))


def walk_like_queries(rng, n_groups, count):
    # each query moves one group's level, as the staircase walk's legs do
    k = rng.choice(LEVELS, size=n_groups)
    for _ in range(count):
        k = k.copy()
        k[rng.integers(n_groups)] = rng.choice(LEVELS)
        yield k


def elementwise(model, k):
    shifted = model.scenarios.values + model.groups.expand(k)[:, None]
    return _aggregate_array(shifted, model.spec)


@pytest.mark.parametrize("sizes", GROUP_SHAPES, ids=str)
@pytest.mark.parametrize("spec", SENSITIVE, ids=lambda s: s.kind)
def test_sensitive_result_independent_of_earlier_queries(spec, sizes):
    model = sensitive_model(spec, sizes)
    rng = np.random.default_rng(112)
    for _ in range(6):
        for k in walk_like_queries(rng, len(sizes), 50):
            model.samples_at(k)
        k = rng.choice(LEVELS, size=len(sizes))
        fresh = AggregationValueModel(model.scenarios, spec, model.groups).samples_at(k)
        assert np.array_equal(model.samples_at(k), fresh)


@pytest.mark.parametrize("sizes", GROUP_SHAPES, ids=str)
@pytest.mark.parametrize("spec", SENSITIVE, ids=lambda s: s.kind)
def test_sensitive_result_is_a_fresh_array(spec, sizes):
    model = sensitive_model(spec, sizes)
    k = np.linspace(0.0, 1.0, len(sizes))
    first = model.samples_at(k)
    expected = first.copy()
    first[:] = 1e9
    second = model.samples_at(k)
    assert np.array_equal(second, expected)
    second += 1.0
    assert np.array_equal(model.samples_at(k), expected)


@pytest.mark.parametrize("sizes", GROUP_SHAPES, ids=str)
@pytest.mark.parametrize("spec", SENSITIVE, ids=lambda s: s.kind)
def test_sensitive_blocks_match_elementwise_aggregation(spec, sizes):
    # block sums reorder the column sums, so only the last bits may differ
    model = sensitive_model(spec, sizes)
    rng = np.random.default_rng(113)
    for k in walk_like_queries(rng, len(sizes), 40):
        assert model.samples_at(k) == pytest.approx(elementwise(model, k), abs=1e-10)


def test_sensitive_model_recomputes_only_changed_groups():
    model = sensitive_model(SENSITIVE[1], (2, 3))
    evaluated = []
    block_sum = model._block_sum

    def counting(j, level):
        evaluated.append((j, level))
        return block_sum(j, level)

    model._block_sum = counting
    for k in ([0.5, 1.0], [0.5, 1.5], [0.75, 1.5], [0.75, 1.5], [0.5, 1.0]):
        model.samples_at(k)
    assert evaluated == [(0, 0.5), (1, 1.0), (1, 1.5), (0, 0.75), (0, 0.5), (1, 1.0)]


@pytest.mark.parametrize("sizes", GROUP_SHAPES, ids=str)
def test_exp_sensitive_recovers_after_overflow(sizes):
    model = sensitive_model(AggregationSpec("exp", "sensitive"), sizes)
    k = np.linspace(0.0, 1.0, len(sizes))
    before = model.samples_at(k)
    with pytest.raises(ModelError, match="overflow"):
        model.samples_at(np.full(len(sizes), -500.0))
    # earlier groups in range, the last one overflowing
    with pytest.raises(ModelError, match="overflow"):
        model.samples_at(np.append(k[:-1], -500.0))
    assert np.array_equal(model.samples_at(k), before)
    other = k + 0.25
    assert model.samples_at(other) == pytest.approx(elementwise(model, other), abs=1e-10)


@pytest.mark.parametrize("spec", [*ALL_SPECS, "network"], ids=[*SPEC_IDS, "network"])
@pytest.mark.parametrize("k,entry", [
    ([math.nan, 0.0], 0), ([0.0, math.inf], 1), ([-math.inf, 1.0], 0), ([math.nan, math.nan], 0),
])
def test_samples_at_rejects_nonfinite_allocation(spec, k, entry):
    # a network clearing model, four firms owing society one unit each, takes the same check
    scenarios = random_matrix(115, n_firms=4)
    if spec == "network":
        nominal = np.zeros((5, 5))
        nominal[1:, 0] = 1.0
        holdings = ScenarioMatrix(np.abs(scenarios.values))
        model = NetworkValueModel(LiabilityNetwork(nominal, GroupMap([2, 2])), holdings, holdings,
                                  ConstantPrice())
    else:
        model = AggregationValueModel(scenarios, spec, GroupMap([2, 2]))
    with pytest.raises(ParameterError, match=f"allocation entry {entry} is not finite"):
        model.samples_at(k)
    assert model.stats.calls == 0


# ---------------------------------------------------------------------------
# sensitive loss/exp models: sorted prefix tables against the one-pass reference


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    n_scenarios=st.integers(1, 30),
    kind=st.sampled_from(["loss", "exp"]),
    data=st.data(),
)
def test_sensitive_tables_match_reference_property(seed, sizes, n_scenarios, kind, data):
    rng = np.random.default_rng(seed)
    scen = ScenarioMatrix(rng.normal(0.0, 2.0, size=(sum(sizes), n_scenarios)))
    model = AggregationValueModel(scen, AggregationSpec(kind, "sensitive"), GroupMap(sizes))
    levels = st.floats(-3.0, 3.0, allow_nan=False)
    for _ in range(4):
        k = np.array(data.draw(st.lists(levels, min_size=len(sizes), max_size=len(sizes))))
        np.testing.assert_allclose(model.samples_at(k), elementwise(model, k),
                                   rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("kind", ["loss", "exp"])
def test_sensitive_tables_handle_ties_at_the_level(kind):
    # integer wealth and integer levels put many entries exactly at -k, which lose nothing
    rng = np.random.default_rng(116)
    scen = ScenarioMatrix(rng.integers(-4, 5, size=(7, 60)).astype(float))
    groups = GroupMap([3, 1, 3])
    model = AggregationValueModel(scen, AggregationSpec(kind, "sensitive", theta=0.5), groups)
    for k in itertools.product([-2.0, 0.0, 1.0, 4.0], repeat=3):
        reference = elementwise(model, k)
        if kind == "loss":  # integer sums are exact in either order
            assert np.array_equal(model.samples_at(k), reference)
        else:
            np.testing.assert_allclose(model.samples_at(k), reference, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["loss", "exp"])
def test_sensitive_columns_without_loss_are_exactly_zero(kind):
    values = np.array([[1.0, -2.0, 3.0, -0.5], [0.0, 4.0, -1.0, 2.0]])
    model = AggregationValueModel(ScenarioMatrix(values), AggregationSpec(kind, "sensitive"),
                                  GroupMap([2]))
    for level in (-0.0, 0.5, 1.0, 2.0):
        no_loss = (values + level >= 0.0).all(axis=0)
        got = model.samples_at([level])
        assert (got[no_loss] == 0.0).all()
        assert (got[~no_loss] < 0.0).all()
    assert np.array_equal(model.samples_at([2.0]), np.zeros(4))


def test_sensitive_tables_are_built_once_per_group():
    model = sensitive_model(SENSITIVE[1], (1, 3, 2))
    assert model.stats.tables == 0  # built on first use, not in the constructor
    rng = np.random.default_rng(117)
    queries = list(walk_like_queries(rng, 3, 30))
    for k in queries:
        model.samples_at(k)
    changed = 3 + sum(int((a != b).sum()) for a, b in zip(queries, queries[1:]))
    assert (model.stats.calls, model.stats.block_sums, model.stats.tables) == (30, changed, 3)
    flat = AggregationValueModel(model.scenarios, AggregationSpec("exp", "insensitive"),
                                 model.groups)
    flat.samples_at([0.0, 1.0, 2.0])
    assert (flat.stats.calls, flat.stats.block_sums, flat.stats.tables) == (1, 0, 0)


def reference_table(block, spec):
    """The prefix table as np.sort and np.cumsum build it, with the column minima."""
    ordered = np.sort(block, axis=0)
    x_min = ordered[0].copy()
    if spec.kind == "exp":
        with np.errstate(over="ignore"):
            ordered = np.exp((ordered - x_min) * -spec.theta)
    table = np.zeros((len(ordered) + 1, ordered.shape[1]))
    np.cumsum(ordered, axis=0, out=table[1:])
    return x_min, table


@pytest.mark.parametrize("kind", ["loss", "exp"])
def test_prefix_tables_equal_the_sorted_cumulative_sums(kind):
    rng = np.random.default_rng(118)
    values = rng.normal(0.0, 3.0, size=(9, 300))
    values[4:, 0] = [-1e308, 1e308, 0.0, 0.0, 0.0]  # an infinite spread: exp underflows to 0
    values[4:, 1] = [-800.0] + [5.0] * 4  # a finite spread whose exp underflows to 0
    values[:6, 2] = -2.5  # ties
    spec = AggregationSpec(kind, "sensitive", theta=2.0)
    groups = GroupMap([1, 3, 5])
    model = AggregationValueModel(ScenarioMatrix(values), spec, groups)
    start = 0
    for j, size in enumerate(groups.group_sizes):
        x_min, table = model._build_table(j)
        ref_min, ref_table = reference_table(values[start:start + size], spec)
        assert np.array_equal(x_min, ref_min) and np.array_equal(table, ref_table)
        start += size
    if kind == "exp":  # in the last group only the minimum counts in those two columns
        assert (model._tables[2][1][1:, :2] == 1.0).all()


def test_exp_sensitive_preset_keeps_one_full_size_array_in_flight():
    # the draw and the prefix tables are built in place: beside what they keep,
    # at most 2 MB of temporaries (the matrix alone is 8 MB)
    resolved = resolve_config(preset_config("agg_lognormal:exp_sensitive"))
    build_run(resolved)  # any first-use costs of the build path are paid here
    tracemalloc.start()
    try:
        plan = build_run(resolved)
        build_peak = tracemalloc.get_traced_memory()[1]
        model = plan.model
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        model.samples_at(np.zeros(model.groups.n_groups))
        samples_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    mb = 2**20
    assert build_peak < plan.scenario_matrix.values.nbytes + 2 * mb
    assert samples_peak <= sum(table.nbytes for _, table in model._tables) + 2 * mb


def exp_overflow_model(sizes):
    values = np.zeros((sum(sizes), 5))
    values[-1, 2] = -400.0
    values[0, 3] = -1.5
    spec = AggregationSpec("exp", "sensitive", theta=2.0)
    return AggregationValueModel(ScenarioMatrix(values), spec, GroupMap(sizes))


@pytest.mark.parametrize("sizes", [(2,), (1, 1), (3, 2)], ids=str)
@pytest.mark.parametrize("first", ["in range", "overflowing"])
def test_exp_sensitive_table_survives_a_worst_loss_past_the_float_range(sizes, first):
    # theta * 400 overflows exp, theta * 300 does not: the table must be built
    # without overflow whichever level comes first
    model = exp_overflow_model(sizes)
    in_range, overflowing = np.full(len(sizes), 100.0), np.zeros(len(sizes))
    if first == "overflowing":
        with pytest.raises(ModelError, match="overflow"):
            model.samples_at(overflowing)
    got = model.samples_at(in_range)
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, elementwise(model, in_range), rtol=1e-12)
    with pytest.raises(ModelError, match="overflow"):
        model.samples_at(overflowing)
    with pytest.raises(ModelError, match="overflow"):
        elementwise(model, overflowing)


def test_exp_sensitive_raises_at_exactly_the_reference_levels():
    model = exp_overflow_model((2,))
    # theta * (400 - k) reaches log(float max) near k = 45.1; sweep 200 floats across it
    level = 400.0 - math.log(np.finfo(float).max) / 2.0
    for _ in range(100):
        level = np.nextafter(level, -np.inf)
    outcomes = set()
    for _ in range(200):
        try:
            elementwise(model, [level])
        except ModelError:
            with pytest.raises(ModelError, match="overflow"):
                model.samples_at([level])
            outcomes.add("raises")
        else:
            assert np.isfinite(model.samples_at([level])).all()
            outcomes.add("finite")
        level = np.nextafter(level, np.inf)
    assert outcomes == {"raises", "finite"}


# ---------------------------------------------------------------------------
# concavity over scenario draws (the convexity precondition for frontier geometry)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
def test_blend_superadditive_for_concave_aggregation(spec):
    # Lambda(alpha X + (1-alpha) X') >= alpha Lambda(X) + (1-alpha) Lambda(X')
    groups = GroupMap([3, 3])
    xa, xb = random_matrix(81, scale=1.0), random_matrix(82, scale=1.0)
    a = AggregationValueModel(xa, spec, groups)
    b = AggregationValueModel(xb, spec, groups)
    rng = np.random.default_rng(83)
    for _ in range(15):
        alpha = float(rng.uniform())
        k = rng.uniform(0.0, 1.0, size=2)
        mixed_values = alpha * xa.values + (1 - alpha) * xb.values
        mixed = AggregationValueModel(ScenarioMatrix(mixed_values), spec, groups).samples_at(k)
        split = alpha * a.samples_at(k) + (1 - alpha) * b.samples_at(k)
        assert (mixed >= split - 1e-9).all()


def test_model_is_usable_through_base_class_name():
    model = AggregationValueModel(random_matrix(96, n_firms=2), SUM, GroupMap([1, 1]))
    assert model.groups.n_groups == 2
    assert model.samples_at([0.0, 0.0]).shape == (40,)
