"""Aggregation value models: formulas, mode identities, monotonicity, concavity."""

import math

import numpy as np
import pytest

from sysrisk import (
    AggregationSpec,
    AggregationValueModel,
    ConfigurationError,
    GroupMap,
    ModelError,
    ParameterError,
    ScenarioMatrix,
    aggregate,
)

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
# scalar aggregation


def test_loss_aggregation_counts_only_shortfalls():
    assert aggregate([1.0, -2.0, -3.0], AggregationSpec("loss", "insensitive")) == -5.0


def test_exp_aggregation_two_firms():
    value = aggregate([0.0, -1.0], AggregationSpec("exp", "insensitive", theta=2.0))
    assert value == pytest.approx(1.0 - math.e**2, abs=1e-12)


def test_sum_decomposes_into_loss_plus_gains():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.normal(size=9)
        total = aggregate(x, AggregationSpec("sum", "insensitive"))
        shortfall = aggregate(x, AggregationSpec("loss", "insensitive"))
        assert total == pytest.approx(shortfall + np.maximum(x, 0.0).sum(), abs=1e-12)


def test_aggregate_rejects_nonfinite_wealth():
    with pytest.raises(ParameterError):
        aggregate([1.0, math.nan], SUM)


def test_exp_aggregation_overflow_is_diagnosed():
    with pytest.raises(ModelError, match="overflow"):
        aggregate([-1000.0], AggregationSpec("exp", "insensitive", theta=2.0))


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
# scenario blending (the convexity precondition for frontier geometry)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
def test_blend_superadditive_for_concave_aggregation(spec):
    # Lambda(alpha X + (1-alpha) X') >= alpha Lambda(X) + (1-alpha) Lambda(X')
    groups = GroupMap([3, 3])
    a = AggregationValueModel(random_matrix(81, scale=1.0), spec, groups)
    b = AggregationValueModel(random_matrix(82, scale=1.0), spec, groups)
    rng = np.random.default_rng(83)
    for _ in range(15):
        alpha = float(rng.uniform())
        k = rng.uniform(0.0, 1.0, size=2)
        mixed = a.blend(b, alpha).samples_at(k)
        split = alpha * a.samples_at(k) + (1 - alpha) * b.samples_at(k)
        assert (mixed >= split - 1e-9).all()


def test_blend_matches_direct_mixture_aggregation():
    groups = GroupMap([2, 2])
    spec = AggregationSpec("exp", "sensitive")
    a = AggregationValueModel(random_matrix(84, n_firms=4, scale=0.5), spec, groups)
    b = AggregationValueModel(random_matrix(85, n_firms=4, scale=0.5), spec, groups)
    alpha = 0.3
    k = np.array([0.2, 0.7])
    mixed_values = alpha * a.scenarios.values + (1 - alpha) * b.scenarios.values
    shifted = mixed_values + groups.expand(k)[:, None]
    direct = (1.0 - np.exp(spec.theta * np.maximum(-shifted, 0.0))).sum(axis=0)
    assert a.blend(b, alpha).samples_at(k) == pytest.approx(direct, abs=1e-12)


def test_blend_endpoint_alphas_recover_inputs():
    groups = GroupMap([2, 2])
    a = AggregationValueModel(random_matrix(86, n_firms=4), SUM, groups)
    b = AggregationValueModel(random_matrix(87, n_firms=4), SUM, groups)
    k = np.array([1.0, -1.0])
    assert a.blend(b, 1.0).samples_at(k) == pytest.approx(a.samples_at(k), abs=1e-12)
    assert a.blend(b, 0.0).samples_at(k) == pytest.approx(b.samples_at(k), abs=1e-12)


def test_blend_validation():
    groups = GroupMap([2, 2])
    a = AggregationValueModel(random_matrix(91, n_firms=4), SUM, groups)
    b = AggregationValueModel(random_matrix(92, n_firms=4), SUM, groups)
    with pytest.raises(ParameterError):
        a.blend(b, 1.5)
    other_spec = AggregationValueModel(
        random_matrix(92, n_firms=4), AggregationSpec("loss", "insensitive"), groups
    )
    with pytest.raises(ConfigurationError):
        a.blend(other_spec, 0.5)
    thinner = AggregationValueModel(random_matrix(93, n_firms=4, n_scenarios=10), SUM, groups)
    with pytest.raises(ConfigurationError):
        a.blend(thinner, 0.5)


def test_with_scenarios_swaps_the_draw_only():
    groups = GroupMap([1, 3])
    model = AggregationValueModel(
        random_matrix(94, n_firms=4), AggregationSpec("loss", "sensitive"), groups
    )
    fresh = random_matrix(95, n_firms=4)
    swapped = model.with_scenarios(fresh)
    assert swapped.spec == model.spec
    assert swapped.groups == model.groups
    assert swapped.scenarios is fresh


def test_model_is_usable_through_base_class_name():
    model = AggregationValueModel(random_matrix(96, n_firms=2), SUM, GroupMap([1, 1]))
    assert model.n_groups == 2
    assert model.samples_at([0.0, 0.0]).shape == (40,)
