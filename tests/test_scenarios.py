"""Scenario generation: copula correctness, margins, determinism."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

import oracles
from sysrisk import (
    CopulaSpec,
    GenerationError,
    ParameterError,
    ScaledBeta,
    ScenarioMatrix,
    ShiftedLognormal,
    beta_inverse_cdf,
    generate_scenarios,
    sample_equicorrelated_normals,
    write_scenario_csv,
)
from sysrisk import scenarios

MU_75 = 0.6744897501960817  # Phi^{-1}(0.75), pinned against the mpmath oracle


def test_quantile_constant_matches_oracle():
    assert MU_75 == pytest.approx(oracles.normal_quantile(0.75), abs=1e-15)
    assert float(special.ndtri(0.75)) == pytest.approx(MU_75, abs=1e-15)


# ---------------------------------------------------------------------------
# copula


def test_zero_correlation_rows_nearly_independent():
    spec = CopulaSpec(n_firms=4, pairwise_correlation=0.0, n_scenarios=100_000, seed=11)
    z = sample_equicorrelated_normals(spec)
    corr = np.corrcoef(z)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.abs(off).max() < 0.05


def test_pairwise_correlation_recovered():
    spec = CopulaSpec(n_firms=5, pairwise_correlation=0.8, n_scenarios=100_000, seed=3)
    z = sample_equicorrelated_normals(spec)
    corr = np.corrcoef(z)
    off = corr[~np.eye(5, dtype=bool)]
    assert np.abs(off - 0.8).max() < 0.02


def test_spearman_matches_gaussian_copula_value():
    # rank correlation survives the marginal transform
    spec = CopulaSpec(n_firms=2, pairwise_correlation=0.5, n_scenarios=100_000, seed=7)
    mat = generate_scenarios(spec, [ScaledBeta(2.0, 5.0), ShiftedLognormal(0.3)], [1, 1])
    rho_s, _ = stats.spearmanr(mat.values[0], mat.values[1])
    assert abs(rho_s - oracles.spearman_implied_by_gaussian(0.5)) < 0.03


def test_same_spec_bit_identical():
    spec = CopulaSpec(n_firms=3, pairwise_correlation=0.4, n_scenarios=500, seed=123)
    a = sample_equicorrelated_normals(spec)
    b = sample_equicorrelated_normals(spec)
    assert np.array_equal(a, b)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=20, deadline=None)
def test_determinism_any_seed(seed):
    spec = CopulaSpec(n_firms=2, pairwise_correlation=0.25, n_scenarios=64, seed=seed)
    assert np.array_equal(sample_equicorrelated_normals(spec), sample_equicorrelated_normals(spec))


def test_distinct_seeds_differ():
    a = sample_equicorrelated_normals(CopulaSpec(2, 0.1, 256, seed=1))
    b = sample_equicorrelated_normals(CopulaSpec(2, 0.1, 256, seed=2))
    assert not np.array_equal(a, b)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_firms=0, pairwise_correlation=0.5, n_scenarios=10, seed=1),
        dict(n_firms=2, pairwise_correlation=1.0, n_scenarios=10, seed=1),
        dict(n_firms=2, pairwise_correlation=-0.1, n_scenarios=10, seed=1),
        dict(n_firms=2, pairwise_correlation=0.5, n_scenarios=0, seed=1),
        dict(n_firms=2, pairwise_correlation=0.5, n_scenarios=10, seed=-1),
    ],
)
def test_copula_spec_validation(kwargs):
    with pytest.raises(ParameterError):
        CopulaSpec(**kwargs)


# ---------------------------------------------------------------------------
# margins


def test_shifted_lognormal_at_zero():
    # exp(Phi^{-1}(0.75)) - 1, pinned against the high-precision oracle
    margin = ShiftedLognormal(mu=MU_75, sigma=1.0, b=-1.0)
    expected = math.exp(oracles.normal_quantile(0.75)) - 1.0
    assert expected == pytest.approx(0.963031084158257, abs=1e-14)
    assert float(margin.transform(np.zeros(1))[0]) == pytest.approx(expected, abs=1e-12)


def test_scaled_beta_at_zero_is_median():
    margin = ScaledBeta(alpha=2.0, beta=5.0, scale=1.0, shift=0.0)
    value = float(margin.transform(np.zeros(1))[0])
    assert value == pytest.approx(0.26445, abs=1e-4)
    assert value == pytest.approx(oracles.beta_inverse_cdf_bisect(0.5, 2, 5), abs=1e-10)


def test_sigma_zero_degenerates_to_constant():
    margin = ShiftedLognormal(mu=0.3, sigma=0.0, b=2.0)
    z = np.array([-3.0, 0.0, 4.5])
    assert np.allclose(margin.transform(z), math.exp(0.3) + 2.0, rtol=0, atol=0)


def test_margin_validation():
    with pytest.raises(ParameterError):
        ShiftedLognormal(mu=0.0, sigma=-0.5)
    with pytest.raises(ParameterError):
        ScaledBeta(alpha=0.0, beta=5.0)
    with pytest.raises(ParameterError):
        ScaledBeta(alpha=2.0, beta=-1.0)
    with pytest.raises(ParameterError):
        ScaledBeta(alpha=2.0, beta=5.0, scale=0.0)


@pytest.mark.parametrize(
    "margin,cdf",
    [
        (
            ShiftedLognormal(mu=MU_75, sigma=1.0, b=-1.0),
            lambda v: special.ndtr((np.log(v + 1.0) - MU_75)),
        ),
        (
            ScaledBeta(alpha=2.0, beta=5.0, scale=0.14, shift=0.04),
            lambda v: special.betainc(2.0, 5.0, np.clip((v - 0.04) / 0.14, 0, 1)),
        ),
    ],
)
def test_margin_ks_distance(margin, cdf):
    """Empirical margin within the 95% Kolmogorov-Smirnov band at m = 1e5."""
    m = 100_000
    spec = CopulaSpec(n_firms=1, pairwise_correlation=0.0, n_scenarios=m, seed=42)
    values = generate_scenarios(spec, [margin], [1]).values[0]
    ks = stats.kstest(values, cdf).statistic
    assert ks < 1.63 / math.sqrt(m)


def test_nonfinite_margin_output_rejected():
    z = np.full((1, 4), 400.0)  # exp overflows float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the GenerationError is the only report
        with pytest.raises(GenerationError):
            ScenarioMatrix(ShiftedLognormal(mu=500.0).transform(z))


def test_nonfinite_generated_scenarios_rejected():
    margin = ShiftedLognormal(mu=800.0, sigma=0.01)  # exp overflows float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GenerationError):
            generate_scenarios(CopulaSpec(2, 0.3, 4, seed=5), [margin], [2])


def test_nonfinite_generated_scenarios_name_the_first_group_that_overflows():
    # groups 1 and 2 share the overflowing margin, one block, and group 0 is finite
    spec = CopulaSpec(5, 0.3, 4, seed=5)
    fine, overflowing = ShiftedLognormal(mu=0.0), ShiftedLognormal(mu=800.0, sigma=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GenerationError, match="margin of group 1 gives non-finite") as info:
            generate_scenarios(spec, [fine, overflowing, overflowing], [2, 1, 2])
    assert info.value.group == 1


def test_normals_equal_the_one_factor_formula():
    # the in-place construction against the textbook expression on a second stream of the seed
    spec = CopulaSpec(n_firms=6, pairwise_correlation=0.35, n_scenarios=301, seed=11)
    gen = np.random.Generator(np.random.Philox(spec.seed))
    common = gen.standard_normal((1, spec.n_scenarios))
    idiosyncratic = gen.standard_normal((spec.n_firms, spec.n_scenarios))
    expected = np.sqrt(0.35) * common + np.sqrt(1.0 - 0.35) * idiosyncratic
    assert np.array_equal(sample_equicorrelated_normals(spec), expected)


@pytest.mark.parametrize("m", [301, 2**15 + 7])
def test_generate_scenarios_equals_apply_marginal_of_the_normals(m):
    # each group's margin applied to its whole block of the copula's normals at once
    spec = CopulaSpec(n_firms=5, pairwise_correlation=0.2, n_scenarios=m, seed=12)
    margins = [ShiftedLognormal(MU_75, 1.0, -1.0), ScaledBeta(2.0, 5.0, 0.3)]
    generated = generate_scenarios(spec, margins, [3, 2]).values
    normals = sample_equicorrelated_normals(spec)
    assert np.array_equal(generated[:3], margins[0].transform(normals[:3]))
    assert np.array_equal(generated[3:], margins[1].transform(normals[3:]))


def test_generate_scenarios_group_expansion():
    spec = CopulaSpec(n_firms=5, pairwise_correlation=0.0, n_scenarios=50, seed=9)
    m1 = ShiftedLognormal(mu=0.0, sigma=0.0, b=0.0)   # constant 1
    m2 = ShiftedLognormal(mu=0.0, sigma=0.0, b=10.0)  # constant 11
    mat = generate_scenarios(spec, [m1, m2], [2, 3])
    assert mat.values.shape == (5, 50)
    assert np.all(mat.values[:2] == 1.0)
    assert np.all(mat.values[2:] == 11.0)


def test_generate_scenarios_validation():
    spec = CopulaSpec(n_firms=5, pairwise_correlation=0.0, n_scenarios=5, seed=9)
    with pytest.raises(ParameterError):
        generate_scenarios(spec, [ShiftedLognormal(0.0)], [2, 3])
    with pytest.raises(ParameterError):
        generate_scenarios(spec, [ShiftedLognormal(0.0)] * 2, [2, 2])


# ---------------------------------------------------------------------------
# scenario matrix container


def test_scenario_matrix_immutable():
    mat = ScenarioMatrix([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        mat.values[0, 0] = 99.0


def test_scenario_matrix_copies_the_callers_array():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    mat = ScenarioMatrix(arr)
    arr[0, 0] = 99.0
    assert np.array_equal(mat.values, [[1.0, 2.0], [3.0, 4.0]])
    assert arr.flags.writeable


def test_built_matrices_are_read_only():
    spec = CopulaSpec(n_firms=3, pairwise_correlation=0.2, n_scenarios=20, seed=13)
    generated = generate_scenarios(spec, [ShiftedLognormal(0.0)], [3])
    own = ScenarioMatrix(np.zeros((3, 20)))
    for mat in (generated, own, generated.scaled(0.5), generated.scaled(0.0)):
        assert not mat.values.flags.writeable
        with pytest.raises(ValueError):
            mat.values[0, 0] = 99.0


def test_scenario_matrix_shape_and_finiteness():
    with pytest.raises(GenerationError):
        ScenarioMatrix([1.0, 2.0])
    with pytest.raises(GenerationError):
        ScenarioMatrix([[np.inf, 1.0]])
    mat = ScenarioMatrix([[1.0, 2.0]])
    assert mat.n_firms == 1 and mat.n_scenarios == 2


def test_scenario_matrix_scaled():
    mat = ScenarioMatrix([[2.0, -4.0]])
    assert np.array_equal(mat.scaled(0.5).values, [[1.0, -2.0]])
    zero = mat.scaled(0.0).values  # +0.0 from one shared element, whatever the sign of v
    assert np.array_equal(zero, [[0.0, 0.0]]) and zero.strides == (0, 0) and not np.signbit(zero).any()
    assert mat.scaled(1.0) is mat  # immutable, so the same values need no copy
    with pytest.raises(ParameterError):
        mat.scaled(-1.0)


# ---------------------------------------------------------------------------
# beta inverse cdf


def test_beta_inverse_cdf_boundaries():
    assert beta_inverse_cdf(0.0, 2.0, 5.0) == 0.0
    assert beta_inverse_cdf(1.0, 2.0, 5.0) == 1.0


def test_beta_inverse_cdf_symmetry():
    assert beta_inverse_cdf(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-12)


def test_beta_inverse_cdf_median_against_quadrature():
    assert beta_inverse_cdf(0.5, 2.0, 5.0) == pytest.approx(
        oracles.beta_inverse_cdf_bisect(0.5, 2, 5), abs=1e-6
    )


def test_beta_inverse_cdf_residual_contract():
    rng = np.random.default_rng(5)
    u = rng.uniform(0.001, 0.999, size=200)
    for a, b in [(2.0, 5.0), (0.5, 0.5), (7.0, 1.2), (1.0, 1.0)]:
        x = beta_inverse_cdf(u, a, b)
        residual = np.abs(special.betainc(a, b, x) - u)
        assert residual.max() <= 1e-10


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 0.25)])
def test_beta_inverse_cdf_residual_contract_near_one_against_mpmath(a, b):
    # scipy's betainc errs by up to 2.8e-9 here at (0.5, 0.5), more than the contract;
    # the residual is taken at 40 digits, where no double meets it the fallback's bracket
    def cdf(x):
        return mpmath.betainc(a, b, 0, mpmath.mpf(float(x)), regularized=True)

    u = 1.0 - np.logspace(-13, -3, 25)
    x = beta_inverse_cdf(u, a, b)
    with mpmath.workdps(40):
        for ui, xi in zip(u, x):
            target = mpmath.mpf(float(ui))
            if abs(cdf(xi) - target) > 1e-10:
                assert cdf(np.nextafter(xi, 0.0)) <= target <= cdf(np.nextafter(xi, 1.0))


def test_beta_inverse_cdf_monotone_in_u():
    u = np.linspace(0.0, 1.0, 1000)
    x = beta_inverse_cdf(u, 2.0, 5.0)
    assert np.all(np.diff(x) >= 0)


def test_beta_inverse_cdf_validation():
    with pytest.raises(ParameterError):
        beta_inverse_cdf(0.5, -1.0, 2.0)
    with pytest.raises(ParameterError):
        beta_inverse_cdf(1.5, 2.0, 2.0)
    with pytest.raises(ParameterError):
        beta_inverse_cdf(-0.1, 2.0, 2.0)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.1, max_value=20.0),
       st.floats(min_value=0.1, max_value=20.0))
@example(u=0.99999, a=1.0, b=0.25)  # exact solution 1 - 1e-20: no double within 1e-8
@settings(max_examples=60, deadline=None)
def test_beta_inverse_cdf_roundtrip_property(u, a, b):
    x = beta_inverse_cdf(u, a, b)
    assert 0.0 <= x <= 1.0
    if abs(special.betainc(a, b, x) - u) > 1e-8:
        # the documented fallback: x is the closest representable solution,
        # so the CDF at its two neighbouring doubles brackets u
        below = special.betainc(a, b, np.nextafter(x, 0.0))
        above = special.betainc(a, b, np.nextafter(x, 1.0))
        assert below <= u <= above


# Shapes across the property test's range [0.1, 20]^2, with the preset shape first.
TAIL_SHAPES = [(2.0, 5.0), (0.1, 0.1), (0.1, 20.0), (20.0, 0.1), (20.0, 20.0),
               (1.0, 0.25), (0.5, 0.5), (7.0, 1.2)]


@pytest.mark.parametrize("a,b", TAIL_SHAPES)
def test_beta_inverse_cdf_tails(a, b):
    u = np.array([0.0, 5e-324, 1e-300, 1e-17, 1.0 - 2.0**-53, 1.0])
    x = beta_inverse_cdf(u, a, b)
    assert x[0] == 0.0 and x[-1] == 1.0
    assert np.all((0.0 <= x) & (x <= 1.0)) and np.all(np.diff(x) >= 0)
    for ui, xi in zip(u, x):
        if abs(special.betainc(a, b, xi) - ui) > 1e-10:
            # the documented fallback: the closest representable solution
            below = special.betainc(a, b, np.nextafter(xi, 0.0))
            above = special.betainc(a, b, np.nextafter(xi, 1.0))
            assert below <= ui <= above


@pytest.mark.parametrize("a,b", TAIL_SHAPES)
def test_beta_inverse_cdf_monotone_where_the_cdf_is_flat(a, b):
    x = beta_inverse_cdf(np.linspace(1.0 - 1e-6, 1.0, 20_001), a, b)
    assert np.all(np.diff(x) >= 0)
    assert x[-1] == 1.0


@pytest.mark.parametrize("a,b", TAIL_SHAPES)
def test_beta_inverse_cdf_matches_library_inverse(a, b):
    u = np.linspace(0.0, 1.0, 1001)
    assert np.abs(beta_inverse_cdf(u, a, b) - special.betaincinv(a, b, u)).max() <= 1e-12


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("a,b", TAIL_SHAPES)
def test_beta_inverse_cdf_edge_values_do_not_depend_on_their_call(a, b):
    # the median, both ends, the least subnormal and the last double below 1, in one call
    u = np.array([0.5, 0.0, 1.0, 5e-324, 1.0 - 2.0**-53])
    together = beta_inverse_cdf(u, a, b)
    for ui, xi in zip(u, together):
        assert bits(beta_inverse_cdf(ui, a, b)) == bits(xi), ui


@pytest.mark.parametrize("a,b", [(2.0, 5.0), (0.5, 0.5)])
def test_beta_inverse_cdf_blocks_with_an_empty_half(a, b):
    # a block of u <= 1/2 alone, then one of u > 1/2 alone, split at the block boundary
    block = scenarios._NEWTON_BLOCK
    rng = np.random.default_rng(29)
    low = rng.uniform(0.0, 0.5, block)
    low[:2] = 0.0, 0.5
    high = np.nextafter(rng.uniform(0.5, 1.0, 300), 1.0)
    high[:1] = 1.0
    u = np.concatenate([low, high])
    whole = beta_inverse_cdf(u, a, b)
    assert np.array_equal(bits(beta_inverse_cdf(low, a, b)), bits(whole[:block]))
    assert np.array_equal(bits(beta_inverse_cdf(high, a, b)), bits(whole[block:]))
    assert np.array_equal(bits(beta_inverse_cdf(u[::-1], a, b)), bits(whole[::-1]))
    for i in (0, 1, 2, block - 1, block, block + 1, len(u) - 1):
        assert bits(beta_inverse_cdf(u[i], a, b)) == bits(whole[i]), i


@pytest.mark.parametrize("chunk", [64, scenarios._CHUNK])
def test_one_start_table_per_shape_pair_and_draw(monkeypatch, chunk):
    # three Beta(2, 5) groups, each its own scale and shift and so its own run, with rows
    # wider than a transform call: one table serves the whole draw however it is cut
    built = []
    inverse_table = scenarios._inverse_table
    monkeypatch.setattr(scenarios, "_inverse_table",
                        lambda a, b: built.append((a, b)) or inverse_table(a, b))
    monkeypatch.setattr(scenarios, "_CHUNK", chunk)
    margins = [ScaledBeta(2.0, 5.0, 0.14, 0.04), ShiftedLognormal(0.3),
               ScaledBeta(2.0, 5.0, 0.3), ScaledBeta(2.0, 5.0, 1.0, -0.5)]
    spec = CopulaSpec(6, 0.2, chunk + 7, seed=13)
    values = generate_scenarios(spec, margins, [2, 1, 1, 2]).values
    assert built == [(2.0, 5.0)]
    normals = sample_equicorrelated_normals(spec)
    assert np.array_equal(values[5], margins[3].transform(normals[5]))


def test_beta_rows_do_not_depend_on_their_call():
    # a row inverted alone, in its group's block and in the whole matrix: the same bits
    spec = CopulaSpec(7, 0.3, 1001, seed=4)
    normals = sample_equicorrelated_normals(spec)
    first, second = ScaledBeta(2.0, 5.0, 0.14, 0.04), ScaledBeta(2.0, 5.0, 0.3, 0.0)
    whole = generate_scenarios(spec, [first, second], [4, 3]).values
    block = second.transform(normals[4:])
    for i in range(4, 7):
        alone = second.transform(normals[i])
        assert np.array_equal(alone, block[i - 4]) and np.array_equal(alone, whole[i])
    u = special.ndtr(normals[:4])
    together = beta_inverse_cdf(u, 2.0, 5.0)
    for i in range(4):
        assert np.array_equal(beta_inverse_cdf(u[i], 2.0, 5.0), together[i])
        assert np.array_equal(beta_inverse_cdf(u[i, 500:], 2.0, 5.0), together[i, 500:])


@pytest.mark.parametrize("margins,m", [
    ([ShiftedLognormal(MU_75, 1.0, -1.0)] * 5, 777),
    ([ScaledBeta(2.0, 5.0)] * 5, 777),
    ([ScaledBeta(2.0, 5.0), ShiftedLognormal(0.3)] * 3, 501),  # alternating groups
    ([ScaledBeta(2.0, 5.0)] * 2 + [ShiftedLognormal(0.3)] * 2, 2**15 + 7),  # rows wider than a call
], ids=["lognormal", "beta", "alternating", "wide"])
def test_apply_marginal_equals_per_row_transform(margins, m):
    # generate_scenarios with one firm per group, against each margin applied to its row alone
    spec = CopulaSpec(len(margins), 0.2, m, seed=8)
    normals = sample_equicorrelated_normals(spec)
    values = generate_scenarios(spec, margins, [1] * len(margins)).values
    for i, margin in enumerate(margins):
        assert np.array_equal(values[i], margin.transform(normals[i]))


# ---------------------------------------------------------------------------
# csv output


def test_write_scenario_csv(tmp_path):
    mat = ScenarioMatrix([[1.5, -2.25], [0.1, 0.2]])
    path = tmp_path / "scen.csv"
    write_scenario_csv(mat, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "firm_id,scenario_id,value"
    assert lines[1] == "1,1,1.5"
    assert len(lines) == 5
    # repr formatting roundtrips exactly
    assert float(lines[2].split(",")[2]) == -2.25
