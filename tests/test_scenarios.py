"""Scenario generation: copula correctness, margins, determinism."""

import math
import warnings

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
    apply_marginal,
    beta_inverse_cdf,
    generate_scenarios,
    sample_equicorrelated_normals,
    write_scenario_csv,
)

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
    values = apply_marginal(sample_equicorrelated_normals(spec), [margin]).values[0]
    ks = stats.kstest(values, cdf).statistic
    assert ks < 1.63 / math.sqrt(m)


def test_apply_marginal_length_mismatch():
    z = np.zeros((3, 5))
    with pytest.raises(ParameterError):
        apply_marginal(z, [ShiftedLognormal(0.0)] * 2)


def test_nonfinite_margin_output_rejected():
    z = np.full((1, 4), 400.0)  # exp overflows float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the GenerationError is the only report
        with pytest.raises(GenerationError):
            apply_marginal(z, [ShiftedLognormal(mu=500.0)])


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
    assert np.all(mat.scaled(0.0).values == 0.0)
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
