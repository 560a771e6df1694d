"""Scalar risk functionals: pinned values, oracle cross-checks, axioms."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sysrisk import (
    AcceptanceSpec,
    ConfigurationError,
    ConvergenceError,
    ParameterError,
    acceptance,
    avar,
    entropic_rho,
    is_acceptable,
    oce_rho,
    rho,
    ubsr,
)
from sysrisk.acceptance import OCE_ETA_TOL, TIE_TOLERANCE, UBSR_WIDTH_TOL, bracket_verdict
from sysrisk.config import build_run, resolve_config
from sysrisk.presets import preset_config
from sysrisk.riskmeasure import grid_search


def random_vectors(seed, count, size_range=(1, 60), scale=5.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(*size_range))
        out.append(rng.normal(0.0, scale, size=n))
    return out


def folded(**block) -> AcceptanceSpec:
    """The criterion an acceptance block resolves to; a loss or utility named in it folds."""
    cfg = preset_config("agg_lognormal:sum")
    cfg["acceptance"] = block
    acc = resolve_config(cfg)["acceptance"]
    return AcceptanceSpec(acc["criterion"], acc["shift"], lam=acc["lam"], power=acc["power"],
                          z=acc["z"], level=acc["level"])


def power_loss(power):
    return lambda t: np.maximum(t, 0.0) ** power


# ---------------------------------------------------------------------------
# average value at risk


def test_avar_constant_sample():
    assert avar([-1.0, -1.0, -1.0, -1.0], 0.5) == pytest.approx(1.0, abs=1e-15)


def test_avar_single_worst_outcome():
    # lam * n = 1 exactly: tail is the one worst outcome
    assert avar([1.0, 2.0, 3.0, 4.0], 0.25) == pytest.approx(-1.0, abs=1e-15)


def test_avar_mean_of_worst_half():
    assert avar([-2.0, 0.0, 2.0, 4.0], 0.5) == pytest.approx(1.0, abs=1e-15)


def test_avar_fractional_tail_weight():
    # lam * n = 1.2: full weight on the worst outcome, 0.2 on the next
    m = np.array([-10.0, -5.0, 1.0, 2.0])
    expected = -(-10.0 + 0.2 * -5.0) / 1.2
    assert avar(m, 0.3) == pytest.approx(expected, abs=1e-12)
    assert avar(m, 0.3) == pytest.approx(oracles.avar_kink_scan(m, 0.3), abs=1e-12)


@pytest.mark.parametrize("lam", [0.01, 0.1, 0.25, 0.5, 0.9])
def test_avar_matches_minimization_oracle(lam):
    for m in random_vectors(seed=101, count=20):
        assert avar(m, lam) == pytest.approx(oracles.avar_kink_scan(m, lam), abs=1e-10)


def test_avar_order_independent():
    rng = np.random.default_rng(7)
    m = rng.normal(size=31)
    assert avar(m, 0.2) == avar(np.sort(m)[::-1], 0.2)


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, 1.3, math.nan])
def test_avar_rejects_bad_level(lam):
    with pytest.raises(ParameterError):
        avar([1.0, 2.0], lam)


def test_avar_rejects_degenerate_samples():
    with pytest.raises(ParameterError):
        avar([], 0.5)
    with pytest.raises(ParameterError):
        avar([1.0, math.nan], 0.5)
    with pytest.raises(ParameterError):
        avar([1.0, math.inf], 0.5)


def test_avar_dominates_empirical_var():
    # the tail average is at least as severe as the quantile itself
    for lam in (0.05, 0.25, 0.5):
        for m in random_vectors(seed=33, count=10, size_range=(5, 80)):
            var = -float(np.quantile(m, lam, method="inverted_cdf"))
            assert avar(m, lam) >= var - 1e-10


def test_avar_mixture_convexity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        alpha = float(rng.uniform())
        mixed = avar(alpha * a + (1 - alpha) * b, 0.2)
        assert mixed <= alpha * avar(a, 0.2) + (1 - alpha) * avar(b, 0.2) + 1e-8


# ---------------------------------------------------------------------------
# utility-based shortfall risk


def test_ubsr_constant_exp_unit_target():
    # spelled with the exp loss, shortfall risk resolves to the entropic risk at level -log z
    spec = folded(criterion="ubsr", loss="exp", z=1.0)
    for c in (-3.0, 0.0, 2.5):
        assert rho([c] * 5, spec) == pytest.approx(-c, abs=1e-9)


def test_ubsr_constant_exp_level_target():
    # z = exp(-0.9) shifts the root by the level
    spec = folded(criterion="ubsr", loss="exp", z=math.exp(-0.9))
    for c in (-1.0, 0.4):
        expected = 0.9 - c
        assert rho([c, c], spec) == pytest.approx(expected, abs=1e-9)


def test_ubsr_two_point_exp_closed_form():
    # solve 0.5 (e^{-m} + e^{2-m}) = 1 for m
    value = rho([0.0, -2.0], folded(criterion="ubsr", loss="exp", z=1.0))
    assert value == pytest.approx(math.log((1.0 + math.e**2) / 2.0), abs=1e-10)
    assert value == pytest.approx(1.433780830483027, abs=1e-10)


def test_ubsr_constant_power_closed_form():
    # mean(max(-c - m, 0)^p) = z at m = -c - z^(1/p)
    for power, z in ((1.0, 0.5), (2.0, 0.25), (3.0, 8.0)):
        for c in (-3.0, 0.0, 2.5):
            assert ubsr([c] * 4, power, z) == pytest.approx(-c - z ** (1.0 / power), abs=1e-9)


def test_ubsr_residual_postcondition():
    # the residual mean(l(-M - m)) - z changes sign within the value's error width
    rng = np.random.default_rng(5)
    for m in random_vectors(seed=55, count=15, scale=2.0):
        z = float(rng.uniform(0.2, 3.0))
        for power in (1.0, 2.0):
            root = ubsr(m, power, z)
            width = UBSR_WIDTH_TOL * max(1.0, abs(root))
            residual = [float(np.mean(power_loss(power)(-m - level))) - z
                        for level in (root - width, root + width)]
            assert residual[0] >= 0.0 >= residual[1]


@pytest.mark.parametrize(
    "loss,z",
    [
        ({"loss": "exp"}, 1.0),
        ({"loss": "exp"}, 0.3),
        ({"loss": "polynomial", "power": 2.0}, 0.7),
        ({"loss": "polynomial", "power": 1.0}, 1.4),
    ],
)
def test_ubsr_matches_brent_oracle(loss, z):
    # shortfall risk as configured with a named loss, against Brent's method on that loss
    spec = folded(criterion="ubsr", z=z, **loss)
    fn = np.exp if loss["loss"] == "exp" else power_loss(loss["power"])
    for m in random_vectors(seed=202, count=12, scale=2.0):
        assert rho(m, spec) == pytest.approx(oracles.ubsr_root(m, fn, z), abs=1e-8)


@pytest.mark.parametrize("power,z", [(2.0, 1e-4), (2.0, 1e-3), (1.0, 0.01)])
def test_ubsr_error_stays_within_its_budget(power, z):
    # a small z flattens the slope at the root, so a residual of 1e-10 there would
    # put the root some 1e-8 off; the bisection's final width bounds the error instead
    m = np.random.default_rng(41).normal(size=10_000)
    value = ubsr(m, power, z)
    exact = oracles.ubsr_root(m, power_loss(power), z)
    assert abs(value - exact) <= UBSR_WIDTH_TOL * max(1.0, abs(value))


def test_ubsr_rejects_nonfinite_target():
    with pytest.raises(ParameterError):
        ubsr([1.0], 2.0, math.nan)


@pytest.mark.parametrize("power,z", [(0.5, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                                     (2.0, 0.0), (2.0, -1.0), (2.0, math.inf)])
def test_ubsr_rejects_bad_power_and_target(power, z):
    with pytest.raises(ParameterError):
        ubsr([0.0, 1.0], power, z)


def test_ubsr_bracket_failure_on_unreachable_target():
    # the mean loss stays below z = 1.7e308 at every finite level: the bracket overflows
    with pytest.raises(ConvergenceError):
        ubsr([0.0], 1.0, 1.7e308)


def test_ubsr_reads_an_overflowed_sum_of_finite_losses_as_its_mean():
    # at the bracket end -2**1023 the two losses sum past the float range, though their mean,
    # 2**1023 - 1/2, is finite and below z: the end must not be taken as reaching z
    with pytest.raises(ConvergenceError):
        ubsr([0.0, 1.0], 1.0, 1.7e308)
    # a target the mean does reach there still has its root found
    assert ubsr([0.0, 1.0], 1.0, 5e307) == pytest.approx(-5e307, rel=1e-9)


# ---------------------------------------------------------------------------
# entropic criterion


def test_entropic_constant_sample():
    # rho = level - c for constant samples
    assert entropic_rho([0.9, 0.9], 0.9) == pytest.approx(0.0, abs=1e-9)
    assert entropic_rho([2.0], 0.9) == pytest.approx(-1.1, abs=1e-9)


def test_entropic_matches_closed_form():
    for m in random_vectors(seed=303, count=15, scale=1.5):
        for level in (0.0, 0.9, -1.2):
            assert entropic_rho(m, level) == pytest.approx(
                oracles.entropic_closed_form(m, level), abs=1e-9
            )


def test_entropic_equals_exp_shortfall_at_shifted_target():
    # the root of mean(e^(-M - m)) = z, found by Brent's method
    rng = np.random.default_rng(9)
    m = rng.normal(size=40)
    level = 0.9
    assert entropic_rho(m, level) == pytest.approx(
        oracles.ubsr_root(m, np.exp, math.exp(-level)), abs=1e-12
    )


def test_entropic_rejects_nonfinite_level():
    with pytest.raises(ParameterError):
        entropic_rho([1.0], math.inf)


# ---------------------------------------------------------------------------
# optimized certainty equivalent


def test_oce_constant_sample_any_utility():
    # the log utility, and the avar utility, which resolves to the avar criterion
    for spec in (AcceptanceSpec("oce"), folded(criterion="oce", utility="avar", utility_lam=0.3)):
        for c in (-10.0, 0.0, 4.5):
            assert rho([c, c, c], spec) == pytest.approx(-c, abs=1e-9)


def test_oce_two_point_log_utility_closed_form():
    # maximizer eta* = (3 - sqrt(5)) / 2 from the first-order condition
    eta = (3.0 - math.sqrt(5.0)) / 2.0
    expected = -(eta + 0.5 * (math.log(1.0 - eta) + math.log(3.0 - eta)))
    value = oce_rho([0.0, 2.0])
    assert value == pytest.approx(expected, abs=1e-9)
    assert value == pytest.approx(-0.6225719237799069, abs=1e-9)


def test_oce_matches_dense_grid_oracle():
    for m in random_vectors(seed=404, count=10, scale=1.0):
        mine = oce_rho(m)
        ref = oracles.oce_dense_scan(m, oracles.log1p_utility)
        assert mine == pytest.approx(ref, abs=1e-6)


def test_oce_avar_utility_recovers_avar():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        m = rng.normal(0.0, 4.0, size=n)
        lam = float(rng.uniform(0.05, 0.95))
        assert rho(m, folded(criterion="oce", utility="avar", utility_lam=lam)) == avar(m, lam)


def test_oce_log_utility_bracket_respects_domain():
    # min(M) + 1 caps the bracket; the value must still be finite and sane
    m = np.array([-0.5, 30.0])
    value = oce_rho(m)
    assert math.isfinite(value)
    assert value <= 0.5 + 1e-9  # eta = min(M) is always feasible


def _oce_edge_cases():
    rng = np.random.default_rng(31)
    big = 2.0**40  # float spacing 2.4e-4: the cap is the largest float below min(M) + 1
    return {
        # the benchmark workload's shape: the maximizer sits about 1e-4 below the pole
        "outlier_500_below": np.concatenate([[-500.0], rng.normal(0.0, 1.0, size=9999)]),
        "maximizer_at_lo": np.concatenate([np.zeros(9999), [1e-6]]),
        "maximizer_at_cap": big + np.concatenate([[0.0], np.full(9999, 600.0)]),
        "constant": np.full(25, 3.25),
    }


@pytest.mark.parametrize("scale", [0.1, 1.0, 5.0, 50.0])
def test_oce_newton_matches_golden_section_and_dense_scan(scale):
    for m in random_vectors(seed=int(10 * scale), count=5, scale=scale):
        mine = oce_rho(m)
        assert mine == pytest.approx(oracles.oce_golden(m, oracles.log1p_utility), abs=1e-9)
        assert mine == pytest.approx(oracles.oce_dense_scan(m, oracles.log1p_utility), abs=1e-9)


@pytest.mark.parametrize("name", list(_oce_edge_cases()))
def test_oce_newton_edge_cases_match_references(name):
    m = _oce_edge_cases()[name]
    mine = oce_rho(m)
    assert mine == pytest.approx(oracles.oce_golden(m, oracles.log1p_utility), abs=1e-9)
    assert mine == pytest.approx(oracles.oce_dense_scan(m, oracles.log1p_utility), abs=1e-9)


class _CountingLog1p:
    """Counts oce_rho's passes over the sample vector, of u and of u', through its helpers."""

    def __init__(self):
        self.passes = 0

    def wrap(self, helper):
        def counted(t):
            self.passes += 1
            return helper(t)
        return counted


def _count_passes(samples) -> int:
    counter = _CountingLog1p()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_log_utility", "_log_utility_slope"):
            patch.setattr(acceptance, name, counter.wrap(getattr(acceptance, name)))
        oce_rho(samples)
    return counter.passes


def test_oce_that_does_not_settle_is_a_convergence_error(monkeypatch):
    monkeypatch.setattr(acceptance, "OCE_MAX_PASSES", 1)
    with pytest.raises(ConvergenceError, match=r"^oce Newton iteration did not settle in 1 passes "
                                               r"\(bracket \[0\.0, 0\.999999999\]\)$"):
        oce_rho([0.0, 0.5, 1.0])


@pytest.mark.parametrize("magnitude", [1e7, 1e9, 1e12, -1e7, -1e9, -1e12])
def test_oce_returns_for_samples_of_large_magnitude(magnitude):
    # above about 8e6 the float spacing exceeds the eta tolerance, so a
    # stopping test on the bracket width alone never becomes true; from 1e9
    # on min(M) + 1 - 1e-9 rounds to the pole min(M) + 1, where the search starts
    m = magnitude + np.array([0.0, 5.0])
    passes = _count_passes(m)
    assert passes <= 40
    shifted = oce_rho([0.0, 5.0]) - magnitude
    assert oce_rho(m) == pytest.approx(shifted, abs=4 * abs(np.spacing(magnitude)))


def test_oce_newton_pass_count_on_the_exp_sensitive_case_study():
    # machine-independent cost gate: passes over the samples per criterion
    # evaluation, the final evaluation of u included (golden-section took about 49),
    # over the search's 28 evaluations and the 50 points of the lattice diagonal
    plan = build_run(resolve_config(preset_config("agg_lognormal:exp_sensitive")))
    vectors = []

    def oracle(k):
        samples = plan.model.samples_at(k)
        vectors.append(samples)
        return is_acceptable(samples, plan.acceptance)

    grid_search(oracle, plan.grid)
    for point in zip(*plan.grid.axes()):  # the lattice diagonal, which crosses the tie
        oracle(plan.grid.allocation(point))
    passes = [_count_passes(v) for v in vectors]
    assert len(passes) >= 30
    assert float(np.median(passes)) <= 10
    assert max(passes) <= 40


def test_oce_rejects_utilities_without_a_solver():
    # log1p is the OCE's utility; avar folds into the avar criterion, and no other is read
    with pytest.raises(ConfigurationError, match="acceptance.utility: must be one of"):
        folded(criterion="oce", utility="sqrt")


def test_log_utility_domain():
    out = acceptance._log_utility(np.array([-2.0, -1.0, 0.0, 1.0]))
    assert out.tolist() == [-math.inf, -math.inf, 0.0, pytest.approx(math.log(2.0))]
    slope = acceptance._log_utility_slope(np.array([0.0, 1.0, 3.0]))
    assert slope.tolist() == [1.0, 0.5, 0.25]


# ---------------------------------------------------------------------------
# criterion configuration and dispatch


def test_spec_dispatch_matches_direct_calls():
    rng = np.random.default_rng(31)
    m = rng.normal(size=25)
    pairs = [
        (AcceptanceSpec("avar", lam=0.1), avar(m, 0.1)),
        (AcceptanceSpec("ubsr", power=2.0, z=0.5), ubsr(m, 2.0, 0.5)),
        (AcceptanceSpec("ubsr", power=1.0, z=1.0), ubsr(m, 1.0, 1.0)),
        (AcceptanceSpec("oce"), oce_rho(m)),
        (AcceptanceSpec("entropic", level=0.9), entropic_rho(m, 0.9)),
    ]
    for spec, expected in pairs:
        assert rho(m, spec) == expected


@pytest.mark.parametrize(
    "kwargs",
    [
        {"criterion": "avar"},
        {"criterion": "avar", "lam": 0.0},
        {"criterion": "avar", "lam": 1.0},
        {"criterion": "ubsr", "power": 2.0},
        {"criterion": "ubsr", "z": 1.0},
        {"criterion": "ubsr", "power": 2.0, "z": -1.0},
        {"criterion": "ubsr", "power": 0.5, "z": 1.0},
        {"criterion": "ubsr", "power": math.inf, "z": 1.0},
        {"criterion": "ubsr", "power": 2.0, "z": math.nan},
        {"criterion": "entropic"},
        {"criterion": "entropic", "level": math.inf},
        {"criterion": "median"},
        {"criterion": "avar", "lam": 0.5, "shift": math.nan},
    ],
)
def test_spec_validation_rejects(kwargs):
    with pytest.raises(ParameterError):
        AcceptanceSpec(**kwargs)


@pytest.mark.parametrize("kwargs,message", [
    ({"criterion": "oce", "shift": -10.0, "lam": 0.5, "power": 3.0, "level": 2.0},
     "the oce criterion takes no lam, got 0.5"),
    ({"criterion": "avar", "lam": 0.01, "z": -5.0}, "the avar criterion takes no z, got -5.0"),
    ({"criterion": "ubsr", "power": 2.0, "z": 0.5, "level": 1.0},
     "the ubsr criterion takes no level, got 1.0"),
    ({"criterion": "entropic", "level": 0.9, "power": 2.0},
     "the entropic criterion takes no power, got 2.0"),
])
def test_spec_rejects_a_parameter_its_criterion_does_not_take(kwargs, message):
    # such a parameter would be recorded in the manifest and do nothing
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        AcceptanceSpec(**kwargs)


def test_entropic_constant_threshold():
    spec = AcceptanceSpec("entropic", level=0.9)
    assert is_acceptable([0.9, 0.9], spec)  # exact tie counts as acceptable
    assert is_acceptable([1.5, 1.5], spec)
    assert not is_acceptable([0.9 - 1e-6] * 2, spec)


def test_log_utility_floor_threshold():
    # expected-log-utility floor of -10 expressed as an additive shift
    spec = AcceptanceSpec("oce", shift=-10.0)
    assert is_acceptable([-10.0] * 3, spec)
    assert is_acceptable([-9.5] * 3, spec)
    assert not is_acceptable([-10.0 - 1e-6] * 3, spec)


def test_payment_floor_via_shift():
    # "pay at least 90% of promised": avar of payments + 0.9 * promised <= 0
    promised = 11.0
    spec = AcceptanceSpec("avar", lam=0.01, shift=0.9 * promised)
    full = np.full(500, promised)
    assert is_acceptable(full, spec)
    assert not is_acceptable(np.full(500, 0.89 * promised), spec)
    # one catastrophic scenario in 500 lands in the 1% tail and flips the rule
    dented = full.copy()
    dented[0] = 0.0
    assert not is_acceptable(dented, spec)


def test_tie_tolerance_direction():
    spec = AcceptanceSpec("avar", lam=0.5)
    assert is_acceptable([0.0, 0.0], spec)
    assert is_acceptable([-TIE_TOLERANCE / 2] * 2, spec)
    assert not is_acceptable([-1e-9] * 2, spec)


# ---------------------------------------------------------------------------
# shared axioms

# ubsr_exp and oce_avar are the criteria those older spellings resolve to
CRITERIA = [
    AcceptanceSpec("avar", lam=0.05),
    AcceptanceSpec("avar", lam=0.5),
    folded(criterion="ubsr", loss="exp", z=1.0),
    AcceptanceSpec("ubsr", power=2.0, z=0.5),
    AcceptanceSpec("ubsr", power=1.0, z=0.5),
    AcceptanceSpec("oce"),
    folded(criterion="oce", utility="avar", utility_lam=0.3),
    AcceptanceSpec("entropic", level=0.9),
]

CRITERION_IDS = [
    "avar05",
    "avar50",
    "ubsr_exp",
    "ubsr_poly",
    "ubsr_linear",
    "oce_log",
    "oce_avar",
    "entropic",
]


@pytest.mark.parametrize("spec", CRITERIA, ids=CRITERION_IDS)
def test_cash_invariance(spec):
    rng = np.random.default_rng(61)
    m = rng.normal(0.0, 1.5, size=37)
    base = rho(m, spec)
    for t in range(-5, 6):
        assert rho(m + t, spec) == pytest.approx(base - t, abs=1e-8)


@pytest.mark.parametrize("spec", CRITERIA, ids=CRITERION_IDS)
def test_monotonicity(spec):
    rng = np.random.default_rng(71)
    for _ in range(20):
        m = rng.normal(0.0, 2.0, size=29)
        bigger = m + rng.uniform(0.0, 3.0, size=29)
        assert rho(bigger, spec) <= rho(m, spec) + 1e-9


@pytest.mark.parametrize("spec", CRITERIA, ids=CRITERION_IDS)
def test_acceptability_monotone(spec):
    rng = np.random.default_rng(81)
    for _ in range(20):
        m = rng.normal(0.0, 2.0, size=23)
        bigger = m + rng.uniform(0.0, 2.0, size=23)
        if is_acceptable(m, spec):
            assert is_acceptable(bigger, spec)


@given(
    samples=st.lists(
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    shift_steps=st.integers(min_value=-5, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_avar_cash_invariance_property(samples, shift_steps):
    m = np.array(samples)
    assert avar(m + shift_steps, 0.25) == pytest.approx(
        avar(m, 0.25) - shift_steps, abs=1e-8
    )


def test_oce_eta_tolerance_is_sub_grid():
    # the eta search tolerance must beat the dense oracle's final grid step
    assert OCE_ETA_TOL < 1e-6


@pytest.mark.parametrize("spec", [AcceptanceSpec(criterion="oce"),
                                  AcceptanceSpec(criterion="ubsr", power=2.0, z=1.0)],
                         ids=["oce", "ubsr"])
def test_bracket_verdict_leaves_a_tie_within_the_criterion_error_open(spec):
    # lower = upper = one constant vector, so only slack and the criterion's own error
    # (the oce Newton step, the ubsr bisection width) stand between rho + shift and the
    # tie: a margin past slack but inside slack + own error is no verdict either way
    y = np.full(40, 0.75)
    slack = 1e-10
    risk = rho(y, spec)
    own = OCE_ETA_TOL if spec.criterion == "oce" else UBSR_WIDTH_TOL * max(1.0, abs(risk))
    for factor in (0.5, 2.0):  # inside the budget, then past it
        for sign in (1.0, -1.0):  # above the tie: unacceptable; below: acceptable
            margin = sign * (slack + factor * own)
            shifted = AcceptanceSpec(**{**spec.__dict__, "shift": TIE_TOLERANCE + margin - risk})
            expected = None if factor < 1.0 else sign < 0
            assert bracket_verdict(y, y, shifted, slack) == expected, (factor, sign)
