"""Scalar risk functionals: pinned values, oracle cross-checks, axioms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sysrisk import (
    AcceptanceSpec,
    AvarUtility,
    ConvergenceError,
    ExpLoss,
    Log1pUtility,
    ParameterError,
    PolynomialLoss,
    avar,
    entropic_rho,
    is_acceptable,
    make_loss,
    make_utility,
    oce_rho,
    rho,
    ubsr,
)
from sysrisk.acceptance import OCE_ETA_TOL, TIE_TOLERANCE, UBSR_RESIDUAL_TOL


def random_vectors(seed, count, size_range=(1, 60), scale=5.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(*size_range))
        out.append(rng.normal(0.0, scale, size=n))
    return out


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
    for c in (-3.0, 0.0, 2.5):
        assert ubsr([c] * 5, ExpLoss(), 1.0) == pytest.approx(-c, abs=1e-9)


def test_ubsr_constant_exp_level_target():
    # z = exp(-0.9) shifts the root by the level
    for c in (-1.0, 0.4):
        expected = 0.9 - c
        assert ubsr([c, c], ExpLoss(), math.exp(-0.9)) == pytest.approx(expected, abs=1e-9)


def test_ubsr_two_point_exp_closed_form():
    # solve 0.5 (e^{-m} + e^{2-m}) = 1 for m
    value = ubsr([0.0, -2.0], ExpLoss(), 1.0)
    assert value == pytest.approx(math.log((1.0 + math.e**2) / 2.0), abs=1e-10)
    assert value == pytest.approx(1.433780830483027, abs=1e-10)


def test_ubsr_residual_postcondition():
    rng = np.random.default_rng(5)
    for m in random_vectors(seed=55, count=15, scale=2.0):
        z = float(rng.uniform(0.2, 3.0))
        root = ubsr(m, ExpLoss(), z)
        residual = abs(float(np.mean(np.exp(-m - root))) - z)
        assert residual <= UBSR_RESIDUAL_TOL


@pytest.mark.parametrize(
    "loss,z",
    [
        (ExpLoss(), 1.0),
        (ExpLoss(), 0.3),
        (PolynomialLoss(2.0), 0.7),
        (PolynomialLoss(1.0), 1.4),
    ],
)
def test_ubsr_matches_brent_oracle(loss, z):
    for m in random_vectors(seed=202, count=12, scale=2.0):
        assert ubsr(m, loss, z) == pytest.approx(oracles.ubsr_root(m, loss, z), abs=1e-8)


def test_ubsr_rejects_nonfinite_target():
    with pytest.raises(ParameterError):
        ubsr([1.0], ExpLoss(), math.nan)


def test_ubsr_bracket_failure_on_bounded_loss():
    # loss capped at 0.5 can never reach z = 1 on the lower side
    def capped(t):
        return np.minimum(np.exp(t), 0.5)

    with pytest.raises(ConvergenceError):
        ubsr([0.0, 1.0], capped, 1.0)


def test_ubsr_stall_on_step_loss():
    # a step loss jumps over z, so no root exists and bisection stalls
    def step(t):
        return np.where(np.asarray(t) >= 0.0, 1.0, 0.0)

    with pytest.raises(ConvergenceError):
        ubsr([0.0, 0.0], step, 0.5)


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
    # ubsr's bisection stops at a residual of UBSR_RESIDUAL_TOL in mean(e^(-M - m)),
    # whose slope at the root is -z, so its root lies within that residual / z
    rng = np.random.default_rng(9)
    m = rng.normal(size=40)
    level = 0.9
    z = math.exp(-level)
    assert entropic_rho(m, level) == pytest.approx(
        ubsr(m, ExpLoss(), z), abs=1.01 * UBSR_RESIDUAL_TOL / z
    )


def test_entropic_rejects_nonfinite_level():
    with pytest.raises(ParameterError):
        entropic_rho([1.0], math.inf)


# ---------------------------------------------------------------------------
# optimized certainty equivalent


def test_oce_constant_sample_any_utility():
    for u in (Log1pUtility(), AvarUtility(0.3)):
        for c in (-10.0, 0.0, 4.5):
            assert oce_rho([c, c, c], u) == pytest.approx(-c, abs=1e-9)


def test_oce_two_point_log_utility_closed_form():
    # maximizer eta* = (3 - sqrt(5)) / 2 from the first-order condition
    eta = (3.0 - math.sqrt(5.0)) / 2.0
    expected = -(eta + 0.5 * (math.log(1.0 - eta) + math.log(3.0 - eta)))
    value = oce_rho([0.0, 2.0], Log1pUtility())
    assert value == pytest.approx(expected, abs=1e-9)
    assert value == pytest.approx(-0.6225719237799069, abs=1e-9)


def test_oce_matches_dense_grid_oracle():
    for m in random_vectors(seed=404, count=10, scale=1.0):
        mine = oce_rho(m, Log1pUtility())
        ref = oracles.oce_dense_scan(m, oracles.log1p_utility)
        assert mine == pytest.approx(ref, abs=1e-6)


def test_oce_avar_utility_recovers_avar():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        m = rng.normal(0.0, 4.0, size=n)
        lam = float(rng.uniform(0.05, 0.95))
        assert oce_rho(m, AvarUtility(lam)) == pytest.approx(avar(m, lam), abs=1e-6)


def test_oce_log_utility_bracket_respects_domain():
    # min(M) + 1 caps the bracket; the value must still be finite and sane
    m = np.array([-0.5, 30.0])
    value = oce_rho(m, Log1pUtility())
    assert math.isfinite(value)
    assert value <= 0.5 + 1e-9  # eta = min(M) is always feasible


# ---------------------------------------------------------------------------
# loss and utility factories


def test_make_loss_exp():
    assert isinstance(make_loss("exp"), ExpLoss)


def test_make_loss_polynomial():
    loss = make_loss("polynomial", 2.0)
    assert isinstance(loss, PolynomialLoss)
    assert loss(np.array([-1.0, 3.0])) == pytest.approx([0.0, 9.0])


def test_make_loss_rejects_bad_input():
    with pytest.raises(ParameterError):
        make_loss("polynomial")
    with pytest.raises(ParameterError):
        make_loss("polynomial", 0.5)
    with pytest.raises(ParameterError):
        make_loss("huber")


def test_make_utility_log1p_domain():
    u = make_utility("log1p")
    out = u(np.array([-2.0, 0.0, 1.0]))
    assert out[0] == -math.inf
    assert out[1] == 0.0
    assert out[2] == pytest.approx(math.log(2.0))


def test_make_utility_avar_kink():
    u = make_utility("avar", 0.25)
    assert u(np.array([-1.0, 2.0])) == pytest.approx([-4.0, 0.0])


def test_make_utility_rejects_bad_input():
    with pytest.raises(ParameterError):
        make_utility("avar")
    with pytest.raises(ParameterError):
        make_utility("avar", 1.5)
    with pytest.raises(ParameterError):
        make_utility("sqrt")


# ---------------------------------------------------------------------------
# criterion configuration and dispatch


def test_spec_dispatch_matches_direct_calls():
    rng = np.random.default_rng(31)
    m = rng.normal(size=25)
    pairs = [
        (AcceptanceSpec("avar", lam=0.1), avar(m, 0.1)),
        (AcceptanceSpec("ubsr", loss="exp", z=1.0), ubsr(m, ExpLoss(), 1.0)),
        (
            AcceptanceSpec("ubsr", loss="polynomial", power=2.0, z=0.5),
            ubsr(m, PolynomialLoss(2.0), 0.5),
        ),
        (AcceptanceSpec("oce", utility="log1p"), oce_rho(m, Log1pUtility())),
        (
            AcceptanceSpec("oce", utility="avar", utility_lam=0.2),
            oce_rho(m, AvarUtility(0.2)),
        ),
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
        {"criterion": "ubsr", "loss": "exp"},
        {"criterion": "ubsr", "z": 1.0},
        {"criterion": "ubsr", "loss": "exp", "z": -1.0},
        {"criterion": "ubsr", "loss": "polynomial", "z": 1.0},
        {"criterion": "oce"},
        {"criterion": "oce", "utility": "avar"},
        {"criterion": "entropic"},
        {"criterion": "entropic", "level": math.inf},
        {"criterion": "median"},
        {"criterion": "avar", "lam": 0.5, "shift": math.nan},
    ],
)
def test_spec_validation_rejects(kwargs):
    with pytest.raises(ParameterError):
        AcceptanceSpec(**kwargs)


def test_entropic_constant_threshold():
    spec = AcceptanceSpec("entropic", level=0.9)
    assert is_acceptable([0.9, 0.9], spec)  # exact tie counts as acceptable
    assert is_acceptable([1.5, 1.5], spec)
    assert not is_acceptable([0.9 - 1e-6] * 2, spec)


def test_log_utility_floor_threshold():
    # expected-log-utility floor of -10 expressed as an additive shift
    spec = AcceptanceSpec("oce", utility="log1p", shift=-10.0)
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

CRITERIA = [
    AcceptanceSpec("avar", lam=0.05),
    AcceptanceSpec("avar", lam=0.5),
    AcceptanceSpec("ubsr", loss="exp", z=1.0),
    AcceptanceSpec("ubsr", loss="polynomial", power=2.0, z=0.5),
    AcceptanceSpec("oce", utility="log1p"),
    AcceptanceSpec("oce", utility="avar", utility_lam=0.3),
    AcceptanceSpec("entropic", level=0.9),
]

CRITERION_IDS = [
    "avar05",
    "avar50",
    "ubsr_exp",
    "ubsr_poly",
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
