"""Network clearing: price curves, fixed points, equity, society value model."""

import itertools
import math
import re

import numpy as np
import pytest

from sysrisk import (
    AcceptanceSpec,
    ClearingStats,
    ConfigurationError,
    ConstantPrice,
    ConvergenceError,
    GenerationError,
    GridSpec,
    GroupMap,
    LiabilityNetwork,
    LinearCapPrice,
    LinearSqrtPrice,
    ModelError,
    NetworkValueModel,
    ParameterError,
    ScenarioMatrix,
    TabulatedPrice,
    grid_search,
    is_acceptable,
    make_inverse_demand,
    membership_oracle,
    read_edge_csv,
    rho,
    validate_inverse_demand,
    write_edge_csv,
)
from sysrisk import clearing
from sysrisk.clearing import (
    _MONO_SLACK,
    _WARMUP_SWEEPS,
    _clear_constant_price,
    _paired,
    _Point,
    _top_down,
)
import oracles
from oracles import ClearingResult, clear, equity

UNIT_PRICE = ConstantPrice(1.0)


def two_firm_chain():
    # firm 1 owes firm 2 and society one unit each; firm 2 owes society one unit
    nominal = np.zeros((3, 3))
    nominal[1, 2] = 1.0
    nominal[1, 0] = 1.0
    nominal[2, 0] = 1.0
    return LiabilityNetwork(nominal)


def random_network(rng, n, scale=2.0):
    nominal = rng.uniform(0.0, scale, size=(n + 1, n + 1))
    nominal[0, :] = 0.0
    np.fill_diagonal(nominal, 0.0)
    return LiabilityNetwork(nominal, groups=GroupMap([1] * n))


def reciprocal_demand(y):
    return 1.0 / (1.0 + np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# inverse demand curves


def test_constant_price_is_flat_and_valid():
    f = ConstantPrice(0.8)
    assert f(0.0) == 0.8
    assert np.array_equal(f(np.array([0.0, 5.0])), [0.8, 0.8])
    validate_inverse_demand(f, 100.0)


def test_constant_price_rejects_nonpositive():
    with pytest.raises(ParameterError):
        ConstantPrice(0.0)


def test_linear_cap_price():
    f = LinearCapPrice(slope=0.1, floor=0.5)
    assert f(0.0) == 1.0
    assert f(2.0) == pytest.approx(0.8)
    assert f(100.0) == 0.5
    validate_inverse_demand(f, 50.0)
    with pytest.raises(ParameterError):
        LinearCapPrice(slope=-1.0, floor=0.5)
    with pytest.raises(ParameterError):
        LinearCapPrice(slope=0.1, floor=0.0)
    with pytest.raises(ParameterError):
        LinearCapPrice(slope=0.1, floor=1.2)


def test_linear_sqrt_branches_meet():
    f = LinearSqrtPrice()
    assert f(0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
    eps = 1e-12
    assert f(0.5 - eps) == pytest.approx(f(0.5 + eps), abs=1e-9)
    assert f(0.0) == 1.0
    assert f(2.0) == pytest.approx(math.sqrt(2.0) / (3.0 * math.sqrt(2.0)))
    validate_inverse_demand(f, 10.0)


def test_tabulated_price_interpolates():
    f = TabulatedPrice([0.0, 1.0, 2.0], [1.0, 0.8, 0.7])
    assert f(0.5) == pytest.approx(0.9)
    assert f(5.0) == pytest.approx(0.7)  # constant beyond the last knot
    validate_inverse_demand(f, 2.0)
    with pytest.raises(ParameterError):
        TabulatedPrice([0.0], [1.0])
    with pytest.raises(ParameterError):
        TabulatedPrice([0.0, 0.0], [1.0, 0.9])


def test_make_inverse_demand_kinds():
    assert isinstance(make_inverse_demand("constant", price=1.0), ConstantPrice)
    assert isinstance(make_inverse_demand("linear_cap", slope=1.0, floor=0.5), LinearCapPrice)
    assert isinstance(make_inverse_demand("linear_sqrt"), LinearSqrtPrice)
    assert isinstance(
        make_inverse_demand("tabulated", quantities=[0.0, 1.0], prices=[1.0, 0.5]),
        TabulatedPrice,
    )
    with pytest.raises(ParameterError):
        make_inverse_demand("linear_sqrt", slope=1.0)
    with pytest.raises(ParameterError):
        make_inverse_demand("quadratic")
    with pytest.raises(ParameterError, match="unknown inverse demand kind"):
        make_inverse_demand("cifuentes_piecewise")  # old alias of linear_sqrt


def test_validate_rejects_revenue_decreasing_curve():
    # f(y) = 1/y^2 makes revenue y*f(y) = 1/y fall as sales rise
    def f(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            return 1.0 / y**2

    with pytest.raises(ModelError):
        validate_inverse_demand(f, 5.0)


def test_validate_rejects_increasing_price():
    def f(y):
        return 1.0 + np.asarray(y, dtype=float)

    with pytest.raises(ModelError):
        validate_inverse_demand(f, 5.0)


def test_validate_rejects_nonpositive_price():
    def f(y):
        return 1.0 - np.asarray(y, dtype=float)

    with pytest.raises(ModelError):
        validate_inverse_demand(f, 5.0)


def test_validate_rejects_a_curve_that_returns_a_scalar():
    with pytest.raises(ModelError,
                       match="^inverse demand must map arrays to arrays of the same shape$"):
        validate_inverse_demand(lambda y: 1.0, 5.0)


def test_validate_zero_ymax_still_checks_unit_range():
    validate_inverse_demand(UNIT_PRICE, 0.0)

    def bad(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            return 1.0 / y**2

    with pytest.raises(ModelError):
        validate_inverse_demand(bad, 0.0)
    with pytest.raises(ParameterError):
        validate_inverse_demand(UNIT_PRICE, -1.0)


# ---------------------------------------------------------------------------
# network structure


def test_equal_split_relative_shares():
    nominal = np.zeros((3, 3))
    nominal[1, 2] = 1.0
    nominal[1, 0] = 1.0
    net = LiabilityNetwork(nominal)
    assert net.relative[1, 2] == 0.5
    assert net.relative[1, 0] == 0.5
    assert net.pbar[1] == 2.0
    assert net.society_promised == 1.0


def test_zero_obligation_row_stays_zero():
    nominal = np.zeros((3, 3))
    nominal[1, 0] = 3.0
    net = LiabilityNetwork(nominal)
    assert not net.relative[2].any()
    assert net.pbar[2] == 0.0


def test_relative_rows_sum_to_one_where_owing():
    rng = np.random.default_rng(8)
    net = random_network(rng, 5)
    sums = net.relative.sum(axis=1)
    owing = net.pbar > 0
    assert sums[owing] == pytest.approx(np.ones(owing.sum()), abs=1e-12)
    recovered = net.relative[owing] * net.pbar[owing][:, None]
    assert recovered == pytest.approx(net.nominal[owing], abs=1e-12)


def test_network_validation():
    with pytest.raises(ParameterError):
        LiabilityNetwork(np.zeros((2, 3)))
    with pytest.raises(ParameterError):
        LiabilityNetwork(np.zeros((1, 1)))
    with pytest.raises(ParameterError):
        LiabilityNetwork([[0.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(ParameterError):
        LiabilityNetwork([[0.0, 0.0], [1.0, 1.0]])  # diagonal
    with pytest.raises(ParameterError):
        LiabilityNetwork([[0.0, 1.0], [1.0, 0.0]])  # society owes
    with pytest.raises(ParameterError):
        LiabilityNetwork([[0.0, 0.0], [math.nan, 0.0]])
    with pytest.raises(ConfigurationError):
        LiabilityNetwork(np.zeros((3, 3)), groups=GroupMap([5]))


def test_nominal_matrix_is_immutable():
    net = two_firm_chain()
    with pytest.raises(ValueError):
        net.nominal[1, 0] = 9.0
    with pytest.raises(ValueError):  # payment_scale, read from pbar once, cannot go stale
        net.pbar[1] = 9.0


# ---------------------------------------------------------------------------
# clearing fixed point


def test_fully_solvent_network_pays_in_full():
    net = two_firm_chain()
    result = clear(net, x=[10.0, 10.0], s=[0.0, 0.0], f=UNIT_PRICE)
    assert result.p == pytest.approx(net.pbar[1:], abs=1e-12)
    assert result.pi == UNIT_PRICE(0.0)
    assert result.residual <= 1e-10


def test_two_firm_default_hand_case():
    net = two_firm_chain()
    result = clear(net, x=[0.5, 0.2], s=[0.0, 0.0], f=UNIT_PRICE)
    assert result.p == pytest.approx([0.5, 0.45], abs=1e-12)
    e = equity(net, [0.5, 0.2], [0.0, 0.0], UNIT_PRICE)
    assert e[0] == pytest.approx(0.70, abs=1e-12)


def test_fire_sale_single_firm():
    nominal = np.zeros((2, 2))
    nominal[1, 0] = 1.0
    net = LiabilityNetwork(nominal)
    result = clear(net, x=[0.0], s=[1.0], f=reciprocal_demand)
    assert result.pi == pytest.approx(0.5, abs=1e-10)
    assert result.p == pytest.approx([0.5], abs=1e-10)


def test_clearing_result_bounds():
    rng = np.random.default_rng(19)
    f = LinearSqrtPrice()
    for _ in range(20):
        n = int(rng.integers(2, 5))
        net = random_network(rng, n)
        x = rng.uniform(0.0, 1.0, size=n)
        s = rng.uniform(0.0, 1.0, size=n)
        res = clear(net, x, s, f)
        assert (res.p >= -1e-12).all()
        assert (res.p <= net.pbar[1:] + 1e-12).all()
        assert f(float(s.sum())) - 1e-12 <= res.pi <= f(0.0) + 1e-12


def test_matches_bottom_up_oracle_when_unique():
    # strictly positive cash makes the fixed point unique, so the greatest
    # fixed point from above must meet the least fixed point from below
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        net = random_network(rng, n)
        x = rng.uniform(0.05, 1.5, size=n)
        mine = clear(net, x, np.zeros(n), UNIT_PRICE, tol=1e-13).p
        ref = oracles.clear_bottom_up(net.nominal, x)
        assert np.max(np.abs(mine - ref)) <= 1e-8


def test_convergence_error_carries_residual():
    net = two_firm_chain()
    with pytest.raises(ConvergenceError, match="residual"):
        clear(net, [0.5, 0.2], [0.0, 0.0], UNIT_PRICE, max_iter=1)


def test_clearing_rejects_non_monotone_price_map():
    # a price that rises with sales breaks the monotone map; models refuse such
    # curves up front, the bracket's per-sweep checks refuse them too
    x = np.array([[0.5], [0.0]])
    s = np.array([[1.0], [1.0]])

    def rising(y):
        return 1.0 + np.asarray(y, dtype=float)

    with pytest.raises(ModelError, match="non-increasing"):
        NetworkValueModel(two_firm_chain(), ScenarioMatrix(x), ScenarioMatrix(s), rising)
    with pytest.raises(ModelError, match="price iterate increased"):
        next(_paired(two_firm_chain(), x, s, rising, rising(0.0), rising(2.0), 1e-12, 100,
                     ClearingStats(), (), (), _Point(None)))


def sparse_network(rng, n):
    # about a third of the interbank edges, every firm owing society something
    nominal = rng.uniform(0.0, 2.0, size=(n + 1, n + 1)) * (rng.random((n + 1, n + 1)) < 0.35)
    nominal[1:, 0] = rng.uniform(0.2, 1.0, size=n)
    nominal[0, :] = 0.0
    np.fill_diagonal(nominal, 0.0)
    return LiabilityNetwork(nominal, groups=GroupMap([1] * n))


def chain_network(n):
    # firm i owes firm i+1 ten and society one half: a shortfall cascades down the chain
    nominal = np.zeros((n + 1, n + 1))
    nominal[1:, 0] = 0.5
    for i in range(1, n):
        nominal[i, i + 1] = 10.0
    return LiabilityNetwork(nominal, groups=GroupMap([1] * n))


def shared_default_cash(rng, pbar, m, bases=4):
    # a few base scenarios, each jittered across m/bases columns, so columns share default sets
    base = rng.uniform(0.0, 0.8, size=(pbar.size, bases)) * pbar[:, None]
    cash = np.repeat(base, -(-m // bases), axis=1)[:, :m]
    return cash * rng.uniform(0.99, 1.01, size=cash.shape)


def exact_after_one_sweep(net, cash):
    # the exact solve seeded by the default set of one top-down sweep, min(pbar, cash + A'pbar),
    # which holds far fewer defaults than the warm-up sweeps of a bracket leave
    pbar = net.pbar[1:][:, None]
    p = np.minimum(pbar, cash + net.relative[1:, 1:].T @ pbar)
    stats = ClearingStats()
    residual = _clear_constant_price(net, cash, p, math.inf, 1e-10, 1000, 1, stats)
    return p, residual, stats


def assert_clears_like(net, cash, reference):
    # the whole bracket, run to its end on the first 1, 2 and 64 scenario columns, meets it too
    n = net.n_firms
    for m in (1, 2, 64):
        p, pi, stats = oracles.clear_batch(net, cash[:, :m], np.zeros((n, m)), UNIT_PRICE,
                                           1e-10, 100_000)
        assert np.max(np.abs(p - reference[:, :m])) <= 1e-8, m
        assert (pi == 1.0).all() and stats.max_residual <= 1e-10


def test_exact_clearing_matches_top_down_reference():
    rng = np.random.default_rng(31)
    rounds = []
    for _ in range(40):
        n = int(rng.integers(1, 31))
        net = sparse_network(rng, n)
        x = shared_default_cash(rng, net.pbar[1:], m=64 + int(rng.integers(0, 64)))
        p, residual, stats = exact_after_one_sweep(net, x)
        reference = oracles.clear_top_down(net.nominal, x)
        assert np.max(np.abs(p - reference)) <= 1e-8
        assert residual <= 1e-10
        assert_clears_like(net, x, reference)
        assert stats.solves < x.shape[1]  # columns share their default sets
        rounds.append(stats.rounds)
    assert max(rounds) >= 2


def test_exact_clearing_adds_defaults_over_several_rounds():
    rng = np.random.default_rng(41)
    for n in (8, 17, 30):
        net = chain_network(n)
        x = rng.uniform(0.55, 0.65, size=(n, 96))  # solvent while paid in full
        x[0] = rng.choice([0.0, 5.0, 11.0], size=96)  # two shortfalls at the head, one without
        p, _, stats = exact_after_one_sweep(net, x)
        assert stats.rounds >= 2
        reference = oracles.clear_top_down(net.nominal, x)
        assert np.max(np.abs(p - reference)) <= 1e-8
        assert_clears_like(net, x, reference)


def test_exact_clearing_marks_illiquid_holdings_at_the_constant_price():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(1, 31))
        net = sparse_network(rng, n)
        x = shared_default_cash(rng, net.pbar[1:], m=64)
        s = rng.uniform(0.0, 0.5, size=x.shape)
        p, pi, stats = oracles.clear_batch(net, x, s, ConstantPrice(0.7), 1e-10, 1000)
        assert (pi == 0.7).all() and stats.sweeps >= 1
        assert np.max(np.abs(p - oracles.clear_top_down(net.nominal, x + 0.7 * s))) <= 1e-8


def test_price_curve_without_sales_takes_the_exact_path():
    # with s == 0 nothing is sold, so even a falling curve keeps its top price
    rng = np.random.default_rng(47)
    for f in (LinearSqrtPrice(), LinearCapPrice(slope=0.5, floor=0.2)):
        net = sparse_network(rng, 12)
        x = shared_default_cash(rng, net.pbar[1:], m=64)
        p, pi, stats = oracles.clear_batch(net, x, np.zeros_like(x), f, 1e-10, 1000)
        assert stats.rounds >= 1 and (pi == f(0.0)).all()
        assert np.max(np.abs(p - oracles.clear_top_down(net.nominal, x))) <= 1e-8


def test_price_impact_keeps_the_top_down_iteration():
    rng = np.random.default_rng(53)
    net = sparse_network(rng, 6)
    pbar = net.pbar[1:]
    f = LinearSqrtPrice()
    x = shared_default_cash(rng, pbar, m=8)
    # a column with no shortfall converges in one sweep, then sweeps on with the slow ones
    mixed = x.copy()
    mixed[:, 3] = pbar
    s = np.ones_like(x)
    assert oracles.clear_batch(net, mixed[:, 3:4], s[:, 3:4], f, 1e-10, 10_000)[2].sweeps == 1
    for x in (x, mixed):
        p, pi, stats = oracles.clear_batch(net, x, s, f, 1e-10, 10_000)
        assert stats.rounds == stats.solves == 0 and stats.sweeps > 1
        assert ((pi < 1.0) == (x < pbar[:, None]).any(axis=0)).all()
        for j in range(8):
            ref_p, ref_pi = oracles.clear_price_impact(net.nominal, x[:, j], s[:, j], f)
            assert np.max(np.abs(p[:, j] - ref_p)) <= 1e-8 and abs(pi[j] - ref_pi) <= 1e-8
    assert np.array_equal(p[:, 3], pbar) and pi[3] == 1.0
    # warm starts from points above and below, and a restart from the top, leave samples alone
    model = NetworkValueModel(net, ScenarioMatrix(mixed), ScenarioMatrix(s), f)
    for k in ([0.0] * 6, [0.4] * 6, [0.2, 0.0, 0.4, 0.2, 0.0, 0.4], [0.0] * 6):
        assert np.array_equal(model.samples_at(k), fresh(model).samples_at(k)), k
    assert model.stats.warm == 3


@pytest.mark.parametrize("scale", [1e5, 1e8])
def test_exact_clearing_of_large_obligations(scale):
    # payment rounding grows with the obligations, and so do the checks that raise on it
    rng = np.random.default_rng(41)
    unit = random_network(rng, 100)
    net = LiabilityNetwork(unit.nominal * scale, groups=unit.groups)
    x = rng.uniform(0.0, 0.8, size=100) * rng.uniform(0.0, 1.2, size=100) * net.pbar[1:]
    result = clear(net, x, np.zeros(100), UNIT_PRICE)
    reference = oracles.clear_top_down(net.nominal, x, tol=1e-13 * scale)
    assert (reference < net.pbar[1:]).any()  # some firms default
    assert np.max(np.abs(result.p - reference)) <= 1e-9 * np.max(reference)
    assert result.residual <= 1e-10 * net.pbar.max()


def test_max_iter_bounds_sweeps_plus_solve_rounds():
    net = chain_network(20)
    x = np.full((20, 3), 0.6)
    x[0] = [0.0, 5.0, 11.0]
    _, _, stats = oracles.clear_batch(net, x, np.zeros_like(x), UNIT_PRICE, 1e-10, 1000)
    steps = stats.sweeps + stats.rounds
    assert stats.rounds >= 2
    oracles.clear_batch(net, x, np.zeros_like(x), UNIT_PRICE, 1e-10, steps)
    with pytest.raises(ConvergenceError, match="residual"):
        oracles.clear_batch(net, x, np.zeros_like(x), UNIT_PRICE, 1e-10, steps - 1)


def test_exact_clearing_residual_above_tol_is_a_convergence_error():
    # rounding leaves a residual near 1e-15, which no solve gets below 1e-300
    rng = np.random.default_rng(59)
    net = sparse_network(rng, 30)
    x = shared_default_cash(rng, net.pbar[1:], m=64)
    _, _, stats = oracles.clear_batch(net, x, np.zeros_like(x), UNIT_PRICE, 1e-10, 1000)
    assert 0.0 < stats.max_residual <= 1e-12
    with pytest.raises(ConvergenceError, match="residual"):
        oracles.clear_batch(net, x, np.zeros_like(x), UNIT_PRICE, 1e-300, 1000)


def test_singular_default_set_solve_is_a_model_error(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(ModelError, match="singular"):
        clear(two_firm_chain(), [0.5, 0.2], [0.0, 0.0], UNIT_PRICE)


def test_closed_cycle_clears_at_full_payment():
    # three firms owe only each other, each as much as it is owed, and hold nothing: full
    # payment is the greatest fixed point, but the relative shares round so that one sweep
    # leaves a firm an ulp short, and a default set of the whole cycle would be singular.
    # A fourth firm owes society one unit and holds two, so society is paid in full. Money
    # is conserved on a closed cycle too: after one sweep the lower bound lies within the
    # rounding offset (about 1e-11) of 1, so a verdict tied below 1 is decided at once
    nominal = np.zeros((5, 5))
    nominal[1:4, 1:4] = [[0.0, 0.9, 0.6], [0.6, 0.0, 0.9], [0.9, 0.6, 0.0]]
    nominal[4, 0] = 1.0
    net = LiabilityNetwork(nominal)
    pbar = net.pbar[1:]
    assert (net.relative[1:4, 1:4].T @ pbar[:3] < pbar[:3]).any()
    x = np.zeros((4, 2))
    x[3] = 2.0

    def model():
        return NetworkValueModel(net, ScenarioMatrix(x), ScenarioMatrix(np.zeros_like(x)),
                                 UNIT_PRICE)

    lower, upper = next(model().bounds_at([0.0]))
    assert (upper == 1.0).all() and (1.0 - 1e-10 < lower).all() and (lower < 1.0).all()
    tied = model()
    assert membership_oracle(tied, AcceptanceSpec("avar", lam=0.2, shift=1.0 - 1e-6))([0.0])
    assert tied.stats.calls == tied.stats.decided == 1 and tied.stats.sweeps == 1
    result = clear(net, x[:, 0], np.zeros(4), UNIT_PRICE)
    assert result.p == pytest.approx(pbar, rel=1e-15)


@pytest.mark.parametrize("leak", [1e-2, 1e-4])
def test_leaky_cycle_clears_exactly(leak):
    # a cycle of three firms owing 1 each, the first also owing society a small leak, and no
    # cash: nothing is paid. The top-down iteration loses a fraction leak/(1 + leak) of the
    # payments every three sweeps, so at leak 1e-4 it alone would need about 7e5 sweeps,
    # more than max_iter, and would stop tol/(1 - rho) above zero; the solve is exact
    nominal = np.zeros((4, 4))
    nominal[1, 2] = nominal[2, 3] = nominal[3, 1] = 1.0
    nominal[1, 0] = leak
    result = clear(LiabilityNetwork(nominal), np.zeros(3), np.zeros(3), UNIT_PRICE)
    assert (result.p == 0.0).all() and result.residual == 0.0
    assert result.iterations == _WARMUP_SWEEPS + 1  # the warm-up sweeps and one solve round


def test_clear_input_validation():
    # clear builds a model on the holdings, which checks them as scenarios
    net = two_firm_chain()
    with pytest.raises(ConfigurationError, match="non-negative"):
        clear(net, [-0.1, 0.2], [0.0, 0.0], UNIT_PRICE)
    with pytest.raises(ConfigurationError, match="firm rows"):
        clear(net, [0.1], [0.0, 0.0], UNIT_PRICE)
    with pytest.raises(ParameterError, match="tol must be"):
        clear(net, [0.1, 0.2], [0.0, 0.0], UNIT_PRICE, tol=0.0)
    with pytest.raises(GenerationError, match="non-finite"):
        clear(net, [0.1, math.inf], [0.0, 0.0], UNIT_PRICE)


# ---------------------------------------------------------------------------
# equity


def test_solvent_equity_accounting_identity():
    # with full payment and no fire sale, total equity equals total cash
    net = two_firm_chain()
    x = np.array([10.0, 10.0])
    e = equity(net, x, [0.0, 0.0], UNIT_PRICE)
    assert e.sum() == pytest.approx(x.sum(), abs=1e-10)
    assert e[0] == pytest.approx(net.society_promised, abs=1e-12)


def test_society_equity_upper_bound():
    rng = np.random.default_rng(39)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        net = random_network(rng, n)
        x = rng.uniform(0.0, 0.6, size=n)
        e = equity(net, x, np.zeros(n), UNIT_PRICE)
        assert -1e-12 <= e[0] <= net.society_promised + 1e-12


def test_society_equity_midpoint_concave_in_cash():
    rng = np.random.default_rng(49)
    net = random_network(rng, 4)
    for _ in range(30):
        xa = rng.uniform(0.0, 2.0, size=4)
        xb = rng.uniform(0.0, 2.0, size=4)
        mid = equity(net, (xa + xb) / 2.0, np.zeros(4), UNIT_PRICE)[0]
        split = (
            equity(net, xa, np.zeros(4), UNIT_PRICE)[0]
            + equity(net, xb, np.zeros(4), UNIT_PRICE)[0]
        ) / 2.0
        assert mid >= split - 1e-9


def test_society_equity_has_no_jumps():
    # shrink a perturbation along fixed directions; the response must shrink
    # in step (bounded by a small network-size multiple of the cash moved)
    rng = np.random.default_rng(59)
    net = random_network(rng, 3)
    x0 = rng.uniform(0.2, 1.0, size=3)
    s0 = rng.uniform(0.0, 0.5, size=3)
    f = LinearSqrtPrice()
    base = equity(net, x0, s0, f)[0]
    for _ in range(20):
        d = rng.uniform(0.0, 1.0, size=3)
        for t in (1e-2, 1e-4, 1e-6):
            gap = abs(equity(net, x0 + t * d, s0, f)[0] - base)
            assert gap <= 4.0 * t * d.sum() + 1e-6


# ---------------------------------------------------------------------------
# society value model


def make_model(rng, n=3, m=25, groups=None, f=UNIT_PRICE, liquid=1.0):
    net = random_network(rng, n)
    if groups is None:
        groups = GroupMap([1] * n)
    net = LiabilityNetwork(net.nominal, groups)
    holdings = rng.uniform(0.0, 1.0, size=(n, m))
    sx = ScenarioMatrix(holdings * liquid)
    ss = ScenarioMatrix(holdings * (1.0 - liquid))
    return NetworkValueModel(net, sx, ss, f)


def test_model_saturates_at_large_capital():
    rng = np.random.default_rng(69)
    model = make_model(rng)
    top = model.samples_at([100.0, 100.0, 100.0])
    assert top == pytest.approx(
        np.full(25, model.network.society_promised), abs=1e-9
    )


def test_model_at_zero_matches_scenario_clearings():
    rng = np.random.default_rng(79)
    model = make_model(rng)
    samples = model.samples_at([0.0, 0.0, 0.0])
    for j in (0, 7, 24):
        e = equity(
            model.network,
            model.scenarios_x.values[:, j],
            model.scenarios_s.values[:, j],
            model.f,
        )
        assert samples[j] == pytest.approx(e[0], abs=1e-9)


def test_model_monotone_in_capital():
    rng = np.random.default_rng(89)
    model = make_model(rng, f=LinearSqrtPrice(), liquid=0.6)
    for _ in range(20):
        k = rng.uniform(0.0, 1.0, size=3)
        bigger = k + rng.uniform(0.0, 1.0, size=3)
        assert (model.samples_at(k) <= model.samples_at(bigger) + 1e-9).all()


def test_model_rejects_negative_capital():
    rng = np.random.default_rng(99)
    model = make_model(rng)
    with pytest.raises(ParameterError):
        model.samples_at([-0.1, 0.0, 0.0])


@pytest.mark.parametrize("above", [False, True])
def test_society_equity_outside_its_promised_range_is_a_model_error(monkeypatch, above):
    # no clearing leaves this range; a fake clearing generator does, at once
    model = make_model(np.random.default_rng(99))
    cap = model.network.society_promised
    y = np.full(25, cap + 1e-6 if above else -1e-6)

    def fake_clearing(*args):
        return y
        yield  # a generator that finishes at once

    monkeypatch.setattr(clearing, "_top_down", fake_clearing)
    message = f"society equity left the range [0, {cap}] of its promised payments"
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        model.samples_at([0.0, 0.0, 0.0])


def test_model_group_expansion():
    rng = np.random.default_rng(109)
    model = make_model(rng, n=4, groups=GroupMap([2, 2]))
    assert model.groups.n_groups == 2
    per_firm = make_model(np.random.default_rng(109), n=4, groups=GroupMap([1, 1, 1, 1]))
    # same capital per firm, expressed per group vs per firm
    a = model.samples_at([0.3, 0.7])
    b = per_firm.samples_at([0.3, 0.3, 0.7, 0.7])
    assert a == pytest.approx(b, abs=1e-10)


def test_model_construction_validation():
    rng = np.random.default_rng(119)
    net = random_network(rng, 3)
    good = ScenarioMatrix(rng.uniform(0.0, 1.0, size=(3, 10)))
    with pytest.raises(ConfigurationError):
        NetworkValueModel(net, ScenarioMatrix(rng.uniform(0, 1, size=(2, 10))), good, UNIT_PRICE)
    with pytest.raises(ConfigurationError):
        NetworkValueModel(net, good, ScenarioMatrix(rng.uniform(0, 1, size=(3, 9))), UNIT_PRICE)
    with pytest.raises(ConfigurationError):
        NetworkValueModel(net, ScenarioMatrix(-good.values), good, UNIT_PRICE)

    def bad_curve(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            return 1.0 / y**2

    with pytest.raises(ModelError):
        NetworkValueModel(net, good, good, bad_curve)
    for bad in ({"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf}, {"max_iter": 0}):
        with pytest.raises(ParameterError, match="tol must be"):
            NetworkValueModel(net, good, good, UNIT_PRICE, **bad)


def test_make_network_cvm_group_override():
    # the model searches over the groups of its network; regrouping means a new network
    rng = np.random.default_rng(139)
    net = random_network(rng, 4)
    sx = ScenarioMatrix(rng.uniform(0.0, 1.0, size=(4, 8)))
    ss = ScenarioMatrix(np.zeros((4, 8)))
    model = NetworkValueModel(LiabilityNetwork(net.nominal, GroupMap([1, 3])), sx, ss, UNIT_PRICE)
    assert model.groups.n_groups == 2
    with pytest.raises(ConfigurationError):
        LiabilityNetwork(net.nominal, GroupMap([2, 1]))


# ---------------------------------------------------------------------------
# payment brackets and the verdicts they decide


BRACKET_CURVES = [ConstantPrice(0.7), LinearSqrtPrice(), LinearCapPrice(slope=0.25, floor=0.5)]
CRITERIA = [
    AcceptanceSpec("avar", lam=0.2),
    AcceptanceSpec("ubsr", power=2.0, z=0.5),
    AcceptanceSpec("oce"),
    AcceptanceSpec("entropic", level=0.0),
]


def bracket_model(rng, f, m=12):
    # 2-30 firms with defaults, illiquid holdings sold at a falling price unless f is constant
    n = int(rng.integers(2, 31))
    net = sparse_network(rng, n)
    x = shared_default_cash(rng, net.pbar[1:], m)
    s = rng.uniform(0.0, 0.5, size=x.shape)
    return NetworkValueModel(net, ScenarioMatrix(x), ScenarioMatrix(s), f)


def reference_payments(model, k):
    x = model.scenarios_x.values + model.groups.expand(k)[:, None]
    s = model.scenarios_s.values
    if isinstance(model.f, ConstantPrice):
        return oracles.clear_top_down(model.network.nominal, x + model.f.price * s)
    return np.column_stack([
        oracles.clear_price_impact(model.network.nominal, x[:, j], s[:, j], model.f)[0]
        for j in range(x.shape[1])
    ])


def test_bracket_encloses_the_reference_after_every_sweep():
    # after every sweep the payment iterates enclose the reference payments firm by firm: the
    # top-down ones lie above it, and with price impact the bottom-up ones below; each equity
    # pair, of the clearing generator and of bounds_at, encloses society equity there
    rng = np.random.default_rng(61)
    for case in range(30):
        model = bracket_model(rng, BRACKET_CURVES[case % 3])
        k = rng.uniform(0.0, 0.5, size=model.groups.n_groups)
        ref = reference_payments(model, k)
        m = ref.shape[1]
        e0_ref = model.network.relative[1:, 0] @ ref
        x = model.scenarios_x.values + model.groups.expand(k)[:, None]
        s = model.scenarios_s.values
        stats, point = ClearingStats(), _Point(k)
        constant = isinstance(model.f, ConstantPrice)
        if constant:
            clearing = _top_down(model.network, x + model.f.price * s, 1e-10, 100_000, stats, (),
                                 point)
        else:
            clearing = _paired(model.network, x, s, model.f, *model._prices, 1e-10, 100_000,
                               stats, (), (), point)
        while True:
            try:
                lower, upper = next(clearing)
            except StopIteration as finished:
                y = finished.value
                break
            assert (ref <= point.p[:, :m] + 1e-9).all()
            if not constant:
                assert (point.p[:, m:] <= ref + 1e-9).all()
            assert (lower <= e0_ref + 1e-9).all() and (e0_ref <= upper + 1e-9).all()
        assert np.max(np.abs(point.p[:, :m] - ref)) <= 1e-8
        assert np.max(np.abs(y - e0_ref)) <= 1e-8
        if constant:  # sweeps until the exact solve takes over
            assert stats.sweeps <= _WARMUP_SWEEPS
        for lower, upper in model.bounds_at(k):
            assert np.isfinite(lower).all()
            assert (lower <= e0_ref + 1e-9).all() and (e0_ref <= upper + 1e-9).all()
        assert lower is upper and np.max(np.abs(upper - e0_ref)) <= 1e-8
        assert np.max(np.abs(model._history[-1].p[:, :m] - ref)) <= 1e-8


def radius_encloses(net, cash, ref, atol):
    # after every top-down sweep the reference equity lies in the pair (max(e0 - radius, 0), e0)
    # of bounds_at; returns the gap min(radius, e0) of each sweep
    e0_ref = net.relative[1:, 0] @ ref
    zero = np.zeros_like(cash)
    model = NetworkValueModel(net, ScenarioMatrix(cash), ScenarioMatrix(zero), UNIT_PRICE)
    gaps = []
    for low, up in model.bounds_at(np.zeros(model.groups.n_groups)):
        assert (0.0 <= low).all() and (low <= e0_ref + atol).all() and (e0_ref <= up + 1e-9).all()
        if low is not up:  # the last pair is the finished clearing
            gaps.append(up - low)
    return np.array(gaps)


def test_radius_encloses_the_reference_when_theta_is_nearly_one():
    # three firms owing 1 around a cycle, the first also 1e-7 to society: the cycle passes on
    # all but 1e-7 of what it receives, and cash of order the leak leaves it short
    nominal = np.zeros((4, 4))
    nominal[1, 2] = nominal[2, 3] = nominal[3, 1] = 1.0
    nominal[1, 0] = 1e-7
    net = LiabilityNetwork(nominal)
    cash = np.random.default_rng(163).uniform(0.0, 1e-7, size=(3, 8))
    ref = np.column_stack([oracles.clear_default_sets(nominal, c) for c in cash.T])
    assert (ref < net.pbar[1:, None]).any()
    e0_ref = net.relative[1:, 0] @ ref
    gaps = radius_encloses(net, cash, ref, atol=1e-22)
    assert (gaps[-1] < e0_ref).any()  # a radius below the exact equity: the bound says something


def test_radius_encloses_the_reference_when_a_firm_owes_nothing():
    # firm 2 owes nothing, so it has no share to pass on; it still receives payments
    rng = np.random.default_rng(167)
    nominal = sparse_network(rng, 8).nominal.copy()
    nominal[2] = 0.0
    nominal[1, 2] = 1.0
    net = LiabilityNetwork(nominal)
    cash = shared_default_cash(rng, np.maximum(net.pbar[1:], 1.0), m=12)
    ref = oracles.clear_top_down(nominal, cash)
    assert (ref < net.pbar[1:, None]).any()
    gaps = radius_encloses(net, cash, ref, atol=1e-9)
    assert gaps[-1].max() < gaps[0].max()


def cyclic_network(rng, scale):
    # firms 1-3 owe only each other, a closed cycle; firm 4 owes nothing; firms 5 and 6 owe
    # society and any other node
    nominal = np.zeros((7, 7))
    nominal[1:4, 1:4] = rng.uniform(0.5, 2.0, size=(3, 3))
    nominal[5:] = rng.uniform(0.0, 2.0, size=(2, 7)) * (rng.random((2, 7)) < 0.7)
    nominal[5:, 0] = rng.uniform(0.2, 1.0, size=2)
    np.fill_diagonal(nominal, 0.0)
    return LiabilityNetwork(nominal * scale)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_radius_encloses_the_reference_on_a_closed_cycle(scale):
    # money conservation needs no contraction: after every sweep the lower bound stays below
    # the exact equity, and after the last sweep it is positive. At the exact payments p*,
    # society equity is the outside cash less the equity the solvent firms keep
    rng = np.random.default_rng(179)
    cycle_short = False
    for _ in range(8):
        net = cyclic_network(rng, scale)
        pbar = net.pbar[1:]
        cash = rng.uniform(0.0, 0.6, size=(6, 4)) * np.maximum(pbar, scale)[:, None]
        ref = np.column_stack([oracles.clear_default_sets(net.nominal, c) for c in cash.T])
        cycle_short |= (ref[:3] < pbar[:3, None]).any()
        e0_ref = net.relative[1:, 0] @ ref
        kept = np.maximum(cash + net.relative[1:, 1:].T @ ref - pbar[:, None], 0.0)
        assert cash.sum(axis=0) - kept.sum(axis=0) == pytest.approx(e0_ref, rel=1e-13)
        model = NetworkValueModel(net, ScenarioMatrix(cash), ScenarioMatrix(np.zeros_like(cash)),
                                  UNIT_PRICE)
        *swept, _ = model.bounds_at([0.0])
        for lower, _ in swept:
            assert (lower <= e0_ref + 1e-12 * max(1.0, pbar.max())).all()
        assert (swept[-1][0] > 0.0).all()
    assert cycle_short


def test_radius_covers_the_rounding_of_society_equity():
    # cash alone pays every obligation, so one sweep leaves the payments at pbar and the step
    # at 0: the radius is the rounding offset alone. The shares and e0 still round, and
    # without the offset some networks would put e0 above the exact equity, the sum of what
    # society is owed
    rng = np.random.default_rng(191)
    for _ in range(60):
        net = sparse_network(rng, int(rng.integers(2, 30)))
        cash = np.repeat(net.pbar[1:, None], 3, axis=1)
        model = NetworkValueModel(net, ScenarioMatrix(cash), ScenarioMatrix(np.zeros_like(cash)),
                                  UNIT_PRICE)
        lower, upper = next(model.bounds_at(np.zeros(model.groups.n_groups)))
        assert (lower < upper).all() and (lower <= math.fsum(net.nominal[1:, 0])).all()


def test_bracketed_verdicts_match_the_finished_clearing():
    rng = np.random.default_rng(67)
    decided = calls = 0
    for case in range(12):
        model = bracket_model(rng, BRACKET_CURVES[case % 3])
        k = rng.uniform(0.0, 0.5, size=model.groups.n_groups)
        y = model.samples_at(k)
        for spec in CRITERIA:
            risk = rho(y, spec)
            for offset in (-0.3, -1e-3, -1e-6, 1e-6, 1e-3, 0.3):
                shifted = AcceptanceSpec(**{**spec.__dict__, "shift": offset - risk})
                verdict = membership_oracle(model, shifted)(k)
                assert verdict == is_acceptable(y, shifted), (case, spec.criterion, offset)
        decided += model.stats.decided
        calls += model.stats.calls
    assert 0 < decided < calls


def test_verdicts_within_the_error_budget_fall_back_to_finished_clearing():
    rng = np.random.default_rng(71)
    for case in range(9):
        model = bracket_model(rng, BRACKET_CURVES[case % 3])
        k = rng.uniform(0.0, 0.5, size=model.groups.n_groups)
        y = model.samples_at(k)
        for spec in CRITERIA:
            risk = rho(y, spec)
            for offset in (-1e-13, 1e-13):
                shifted = AcceptanceSpec(**{**spec.__dict__, "shift": offset - risk})
                before = model.stats.decided
                assert membership_oracle(model, shifted)(k) == is_acceptable(y, shifted)
                assert model.stats.decided == before, (case, spec.criterion, offset)


def test_inverted_bracket_is_a_model_error():
    # each half moves the right way, yet the bottom-up price starts or ends above the
    # top-down one; no non-increasing curve does this, so the curve is scripted
    net = two_firm_chain()
    x = np.array([[0.5], [0.0]])
    s = np.array([[1.0], [1.0]])

    def scripted(swept):
        return lambda y: np.array(swept)

    cases = [  # (f(0), f(largest sale), the prices of the first sweep)
        (1.0, 1.2, [1.0, 1.2], "lower payment bound exceeds the upper"),
        (1.0, 0.5, [0.9, 0.95], "lower price bound exceeds the upper"),
    ]
    for top, floor, swept, message in cases:
        with pytest.raises(ModelError, match=message):
            next(_paired(net, x, s, scripted(swept), top, floor, 1e-12, 100, ClearingStats(),
                         (), (), _Point(None)))


def paired_first_sweep(prices, above=(), below=()):
    # one paired sweep of two_firm_chain, f(0) = 1 and f(largest sale) = 0.5, whose curve
    # returns the given (top-down, bottom-up) prices; above and below are (payments, prices)
    # starts of the top-down and the bottom-up half
    x = np.array([[0.5], [0.0]])
    s = np.array([[1.0], [1.0]])
    starts = [[_Point(None, np.tile(p, (1, 2)), np.array([pi, pi])) for p, pi in side]
              for side in (above, below)]
    return next(_paired(two_firm_chain(), x, s, lambda y: np.array(prices), 1.0, 0.5, 1e-12, 100,
                        ClearingStats(), *starts, _Point(None)))


def test_each_monotonicity_check_of_the_paired_sweep_is_reached_alone():
    # each check is reached with the checks before it passing: prices that hold at f(0)
    # and f(largest sale) leave the price checks quiet, so that only a start that is no
    # bound moves a payment the wrong way
    none_paid = np.zeros((2, 1))
    all_paid = np.array([[2.0], [1.0]])  # the chain's obligations
    prefix = "^clearing map is not monotone: a payment iterate "
    with pytest.raises(ModelError, match=prefix + "increased$"):
        paired_first_sweep([1.0, 0.5], above=[(none_paid, 1.0)])  # a top-down start below
    with pytest.raises(ModelError, match=prefix + "decreased$"):
        paired_first_sweep([1.0, 0.5], below=[(all_paid, 0.5)])  # a bottom-up start above
    with pytest.raises(ModelError, match="^clearing map is not monotone: a price iterate "
                                         "decreased$"):
        paired_first_sweep([1.0, 0.4])  # the bottom-up price falls from f(largest sale)
    # the bottom-up price never falls below its start, f(largest sale) or above, and the
    # top-down one never below the bottom-up one, each up to the slack: so the floor check
    # is reached alone only by a top-down price within twice the slack below the floor
    with pytest.raises(ModelError, match="^clearing price fell below the inverse demand at the "
                                         "largest sale$"):
        paired_first_sweep([0.5 - 1.5 * _MONO_SLACK, 0.5 - 0.75 * _MONO_SLACK])
    lower, upper = paired_first_sweep([0.5 - 0.75 * _MONO_SLACK, 0.5 - 0.75 * _MONO_SLACK])
    assert (lower <= upper).all()  # within the slack of the floor is no error


def two_group_model(rng, f, tol=1e-10, m=12):
    # 4-12 firms in two groups, with defaults; illiquid holdings as in bracket_model
    n = int(rng.integers(4, 13))
    split = int(rng.integers(1, n))
    net = LiabilityNetwork(sparse_network(rng, n).nominal, groups=GroupMap([split, n - split]))
    x = shared_default_cash(rng, net.pbar[1:], m)
    s = rng.uniform(0.0, 0.5, size=x.shape)
    return NetworkValueModel(net, ScenarioMatrix(x), ScenarioMatrix(s), f, tol=tol)


def fresh(model):
    # the same model with no evaluated points to start from
    return NetworkValueModel(model.network, model.scenarios_x, model.scenarios_s, model.f,
                             model.tol, model.max_iter)


def tied_at(model, spec, k):
    # spec shifted so that rho(Y_k) + shift is 0: k sits on the tie
    return AcceptanceSpec(**{**spec.__dict__, "shift": -rho(fresh(model).samples_at(k), spec)})


HISTORY_GRID = GridSpec([0.0, 0.0], [1.0, 1.0], 5)


def test_verdicts_do_not_depend_on_the_clearing_history():
    # grid_search's labels, and verdicts queried in random orders after it, each equal the
    # verdict of a fresh model; the lattice centre sits on the tie, so clearing finishes there
    rng = np.random.default_rng(83)
    points = list(itertools.product(*HISTORY_GRID.axes()))
    for case in range(8):
        model = two_group_model(rng, BRACKET_CURVES[case % 2])
        spec = tied_at(model, CRITERIA[case % 4], [0.5, 0.5])
        expected = [membership_oracle(fresh(model), spec)(k) for k in points]
        labels = grid_search(membership_oracle(model, spec), HISTORY_GRID).labels
        assert np.array_equal(labels.ravel(), np.array(expected, dtype=labels.dtype)), case
        oracle = membership_oracle(model, spec)
        for _ in range(3):
            for i in rng.permutation(len(points)):
                assert oracle(points[i]) == expected[i], (case, points[i])
        assert 0 < model.stats.warm < model.stats.calls
        assert model.stats.decided < model.stats.calls  # some verdicts came from finished clearing


def test_samples_do_not_depend_on_the_clearing_history():
    # a walk of single-group steps mixes decided verdicts and finished clearings, so each
    # call starts from points above, below or both; the samples stay bit for bit a fresh model's
    rng = np.random.default_rng(89)
    for case in range(9):
        model = two_group_model(rng, BRACKET_CURVES[case % 3])
        spec = tied_at(model, CRITERIA[case % 4], [0.5, 0.5])
        oracle = membership_oracle(model, spec)
        k = np.full(2, 0.5)
        for step in range(12):
            k[step % 2] = max(0.0, k[step % 2] + rng.choice([-0.3, -0.1, 0.1, 0.3]))
            if step % 3:
                oracle(k)
            else:
                assert np.array_equal(model.samples_at(k), fresh(model).samples_at(k)), (case, step)
        assert model.stats.warm > 0 and model.stats.decided > 0


def test_a_start_that_is_no_bound_is_a_model_error():
    # the iterates of less capital lie below the fixed point of more, those of more above that
    # of less: as the wrong start they make an iterate move the wrong way at once
    rng = np.random.default_rng(97)
    for f in (UNIT_PRICE, LinearSqrtPrice()):
        model = bracket_model(rng, f)
        size = model.groups.n_groups

        def evaluate(k, above=(), below=()):
            # clear k from the given points, remembered as points with more and less capital
            model._history.clear()
            model._history.extend(_Point(np.full(size, k + 1.0), e.p, e.pi) for e in above)
            model._history.extend(_Point(np.full(size, k - 1.0), e.p, e.pi) for e in below)
            model.samples_at(np.full(size, k))
            return model._history[-1]

        less, more = evaluate(0.0), evaluate(1.0)
        evaluate(0.5, above=[more], below=[less])
        with pytest.raises(ModelError, match="iterate increased"):
            evaluate(0.5, above=[less])
        if f is UNIT_PRICE:  # the top-down iteration alone starts from no point below
            assert np.array_equal(evaluate(0.5, below=[more]).p, evaluate(0.5).p)
        else:
            with pytest.raises(ModelError, match="iterate decreased"):
                evaluate(0.5, below=[more])


def test_the_clearing_regime_is_fixed_per_model():
    # capital never changes the illiquid holdings, so a model reads its price range f(0) and
    # f(largest sale) once, when it is built; its calls evaluate the curve on sales alone
    rng = np.random.default_rng(103)
    for curve in (ConstantPrice(0.7), LinearSqrtPrice()):
        scalar_calls = []

        def counted(y):
            if np.ndim(y) == 0:
                scalar_calls.append(y)
            return curve(y)

        model = bracket_model(rng, counted)
        assert (model._prices[0] == model._prices[1]) == isinstance(curve, ConstantPrice)
        built = len(scalar_calls)
        for _ in range(20):
            list(model.bounds_at(rng.uniform(0.0, 0.5, size=model.groups.n_groups)))
        assert len(scalar_calls) == built


def test_labels_do_not_depend_on_the_clearing_tolerance():
    # the tie lies between lattice points, and every tolerance from 1e-8 to 1e-12 gives
    # the same labels, at constant price and with price impact
    rng = np.random.default_rng(101)
    for case in range(8):
        f = BRACKET_CURVES[case % 2]
        seed = int(rng.integers(2**32))
        models = [two_group_model(np.random.default_rng(seed), f, tol=tol)
                  for tol in (1e-8, 1e-10, 1e-12)]
        spec = tied_at(models[0], CRITERIA[case % 4], [0.4, 0.55])
        labels = [grid_search(membership_oracle(model, spec), HISTORY_GRID).labels
                  for model in models]
        assert 0 < labels[0].sum() < labels[0].size, case
        for other in labels[1:]:
            assert np.array_equal(other, labels[0]), case


def test_convergence_error_names_residual_and_bracket_width():
    rng = np.random.default_rng(73)
    for f in (UNIT_PRICE, LinearSqrtPrice()):
        model = bracket_model(rng, f)
        x = model.scenarios_x.values
        with pytest.raises(ConvergenceError, match=r"residual .* bracket width"):
            oracles.clear_batch(model.network, x, model.scenarios_s.values, f, 1e-10, 1)


# ---------------------------------------------------------------------------
# edge list round trip


def test_edge_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(149)
    net = random_network(rng, 4)
    path = tmp_path / "net.csv"
    write_edge_csv(net, path)
    back = read_edge_csv(path)
    assert np.array_equal(back.nominal, net.nominal)


def test_edge_csv_accumulates_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("from,to,amount\n1,0,0.5\n1,0,0.25\n")
    net = read_edge_csv(path)
    assert net.nominal[1, 0] == 0.75


def test_edge_csv_reads_past_a_byte_order_mark(tmp_path):
    # as a spreadsheet's CSV export begins
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbffrom,to,amount\r\n1,0,0.5\r\n2,1,0.25\r\n")
    net = read_edge_csv(path)
    assert net.nominal[1, 0] == 0.5 and net.nominal[2, 1] == 0.25


def test_edge_csv_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("source,target,w\n1,0,1.0\n")
    with pytest.raises(ConfigurationError):
        read_edge_csv(bad_header)
    empty = tmp_path / "e.csv"
    empty.write_text("from,to,amount\n")
    with pytest.raises(ConfigurationError):
        read_edge_csv(empty)
    short = tmp_path / "s.csv"
    short.write_text("from,to,amount\n1,0\n")
    with pytest.raises(ConfigurationError):
        read_edge_csv(short)
    negative = tmp_path / "n.csv"
    negative.write_text("from,to,amount\n-1,0,1.0\n")
    with pytest.raises(ConfigurationError):
        read_edge_csv(negative)
    latin1 = tmp_path / "l.csv"
    latin1.write_bytes("from,to,amount\n1,0,0.5 \u00e9\n".encode("latin-1"))
    with pytest.raises(ConfigurationError, match="not UTF-8 text .* at byte 23"):
        read_edge_csv(latin1)


def test_edge_csv_errors_name_the_file_and_line(tmp_path):
    missing = tmp_path / "missing.csv"
    with pytest.raises(ConfigurationError, match="cannot read edge list .*missing.csv"):
        read_edge_csv(missing)
    fractional = tmp_path / "f.csv"
    fractional.write_text("from,to,amount\n1,0,1.0\n2.5,0,1.0\n")
    with pytest.raises(ConfigurationError, match="f.csv line 3: expected integer node ids"):
        read_edge_csv(fractional)
    amount = tmp_path / "a.csv"
    amount.write_text("from,to,amount\n1,0,lots\n")
    with pytest.raises(ConfigurationError, match="a.csv line 2"):
        read_edge_csv(amount)
    negative = tmp_path / "n.csv"
    negative.write_text("from,to,amount\n1,0,1.0\n2,-1,1.0\n")
    with pytest.raises(ConfigurationError, match="n.csv line 3: node ids must be non-negative"):
        read_edge_csv(negative)
    huge = tmp_path / "h.csv"
    huge.write_text("from,to,amount\n1,0,1.0\n2,10000000,1.0\n3,0,1.0\n")
    with pytest.raises(ConfigurationError, match=r"h.csv line 3: node ids must be in 0..3,"):
        read_edge_csv(huge, GroupMap([1, 2]))
    top = tmp_path / "t.csv"
    top.write_text("from,to,amount\n1,0,1.0\n2,3,1.0\n3,0,1.0\n")
    assert read_edge_csv(top, GroupMap([1, 2])).n_firms == 3
    # LiabilityNetwork would reject the summed matrix without naming a line, or, for a
    # negative amount on an edge listed before, not at all: the sum deletes the edge
    for name, edge in [("self", "1,1,0.5"), ("society", "0,2,1"), ("inf", "2,1,inf"),
                       ("nan", "2,1,nan"), ("minus", "1,0,-1")]:
        bad = tmp_path / f"{name}.csv"
        bad.write_text(f"from,to,amount\n1,0,1.0\n{edge}\n2,0,1.0\n")
        with pytest.raises(ConfigurationError, match=f"{name}.csv line 3: expected an edge from a "
                           f"firm to another node, amount finite and >= 0, got '{edge}'"):
            read_edge_csv(bad)
    twice = tmp_path / "twice.csv"
    twice.write_text("from,to,amount\n1,0,1.0\n1,0,0.5\n2,1,0\n")
    assert read_edge_csv(twice).nominal[1, 0] == 1.5


def test_clearing_result_is_frozen():
    res = ClearingResult(p=np.array([1.0]), pi=1.0, iterations=3, residual=0.0)
    with pytest.raises(AttributeError):
        res.pi = 0.5
