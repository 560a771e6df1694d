"""Network clearing: price curves, fixed points, equity, society value model."""

import math

import numpy as np
import pytest

from sysrisk import (
    ClearingResult,
    ConfigurationError,
    ConstantPrice,
    ConvergenceError,
    GroupMap,
    LiabilityNetwork,
    LinearCapPrice,
    LinearSqrtPrice,
    ModelError,
    NetworkValueModel,
    ParameterError,
    ScenarioMatrix,
    TabulatedPrice,
    clear,
    equity,
    make_inverse_demand,
    read_edge_csv,
    validate_inverse_demand,
    write_edge_csv,
)
from sysrisk.clearing import _clear_batch
import oracles

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
    # a price that rises with sales breaks the monotone map; clear() refuses
    # such curves up front, so drive the batch solver directly
    x = np.array([[0.5], [0.0]])
    s = np.array([[1.0], [1.0]])
    with pytest.raises(ModelError, match="price iterate increased"):
        _clear_batch(two_firm_chain(), x, s, lambda y: 1.0 + np.asarray(y, dtype=float), 1e-12, 100)


def test_clear_input_validation():
    net = two_firm_chain()
    with pytest.raises(ParameterError):
        clear(net, [-0.1, 0.2], [0.0, 0.0], UNIT_PRICE)
    with pytest.raises(ParameterError):
        clear(net, [0.1], [0.0, 0.0], UNIT_PRICE)
    with pytest.raises(ParameterError):
        clear(net, [0.1, 0.2], [0.0, 0.0], UNIT_PRICE, tol=0.0)
    with pytest.raises(ParameterError):
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
        np.full(25, model.total_promised_to_society), abs=1e-9
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


def test_model_group_expansion():
    rng = np.random.default_rng(109)
    model = make_model(rng, n=4, groups=GroupMap([2, 2]))
    assert model.n_groups == 2
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


def test_model_blend_mixes_both_holdings():
    rng = np.random.default_rng(129)
    net = random_network(rng, 3)
    xa = ScenarioMatrix(rng.uniform(0.0, 1.0, size=(3, 12)))
    sa = ScenarioMatrix(rng.uniform(0.0, 1.0, size=(3, 12)))
    xb = ScenarioMatrix(rng.uniform(0.0, 1.0, size=(3, 12)))
    sb = ScenarioMatrix(rng.uniform(0.0, 1.0, size=(3, 12)))
    a = NetworkValueModel(net, xa, sa, LinearSqrtPrice())
    b = NetworkValueModel(net, xb, sb, LinearSqrtPrice())
    mixed = a.blend(b, 0.25)
    assert mixed.scenarios_x.values == pytest.approx(
        0.25 * xa.values + 0.75 * xb.values, abs=1e-15
    )
    assert mixed.scenarios_s.values == pytest.approx(
        0.25 * sa.values + 0.75 * sb.values, abs=1e-15
    )
    with pytest.raises(ParameterError):
        a.blend(b, -0.1)
    other_net = random_network(np.random.default_rng(131), 3)
    c = NetworkValueModel(other_net, xb, sb, LinearSqrtPrice())
    with pytest.raises(ConfigurationError):
        a.blend(c, 0.5)


def test_make_network_cvm_group_override():
    # the model searches over the groups of its network; regrouping means a new network
    rng = np.random.default_rng(139)
    net = random_network(rng, 4)
    sx = ScenarioMatrix(rng.uniform(0.0, 1.0, size=(4, 8)))
    ss = ScenarioMatrix(np.zeros((4, 8)))
    model = NetworkValueModel(LiabilityNetwork(net.nominal, GroupMap([1, 3])), sx, ss, UNIT_PRICE)
    assert model.n_groups == 2
    with pytest.raises(ConfigurationError):
        LiabilityNetwork(net.nominal, GroupMap([2, 1]))


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


def test_clearing_result_is_frozen():
    res = ClearingResult(p=np.array([1.0]), pi=1.0, iterations=3, residual=0.0)
    with pytest.raises(AttributeError):
        res.pi = 0.5
