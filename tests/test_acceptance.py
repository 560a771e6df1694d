"""Acceptance gate: eight end-to-end criteria, one test (and one pass/fail
line under pytest -v) per criterion.

1. top-down clearing matches a bottom-up fixed-point oracle on 200 random
   liquid-only networks (sup-norm 1e-8, under 10 s);
2. two hand-derived clearing cases hold to 1e-12 / 1e-10;
3. the analytic half-space search is certified within one grid spacing with
   zero monotonicity violations at three resolutions (under 1 s);
4. the five-model aggregation case study reproduces its qualitative
   structure over 5 seeds on a 50x50 grid at 10^4 scenarios (under 5 min);
5. the two-tier network case study shows the connectivity containment,
   the large-firm capital ordering, and EAR minimality over 5 network
   seeds at 10^3 scenarios on a 40x40 grid (under 30 min);
6. the three-tier study nests acceptance regions monotonically in the
   liquid fraction at reduced scale (under 60 min);
7. risk-measure axioms hold as property suites (cash-invariance,
   monotonicity, society-equity concavity, the OCE/AV@R equivalence, and
   a clean quasi-convexity probe);
8. reported EAR minimizers are undominated and symmetric ties return the
   full segment.
"""

import time

import numpy as np
import pytest

from sysrisk import (
    AcceptanceSpec,
    AggregationSpec,
    AggregationValueModel,
    ConstantPrice,
    GridSpec,
    GroupMap,
    LiabilityNetwork,
    LinearSqrtPrice,
    ScenarioMatrix,
    build_run,
    ear,
    grid_search,
    is_acceptable,
    membership_oracle,
    preset_config,
    resolve_config,
    rho,
)
import oracles
from oracles import clear, equity

UNIT = ConstantPrice(1.0)


def _search_preset(name, seed=None, mode=None):
    cfg = preset_config(name)
    if seed is not None:
        cfg["seed"] = seed
    if mode is not None:
        cfg["model"]["aggregation"]["mode"] = mode
    plan = build_run(resolve_config(cfg))
    approx = grid_search(membership_oracle(plan.model, plan.acceptance), plan.grid)
    return plan, approx


def _containment_consistency(acc_small, acc_large):
    """Fraction of lattice points consistent with acc_small <= acc_large."""
    return 1.0 - float(np.mean(acc_small & ~acc_large))


def _assert_minimal_in_labels(approximation, minimizers):
    """Each minimizer must be the only acceptable point in its lower box."""
    grid = approximation.grid
    axes = grid.axes()
    labels = approximation.labels
    for row in np.atleast_2d(minimizers):
        idx = tuple(
            int(np.argmin(np.abs(axes[d] - row[d]))) for d in range(grid.ndim)
        )
        sub = labels[tuple(slice(0, i + 1) for i in idx)]
        assert int((sub == 1).sum()) == 1, (row, idx)


def test_criterion_1_clearing_matches_bottom_up_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        nominal = rng.uniform(0.0, 2.0, size=(n + 1, n + 1))
        nominal[0, :] = 0.0
        np.fill_diagonal(nominal, 0.0)
        net = LiabilityNetwork(nominal, groups=GroupMap([1] * n))
        x = rng.uniform(0.05, 1.5, size=n)  # strictly positive cash
        top_down = clear(net, x, np.zeros(n), UNIT, tol=1e-13).p
        bottom_up = oracles.clear_bottom_up(net.nominal, x)
        assert float(np.max(np.abs(top_down - bottom_up))) <= 1e-8
    assert time.monotonic() - start < 10.0


def test_criterion_2_hand_clearing_cases():
    # two firms: firm 1 owes firm 2 and society, firm 2 owes society only
    nominal = np.zeros((3, 3))
    nominal[1, 2] = 1.0
    nominal[1, 0] = 1.0
    nominal[2, 0] = 1.0
    net = LiabilityNetwork(nominal)
    result = clear(net, x=[0.5, 0.2], s=[0.0, 0.0], f=UNIT)
    assert result.p == pytest.approx([0.5, 0.45], abs=1e-12)
    e = equity(net, [0.5, 0.2], [0.0, 0.0], UNIT)
    assert e[0] == pytest.approx(0.70, abs=1e-12)

    # one firm forced to sell its single illiquid share into f(y) = 1/(1+y)
    single = np.zeros((2, 2))
    single[1, 0] = 1.0
    fire = clear(
        LiabilityNetwork(single), x=[0.0], s=[1.0],
        f=lambda y: 1.0 / (1.0 + np.asarray(y, dtype=float)),
    )
    assert fire.pi == pytest.approx(0.5, abs=1e-10)
    assert fire.p == pytest.approx([0.5], abs=1e-10)


def test_criterion_3_half_space_sandwich_certification():
    start = time.monotonic()

    def oracle(k):
        return float(k[0]) + float(k[1]) >= 2.0

    for resolution in (5, 9, 17):
        spacing = 4.0 / (resolution - 1)
        approx = grid_search(oracle, GridSpec([0.0, 0.0], [4.0, 4.0], resolution))
        labels = approx.labels
        assert (labels >= 0).all()  # every lattice point decided
        # zero monotonicity violations along either axis
        assert np.all(np.diff(labels, axis=0) >= 0)
        assert np.all(np.diff(labels, axis=1) >= 0)
        inner = approx.inner_frontier.sum(axis=1)
        outer = approx.outer_frontier.sum(axis=1)
        assert len(inner) and len(outer)
        # the frontiers sandwich the true line k1 + k2 = 2 within one spacing
        assert np.all(inner >= 2.0 - 1e-12)
        assert np.all(inner <= 2.0 + spacing + 1e-12)
        assert np.all(outer < 2.0)
        assert np.all(outer >= 2.0 - spacing - 1e-12)
        assert np.allclose(approx.grid.spacing, spacing)
    assert time.monotonic() - start < 1.0


def test_criterion_4_aggregation_case_study():
    start = time.monotonic()
    spacing = 2.0 / 49.0
    variants = ("sum", "loss_insensitive", "loss_sensitive",
                "exp_insensitive", "exp_sensitive")
    for seed in (1, 2, 3, 4, 5):
        searched = {v: _search_preset(f"agg_lognormal:{v}", seed=seed)[1]
                    for v in variants}
        searched["sum_sensitive"] = _search_preset(
            "agg_lognormal:sum", seed=seed, mode="sensitive")[1]

        # (a) capital-insensitive models have affine frontiers: every minimal
        # point sits within one spacing of a single total-capital level
        for variant in ("sum", "loss_insensitive", "exp_insensitive"):
            approx = searched[variant]
            if len(approx.inner_frontier) == 0:
                assert approx.degenerate == "all_out", (seed, variant)
                continue
            totals = approx.inner_frontier.sum(axis=1)
            assert totals.max() - totals.min() <= spacing + 1e-9, (seed, variant)

        # (b) for plain sums, capital sensitivity makes no difference
        assert np.array_equal(searched["sum"].labels,
                              searched["sum_sensitive"].labels), seed

        # (c) capital-sensitive loss aggregation is the more conservative one
        loss_sens = searched["loss_sensitive"].labels == 1
        loss_insens = searched["loss_insensitive"].labels == 1
        assert not np.any(loss_sens & ~loss_insens), seed

        # (d) insensitive exponential aggregation is the most conservative
        # of the five models on this box
        exp_insens = searched["exp_insensitive"].labels == 1
        for variant in ("sum", "loss_insensitive", "loss_sensitive", "exp_sensitive"):
            other = searched[variant].labels == 1
            assert not np.any(exp_insens & ~other), (seed, variant)
    assert time.monotonic() - start < 300.0


def test_criterion_5_two_tier_case_study():
    start = time.monotonic()
    seeds = (1, 2, 3, 4, 5)

    # raising intra-group connectivity among large firms (B4 -> B2) shrinks
    # the acceptable region; the two runs share scenario and network seeds
    for seed in seeds:
        acc_b2 = _search_preset("two_tier:B2", seed=seed)[1].labels == 1
        acc_b4 = _search_preset("two_tier:B4", seed=seed)[1].labels == 1
        assert _containment_consistency(acc_b2, acc_b4) >= 0.95, seed

    # under equal capital prices the large-firm group carries more capital
    ordered_seeds = 0
    for seed in seeds:
        _, approx = _search_preset("two_tier:A1", seed=seed)
        result = ear(approx, [1.0, 1.0])
        _assert_minimal_in_labels(approx, result.minimizers)  # always minimal
        if all(row[0] > row[1] for row in result.minimizers):
            ordered_seeds += 1
    assert ordered_seeds >= 4
    assert time.monotonic() - start < 1800.0


def test_criterion_6_three_tier_liquidity_nesting():
    start = time.monotonic()
    alphas = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    acceptable = {}
    for alpha in alphas:
        _, approx = _search_preset(f"three_tier:alpha={alpha:g}")
        acceptable[alpha] = approx.labels == 1
    # a larger liquid fraction can only enlarge the acceptance region
    for low, high in zip(alphas, alphas[1:]):
        consistency = _containment_consistency(acceptable[low], acceptable[high])
        assert consistency >= 0.95, (low, high, consistency)
    assert time.monotonic() - start < 3600.0


def test_criterion_7_axiom_property_suites():
    rng = np.random.default_rng(701)
    specs = (
        AcceptanceSpec(criterion="avar", lam=0.2),
        AcceptanceSpec(criterion="ubsr", power=2.0, z=1.0),
        AcceptanceSpec(criterion="oce"),
        AcceptanceSpec(criterion="entropic", level=0.5),
    )

    # cash-invariance: rho(x + t) = rho(x) - t for every criterion
    for spec in specs:
        for _ in range(25):
            x = rng.uniform(-0.8, 4.0, size=40)
            base = rho(x, spec)
            for t in (-2.5, -1.0, 0.7, 3.1):
                assert rho(x + t, spec) == pytest.approx(base - t, abs=1e-8)

    # monotonicity: pointwise larger samples never carry more risk
    for spec in specs:
        for _ in range(25):
            x = rng.uniform(-0.8, 4.0, size=40)
            y = x + rng.uniform(0.0, 2.0, size=40)
            assert rho(y, spec) <= rho(x, spec) + 1e-12

    # the same two axioms at the set level, on a two-firm aggregation model
    values = rng.normal(0.5, 1.0, size=(2, 80))
    groups = GroupMap([1, 1])
    agg = AggregationSpec(kind="loss", mode="sensitive")
    model = AggregationValueModel(ScenarioMatrix(values), agg, groups)
    spec = AcceptanceSpec(criterion="avar", lam=0.3)
    box = GridSpec([0.0, 0.0], [3.0, 3.0], 7)
    plain = grid_search(membership_oracle(model, spec), box)

    class _Offset:
        """Evaluates the wrapped model at a fixed capital offset."""

        def __init__(self, inner, offset):
            self.inner = inner
            self.offset = np.asarray(offset, dtype=float)

        @property
        def n_groups(self):
            return self.inner.groups.n_groups

        def samples_at(self, k):
            return self.inner.samples_at(np.asarray(k, dtype=float) + self.offset)

    # cash-invariance: searching the box shifted by -m for the model offset
    # by +m relabels the exact same allocations
    m = np.array([1.0, 0.5])
    shifted_box = GridSpec(np.array(box.lower) - m, np.array(box.upper) - m, 7)
    shifted = grid_search(membership_oracle(_Offset(model, m), spec), shifted_box)
    assert np.array_equal(plain.labels, shifted.labels)
    assert np.allclose(shifted.inner_frontier + m, plain.inner_frontier, atol=1e-12)

    # monotonicity: a model with pointwise worse scenario values accepts
    # no allocation the better model rejects
    worse_values = values - rng.uniform(0.0, 1.0, size=values.shape)
    worse = AggregationValueModel(ScenarioMatrix(worse_values), agg, groups)
    worse_labels = grid_search(membership_oracle(worse, spec), box).labels
    assert not np.any((worse_labels == 1) & (plain.labels != 1))

    # society equity is midpoint concave in the cash endowment
    net_rng = np.random.default_rng(702)
    nominal = net_rng.uniform(0.0, 2.0, size=(5, 5))
    nominal[0, :] = 0.0
    np.fill_diagonal(nominal, 0.0)
    net = LiabilityNetwork(nominal, groups=GroupMap([1] * 4))
    zeros = np.zeros(4)
    for _ in range(100):
        a = net_rng.uniform(0.0, 1.5, size=4)
        b = net_rng.uniform(0.0, 1.5, size=4)
        mid = equity(net, (a + b) / 2.0, zeros, UNIT)[0]
        avg = 0.5 * (equity(net, a, zeros, UNIT)[0] + equity(net, b, zeros, UNIT)[0])
        assert mid >= avg - 1e-9

    # concave aggregation plus a convex criterion: blending two scenario
    # draws never breaks acceptability on the lattice
    other_values = rng.normal(0.5, 1.0, size=(2, 80))
    other = AggregationValueModel(ScenarioMatrix(other_values), agg, groups)
    mixed = AggregationValueModel(ScenarioMatrix(0.5 * values + 0.5 * other_values), agg, groups)
    checked, _, violations = oracles.probe_scan(
        *(membership_oracle(m, spec) for m in (model, other, mixed)),
        GridSpec([0.0, 0.0], [5.0, 5.0], 10).axes(),
    )
    assert checked > 0
    assert violations.shape[0] == 0


def test_criterion_8_ear_minimality_and_ties():
    rng = np.random.default_rng(801)

    # randomized monotone oracles: every reported minimizer is undominated
    for _ in range(15):
        direction = rng.uniform(0.2, 1.0, size=2)
        cut = float(direction.sum() * 4.0 * rng.uniform(0.2, 0.8))
        approx = grid_search(
            lambda k: float(direction @ k) >= cut,
            GridSpec([0.0, 0.0], [4.0, 4.0], 9),
        )
        result = ear(approx, rng.uniform(0.3, 2.0, size=2))
        _assert_minimal_in_labels(approx, result.minimizers)

    # and in three dimensions
    direction = rng.uniform(0.2, 1.0, size=3)
    cut = float(direction.sum() * 4.0 * 0.4)
    approx3 = grid_search(
        lambda k: float(direction @ k) >= cut,
        GridSpec([0.0] * 3, [4.0] * 3, 7),
    )
    result3 = ear(approx3, rng.uniform(0.3, 2.0, size=3))
    _assert_minimal_in_labels(approx3, result3.minimizers)

    # symmetric half-space, symmetric weights: the whole tie segment comes back
    approx = grid_search(
        lambda k: float(k[0]) + float(k[1]) >= 2.0,
        GridSpec([0.0, 0.0], [4.0, 4.0], 5),
    )
    result = ear(approx, [1.0, 1.0])
    assert result.min_value == pytest.approx(2.0, abs=1e-12)
    segment = sorted(tuple(float(v) for v in row) for row in result.minimizers)
    assert segment == [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]
