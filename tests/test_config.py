"""Config loading, resolution, hashing, and run construction."""

import json

import numpy as np
import pytest

from sysrisk.aggregation import (
    AggregationSpec,
    AggregationValueModel,
    GroupMap,
)
from sysrisk.clearing import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    LiabilityNetwork,
    NetworkValueModel,
    make_inverse_demand,
    write_edge_csv,
)
from sysrisk.config import build_run, config_hash, load_config, resolve_config
from sysrisk.errors import ConfigurationError
from sysrisk.netgen import NetworkGenSpec, sample_network
from sysrisk.riskmeasure import PinnedAllocationModel


def agg_config():
    return {
        "name": "agg-demo",
        "seed": 7,
        "scenarios": {
            "count": 40,
            "margins": [{"type": "shifted_lognormal", "mu": 0.0}],
        },
        "model": {
            "type": "aggregation",
            "groups": [2],
            "aggregation": {"kind": "sum", "mode": "insensitive"},
        },
        "acceptance": {"criterion": "avar", "lam": 0.5},
        "grid": {"lower": [0.0], "upper": [4.0], "resolution": 5},
    }


def agg_config_two_groups():
    cfg = agg_config()
    cfg["model"]["groups"] = [1, 1]
    cfg["scenarios"]["margins"] = [
        {"type": "shifted_lognormal", "mu": 0.0},
        {"type": "scaled_beta", "alpha": 2.0, "beta": 2.0},
    ]
    cfg["grid"] = {"lower": [0.0, 0.0], "upper": [4.0, 4.0], "resolution": 5}
    return cfg


def net_config():
    return {
        "seed": 3,
        "scenarios": {
            "count": 25,
            "margins": [{"type": "scaled_beta", "alpha": 2.0, "beta": 3.0, "scale": 2.0}],
        },
        "model": {
            "type": "network",
            "groups": [3],
            "network": {
                "generate": {
                    "probabilities": [[0.6]],
                    "weights": [[1.5]],
                    "society_weights": [2.0],
                },
            },
        },
        "acceptance": {"criterion": "avar", "lam": 0.2},
        "grid": {"lower": [0.0], "upper": [2.0], "resolution": 3},
    }


def assert_rejects(cfg, fragment):
    with pytest.raises(ConfigurationError) as err:
        resolve_config(cfg)
    assert fragment in str(err.value), str(err.value)


# ---------------------------------------------------------------------------
# file loading


def test_load_yaml_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("name: demo\nseed: 11\nscenarios:\n  count: 5\n")
    doc = load_config(path)
    assert doc == {"name": "demo", "seed": 11, "scenarios": {"count": 5}}


def test_load_json_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(agg_config()))
    assert load_config(path) == agg_config()


def test_load_rejects_unparseable(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("name: [unclosed\n  - ::\n")
    with pytest.raises(ConfigurationError, match="cannot parse"):
        load_config(path)


def test_load_rejects_non_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigurationError, match="does not contain a mapping"):
        load_config(path)


def test_load_unwraps_manifest(tmp_path):
    resolved = resolve_config(agg_config())
    manifest = {"status": "completed", "config_hash": "x", "resolved_config": resolved}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert load_config(path) == resolved


def test_load_rejects_bad_manifest_payload(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"resolved_config": [1, 2]}))
    with pytest.raises(ConfigurationError, match="resolved_config is not a mapping"):
        load_config(path)


# ---------------------------------------------------------------------------
# defaults


def test_aggregation_defaults():
    cfg = agg_config()
    del cfg["name"]
    r = resolve_config(cfg)
    assert r["name"] == "run"
    assert r["seed"] == 7
    assert r["threads"] == 1
    assert r["refine"] == 1
    assert r["scenarios"]["correlation"] == 0.0
    assert r["scenarios"]["seed"] == 7  # defaults to the master seed
    assert r["scenarios"]["liquid_fraction"] is None
    assert r["scenarios"]["margins"][0] == {
        "type": "shifted_lognormal", "mu": 0.0, "sigma": 1.0, "b": 0.0,
    }
    assert r["model"]["aggregation"]["theta"] == 2.0
    assert r["acceptance"]["shift"] == 0.0
    assert r["acceptance"]["loss"] is None
    assert r["acceptance"]["shift_fraction_of_promised"] is None
    assert r["grid"]["resolution"] == [5]
    assert r["grid"]["nonneg"] is False
    assert r["grid"]["fixed"] == {}
    assert r["ear"] == {"weights": []}
    assert r["output"] == {
        "directory": "out",
        "write_scenarios": False,
        "write_network": False,
        "write_labels": True,
    }


def test_network_defaults():
    r = resolve_config(net_config())
    net = r["model"]["network"]
    assert net["generate"]["seed"] == 4  # master seed + 1 keeps the streams apart
    assert net["edges_file"] is None
    assert net["inverse_demand"] == {"type": "constant"}
    assert net["clearing"] == {"tol": DEFAULT_TOL, "max_iter": DEFAULT_MAX_ITER}


def test_explicit_seeds_kept():
    cfg = net_config()
    cfg["scenarios"]["seed"] = 101
    cfg["model"]["network"]["generate"]["seed"] = 202
    r = resolve_config(cfg)
    assert r["scenarios"]["seed"] == 101
    assert r["model"]["network"]["generate"]["seed"] == 202


def test_missing_master_seed_drawn_fresh():
    cfg = agg_config()
    del cfg["seed"]
    r1 = resolve_config(cfg)
    r2 = resolve_config(cfg)
    assert isinstance(r1["seed"], int) and r1["seed"] >= 0
    assert r1["seed"] != r2["seed"]
    assert r1["scenarios"]["seed"] == r1["seed"]


@pytest.mark.parametrize("make", [agg_config, agg_config_two_groups, net_config])
def test_resolution_is_idempotent(make):
    once = resolve_config(make())
    assert resolve_config(once) == once


def test_resolution_scalar_broadcasts_to_all_free_dims():
    r = resolve_config(agg_config_two_groups())
    assert r["grid"]["resolution"] == [5, 5]
    cfg = agg_config_two_groups()
    cfg["grid"]["resolution"] = [5, 9]
    assert resolve_config(cfg)["grid"]["resolution"] == [5, 9]


def test_fixed_accepts_int_keys():
    cfg = agg_config_two_groups()
    cfg["grid"]["fixed"] = {1: 0.5}  # YAML produces int keys
    cfg["grid"]["lower"] = [0.0]
    cfg["grid"]["upper"] = [4.0]
    r = resolve_config(cfg)
    assert r["grid"]["fixed"] == {"1": 0.5}


# ---------------------------------------------------------------------------
# rejection paths


@pytest.mark.parametrize("key,value,fragment", [
    ("name", 7, "config.name"),
    ("seed", -1, "must be at least 0"),
    ("threads", 0, "must be at least 1"),
    ("refine", 0, "must be at least 1"),
])
def test_top_level_scalar_validation(key, value, fragment):
    cfg = agg_config()
    cfg[key] = value
    assert_rejects(cfg, fragment)


def test_unknown_top_level_key():
    cfg = agg_config()
    cfg["extras"] = 1
    assert_rejects(cfg, "unknown top-level keys ['extras']")


@pytest.mark.parametrize("path,fragment", [
    (("scenarios",), "config error at scenarios: unknown keys"),
    (("model",), "config error at model: unknown keys"),
    (("model", "aggregation"), "config error at model.aggregation: unknown keys"),
    (("acceptance",), "config error at acceptance: unknown keys"),
    (("grid",), "config error at grid: unknown keys"),
    (("output",), "config error at output: unknown keys"),
])
def test_unknown_nested_keys(path, fragment):
    cfg = agg_config()
    cfg.setdefault("output", {})
    node = cfg
    for key in path:
        node = node[key]
    node["bogus"] = 1
    assert_rejects(cfg, fragment)


def test_unknown_ear_key():
    cfg = agg_config()
    cfg["ear"] = {"weights": [[1.0]], "bogus": 1}
    assert_rejects(cfg, "config error at ear: unknown keys")


def test_unknown_network_keys():
    cfg = net_config()
    cfg["model"]["network"]["bogus"] = 1
    assert_rejects(cfg, "config error at model.network: unknown keys")
    cfg = net_config()
    cfg["model"]["network"]["generate"]["bogus"] = 1
    assert_rejects(cfg, "config error at model.network.generate: unknown keys")


def test_scenarios_count_required_and_positive():
    cfg = agg_config()
    del cfg["scenarios"]["count"]
    assert_rejects(cfg, "scenarios.count: required value missing")
    cfg = agg_config()
    cfg["scenarios"]["count"] = 0
    assert_rejects(cfg, "must be at least 1")
    cfg = agg_config()
    cfg["scenarios"]["count"] = 2.5
    assert_rejects(cfg, "expected an integer")


def test_margins_required_and_counted():
    cfg = agg_config()
    del cfg["scenarios"]["margins"]
    assert_rejects(cfg, "scenarios.margins")
    cfg = agg_config()
    cfg["scenarios"]["margins"] = cfg["scenarios"]["margins"] * 2
    assert_rejects(cfg, "2 margins for 1 groups")


def test_margin_validation():
    cfg = agg_config()
    del cfg["scenarios"]["margins"][0]["type"]
    assert_rejects(cfg, "scenarios.margins[0].type: required value missing")
    cfg = agg_config()
    cfg["scenarios"]["margins"][0]["type"] = "cauchy"
    assert_rejects(cfg, "must be one of")
    cfg = agg_config()
    del cfg["scenarios"]["margins"][0]["mu"]
    assert_rejects(cfg, "scenarios.margins[0].mu: required value missing")
    cfg = agg_config()
    cfg["scenarios"]["margins"][0]["b2"] = 1.0
    assert_rejects(cfg, "unknown margin keys ['b2']")
    cfg = agg_config()
    cfg["scenarios"]["margins"] = [{"type": "scaled_beta", "alpha": 2.0}]
    assert_rejects(cfg, "scenarios.margins[0].beta: required value missing")


@pytest.mark.parametrize("groups", [None, [], [0], [2.5], [True], [2, -1], "two"])
def test_groups_must_be_positive_ints(groups):
    cfg = agg_config()
    cfg["model"]["groups"] = groups
    assert_rejects(cfg, "model.groups")


def test_model_type_required_and_known():
    cfg = agg_config()
    del cfg["model"]["type"]
    assert_rejects(cfg, "model.type: required value missing")
    cfg = agg_config()
    cfg["model"]["type"] = "tree"
    assert_rejects(cfg, "must be one of")


def test_model_sections_are_mutually_exclusive():
    cfg = agg_config()
    cfg["model"]["network"] = {}
    assert_rejects(cfg, "model.network: not allowed for aggregation models")
    cfg = net_config()
    cfg["model"]["aggregation"] = {}
    assert_rejects(cfg, "model.aggregation: not allowed for network models")


def test_aggregation_section_validation():
    cfg = agg_config()
    del cfg["model"]["aggregation"]["kind"]
    assert_rejects(cfg, "model.aggregation.kind: required value missing")
    cfg = agg_config()
    cfg["model"]["aggregation"]["kind"] = "max"
    assert_rejects(cfg, "must be one of")
    cfg = agg_config()
    cfg["model"]["aggregation"]["mode"] = "soft"
    assert_rejects(cfg, "must be one of")
    cfg = agg_config()
    cfg["model"]["aggregation"]["theta"] = "hot"
    assert_rejects(cfg, "expected a number")


def test_liquid_fraction_rules():
    cfg = agg_config()
    cfg["scenarios"]["liquid_fraction"] = 0.5
    assert_rejects(cfg, "only meaningful for network models")
    for bad in (-0.1, 1.5):
        cfg = net_config()
        cfg["scenarios"]["liquid_fraction"] = bad
        assert_rejects(cfg, "must lie in [0, 1]")
    cfg = net_config()
    cfg["scenarios"]["liquid_fraction"] = 0.25
    assert resolve_config(cfg)["scenarios"]["liquid_fraction"] == 0.25


def test_network_source_is_exactly_one_of_two():
    cfg = net_config()
    del cfg["model"]["network"]["generate"]
    assert_rejects(cfg, "exactly one of generate or edges_file")
    cfg = net_config()
    cfg["model"]["network"]["edges_file"] = "edges.csv"
    assert_rejects(cfg, "exactly one of generate or edges_file")
    cfg = net_config()
    cfg["model"]["network"] = {"edges_file": 7}
    assert_rejects(cfg, "expected a file path")


def test_generate_section_validation():
    cfg = net_config()
    cfg["model"]["network"]["generate"]["probabilities"] = [[0.5], [0.5]]
    assert_rejects(cfg, "expected a 1x1 matrix")
    cfg = net_config()
    del cfg["model"]["network"]["generate"]["weights"]
    assert_rejects(cfg, "model.network.generate.weights")
    cfg = net_config()
    cfg["model"]["network"]["generate"]["society_weights"] = [1.0, 2.0]
    assert_rejects(cfg, "expected 1 entries")
    cfg = net_config()
    cfg["model"]["network"]["generate"]["seed"] = -1
    assert_rejects(cfg, "must be at least 0")


def test_clearing_section_validation():
    cfg = net_config()
    cfg["model"]["network"]["clearing"] = {"max_iter": 0}
    assert_rejects(cfg, "must be at least 1")
    cfg = net_config()
    cfg["model"]["network"]["clearing"] = {"tol": "tight"}
    assert_rejects(cfg, "expected a number")


def test_acceptance_validation():
    cfg = agg_config()
    del cfg["acceptance"]["criterion"]
    assert_rejects(cfg, "acceptance.criterion: required value missing")
    cfg = agg_config()
    cfg["acceptance"]["criterion"] = "variance"
    assert_rejects(cfg, "must be one of")
    cfg = agg_config()
    cfg["acceptance"]["shift"] = float("inf")
    assert_rejects(cfg, "value must be finite")
    cfg = agg_config()
    del cfg["acceptance"]["lam"]  # parameter mismatch caught at resolve time
    assert_rejects(cfg, "config error at acceptance")
    cfg = agg_config()
    cfg["acceptance"]["shift_fraction_of_promised"] = 0.5
    assert_rejects(cfg, "only valid for network models")


def test_acceptance_named_loss_resolves():
    cfg = agg_config()
    cfg["acceptance"] = {"criterion": "ubsr", "loss": "exp", "z": 1.0}
    r = resolve_config(cfg)
    assert r["acceptance"]["loss"] == "exp"
    assert r["acceptance"]["z"] == 1.0
    assert r["acceptance"]["lam"] is None


def test_grid_bounds_must_be_lists_sized_to_free_dims():
    cfg = agg_config()
    cfg["grid"]["lower"] = 0.0
    assert_rejects(cfg, "grid.lower")
    cfg = agg_config_two_groups()
    cfg["grid"]["lower"] = [0.0]
    assert_rejects(cfg, "grid.lower: expected 2 entries (free groups), got 1")
    cfg = agg_config_two_groups()
    cfg["grid"]["resolution"] = [5, 5, 5]
    assert_rejects(cfg, "grid.resolution: expected 2 entries")
    cfg = agg_config()
    cfg["grid"]["resolution"] = True
    assert_rejects(cfg, "grid.resolution")
    cfg = agg_config()
    cfg["grid"]["nonneg"] = "yes"
    assert_rejects(cfg, "expected true/false")


def test_grid_fixed_validation():
    cfg = agg_config_two_groups()
    cfg["grid"]["fixed"] = {"0": 1.0}
    assert_rejects(cfg, "out of range 1..2")
    cfg = agg_config_two_groups()
    cfg["grid"]["fixed"] = {"abc": 1.0}
    assert_rejects(cfg, "keys must be group numbers")
    cfg = agg_config_two_groups()
    cfg["grid"]["fixed"] = {"1": float("nan")}
    assert_rejects(cfg, "must be a finite number")
    cfg = agg_config_two_groups()
    cfg["grid"]["fixed"] = {"1": True}
    assert_rejects(cfg, "must be a finite number")
    cfg = agg_config_two_groups()
    cfg["grid"]["fixed"] = {"1": 0.0, "2": 0.0}
    assert_rejects(cfg, "at least one group must remain free")


def test_grid_resolution_entries_must_be_integers():
    cfg = agg_config_two_groups()
    cfg["grid"]["resolution"] = [5.7, 5]
    assert_rejects(cfg, "grid.resolution[0]: expected an integer, got 5.7")
    cfg["grid"]["resolution"] = [5, 5.0]
    assert_rejects(cfg, "grid.resolution[1]: expected an integer, got 5.0")
    cfg["grid"]["resolution"] = (5, 7)
    assert resolve_config(cfg)["grid"]["resolution"] == [5, 7]


def test_network_grid_rejects_negative_capital():
    cfg = net_config()
    cfg["grid"]["lower"] = [-1.0]
    assert_rejects(cfg, "grid.lower[0]: network models take no negative capital")
    cfg["grid"]["nonneg"] = True  # the clip to zero makes it admissible
    assert resolve_config(cfg)["grid"]["lower"] == [-1.0]
    cfg = net_config()
    cfg["model"]["groups"] = [1, 2]
    cfg["scenarios"]["margins"] = cfg["scenarios"]["margins"] * 2
    cfg["model"]["network"]["generate"] = {
        "probabilities": [[0.6, 0.6], [0.6, 0.6]],
        "weights": [[1.5, 1.5], [1.5, 1.5]],
        "society_weights": [2.0, 2.0],
    }
    cfg["grid"]["fixed"] = {"1": -0.5}
    cfg["grid"]["nonneg"] = True  # does not clip pinned values
    assert_rejects(cfg, "grid.fixed.1: network models take no negative capital")
    agg = agg_config()
    agg["grid"]["lower"] = [-1.0]
    assert resolve_config(agg)["grid"]["lower"] == [-1.0]


def test_inverse_demand_parameters_checked_at_resolve_time():
    for demand, fragment in [
        ({"type": "constant", "foo": 1}, "unexpected keyword argument 'foo'"),
        ({"type": "linear_cap", "slope": "x", "floor": 0.5}, "'str'"),
        ({"type": "cifuentes_piecewise"}, "unknown inverse demand kind"),
        ({"type": "linear_sqrt", "slope": 1.0}, "linear_sqrt takes no parameters"),
    ]:
        cfg = net_config()
        cfg["model"]["network"]["inverse_demand"] = demand
        assert_rejects(cfg, "config error at model.network.inverse_demand: ")
        assert_rejects(cfg, fragment)
    cfg = net_config()
    cfg["model"]["network"]["inverse_demand"] = {"type": "linear_cap", "floor": 0.5, "slope": 1.0}
    demand = resolve_config(cfg)["model"]["network"]["inverse_demand"]
    assert list(demand.items()) == [("type", "linear_cap"), ("floor", 0.5), ("slope", 1.0)]


def test_grid_box_errors_surface_at_resolve_time():
    cfg = agg_config()
    cfg["grid"]["upper"] = [0.0]
    cfg["grid"]["lower"] = [4.0]
    assert_rejects(cfg, "config error at grid")
    cfg = agg_config()
    cfg["grid"]["resolution"] = 1
    assert_rejects(cfg, "config error at grid")


def test_ear_weights_validation():
    cfg = agg_config()
    cfg["ear"] = {"weights": 3}
    assert_rejects(cfg, "expected a list of weight vectors")
    cfg = agg_config()
    cfg["ear"] = {"weights": [[1.0, 1.0]]}
    assert_rejects(cfg, "ear.weights[0]: expected 1 entries")
    cfg = agg_config()
    cfg["ear"] = {"weights": [[0.0]]}
    assert_rejects(cfg, "weights must be strictly positive")
    cfg = agg_config()
    cfg["ear"] = {"weights": [[1.0], [2.0]]}
    assert resolve_config(cfg)["ear"]["weights"] == [[1.0], [2.0]]


def test_ear_weights_sized_to_free_dims_after_pinning():
    cfg = agg_config_two_groups()
    cfg["grid"]["fixed"] = {"2": 0.5}
    cfg["grid"]["lower"] = [0.0]
    cfg["grid"]["upper"] = [4.0]
    cfg["ear"] = {"weights": [[1.0]]}
    assert resolve_config(cfg)["ear"]["weights"] == [[1.0]]
    cfg["ear"] = {"weights": [[1.0, 1.0]]}
    assert_rejects(cfg, "ear.weights[0]: expected 1 entries")


def test_output_validation():
    cfg = agg_config()
    cfg["output"] = {"directory": 7}
    assert_rejects(cfg, "expected a string")
    cfg = agg_config()
    cfg["output"] = {"write_labels": "y"}
    assert_rejects(cfg, "expected true/false")


# ---------------------------------------------------------------------------
# hashing


def test_config_hash_ignores_key_order():
    r = resolve_config(agg_config())
    reordered = {k: r[k] for k in reversed(list(r))}
    h = config_hash(r)
    assert config_hash(reordered) == h
    assert len(h) == 64 and set(h) <= set("0123456789abcdef")


def test_config_hash_sees_content():
    r1 = resolve_config(agg_config())
    cfg = agg_config()
    cfg["seed"] = 8
    r2 = resolve_config(cfg)
    assert config_hash(r1) != config_hash(r2)


# ---------------------------------------------------------------------------
# building runs


def test_build_run_aggregation():
    plan = build_run(resolve_config(agg_config()))
    assert isinstance(plan.model, AggregationValueModel)
    assert plan.network is None
    assert plan.scenario_matrix.values.shape == (2, 40)
    assert plan.effective_shift == 0.0
    assert plan.acceptance.criterion == "avar"
    assert plan.acceptance.lam == 0.5
    assert plan.grid.lower == (0.0,)
    assert plan.grid.upper == (4.0,)
    assert tuple(plan.grid.resolution) == (5,)
    assert plan.ear_weights == []


def test_build_run_is_deterministic():
    r = resolve_config(agg_config())
    a = build_run(r)
    b = build_run(r)
    assert np.array_equal(a.scenario_matrix.values, b.scenario_matrix.values)
    cfg = agg_config()
    cfg["scenarios"]["seed"] = 99
    c = build_run(resolve_config(cfg))
    assert not np.array_equal(a.scenario_matrix.values, c.scenario_matrix.values)


def test_build_run_pins_groups():
    cfg = agg_config_two_groups()
    cfg["grid"]["fixed"] = {"2": 0.75}
    cfg["grid"]["lower"] = [0.0]
    cfg["grid"]["upper"] = [4.0]
    plan = build_run(resolve_config(cfg))
    assert isinstance(plan.model, PinnedAllocationModel)
    assert plan.model.pinned == {1: 0.75}
    # the pinned adapter must agree with evaluating the full model directly
    full = AggregationValueModel(
        plan.scenario_matrix,
        AggregationSpec(kind="sum", mode="insensitive", theta=2.0),
        GroupMap([1, 1]),
    )
    free = np.array([0.3])
    assert np.array_equal(
        plan.model.samples_at(free), full.samples_at(np.array([0.3, 0.75]))
    )


def test_build_run_network():
    plan = build_run(resolve_config(net_config()))
    assert isinstance(plan.model, NetworkValueModel)
    assert isinstance(plan.network, LiabilityNetwork)
    assert plan.network.n_firms == 3
    # generated network must match a direct draw with the derived seed
    direct = sample_network(NetworkGenSpec(
        group_sizes=(3,), q=[[0.6]], w=[[1.5]], w_society=[2.0], seed=4,
    ))
    assert np.array_equal(plan.network.nominal, direct.nominal)


def test_build_run_network_shift_fraction():
    cfg = net_config()
    cfg["acceptance"]["shift"] = 0.1
    cfg["acceptance"]["shift_fraction_of_promised"] = 0.5
    plan = build_run(resolve_config(cfg))
    expected = 0.1 + 0.5 * plan.network.society_promised
    assert plan.effective_shift == pytest.approx(expected, abs=1e-12)
    assert plan.acceptance.shift == plan.effective_shift


def test_build_run_liquid_split():
    cfg = net_config()
    cfg["scenarios"]["liquid_fraction"] = 0.25
    plan = build_run(resolve_config(cfg))
    ref = NetworkValueModel(
        plan.network,
        plan.scenario_matrix.scaled(0.25),
        plan.scenario_matrix.scaled(0.75),
        make_inverse_demand("constant"),
    )
    k = np.array([0.5])
    assert np.array_equal(plan.model.samples_at(k), ref.samples_at(k))


def test_build_run_liquid_default_is_all_liquid():
    plan = build_run(resolve_config(net_config()))
    ref = NetworkValueModel(
        plan.network,
        plan.scenario_matrix.scaled(1.0),
        plan.scenario_matrix.scaled(0.0),
        make_inverse_demand("constant"),
    )
    k = np.array([0.25])
    assert np.array_equal(plan.model.samples_at(k), ref.samples_at(k))


def test_build_run_from_edge_file(tmp_path):
    source = build_run(resolve_config(net_config()))
    path = tmp_path / "edges.csv"
    write_edge_csv(source.network, path)
    cfg = net_config()
    cfg["model"]["network"] = {"edges_file": str(path)}
    plan = build_run(resolve_config(cfg))
    assert np.array_equal(plan.network.nominal, source.network.nominal)
    assert plan.config["model"]["network"]["generate"] is None
