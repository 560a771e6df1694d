"""Config loading, resolution, hashing, and run construction."""

import json
import math

import numpy as np
import pytest

from sysrisk.aggregation import AggregationValueModel
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
from sysrisk.presets import preset_config


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
    assert "threads" not in r
    assert "refine" not in r
    assert r["scenarios"]["correlation"] == 0.0
    assert r["scenarios"]["seed"] == 7  # defaults to the master seed
    assert r["scenarios"]["liquid_fraction"] is None
    assert r["scenarios"]["margins"][0] == {
        "type": "shifted_lognormal", "mu": 0.0, "sigma": 1.0, "b": 0.0,
    }
    assert r["model"]["aggregation"]["theta"] == 2.0
    assert r["acceptance"]["shift"] == 0.0
    assert set(r["acceptance"]) == {"criterion", "shift", "lam", "power", "z", "level",
                                    "shift_fraction_of_promised"}
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


def test_seeds_up_to_64_bits_resolve():
    # the scenario stream's generator takes an unsigned 64-bit key, the network's any size
    cfg = net_config()
    cfg["seed"] = 2**64 - 1
    r = resolve_config(cfg)
    assert r["scenarios"]["seed"] == 2**64 - 1
    assert r["model"]["network"]["generate"]["seed"] == 2**64
    cfg["scenarios"]["seed"] = 2**64
    assert_rejects(cfg, f"config error at scenarios.seed: must be at most {2**64 - 1}, got {2**64}")


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
    cfg["grid"]["fixed"] = {1.0: 0.5}  # an integral float names a group too
    assert resolve_config(cfg)["grid"]["fixed"] == {"1": 0.5}


# ---------------------------------------------------------------------------
# rejection paths


@pytest.mark.parametrize("key,value,fragment", [
    ("name", 7, "config.name"),
    ("seed", -1, "must be at least 0"),
    ("seed", 2**64, f"config.seed: must be at most {2**64 - 1}"),
    ("threads", 0, "must be at least 1"),
    ("refine", 0, "must be at least 1"),
])
def test_top_level_scalar_validation(key, value, fragment):
    cfg = agg_config()
    cfg[key] = value
    assert_rejects(cfg, fragment)


@pytest.mark.parametrize("where,fragment", [
    ("scenarios.correlation", "scenarios.correlation: value must be finite"),
    ("scenarios.margins.0.mu", "scenarios.margins[0].mu: value must be finite"),
    ("acceptance.shift", "acceptance.shift: value must be finite"),
    ("grid.lower.0", "grid.lower[0]: value must be finite"),
    ("ear.weights.0.1", "ear.weights[0][1]: value must be finite"),
    ("grid.fixed.1", "grid.fixed: pinned value for group 1 must be a finite number"),
])
def test_integers_past_the_float_range_are_rejected(where, fragment):
    cfg = agg_config_two_groups()
    cfg["ear"] = {"weights": [[1.0, 1.0]]}
    cfg["grid"]["fixed"] = {}
    *parents, last = [int(p) if p.isdigit() else p for p in where.split(".")]
    node = cfg
    for part in parents:
        node = node[part]
    node[last] = 10**400  # past the float range; grid.fixed takes int keys too
    assert_rejects(cfg, fragment)


@pytest.mark.parametrize("where,value,fragment", [
    ("scenarios.count", 10**400, "scenarios.count: a scenario matrix of 2 firms"),
    ("scenarios.count", 2**63, "scenarios.count: a scenario matrix of 2 firms"),
    ("model.groups", [2**62, 50], f"scenarios.count: a scenario matrix of {2**62 + 50} firms"),
    ("refine", 10**400, "refine: the searched lattice exceeds"),
    ("grid.resolution", [2**32, 2**32], "grid.resolution: the searched lattice exceeds"),
    ("grid.resolution", [10**20, 5], "grid.resolution: the searched lattice exceeds"),
])
def test_arrays_past_the_index_range_are_rejected(where, value, fragment):
    # resolve_config alone must reject these: building them would fail or never end
    cfg = agg_config_two_groups()
    *parents, last = where.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[last] = value
    assert_rejects(cfg, fragment)


def test_unknown_top_level_key():
    cfg = agg_config()
    cfg["extras"] = 1
    assert_rejects(cfg, "unknown top-level keys ['extras']")
    cfg[1] = 2  # keys of two types, which do not sort together
    assert_rejects(cfg, "unknown top-level keys [1, 'extras']")


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
    cfg = net_config()
    cfg["model"]["network"]["clearing"] = {"tol": 1e-9, "bogus": 1}
    assert_rejects(cfg, "config error at model.network.clearing: unknown keys ['bogus']")


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


@pytest.mark.parametrize("margin,fragment", [
    ({"type": "shifted_lognormal", "mu": 0.0, "sigma": -1.0},
     "scenarios.margins[1]: sigma must be >= 0"),
    ({"type": "scaled_beta", "alpha": 0.0, "beta": 2.0},
     "scenarios.margins[1]: beta shape parameters must be positive"),
    ({"type": "scaled_beta", "alpha": 2.0, "beta": 2.0, "scale": 0.0},
     "scenarios.margins[1]: scale must be positive"),
])
def test_margin_parameters_checked_at_resolve_time(margin, fragment):
    cfg = agg_config_two_groups()
    cfg["scenarios"]["margins"][1] = margin
    assert_rejects(cfg, fragment)


@pytest.mark.parametrize("correlation", [1.0, -0.2, 1.5])
def test_correlation_checked_at_resolve_time(correlation):
    cfg = agg_config()
    cfg["scenarios"]["correlation"] = correlation
    assert_rejects(cfg, "config error at scenarios.correlation: pairwise_correlation must lie "
                        f"in [0, 1), got {correlation}")
    cfg["scenarios"]["correlation"] = 0.999
    assert resolve_config(cfg)["scenarios"]["correlation"] == 0.999


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
    for theta in (0.0, -1.0):
        cfg = agg_config()
        cfg["model"]["aggregation"] = {"kind": "exp", "mode": "sensitive", "theta": theta}
        assert_rejects(cfg, f"config error at model.aggregation: theta must be positive, got {theta}")


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
    cfg = preset_config("two_tier:B2")  # a ragged row fails at the row, not in the sampler
    cfg["model"]["network"]["generate"]["weights"] = [[10.0], [2.0, 1.0]]
    assert_rejects(cfg, "config error at model.network.generate.weights[0]: expected 2 entries")
    cfg = preset_config("two_tier:B2")
    cfg["model"]["network"]["generate"]["probabilities"] = [[0.6, 0.2], [0.2]]
    assert_rejects(cfg, "config error at model.network.generate.probabilities[1]: expected 2 entries")
    for key, value, fragment in [  # the sampler's own checks, made at resolve time
        ("probabilities", [[1.5]], "link probabilities must lie in [0, 1]"),
        ("probabilities", [[-0.1]], "link probabilities must lie in [0, 1]"),
        ("weights", [[-1.0]], "obligation weights must be non-negative"),
        ("society_weights", [-2.0], "society weights must be non-negative"),
    ]:
        cfg = net_config()
        cfg["model"]["network"]["generate"][key] = value
        assert_rejects(cfg, f"config error at model.network.generate: {fragment}")


@pytest.mark.parametrize("value", [[], 0, False, ""])
@pytest.mark.parametrize("make,path", [
    (agg_config, ("scenarios",)),
    (agg_config, ("model",)),
    (agg_config, ("model", "aggregation")),
    (agg_config, ("acceptance",)),
    (agg_config, ("grid",)),
    (agg_config, ("ear",)),
    (agg_config, ("output",)),
    (agg_config, ("grid", "fixed")),
    (net_config, ("model", "network")),
    (net_config, ("model", "network", "inverse_demand")),
    (net_config, ("model", "network", "clearing")),
])
def test_a_falsy_section_that_is_not_a_mapping_fails_at_its_path(make, path, value):
    # only an absent or null section reads as empty
    cfg = make()
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert_rejects(cfg, f"config error at {'.'.join(path)}: expected a mapping, got "
                        f"{type(value).__name__}")


def test_clearing_section_validation():
    cfg = net_config()
    cfg["model"]["network"]["clearing"] = {"max_iter": 0}
    assert_rejects(cfg, "must be at least 1")
    cfg = net_config()
    cfg["model"]["network"]["clearing"] = {"tol": "tight"}
    assert_rejects(cfg, "expected a number")
    for tol in (0, -1):
        cfg = net_config()
        cfg["model"]["network"]["clearing"] = {"tol": tol}
        assert_rejects(cfg, f"model.network.clearing.tol: must be positive, got {float(tol)}")


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
    # shortfall risk with the exp loss is the entropic risk at level -log z
    cfg = agg_config()
    cfg["acceptance"] = {"criterion": "ubsr", "loss": "exp", "z": 0.25}
    r = resolve_config(cfg)
    assert r["acceptance"]["criterion"] == "entropic"
    assert r["acceptance"]["level"] == -math.log(0.25)
    assert r["acceptance"]["z"] is None and r["acceptance"]["lam"] is None
    assert "loss" not in r["acceptance"]
    assert resolve_config(r) == r
    cfg["acceptance"] = {"criterion": "entropic", "level": -math.log(0.25)}
    assert resolve_config(cfg) == r


@pytest.mark.parametrize("old,new", [
    # the OCE with the piecewise-linear utility is AV@R at utility_lam
    ({"criterion": "oce", "utility": "avar", "utility_lam": 0.3, "lam": 0.9},
     {"criterion": "avar", "lam": 0.3}),
    ({"criterion": "oce", "utility": "log1p", "shift": -10.0}, {"criterion": "oce", "shift": -10.0}),
    ({"criterion": "ubsr", "loss": "polynomial", "power": 2.0, "z": 0.5},
     {"criterion": "ubsr", "power": 2.0, "z": 0.5}),
    # the exp loss ignored a power, which the entropic criterion does not take
    ({"criterion": "ubsr", "loss": "exp", "power": 3.0, "z": 0.25},
     {"criterion": "entropic", "level": -math.log(0.25)}),
    # a loss or utility the criterion never used was read and ignored, and still is
    ({"criterion": "avar", "lam": 0.5, "loss": "exp", "utility": "avar"},
     {"criterion": "avar", "lam": 0.5}),
])
def test_acceptance_loss_and_utility_fold_into_the_criterion(old, new):
    cfg = agg_config()
    cfg["acceptance"] = old
    folded = resolve_config(cfg)
    cfg["acceptance"] = new
    assert folded == resolve_config(cfg)
    assert not {"loss", "utility", "utility_lam"} & set(folded["acceptance"])


@pytest.mark.parametrize("acceptance,fragment", [
    ({"criterion": "oce", "utility": "sqrt"},
     "acceptance.utility: must be one of ['avar', 'log1p'], got 'sqrt'"),
    ({"criterion": "oce", "utility": "avar"}, "acceptance.utility_lam: required value missing"),
    ({"criterion": "oce", "utility": "avar", "utility_lam": 1.5},
     "acceptance.utility_lam: must lie in (0, 1), got 1.5"),
    ({"criterion": "ubsr", "loss": "exp"}, "acceptance.z: the exp loss needs a positive target z"),
    ({"criterion": "ubsr", "loss": "exp", "z": -1.0}, "acceptance.z: the exp loss needs a positive"),
    ({"criterion": "ubsr", "loss": "huber", "z": 1.0}, "acceptance.loss: must be one of"),
    ({"criterion": "ubsr", "power": 0.5, "z": 1.0}, "ubsr needs a finite power >= 1, got 0.5"),
    ({"criterion": "ubsr", "loss": "polynomial", "z": 1.0}, "ubsr criterion needs a power"),
])
def test_acceptance_bad_loss_utility_and_power_name_their_key(acceptance, fragment):
    cfg = agg_config()
    cfg["acceptance"] = acceptance
    assert_rejects(cfg, fragment)


def test_grid_bounds_must_be_lists_sized_to_free_dims():
    cfg = agg_config()
    cfg["grid"]["lower"] = 0.0
    assert_rejects(cfg, "grid.lower")
    cfg["grid"]["lower"] = ["x"]
    assert_rejects(cfg, "config error at grid.lower[0]: expected a finite number, got 'x'")
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
    # a bool, a fraction or an infinity names no group, and a group is pinned once
    for fixed, fragment in [({True: 0.0}, "group numbers (1-based), got True"),
                            ({2.7: 0.0}, "group numbers (1-based), got 2.7"),
                            ({float("inf"): 0.0}, "group numbers (1-based), got inf"),
                            ({"2": 0.0, 2: 1.0}, "group 2 is pinned twice")]:
        cfg = agg_config_two_groups()
        cfg["grid"]["fixed"] = fixed
        assert_rejects(cfg, fragment)


def test_refine_folds_into_the_resolution():
    # refine, which older configs and manifests carry, resolves to the lattice it searched
    cfg = agg_config_two_groups()
    cfg["grid"]["resolution"] = [7, 5]
    cfg["refine"] = 2
    refined = resolve_config(cfg)
    assert refined["grid"]["resolution"] == [13, 9] and "refine" not in refined
    cfg["grid"]["resolution"] = [13, 9]
    del cfg["refine"]
    assert resolve_config(cfg) == refined


def test_grid_resolution_below_2_is_rejected_at_its_entry():
    cfg = agg_config_two_groups()
    cfg["grid"]["resolution"] = [5, 1]
    assert_rejects(cfg, "grid.resolution[1]: must be at least 2, got 1")
    # past the float range too: the entry is checked before anything converts it
    cfg["grid"]["resolution"] = [-(10**400 - 1), 5]
    assert_rejects(cfg, "grid.resolution[0]: must be at least 2, got -9999")
    cfg["refine"] = 3  # refine folds only lattices it could search
    assert_rejects(cfg, "grid.resolution[0]: must be at least 2")


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
        ({"type": "linear_cap", "slope": "x", "floor": 0.5}, "slope must be a finite number"),
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
    for weights in (3, 0, False, {}, ""):  # a falsy non-list is rejected too, not read as none
        cfg = agg_config()
        cfg["ear"] = {"weights": weights}
        assert_rejects(cfg, "config error at ear.weights: expected a list of weight vectors")
    cfg = agg_config()
    cfg["ear"] = {"weights": [[1.0, 1.0]]}
    assert_rejects(cfg, "ear.weights[0]: expected 1 entries")
    cfg = agg_config()
    cfg["ear"] = {"weights": [[0.0]]}
    assert_rejects(cfg, "weights must be strictly positive")
    cfg = agg_config()
    cfg["ear"] = {"weights": [[1.0], [2.0]]}
    assert resolve_config(cfg)["ear"]["weights"] == [[1.0], [2.0]]


def test_ear_weights_whose_cost_overflows_on_the_box_are_rejected():
    # the cost at the far corner, sum w_i * max(|lower_i|, |upper_i|), must be finite
    cfg = agg_config_two_groups()
    cfg["grid"]["lower"] = [-8.0, 0.0]
    cfg["ear"] = {"weights": [[1.0, 1.0], [3e307, 1.0]]}  # 3e307 * |-8| overflows, * 4 does not
    assert_rejects(cfg, "config error at ear.weights[1]: the weighted capital cost overflows")
    cfg["ear"] = {"weights": [[1.5e307, 3e307]]}  # each term is finite, their sum is not
    assert_rejects(cfg, "config error at ear.weights[0]: the weighted capital cost overflows")
    cfg["ear"] = {"weights": [[1e307, 2e307]]}
    assert resolve_config(cfg)["ear"]["weights"] == [[1e307, 2e307]]


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
    assert plan.acceptance.shift == 0.0
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
    assert isinstance(plan.model, AggregationValueModel)  # the lattice pins, not the model
    assert plan.grid.fixed == ((1, 0.75),)
    assert np.array_equal(plan.grid.allocation([0.3]), [0.3, 0.75])
    # a 1-based config key is the 0-based group index of the grid
    three_tier = build_run(resolve_config(preset_config("three_tier:alpha=0.6")))
    assert isinstance(three_tier.model, NetworkValueModel)
    assert three_tier.grid.fixed == ((2, 0.0),) and three_tier.grid.ndim == 2


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
    assert plan.acceptance.shift == pytest.approx(expected, abs=1e-12)


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


def test_two_tier_model_holds_no_illiquid_matrix():
    # liquid fraction 1: the illiquid holdings are one shared +0.0, not an (n, m) array
    cfg = preset_config("two_tier:B2")
    cfg["scenarios"]["count"] = 50
    s = build_run(resolve_config(cfg)).model.scenarios_s.values
    assert s.shape == (100, 50) and s.strides == (0, 0) and not s.flags.writeable
    assert not s.any() and not np.signbit(s).any()


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
