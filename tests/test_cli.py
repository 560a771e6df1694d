"""Preset catalog and command line behavior, including exit codes and reruns."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from sysrisk import cli
from sysrisk.cli import main
from sysrisk.config import config_hash, load_config, resolve_config
from sysrisk.errors import ConfigurationError, ConvergenceError, ParameterError
from sysrisk.presets import preset_config, preset_names


def fresh_python(*args, **kwargs):
    # a new interpreter that imports this checkout's sysrisk
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path), **kwargs)


def write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def small_agg_cfg(outdir):
    return {
        "name": "small",
        "seed": 5,
        "scenarios": {
            "count": 30,
            "margins": [{"type": "shifted_lognormal", "mu": 0.0, "b": -1.0}],
        },
        "model": {
            "type": "aggregation",
            "groups": [2],
            "aggregation": {"kind": "sum", "mode": "insensitive"},
        },
        "acceptance": {"criterion": "avar", "lam": 0.5},
        "grid": {"lower": [0.0], "upper": [4.0], "resolution": 9},
        "ear": {"weights": [[1.0]]},
        "output": {"directory": str(outdir), "write_scenarios": True},
    }


def small_net_cfg(outdir):
    return {
        "name": "smallnet",
        "seed": 5,
        "scenarios": {
            "count": 10,
            "margins": [{"type": "scaled_beta", "alpha": 2.0, "beta": 2.0, "scale": 0.01}],
        },
        "model": {
            "type": "network",
            "groups": [2],
            "network": {
                "generate": {
                    "probabilities": [[1.0]],
                    "weights": [[1.0]],
                    "society_weights": [1.0],
                },
            },
        },
        "acceptance": {"criterion": "avar", "lam": 0.5},
        "grid": {"lower": [0.0], "upper": [1.0], "resolution": 2},
        "output": {"directory": str(outdir)},
    }


# ---------------------------------------------------------------------------
# presets


def test_preset_catalog():
    names = preset_names()
    assert len(names) == 25
    assert len(set(names)) == 25
    families = {n.split(":", 1)[0] for n in names}
    assert families == {"agg_lognormal", "two_tier", "three_tier"}


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_resolves(name):
    resolved = resolve_config(preset_config(name))
    assert resolved["name"] == name
    assert resolved["seed"] == 1  # fixed default keeps presets reproducible as-is


def test_preset_two_tier_b2_probabilities():
    gen = preset_config("two_tier:B2")["model"]["network"]["generate"]
    assert gen["probabilities"] == [[0.6, 0.2], [0.2, 0.1]]


def test_preset_returns_fresh_dicts():
    first = preset_config("two_tier:A1")
    first["seed"] = 999
    first["model"]["groups"].append(7)
    again = preset_config("two_tier:A1")
    assert again["seed"] == 1
    assert again["model"]["groups"] == [10, 90]


@pytest.mark.parametrize("bad", [
    "", "   ", 7, "four_tier", "two_tier:Z9", "two_tier A1 A2",
    "three_tier:alpha=0.3", "agg_lognormal:prod",
    # other spellings of listed presets: a preset answers to its listed name only
    "agg_lognormal", "two_tier", "three_tier", "two_tier b2", "two_tier:b4",
    "three_tier alpha=60%", "three_tier:ALPHA=0.2", "three_tier alpha0.8",
    "three_tier:alpha=0.60", "agg_lognormal LOSS_SENSITIVE", " two_tier:A1", "two_tier:A1:",
])
def test_preset_rejects_unknown_names(bad):
    with pytest.raises(ConfigurationError, match="list-presets"):
        preset_config(bad)


def test_run_with_an_unlisted_preset_name_exits_2_with_one_error_line(tmp_path, capsys):
    assert main(["run", "--preset", "two_tier", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "two_tier" in err and "sysrisk list-presets" in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# parser level behavior


def test_list_presets_prints_catalog(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == preset_names()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("sysrisk ")


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_config_source_is_exactly_one(tmp_path, capsys):
    assert main(["run"]) == 2
    assert "exactly one of --config or --preset" in capsys.readouterr().err
    path = write_cfg(tmp_path, small_agg_cfg(tmp_path / "out"))
    assert main(["run", "--config", path, "--preset", "two_tier"]) == 2


# ---------------------------------------------------------------------------
# validate


def test_validate_preset_ok(capsys):
    rc = main(["validate", "--preset", "two_tier:B2", "--scenarios", "40"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "config OK" in out
    assert "model: network, groups [10, 90], 2 free dimension(s)" in out
    assert "network: 100 firms + society" in out
    assert "inverse demand: OK" in out
    assert "acceptance: avar" in out


def test_validate_aggregation_config(tmp_path, capsys):
    path = write_cfg(tmp_path, small_agg_cfg(tmp_path / "out"))
    assert main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "model: aggregation" in out
    assert "scenarios: 30 draws x 2 firms" in out
    assert "grid: 9 lattice over [0.0]..[4.0]" in out


def test_validate_reads_yaml_12_floats(tmp_path, capsys):
    # YAML 1.1 would read 1e-10 and 2e0 as strings and reject the config
    path = tmp_path / "net.yaml"
    path.write_text(
        "name: floats\n"
        "seed: 5\n"
        "scenarios:\n"
        "  count: 10\n"
        "  margins: [{type: scaled_beta, alpha: 2e0, beta: 2e0, scale: 1e-2}]\n"
        "model:\n"
        "  type: network\n"
        "  groups: [2]\n"
        "  network:\n"
        "    generate: {probabilities: [[1.0]], weights: [[1.0]], society_weights: [1.0]}\n"
        "    clearing: {tol: 1e-10}\n"
        "acceptance: {criterion: avar, lam: 0.5}\n"
        "grid: {lower: [0.0], upper: [2e0], resolution: 2}\n"
        f"output: {{directory: {tmp_path / 'out'}}}\n"
    )
    assert main(["validate", "--config", str(path)]) == 0
    assert "grid: 2 lattice over [0.0]..[2.0]" in capsys.readouterr().out
    resolved = resolve_config(load_config(path))
    assert resolved["model"]["network"]["clearing"]["tol"] == 1e-10
    assert resolved["scenarios"]["margins"][0]["alpha"] == 2.0


def test_validate_reports_bad_config(tmp_path, capsys):
    cfg = small_agg_cfg(tmp_path / "out")
    del cfg["acceptance"]["lam"]
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert "invalid:" in capsys.readouterr().err


def test_validate_rejects_an_integer_past_the_float_range(tmp_path, capsys):
    cfg = small_agg_cfg(tmp_path / "out")
    cfg["scenarios"]["correlation"] = 10**400
    assert main(["validate", "--config", write_cfg(tmp_path, cfg)]) == 2
    assert "scenarios.correlation: value must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("where,fragment", [
    ("scenarios.count", "scenarios.count: a scenario matrix of"),
    ("refine", "refine: the searched lattice exceeds"),
])
def test_validate_rejects_arrays_past_the_index_range(tmp_path, capsys, where, fragment):
    cfg = small_agg_cfg(tmp_path / "out")
    *parents, last = where.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[last] = 10**400
    assert main(["validate", "--config", write_cfg(tmp_path, cfg)]) == 2
    assert fragment in capsys.readouterr().err


def test_resolution_past_the_index_range_exits_2(capsys):
    assert main(["validate", "--preset", "two_tier:B2", "--grid-res", "99999999999999999999"]) == 2
    assert "config error at grid.resolution: the searched lattice exceeds" in capsys.readouterr().err


def test_resolution_past_the_float_range_exits_2_naming_its_bound(capsys):
    assert main(["validate", "--preset", "two_tier:B2", "--grid-res=-" + "9" * 400]) == 2
    assert "config error at grid.resolution[0]: must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("acceptance,key", [
    ({"criterion": "oce", "utility": "sqrt"}, "acceptance.utility:"),
    ({"criterion": "oce", "utility": "avar"}, "acceptance.utility_lam:"),
    ({"criterion": "ubsr", "loss": "exp", "z": 0.0}, "acceptance.z:"),
    ({"criterion": "ubsr", "power": 0.5, "z": 1.0}, "power >= 1"),
])
def test_bad_loss_utility_or_power_exits_2_naming_the_key(tmp_path, capsys, acceptance, key):
    cfg = small_agg_cfg(tmp_path / "out")
    cfg["acceptance"] = acceptance
    assert main(["validate", "--config", write_cfg(tmp_path, cfg)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("acceptance,message", [
    ({"criterion": "oce", "shift": -10.0, "lam": 0.5, "power": 3, "level": 2},
     "the oce criterion takes no lam, got 0.5"),
    ({"criterion": "avar", "lam": 0.01, "z": -5}, "the avar criterion takes no z, got -5.0"),
])
def test_a_parameter_the_criterion_does_not_take_exits_2_without_output(tmp_path, capsys,
                                                                      acceptance, message):
    outdir = tmp_path / "out"
    cfg = small_agg_cfg(outdir)
    cfg["acceptance"] = acceptance
    assert main(["run", "--config", write_cfg(tmp_path, cfg)]) == 2
    assert f"config error at acceptance: {message}" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("where,path", [("seed", "config.seed"), ("scenarios.seed", "scenarios.seed")])
def test_seed_past_64_bits_exits_2_without_a_manifest(tmp_path, capsys, where, path):
    outdir = tmp_path / "out"
    cfg = small_agg_cfg(outdir)
    *parents, last = where.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[last] = 2**64
    assert main(["run", "--config", write_cfg(tmp_path, cfg)]) == 2
    assert f"config error at {path}: must be at most" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("scenarios,fragment", [
    ({"correlation": 1.0}, "scenarios.correlation: pairwise_correlation must lie in [0, 1)"),
    ({"correlation": -0.2}, "scenarios.correlation: pairwise_correlation must lie in [0, 1)"),
    ({"margins": [{"type": "shifted_lognormal", "mu": 0.0, "sigma": -1.0}]},
     "scenarios.margins[0]: sigma must be >= 0"),
])
def test_bad_scenario_parameters_exit_2_without_a_manifest(tmp_path, capsys, scenarios, fragment):
    cfg = small_agg_cfg(tmp_path / "unused")
    cfg["scenarios"].update(scenarios)
    outdir = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(outdir)]) == 2
    assert f"config error at {fragment}" in capsys.readouterr().err
    assert not (outdir / "manifest.json").exists()


OVERFLOWING_MARGIN = {"type": "shifted_lognormal", "mu": 800.0, "sigma": 1.0, "b": -1.0}


@pytest.mark.parametrize("margins, index", [
    ([OVERFLOWING_MARGIN, OVERFLOWING_MARGIN], 0),
    ([{"type": "shifted_lognormal", "mu": 0.0, "b": -1.0}, OVERFLOWING_MARGIN], 1),
])
def test_a_margin_whose_values_overflow_is_named_by_its_config_path(tmp_path, capsys, margins,
                                                                     index):
    # every parameter is finite, so the config resolves; the values overflow when the
    # scenarios are built, and the error names the first margin whose values are not finite
    outdir = tmp_path / "out"
    cfg = small_agg_cfg(outdir)
    cfg["scenarios"]["margins"] = margins
    cfg["model"]["groups"] = [1, 1]
    cfg["grid"] = {"lower": [0.0, 0.0], "upper": [4.0, 4.0], "resolution": 3}
    cfg["ear"] = {"weights": [[1.0, 1.0]]}
    path = write_cfg(tmp_path, cfg)
    expected = f"config error at scenarios.margins[{index}]: the margin of group {index} gives " \
               "non-finite values"
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().err == f"invalid: {expected}\n"
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["error"] == expected


def test_ear_weights_whose_cost_overflows_exit_2(tmp_path, capsys):
    outdir = tmp_path / "out"
    argv = ["run", "--preset", "agg_lognormal:sum", "--scenarios", "50", "--grid-res", "5",
            "--out", str(outdir), "--ear-weights"]
    assert main(argv + ["1.7e308,1.7e308"]) == 2
    assert "config error at ear.weights[0]: the weighted capital cost overflows" in \
        capsys.readouterr().err
    assert not (outdir / "manifest.json").exists()
    assert main(argv + ["1,1"]) == 0


def test_validate_rejects_revenue_decreasing_demand(tmp_path, capsys):
    cfg = small_net_cfg(tmp_path / "out")
    cfg["model"]["network"]["inverse_demand"] = {
        "type": "linear_cap", "slope": 10.0, "floor": 0.01,
    }
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert "invalid:" in capsys.readouterr().err


def test_validate_rejects_inverse_square_demand(tmp_path, capsys):
    # knots sampled from f(y) = 1/y^2, so sales shrink revenue
    cfg = small_net_cfg(tmp_path / "out")
    cfg["model"]["network"]["inverse_demand"] = {
        "type": "tabulated",
        "quantities": [0.5, 1.0, 2.0, 4.0],
        "prices": [4.0, 1.0, 0.25, 0.0625],
    }
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert "invalid:" in capsys.readouterr().err


def test_validate_rejects_unknown_demand_kind(tmp_path, capsys):
    cfg = small_net_cfg(tmp_path / "out")
    cfg["model"]["network"]["inverse_demand"] = {"type": "parabola"}
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert "inverse demand" in capsys.readouterr().err


def test_validate_grid_res_override_shows_in_lattice(tmp_path, capsys):
    cfg = small_agg_cfg(tmp_path / "out")
    cfg["model"]["groups"] = [1, 1]
    cfg["scenarios"]["margins"] = cfg["scenarios"]["margins"] * 2
    cfg["grid"] = {"lower": [0.0, 0.0], "upper": [4.0, 4.0], "resolution": 9}
    cfg["ear"] = {"weights": [[1.0, 1.0]]}
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", path, "--grid-res", "5,7"]) == 0
    assert "grid: 5x7 lattice" in capsys.readouterr().out


@pytest.mark.parametrize("demand", [
    {"type": "constant", "foo": 1},
    {"type": "linear_cap", "slope": "x", "floor": 0.5},
    {"type": "cifuentes_piecewise"},
])
def test_bad_demand_parameters_exit_2(tmp_path, capsys, demand):
    outdir = tmp_path / "out"
    cfg = small_net_cfg(outdir)
    cfg["model"]["network"]["inverse_demand"] = demand
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert "model.network.inverse_demand" in capsys.readouterr().err
    assert main(["run", "--config", path]) == 2
    assert "model.network.inverse_demand" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("demand,name", [
    ({"type": "linear_cap", "slope": "x", "floor": 0.5}, "slope"),
    ({"type": "linear_cap", "slope": True, "floor": 0.5}, "slope"),
    ({"type": "linear_cap", "slope": float("nan"), "floor": 0.5}, "slope"),
    ({"type": "constant", "price": "1"}, "price"),
    ({"type": "constant", "price": float("inf")}, "price"),
    ({"type": "tabulated", "quantities": [0, "a"], "prices": [1.0, 0.9]}, "quantities[1]"),
    ({"type": "tabulated", "quantities": [0, 1], "prices": [1.0, -0.5]}, "prices[1]"),
    ({"type": "constant", "price": 10**400}, "price"),  # past the float range
])
def test_demand_parameter_errors_name_the_parameter(tmp_path, capsys, demand, name):
    cfg = small_net_cfg(tmp_path / "out")
    cfg["model"]["network"]["inverse_demand"] = demand
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert f"model.network.inverse_demand: {name} must be" in capsys.readouterr().err


@pytest.mark.parametrize("kind,fragment", [
    ("missing", "cannot read"), ("directory", "cannot read"), ("binary", "cannot parse"),
    ("5000_digits", "cannot parse"),
])
def test_unreadable_config_exits_2(tmp_path, capsys, kind, fragment):
    path = tmp_path / "cfg.yaml"
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(b"\xff\xfe\x00")
    elif kind == "5000_digits":  # more digits than Python converts to an int
        path.write_text("seed: " + "9" * 5000 + "\n")
    assert main(["validate", "--config", str(path)]) == 2
    assert f"{fragment} {path}" in capsys.readouterr().err


@pytest.mark.parametrize("edges,fragment", [
    (None, "cannot read edge list"),
    ("from,to,amount\n1,0,1.0\nx,0,1.0\n", "line 3: expected integer node ids"),
    # checked against the groups before the (id + 1)^2 matrix, 728 TiB here, is allocated
    ("from,to,amount\n1,0,1.0\n10000000,0,1.0\n", "line 3: node ids must be in 0.."),
    ("from,to,amount\n1,0,1.0 \u20ac\n".encode("cp1252"), "not UTF-8 text"),
])
def test_bad_edges_file_exits_2(tmp_path, capsys, edges, fragment):
    outdir = tmp_path / "out"
    cfg = small_net_cfg(outdir)
    edges_path = tmp_path / "edges.csv"
    if isinstance(edges, bytes):
        edges_path.write_bytes(edges)
    elif edges is not None:
        edges_path.write_text(edges)
    cfg["model"]["network"] = {"edges_file": str(edges_path)}
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "model.network.edges_file" in err and fragment in err
    assert main(["run", "--config", path]) == 2
    assert fragment in capsys.readouterr().err
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["stats"]["seconds"]["search"] == 0.0  # failed while building


@pytest.mark.parametrize("fixed,fragment", [
    ({True: 0.0}, "keys must be group numbers (1-based), got True"),
    ({2.7: 0.0}, "keys must be group numbers (1-based), got 2.7"),
    ({"2": 0.0, 2: 1.0}, "group 2 is pinned twice"),
])
def test_bad_fixed_group_exits_2(tmp_path, capsys, fixed, fragment):
    cfg = preset_config("three_tier:alpha=0.6")
    cfg["grid"]["fixed"] = fixed
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.dump(cfg, sort_keys=False))  # keeps bool, float and int keys as such
    for command in ("validate", "run"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error at grid.fixed: {fragment}" in capsys.readouterr().err


def test_negative_network_capital_exits_2(tmp_path, capsys):
    cfg = preset_config("two_tier:B2")
    cfg["grid"]["nonneg"] = False
    cfg["grid"]["lower"] = [-1, -1]
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert "grid.lower[0]: network models take no negative capital" in capsys.readouterr().err


def test_fractional_resolution_exits_2(tmp_path, capsys):
    cfg = small_agg_cfg(tmp_path / "out")
    cfg["model"]["groups"] = [1, 1]
    cfg["scenarios"]["margins"] = cfg["scenarios"]["margins"] * 2
    cfg["grid"] = {"lower": [0.0, 0.0], "upper": [4.0, 4.0], "resolution": [5.7, 5]}
    cfg["ear"] = {"weights": [[1.0, 1.0]]}
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert "grid.resolution[0]: expected an integer, got 5.7" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--grid-res", "x"),
    ("--grid-res", ""),
    ("--ear-weights", "1,a"),
    ("--ear-weights", ";"),
])
def test_bad_override_syntax(tmp_path, capsys, flag, value):
    path = write_cfg(tmp_path, small_agg_cfg(tmp_path / "out"))
    assert main(["validate", "--config", path, flag, value]) == 2
    assert "invalid:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("section,flag,value", [
    ("scenarios", "--scenarios", "30"),
    ("grid", "--grid-res", "9"),
    ("output", "--out", None),
    ("ear", "--ear-weights", "1"),
])
def test_an_override_on_a_null_section_acts_as_on_an_absent_one(tmp_path, capsys, command,
                                                                 section, flag, value):
    # a bare `output:` line in YAML is null; the override fills it as it would a missing section
    outdir = tmp_path / "out"
    argv = [command, "--config", None, flag, value or str(outdir)]
    results = []
    for state in ("absent", None):
        cfg = small_agg_cfg(outdir)
        cfg.pop(section)
        if state is None:
            cfg[section] = None
        argv[2] = write_cfg(tmp_path, cfg)
        results.append((main(argv), capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == (2 if section in ("scenarios", "grid") else 0)


@pytest.mark.parametrize("command,prefix", [("validate", "invalid:"), ("run", "error:")])
@pytest.mark.parametrize("section,flag,value", [
    ("scenarios", "--scenarios", "30"),
    ("grid", "--grid-res", "9"),
    ("output", "--out", None),
    ("ear", "--ear-weights", "1"),
])
def test_an_override_on_a_section_that_is_not_a_mapping_exits_2(tmp_path, capsys, command, prefix,
                                                                section, flag, value):
    outdir = tmp_path / "out"
    for content in ([1], [], 0, False):  # a falsy one too: only an absent or null section is empty
        cfg = small_agg_cfg(outdir)
        cfg[section] = content
        argv = [command, "--config", write_cfg(tmp_path, cfg), flag, value or str(outdir)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"{prefix} config error at {section}: expected a mapping, got "
                                    f"{type(content).__name__}"]
        assert not outdir.exists()


@pytest.mark.parametrize("preset,where,value,fragment", [
    ("two_tier:B2", ("network", "generate", "weights"), [[10.0], [2.0, 1.0]],
     "model.network.generate.weights[0]: expected 2 entries"),
    ("two_tier:B2", ("network", "generate", "probabilities"), [[0.6, 1.5], [0.2, 0.1]],
     "model.network.generate: link probabilities must lie in [0, 1]"),
    ("agg_lognormal:exp_sensitive", ("aggregation", "theta"), -1.0,
     "model.aggregation: theta must be positive, got -1.0"),
])
@pytest.mark.parametrize("command,prefix", [("validate", "invalid:"), ("run", "error:")])
def test_spec_errors_exit_2_before_any_output(tmp_path, capsys, command, prefix, preset, where,
                                              value, fragment):
    # these failed in build_run: a numpy traceback (exit 1) or a message with no config path,
    # after run had written a manifest
    cfg = preset_config(preset)
    node = cfg["model"]
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    outdir = tmp_path / "out"
    argv = [command, "--config", write_cfg(tmp_path, cfg), "--out", str(outdir)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"{prefix} config error at {fragment}"]
    assert not outdir.exists()


# ---------------------------------------------------------------------------
# run


def test_run_end_to_end(tmp_path, capsys):
    outdir = tmp_path / "out"
    path = write_cfg(tmp_path, small_agg_cfg(outdir))
    assert main(["run", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "run 'small': 9 lattice, 30 scenarios" in out
    assert "labels:" in out and "frontiers:" in out and "ear w=" in out
    for name in ("manifest.json", "inner_frontier.csv", "outer_frontier.csv",
                 "labels.csv", "scenarios.csv", "ear.json"):
        assert (outdir / name).exists(), name

    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["tool"] == "sysrisk"
    assert manifest["status"] == "completed"
    assert manifest["config_hash"] == config_hash(manifest["resolved_config"])
    assert manifest["seeds"] == {"master": 5, "scenarios": 5, "network": None}
    assert manifest["lattice_points"] == 9
    assert manifest["oracle_calls"] > 0
    assert manifest["certified"] is True
    assert manifest["degenerate"] is None
    # aggregation runs clear nothing: the stats block holds the phase seconds and the model's
    # counters, with no block sums or tables on the precomputed path of an insensitive model
    assert sorted(manifest["stats"]) == ["aggregation", "seconds"]
    assert manifest["stats"]["aggregation"] == {
        "calls": manifest["oracle_calls"], "block_sums": 0, "tables": 0}
    seconds = manifest["stats"]["seconds"]
    assert sorted(seconds) == ["build", "ear", "resolve", "search", "write"]
    assert all(v >= 0.0 for v in seconds.values())
    assert sum(seconds.values()) <= manifest["wall_clock_seconds"] + 1e-3
    assert sorted(manifest["outputs"]) == sorted([
        "manifest.json", "inner_frontier.csv", "outer_frontier.csv",
        "labels.csv", "scenarios.csv", "ear.json",
    ])

    ear_doc = json.loads((outdir / "ear.json").read_text())
    assert len(ear_doc["results"]) == 1
    assert ear_doc["results"][0]["weights"] == [1.0]
    header = (outdir / "inner_frontier.csv").read_text().splitlines()[0]
    assert header == "k_1"


def test_run_rerun_from_manifest_is_byte_identical(tmp_path):
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    path = write_cfg(tmp_path, small_agg_cfg(out1))
    assert main(["run", "--config", path]) == 0
    assert main(["run", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    for name in ("inner_frontier.csv", "outer_frontier.csv", "labels.csv",
                 "scenarios.csv", "ear.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_manifest_with_threads_replays_byte_identical(tmp_path):
    # threads is no longer written, but manifests recorded with it still replay
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert main(["run", "--config", write_cfg(tmp_path, small_agg_cfg(out1))]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert "threads" not in manifest["resolved_config"]
    manifest["resolved_config"]["threads"] = 2
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    assert main(["run", "--config", str(old), "--out", str(out2)]) == 0
    for name in ("inner_frontier.csv", "outer_frontier.csv", "labels.csv",
                 "scenarios.csv", "ear.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    assert "threads" not in json.loads((out2 / "manifest.json").read_text())["resolved_config"]


def test_network_run_records_clearing_stats_and_replays(tmp_path):
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    path = write_cfg(tmp_path, small_net_cfg(out1))
    assert main(["run", "--config", path]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    stats = manifest["stats"]["clearing"]
    assert sorted(stats) == ["calls", "closest_tie", "decided", "max_residual", "rounds", "solves",
                             "sweeps", "warm"]
    assert stats["calls"] == manifest["oracle_calls"]
    assert 0 <= stats["warm"] < stats["calls"]  # the first call has nothing to start from
    assert stats["sweeps"] >= stats["calls"]
    tol = manifest["resolved_config"]["model"]["network"]["clearing"]["tol"]
    assert 0.0 <= stats["max_residual"] <= tol
    assert main(["run", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    for name in ("inner_frontier.csv", "outer_frontier.csv", "labels.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    replayed = json.loads((out2 / "manifest.json").read_text())["stats"]
    assert replayed["clearing"] == manifest["stats"]["clearing"]


@pytest.mark.parametrize("preset, clearing", [
    # constant price: every call decided by the equity radius of its top-down iteration;
    # six calls start from an evaluated point with more capital
    ("two_tier:C5", {"calls": 12, "decided": 12, "warm": 6, "sweeps": 37, "rounds": 0,
                     "solves": 0, "closest_tie": None}),
    # price impact: every call decided by its bracket
    ("three_tier:alpha=0.6", {"calls": 9, "decided": 9, "warm": 8, "sweeps": 21, "rounds": 0,
                              "solves": 0, "closest_tie": None}),
])
def test_network_run_records_its_clearing_counters(tmp_path, capsys, preset, clearing):
    # machine-independent work counts of small case-study runs at seed 1
    out = tmp_path / "out"
    assert main(["run", "--preset", preset, "--seed", "1", "--scenarios", "150",
                 "--grid-res", "10", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    stats = manifest["stats"]["clearing"]
    assert 0.0 <= stats.pop("max_residual") <= 1e-9
    assert stats == clearing
    assert manifest["oracle_calls"] == clearing["calls"]


def test_sensitive_aggregation_run_records_its_counters(tmp_path, capsys):
    # machine-independent work counts of the case study's sensitive exp model at seed 1:
    # one prefix table per group, and block sums only for the groups whose level moved
    out = tmp_path / "out"
    assert main(["run", "--preset", "agg_lognormal:exp_sensitive", "--seed", "1",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["oracle_calls"] == 22
    assert manifest["search_floor"] == 7  # 3 inner and 4 outer frontier points
    assert manifest["stats"]["aggregation"] == {"calls": 22, "block_sums": 23, "tables": 2}
    assert "clearing" not in manifest["stats"]


def test_run_overrides_land_in_manifest(tmp_path):
    outdir = tmp_path / "orig"
    override_dir = tmp_path / "override"
    path = write_cfg(tmp_path, small_agg_cfg(outdir))
    rc = main([
        "run", "--config", path, "--seed", "123", "--scenarios", "33",
        "--grid-res", "7",
        "--ear-weights", "1;2", "--out", str(override_dir),
    ])
    assert rc == 0
    assert not outdir.exists()
    resolved = json.loads((override_dir / "manifest.json").read_text())["resolved_config"]
    assert resolved["seed"] == 123
    assert resolved["scenarios"]["seed"] == 123
    assert resolved["scenarios"]["count"] == 33
    assert resolved["grid"]["resolution"] == [7]
    assert resolved["ear"]["weights"] == [[1.0], [2.0]]
    assert resolved["output"]["directory"] == str(override_dir)
    manifest = json.loads((override_dir / "manifest.json").read_text())
    assert manifest["lattice_points"] == 7


def test_run_refine_matches_direct_fine_lattice(tmp_path, capsys):
    # a config's refine 2 on the 7-point lattice is the 13-point lattice itself
    raw = preset_config("agg_lognormal:loss_sensitive")
    raw["scenarios"]["count"] = 200
    raw["grid"]["resolution"] = 7
    raw["refine"] = 2
    path = write_cfg(tmp_path, raw)
    refined, direct = tmp_path / "refined", tmp_path / "direct"
    assert main(["validate", "--config", path]) == 0
    assert "grid: 13x13 lattice" in capsys.readouterr().out
    assert main(["run", "--config", path, "--out", str(refined)]) == 0
    assert "13x13 lattice" in capsys.readouterr().out
    resolved = json.loads((refined / "manifest.json").read_text())["resolved_config"]
    assert resolved["grid"]["resolution"] == [13, 13] and "refine" not in resolved
    assert main(["run", "--preset", "agg_lognormal:loss_sensitive", "--scenarios", "200",
                 "--grid-res", "13", "--out", str(direct)]) == 0
    for name in ("labels.csv", "inner_frontier.csv", "outer_frontier.csv", "ear.json"):
        assert (refined / name).read_bytes() == (direct / name).read_bytes(), name


def test_manifest_with_refine_replays_byte_identical(tmp_path):
    # refine is no longer written, but a manifest that records the 13-point lattice
    # as resolution 7 refined by 2 still replays to it
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    cfg = small_agg_cfg(out1)
    cfg["grid"]["resolution"] = 13
    assert main(["run", "--config", write_cfg(tmp_path, cfg)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert "refine" not in manifest["resolved_config"]
    manifest["resolved_config"]["grid"]["resolution"] = [7]
    manifest["resolved_config"]["refine"] = 2
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    assert main(["run", "--config", str(old), "--out", str(out2)]) == 0
    for name in ("inner_frontier.csv", "outer_frontier.csv", "labels.csv",
                 "scenarios.csv", "ear.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    replayed = json.loads((out2 / "manifest.json").read_text())
    assert replayed["lattice_points"] == 13
    assert replayed["resolved_config"]["grid"]["resolution"] == [13]
    assert "refine" not in replayed["resolved_config"]


def test_manifest_with_loss_and_utility_replays_byte_identical(tmp_path):
    # older manifests carry loss, utility and utility_lam; the OCE with the avar
    # utility resolves to avar itself and replays to the same files
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main(["run", "--config", write_cfg(tmp_path, small_agg_cfg(out1))]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    acceptance = dict(manifest["resolved_config"]["acceptance"])
    assert acceptance["criterion"] == "avar"
    assert not {"loss", "utility", "utility_lam"} & set(acceptance)
    manifest["resolved_config"]["acceptance"].update(
        criterion="oce", lam=None, loss=None, utility="avar", utility_lam=acceptance["lam"])
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    assert main(["run", "--config", str(old), "--out", str(out2)]) == 0
    for name in ("inner_frontier.csv", "outer_frontier.csv", "labels.csv",
                 "scenarios.csv", "ear.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    replayed = json.loads((out2 / "manifest.json").read_text())
    assert replayed["resolved_config"]["acceptance"] == acceptance


@pytest.mark.parametrize("command", ["run", "validate", "sweep"])
def test_refine_flag_is_a_usage_error(capsys, command):
    source = ["agg_lognormal:sum"] if command == "sweep" else ["--preset", "agg_lognormal:sum"]
    with pytest.raises(SystemExit) as exc:
        main([command, *source, "--refine", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --refine" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--refine" not in capsys.readouterr().out


def test_run_respects_write_flags(tmp_path):
    outdir = tmp_path / "out"
    cfg = small_agg_cfg(outdir)
    cfg["output"]["write_scenarios"] = False
    cfg["output"]["write_labels"] = False
    path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    assert not (outdir / "labels.csv").exists()
    assert not (outdir / "scenarios.csv").exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert "labels.csv" not in manifest["outputs"]


def test_run_writes_network_csv_when_asked(tmp_path):
    outdir = tmp_path / "out"
    cfg = small_net_cfg(outdir)
    cfg["scenarios"]["margins"][0]["scale"] = 5.0  # solvent, clears quickly
    cfg["output"]["write_network"] = True
    path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    assert (outdir / "network.csv").read_text().startswith("from,to,amount")


def test_run_bad_config_exits_2_without_outputs(tmp_path, capsys):
    outdir = tmp_path / "out"
    cfg = small_agg_cfg(outdir)
    cfg["grid"]["resolution"] = 1
    path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", path]) == 2
    assert "error:" in capsys.readouterr().err
    assert not outdir.exists()


def test_run_unwritable_output_exits_2(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    path = write_cfg(tmp_path, small_agg_cfg(blocker))
    assert main(["run", "--config", path]) == 2
    assert f"cannot write output directory {blocker}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["inner_frontier.csv", "labels.csv", "scenarios.csv", "ear.json"])
def test_run_unwritable_output_file_exits_2_with_failed_manifest(tmp_path, capsys, name):
    # a directory where an output file belongs fails that write after the search
    outdir = tmp_path / "out"
    (outdir / name).mkdir(parents=True)
    path = write_cfg(tmp_path, small_agg_cfg(outdir))
    assert main(["run", "--config", path]) == 2
    message = f"cannot write {outdir / name}: Is a directory"
    assert capsys.readouterr().err == f"error: {message}\n"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == message
    assert manifest["oracle_calls"] > 0
    assert manifest["stats"]["seconds"]["write"] > 0.0


# a blocked output file, then the manifest; or the manifest of an all-out box that would exit 4
@pytest.mark.parametrize("blocked, shift", [("labels.csv", 0.0), (None, 1e6)])
def test_run_exits_2_when_the_manifest_cannot_be_finished(tmp_path, capsys, monkeypatch,
                                                          blocked, shift):
    outdir = tmp_path / "out"
    outdir.mkdir()
    if blocked:
        (outdir / blocked).mkdir()
    cfg = small_agg_cfg(outdir)
    cfg["acceptance"]["shift"] = shift
    path = write_cfg(tmp_path, cfg)

    def no_manifest(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_finish_manifest", no_manifest)
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert json.loads((outdir / "manifest.json").read_text())["status"] == "running"


# a missing edge list fails the build (exit 2); one clearing sweep fails the search (exit 3)
@pytest.mark.parametrize("failure, code, fragment", [
    ("build", 2, "cannot read edge list"),
    ("search", 3, "bracket width"),
])
def test_failed_run_keeps_its_exit_code_when_the_manifest_cannot_be_finished(
        tmp_path, capsys, monkeypatch, failure, code, fragment):
    outdir = tmp_path / "out"
    cfg = small_net_cfg(outdir)
    if failure == "build":
        cfg["model"]["network"] = {"edges_file": str(tmp_path / "missing.csv")}
    else:
        cfg["model"]["network"]["clearing"] = {"max_iter": 1}
        cfg["acceptance"]["shift"] = 0.5
    path = write_cfg(tmp_path, cfg)

    def no_manifest(manifest_path, *args, **kwargs):
        raise OSError(28, "No space left on device", manifest_path)

    monkeypatch.setattr(cli, "_finish_manifest", no_manifest)
    assert main(["run", "--config", path]) == code
    own, cannot_write = capsys.readouterr().err.splitlines()
    assert own.startswith("error: ") and fragment in own
    assert cannot_write == f"error: cannot write {outdir / 'manifest.json'}: No space left on device"
    assert json.loads((outdir / "manifest.json").read_text())["status"] == "running"


def test_run_clearing_divergence_exits_3(tmp_path, capsys):
    # the shift puts the first call's verdict inside its one-sweep bracket, so
    # that call cannot be decided before clearing runs out of max_iter
    outdir = tmp_path / "out"
    cfg = small_net_cfg(outdir)
    cfg["model"]["network"]["clearing"] = {"max_iter": 1}
    cfg["acceptance"]["shift"] = 0.5
    path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", path]) == 3
    assert "error:" in capsys.readouterr().err
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "residual" in manifest["error"]
    assert "bracket width" in manifest["error"]
    assert manifest["stats"]["seconds"]["search"] > 0.0
    assert manifest["stats"]["seconds"]["ear"] == 0.0


def test_run_decided_within_max_iter_exits_0_with_unbounded_labels(tmp_path):
    # max_iter bounds only the calls it leaves undecided: one sweep settles these
    bounded = tmp_path / "bounded"
    free = tmp_path / "free"
    cfg = small_net_cfg(bounded)
    cfg["model"]["network"]["clearing"] = {"max_iter": 1}
    assert main(["run", "--config", write_cfg(tmp_path, cfg, "bounded.yaml")]) == 0
    assert main(["run", "--config", write_cfg(tmp_path, small_net_cfg(free), "free.yaml")]) == 0
    assert (bounded / "labels.csv").read_bytes() == (free / "labels.csv").read_bytes()
    stats = json.loads((bounded / "manifest.json").read_text())["stats"]["clearing"]
    assert stats["decided"] == stats["calls"] == stats["sweeps"] >= 1


def test_run_all_in_box_exits_4_with_guidance(tmp_path, capsys):
    outdir = tmp_path / "out"
    cfg = small_agg_cfg(outdir)
    cfg["acceptance"]["shift"] = -1e6
    path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", path]) == 4
    err = capsys.readouterr().err
    assert "guidance:" in err
    assert "every lattice point is acceptable" in err
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["search_floor"] == 0 < manifest["oracle_calls"]  # no frontier


def test_run_all_out_box_exits_4_with_guidance(tmp_path, capsys):
    outdir = tmp_path / "out"
    cfg = small_agg_cfg(outdir)
    cfg["acceptance"]["shift"] = 1e6
    path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", path]) == 4
    assert "raise grid.upper" in capsys.readouterr().err


def test_run_model_failure_exits_1(tmp_path, capsys):
    outdir = tmp_path / "out"
    cfg = small_agg_cfg(outdir)
    cfg["model"]["aggregation"] = {"kind": "exp", "mode": "sensitive"}
    cfg["grid"] = {"lower": [-500.0], "upper": [-400.0], "resolution": 3}
    path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", path]) == 1
    assert "overflow" in capsys.readouterr().err
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_run_other_search_error_exits_1(tmp_path, capsys, monkeypatch):
    def failing_search(oracle, grid):
        raise ParameterError("allocation outside the model's domain")

    monkeypatch.setattr(cli, "grid_search", failing_search)
    outdir = tmp_path / "out"
    path = write_cfg(tmp_path, small_agg_cfg(outdir))
    assert main(["run", "--config", path]) == 1
    assert "outside the model's domain" in capsys.readouterr().err
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "outside the model's domain" in manifest["error"]


OUT_OF_MEMORY = "Unable to allocate 7.28 TiB for an array with shape (100, 10000000000)"


def _out_of_memory(*args):
    raise MemoryError(OUT_OF_MEMORY)  # as numpy says it; these tests never allocate that much


@pytest.mark.parametrize("stage,code", [("build_run", 2), ("grid_search", 1)])
def test_run_out_of_memory_exits_with_one_error_line_and_a_failed_manifest(
        tmp_path, capsys, monkeypatch, stage, code):
    monkeypatch.setattr(cli, stage, _out_of_memory)
    outdir = tmp_path / "out"
    path = write_cfg(tmp_path, small_agg_cfg(outdir))
    assert main(["run", "--config", path]) == code
    assert capsys.readouterr().err == f"error: {OUT_OF_MEMORY}\n"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == OUT_OF_MEMORY


@pytest.mark.parametrize("argv,stage,code", [
    (["validate", "--preset", "agg_lognormal:sum"], "build_run", 2),
    (["sweep", "agg_lognormal:sum", "--scenarios", "50"], "build_run", 2),
    (["sweep", "agg_lognormal:sum", "--scenarios", "50"], "grid_search", 1),
])
def test_other_commands_out_of_memory_exit_like_their_errors(capsys, monkeypatch, argv, stage,
                                                             code):
    monkeypatch.setattr(cli, stage, _out_of_memory)
    assert main(argv) == code
    (line,) = capsys.readouterr().err.splitlines()
    assert line.endswith(f": {OUT_OF_MEMORY}")


def test_run_unparseable_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("name: [unclosed\n  - ::\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "cannot parse" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


AGG_FAMILY = [f"agg_lognormal:{v}" for v in (
    "sum", "loss_insensitive", "loss_sensitive", "exp_insensitive", "exp_sensitive",
)]
ALPHAS = [f"three_tier:alpha={a}" for a in ("0", "0.2", "0.4", "0.6", "0.8", "1")]


def run_preset(tmp_path, name, overrides):
    """Exit code, oracle calls, lattice coordinates and acceptable mask of one `sysrisk run`."""
    outdir = tmp_path / name.replace(":", "_")
    rc = main(["run", "--preset", name, *overrides, "--out", str(outdir)])
    calls = json.loads((outdir / "manifest.json").read_text())["oracle_calls"]
    rows = [line.rsplit(",", 1) for line in (outdir / "labels.csv").read_text().splitlines()[1:]]
    return rc, calls, [coords for coords, _ in rows], np.array([label == "1" for _, label in rows])


@pytest.mark.parametrize("presets,overrides,inside", [
    # loss-sensitive inside loss-insensitive; exp-insensitive inside every other model
    (AGG_FAMILY, ["--scenarios", "200", "--grid-res", "6"],
     [(2, 1)] + [(3, j) for j in range(5)]),
    # B2 inside B4; a three-tier lattice is not comparable with a two-tier one
    (["two_tier:A1", "two_tier:B2", "two_tier:B4", ALPHAS[0]],
     ["--scenarios", "30", "--grid-res", "6"], [(1, 2)]),
    # each alpha's region inside the next alpha's
    (ALPHAS, ["--scenarios", "30", "--grid-res", "6"], [(i, i + 1) for i in range(5)]),
], ids=["aggregation", "two_tier", "three_tier"])
def test_sweep_matches_runs(tmp_path, capsys, presets, overrides, inside):
    runs = [run_preset(tmp_path, name, overrides) for name in presets]
    capsys.readouterr()
    assert main(["sweep", *presets, *overrides]) == 0
    lines = capsys.readouterr().out.splitlines()
    split = next(i for i, line in enumerate(lines) if line.startswith("containment:"))
    rows = [line.split() for line in lines[1:split]]
    matrix = [line.split()[1:] for line in lines[split + 2:]]
    assert len(rows) == len(matrix) == len(presets)

    for row, name, (rc, calls, _, acc) in zip(rows, presets, runs):
        assert row[1] == name
        assert row[3] == f"{acc.sum()}/{acc.size}"
        assert int(row[4]) == calls
        assert row[5] == ("degenerate" if rc == 4 else "w=[1.0,")
    for i, (_, _, coords_i, acc_i) in enumerate(runs):
        for j, (_, _, coords_j, acc_j) in enumerate(runs):
            expected = str(int((acc_i & ~acc_j).sum())) if coords_i == coords_j else "-"
            assert matrix[i][j] == expected, (i, j)
    for i, j in inside:
        assert matrix[i][j] == "0", (presets[i], presets[j])


@pytest.mark.parametrize("argv,fragment", [
    (["two_tier:A1", "four_tier"], "four_tier"),
    (["two_tier:A1", "--grid-res", "x"], "--grid-res"),
])
def test_sweep_config_errors_exit_2_before_search(capsys, monkeypatch, argv, fragment):
    monkeypatch.setattr(cli, "build_run", lambda cfg: pytest.fail("built a model"))
    assert main(["sweep", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and fragment in captured.err


@pytest.mark.parametrize("error,code", [(ConvergenceError, 3), (ParameterError, 1)])
def test_sweep_search_errors_exit_like_run(capsys, monkeypatch, error, code):
    def failing_search(oracle, grid):
        raise error("search failed")

    monkeypatch.setattr(cli, "grid_search", failing_search)
    assert main(["sweep", "agg_lognormal:sum", "--scenarios", "50"]) == code
    assert "search failed" in capsys.readouterr().err


@pytest.mark.parametrize("presets", [AGG_FAMILY, ["two_tier:A1", "two_tier:B2"], ALPHAS],
                         ids=["aggregation", "two_tier", "three_tier"])
def test_sweep_help(capsys, presets):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *presets, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "PRESET" in out and "--grid-res" in out
    assert "--out" not in out and "--threads" not in out


@pytest.mark.parametrize("argv", [["list-presets"],
                                  ["validate", "--preset", "two_tier:B2", "--scenarios", "20"]])
def test_closed_stdout_exits_quietly(argv):
    # the reader of stdout has gone before the command prints, as with `| head`
    proc = fresh_python("-m", "sysrisk.cli", *argv, stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 141


def test_run_with_closed_stdout_finishes_its_files(tmp_path):
    # a run drops its progress lines once the reader has gone and still writes everything
    out = tmp_path / "out"
    proc = fresh_python("-m", "sysrisk.cli", "run", "--preset", "two_tier:B2", "--scenarios", "50",
                        "--grid-res", "5", "--out", str(out),
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 141
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert (out / "labels.csv").exists()
    for name in manifest["outputs"]:
        assert (out / name).exists()


def test_lognormal_location_is_the_normal_upper_quartile():
    from scipy.special import ndtri

    from sysrisk import presets

    assert presets._MU_Q75 == float(ndtri(0.75))


@pytest.mark.parametrize("preset", [
    "agg_lognormal:exp_sensitive",
    "two_tier:B2",
    "three_tier:alpha=0.6",  # the entropic criterion
    None,  # a network config with a Beta(2.5, 0.7) margin: the continued fraction
], ids=["agg_lognormal:exp_sensitive", "two_tier:B2", "three_tier:alpha=0.6", "beta_2.5_0.7"])
def test_run_loads_no_scipy(tmp_path, preset):
    # scipy is a test dependency only: no run imports it
    out = tmp_path / "out"
    if preset:
        source = ["--preset", preset, "--scenarios", "300"]
    else:
        cfg = small_net_cfg(out)
        cfg["scenarios"]["margins"][0].update(alpha=2.5, beta=0.7)
        source = ["--config", write_cfg(tmp_path, cfg)]
    script = (
        "import sys\n"
        "from sysrisk.cli import main\n"
        f"assert main(['run', *{source!r}, '--grid-res', '5', '--out', {str(out)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = fresh_python("-c", script, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    stdout, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert stdout.splitlines()[-1] == "[]"
    assert (out / "labels.csv").exists()
