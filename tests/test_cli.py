"""Preset catalog and command line behavior, including exit codes and reruns."""

import json

import numpy as np
import pytest
import yaml

from sysrisk import cli
from sysrisk.cli import main
from sysrisk.config import config_hash, resolve_config
from sysrisk.errors import ConfigurationError, ConvergenceError, ParameterError
from sysrisk.presets import preset_config, preset_names


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


def test_preset_default_variants():
    assert preset_config("agg_lognormal")["name"] == "agg_lognormal:sum"
    assert preset_config("two_tier")["name"] == "two_tier:A1"
    assert preset_config("three_tier")["name"] == "three_tier:alpha=0.6"


def test_preset_two_tier_b2_probabilities():
    gen = preset_config("two_tier:B2")["model"]["network"]["generate"]
    assert gen["probabilities"] == [[0.6, 0.2], [0.2, 0.1]]


@pytest.mark.parametrize("spelling,canonical", [
    ("two_tier b2", "two_tier:B2"),
    ("two_tier:b4", "two_tier:B4"),
    ("three_tier alpha=60%", "three_tier:alpha=0.6"),
    ("three_tier:ALPHA=0.2", "three_tier:alpha=0.2"),
    ("three_tier alpha0.8", "three_tier:alpha=0.8"),
    ("agg_lognormal LOSS_SENSITIVE", "agg_lognormal:loss_sensitive"),
])
def test_preset_spelling_variants(spelling, canonical):
    assert preset_config(spelling) == preset_config(canonical)


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
])
def test_preset_rejects_unknown_names(bad):
    with pytest.raises(ConfigurationError):
        preset_config(bad)


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


def test_validate_reports_bad_config(tmp_path, capsys):
    cfg = small_agg_cfg(tmp_path / "out")
    del cfg["acceptance"]["lam"]
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert "invalid:" in capsys.readouterr().err


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
])
def test_demand_parameter_errors_name_the_parameter(tmp_path, capsys, demand, name):
    cfg = small_net_cfg(tmp_path / "out")
    cfg["model"]["network"]["inverse_demand"] = demand
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert f"model.network.inverse_demand: {name} must be" in capsys.readouterr().err


@pytest.mark.parametrize("kind,fragment", [
    ("missing", "cannot read"), ("directory", "cannot read"), ("binary", "cannot parse"),
])
def test_unreadable_config_exits_2(tmp_path, capsys, kind, fragment):
    path = tmp_path / "cfg.yaml"
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(b"\xff\xfe\x00")
    assert main(["validate", "--config", str(path)]) == 2
    assert f"{fragment} {path}" in capsys.readouterr().err


@pytest.mark.parametrize("edges,fragment", [
    (None, "cannot read edge list"),
    ("from,to,amount\n1,0,1.0\nx,0,1.0\n", "line 3: expected integer node ids"),
])
def test_bad_edges_file_exits_2(tmp_path, capsys, edges, fragment):
    outdir = tmp_path / "out"
    cfg = small_net_cfg(outdir)
    edges_path = tmp_path / "edges.csv"
    if edges is not None:
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


def test_run_overrides_land_in_manifest(tmp_path):
    outdir = tmp_path / "orig"
    override_dir = tmp_path / "override"
    path = write_cfg(tmp_path, small_agg_cfg(outdir))
    rc = main([
        "run", "--config", path, "--seed", "123", "--scenarios", "33",
        "--grid-res", "7", "--refine", "2", "--threads", "2",
        "--ear-weights", "1;2", "--out", str(override_dir),
    ])
    assert rc == 0
    assert not outdir.exists()
    resolved = json.loads((override_dir / "manifest.json").read_text())["resolved_config"]
    assert resolved["seed"] == 123
    assert resolved["scenarios"]["seed"] == 123
    assert resolved["scenarios"]["count"] == 33
    assert resolved["grid"]["resolution"] == [7]
    assert resolved["refine"] == 2
    assert resolved["threads"] == 2
    assert resolved["ear"]["weights"] == [[1.0], [2.0]]
    assert resolved["output"]["directory"] == str(override_dir)
    manifest = json.loads((override_dir / "manifest.json").read_text())
    assert manifest["lattice_points"] == 13  # resolution 7 refined by 2


def test_run_refine_matches_direct_fine_lattice(tmp_path, capsys):
    # refine 2 on the 7-point lattice is a search of the 13-point lattice itself
    common = ["--preset", "agg_lognormal:loss_sensitive", "--scenarios", "200"]
    refined, direct = tmp_path / "refined", tmp_path / "direct"
    assert main(["validate", *common, "--grid-res", "7", "--refine", "2"]) == 0
    assert "grid: 13x13 lattice" in capsys.readouterr().out
    assert main(["run", *common, "--grid-res", "7", "--refine", "2", "--out", str(refined)]) == 0
    assert "13x13 lattice" in capsys.readouterr().out
    assert main(["run", *common, "--grid-res", "13", "--out", str(direct)]) == 0
    for name in ("labels.csv", "inner_frontier.csv", "outer_frontier.csv", "ear.json"):
        assert (refined / name).read_bytes() == (direct / name).read_bytes(), name


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


def test_run_clearing_divergence_exits_3(tmp_path, capsys):
    outdir = tmp_path / "out"
    cfg = small_net_cfg(outdir)
    cfg["model"]["network"]["clearing"] = {"max_iter": 1}
    path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", path]) == 3
    assert "error:" in capsys.readouterr().err
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "residual" in manifest["error"]


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
