"""Run configuration: schema validation, seed resolution, and model building.

A run is fully described by one YAML document. resolve_config() validates it,
fills defaults, and materializes every seed, producing a plain dict that is
recorded in the run manifest; feeding that resolved dict back in reproduces
the run byte for byte. build_run() turns a resolved config into live objects
(scenarios, model, acceptance criterion, search grid).
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass

import numpy as np
import yaml

from .acceptance import AcceptanceSpec
from .aggregation import AggregationSpec, AggregationValueModel, GroupMap
from .clearing import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    LiabilityNetwork,
    NetworkValueModel,
    make_inverse_demand,
    read_edge_csv,
)
from .errors import ConfigurationError, SysriskError
from .netgen import NetworkGenSpec, sample_network
from .riskmeasure import GridSpec, PinnedAllocationModel
from .scenarios import (
    CopulaSpec,
    ScaledBeta,
    ScenarioMatrix,
    ShiftedLognormal,
    generate_scenarios,
)

__all__ = [
    "RunPlan",
    "load_config",
    "resolve_config",
    "config_hash",
    "build_run",
]

_MARGIN_FIELDS = {
    "shifted_lognormal": {"mu": None, "sigma": 1.0, "b": 0.0},
    "scaled_beta": {"alpha": None, "beta": None, "scale": 1.0, "shift": 0.0},
}

_ACCEPTANCE_FIELDS = ("lam", "loss", "power", "z", "utility", "utility_lam", "level")


def load_config(path) -> dict:
    """Parse a YAML (or JSON) config file; a recorded manifest is accepted too."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path} does not contain a mapping")
    if "resolved_config" in doc:  # rerunning from a manifest
        doc = doc["resolved_config"]
        if not isinstance(doc, dict):
            raise ConfigurationError(f"{path}: resolved_config is not a mapping")
    return doc


def _fail(path: str, message: str):
    raise ConfigurationError(f"config error at {path}: {message}")


def _reject_unknown(cfg: dict, path: str, allowed, what: str = "keys") -> None:
    unknown = set(cfg) - set(allowed)
    if unknown:
        _fail(path, f"unknown {what} {sorted(unknown)}")


def _expect_mapping(cfg, path: str) -> dict:
    if not isinstance(cfg, dict):
        _fail(path, f"expected a mapping, got {type(cfg).__name__}")
    return cfg


def _get_number(cfg: dict, path: str, key: str, default=None, required=False):
    if key not in cfg or cfg[key] is None:
        if required:
            _fail(f"{path}.{key}", "required value missing")
        return default
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", f"expected a number, got {value!r}")
    if not np.isfinite(value):
        _fail(f"{path}.{key}", "value must be finite")
    return float(value)


def _get_int(cfg: dict, path: str, key: str, default=None, required=False, minimum=None):
    if key not in cfg or cfg[key] is None:
        if required:
            _fail(f"{path}.{key}", "required value missing")
        return default
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{path}.{key}", f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(f"{path}.{key}", f"must be at least {minimum}, got {value}")
    return int(value)


def _get_bool(cfg: dict, path: str, key: str, default=False):
    if key not in cfg or cfg[key] is None:
        return default
    value = cfg[key]
    if not isinstance(value, bool):
        _fail(f"{path}.{key}", f"expected true/false, got {value!r}")
    return value


def _get_str(cfg: dict, path: str, key: str, default=None, required=False, choices=None):
    if key not in cfg or cfg[key] is None:
        if required:
            _fail(f"{path}.{key}", "required value missing")
        return default
    value = cfg[key]
    if not isinstance(value, str):
        _fail(f"{path}.{key}", f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        _fail(f"{path}.{key}", f"must be one of {sorted(choices)}, got {value!r}")
    return value


def _number_list(value, path: str) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, "expected a non-empty list of numbers")
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(v):
            _fail(f"{path}[{i}]", f"expected a finite number, got {v!r}")
        out.append(float(v))
    return out


def _matrix(value, path: str, size: int) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != size:
        _fail(path, f"expected a {size}x{size} matrix")
    return [_number_list(row, f"{path}[{i}]") for i, row in enumerate(value)]


def _fresh_seed() -> int:
    return int(np.random.SeedSequence().entropy % (2**63))


def _resolve_margin(mcfg, path: str) -> dict:
    mcfg = _expect_mapping(mcfg, path)
    kind = _get_str(mcfg, path, "type", required=True, choices=set(_MARGIN_FIELDS))
    fields = _MARGIN_FIELDS[kind]
    out = {"type": kind}
    for key, default in fields.items():
        out[key] = _get_number(mcfg, path, key, default=default, required=default is None)
    _reject_unknown(mcfg, path, {"type", *fields}, what="margin keys")
    return out


def resolve_config(cfg: dict) -> dict:
    """Validate a raw config and return the fully materialized equivalent.

    All defaults are made explicit and every seed is fixed: the scenario seed
    defaults to the master seed, the network seed to master + 1 so that the
    two streams never overlap.
    """
    cfg = _expect_mapping(copy.deepcopy(cfg), "config")
    known_top = {
        "name", "seed", "threads", "refine", "scenarios", "model",
        "acceptance", "grid", "ear", "output",
    }
    _reject_unknown(cfg, "config", known_top, what="top-level keys")

    out: dict = {}
    out["name"] = _get_str(cfg, "config", "name", default="run")
    seed = _get_int(cfg, "config", "seed", default=None, minimum=0)
    if seed is None:
        seed = _fresh_seed()
    out["seed"] = seed
    # threads no longer changes anything (the search is sequential); it is still
    # validated and recorded so that configs and manifests written with it replay
    out["threads"] = _get_int(cfg, "config", "threads", default=1, minimum=1)
    out["refine"] = _get_int(cfg, "config", "refine", default=1, minimum=1)

    # scenarios
    sc = _expect_mapping(cfg.get("scenarios", None) or {}, "scenarios")
    rsc: dict = {}
    rsc["count"] = _get_int(sc, "scenarios", "count", required=True, minimum=1)
    rsc["correlation"] = _get_number(sc, "scenarios", "correlation", default=0.0)
    rsc["seed"] = _get_int(sc, "scenarios", "seed", default=seed, minimum=0)
    margins = sc.get("margins")
    if not isinstance(margins, list) or not margins:
        _fail("scenarios.margins", "expected a non-empty list (one margin per group)")
    rsc["margins"] = [_resolve_margin(m, f"scenarios.margins[{i}]") for i, m in enumerate(margins)]
    frac = _get_number(sc, "scenarios", "liquid_fraction", default=None)
    if frac is not None and not 0.0 <= frac <= 1.0:
        _fail("scenarios.liquid_fraction", f"must lie in [0, 1], got {frac}")
    rsc["liquid_fraction"] = frac
    _reject_unknown(sc, "scenarios", {"count", "correlation", "seed", "margins", "liquid_fraction"})
    out["scenarios"] = rsc

    # model
    mc = _expect_mapping(cfg.get("model", None) or {}, "model")
    rmodel: dict = {}
    mtype = _get_str(mc, "model", "type", required=True, choices={"aggregation", "network"})
    rmodel["type"] = mtype
    groups = mc.get("groups")
    if not isinstance(groups, list) or not groups or not all(
        isinstance(g, int) and not isinstance(g, bool) and g >= 1 for g in groups
    ):
        _fail("model.groups", "expected a list of positive integers")
    rmodel["groups"] = list(groups)
    n_groups = len(groups)
    if len(rsc["margins"]) != n_groups:
        _fail("scenarios.margins", f"{len(rsc['margins'])} margins for {n_groups} groups")

    if mtype == "aggregation":
        if "network" in mc:
            _fail("model.network", "not allowed for aggregation models")
        agg = _expect_mapping(mc.get("aggregation", None) or {}, "model.aggregation")
        ragg = {
            "kind": _get_str(agg, "model.aggregation", "kind", required=True,
                             choices={"sum", "loss", "exp"}),
            "mode": _get_str(agg, "model.aggregation", "mode", required=True,
                             choices={"insensitive", "sensitive"}),
            "theta": _get_number(agg, "model.aggregation", "theta", default=2.0),
        }
        _reject_unknown(agg, "model.aggregation", {"kind", "mode", "theta"})
        rmodel["aggregation"] = ragg
    else:
        if "aggregation" in mc:
            _fail("model.aggregation", "not allowed for network models")
        net = _expect_mapping(mc.get("network", None) or {}, "model.network")
        rnet: dict = {}
        gen = net.get("generate")
        edges_file = net.get("edges_file")
        if (gen is None) == (edges_file is None):
            _fail("model.network", "exactly one of generate or edges_file is required")
        if gen is not None:
            gen = _expect_mapping(gen, "model.network.generate")
            rgen = {
                "seed": _get_int(gen, "model.network.generate", "seed",
                                 default=seed + 1, minimum=0),
                "probabilities": _matrix(gen.get("probabilities"),
                                         "model.network.generate.probabilities", n_groups),
                "weights": _matrix(gen.get("weights"),
                                   "model.network.generate.weights", n_groups),
                "society_weights": _number_list(gen.get("society_weights"),
                                                "model.network.generate.society_weights"),
            }
            if len(rgen["society_weights"]) != n_groups:
                _fail("model.network.generate.society_weights",
                      f"expected {n_groups} entries")
            _reject_unknown(gen, "model.network.generate",
                            {"seed", "probabilities", "weights", "society_weights"})
            rnet["generate"] = rgen
            rnet["edges_file"] = None
        else:
            if not isinstance(edges_file, str):
                _fail("model.network.edges_file", "expected a file path")
            rnet["generate"] = None
            rnet["edges_file"] = edges_file
        demand = _expect_mapping(net.get("inverse_demand", None) or {"type": "constant"},
                                 "model.network.inverse_demand")
        dkind = _get_str(demand, "model.network.inverse_demand", "type", required=True)
        params = {key: value for key, value in demand.items() if key != "type"}
        try:  # surface unknown kinds and bad parameters at validation time
            make_inverse_demand(dkind, **params)
        except (SysriskError, TypeError, ValueError) as exc:
            _fail("model.network.inverse_demand", str(exc))
        rnet["inverse_demand"] = {"type": dkind, **params}
        clearing = _expect_mapping(net.get("clearing", None) or {}, "model.network.clearing")
        rnet["clearing"] = {
            "tol": _get_number(clearing, "model.network.clearing", "tol", default=DEFAULT_TOL),
            "max_iter": _get_int(clearing, "model.network.clearing", "max_iter",
                                 default=DEFAULT_MAX_ITER, minimum=1),
        }
        _reject_unknown(net, "model.network",
                        {"generate", "edges_file", "inverse_demand", "clearing"})
        rmodel["network"] = rnet  # manifests keep this insertion order of the keys
    _reject_unknown(mc, "model", {"type", "groups", "aggregation", "network"})
    if rsc["liquid_fraction"] is not None and mtype != "network":
        _fail("scenarios.liquid_fraction", "only meaningful for network models")
    out["model"] = rmodel

    # acceptance
    ac = _expect_mapping(cfg.get("acceptance", None) or {}, "acceptance")
    racc: dict = {
        "criterion": _get_str(ac, "acceptance", "criterion", required=True,
                              choices={"avar", "ubsr", "oce", "entropic"}),
        "shift": _get_number(ac, "acceptance", "shift", default=0.0),
    }
    for key in _ACCEPTANCE_FIELDS:
        getter = _get_str if key in ("loss", "utility") else _get_number
        racc[key] = getter(ac, "acceptance", key, default=None)
    frac = _get_number(ac, "acceptance", "shift_fraction_of_promised", default=None)
    if frac is not None and mtype != "network":
        _fail("acceptance.shift_fraction_of_promised", "only valid for network models")
    racc["shift_fraction_of_promised"] = frac
    _reject_unknown(ac, "acceptance",
                    {"criterion", "shift", "shift_fraction_of_promised", *_ACCEPTANCE_FIELDS})
    try:  # surface criterion/parameter mismatches at validation time
        AcceptanceSpec(racc["criterion"], racc["shift"], **{k: racc[k] for k in _ACCEPTANCE_FIELDS})
    except Exception as exc:
        _fail("acceptance", str(exc))
    out["acceptance"] = racc

    # grid
    gc = _expect_mapping(cfg.get("grid", None) or {}, "grid")
    rgrid: dict = {}
    rgrid["lower"] = _number_list(gc.get("lower"), "grid.lower")
    rgrid["upper"] = _number_list(gc.get("upper"), "grid.upper")
    res = gc.get("resolution")
    if isinstance(res, int) and not isinstance(res, bool):
        res = [res] * len(rgrid["lower"])
    if not isinstance(res, (list, tuple)) or not res:
        _fail("grid.resolution", "expected an integer or a non-empty list of integers")
    for i, v in enumerate(res):
        if isinstance(v, bool) or not isinstance(v, int):
            _fail(f"grid.resolution[{i}]", f"expected an integer, got {v!r}")
    rgrid["resolution"] = list(res)
    rgrid["nonneg"] = _get_bool(gc, "grid", "nonneg", default=False)
    fixed_raw = gc.get("fixed") or {}
    fixed_raw = _expect_mapping(fixed_raw, "grid.fixed")
    rfixed = {}
    for key, value in fixed_raw.items():
        try:
            group_no = int(key)
        except (TypeError, ValueError):
            _fail("grid.fixed", f"keys must be group numbers (1-based), got {key!r}")
        if not 1 <= group_no <= n_groups:
            _fail("grid.fixed", f"group number {group_no} out of range 1..{n_groups}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
            _fail("grid.fixed", f"pinned value for group {group_no} must be a finite number")
        rfixed[str(group_no)] = float(value)
    rgrid["fixed"] = rfixed
    free_dims = n_groups - len(rfixed)
    if free_dims < 1:
        _fail("grid.fixed", "at least one group must remain free")
    for key in ("lower", "upper"):
        if len(rgrid[key]) != free_dims:
            _fail(f"grid.{key}", f"expected {free_dims} entries (free groups), got {len(rgrid[key])}")
    if len(rgrid["resolution"]) != free_dims:
        _fail("grid.resolution", f"expected {free_dims} entries, got {len(rgrid['resolution'])}")
    if mtype == "network":  # clearing takes no negative capital
        for i, v in enumerate(rgrid["lower"]):
            if v < 0 and not rgrid["nonneg"]:
                _fail(f"grid.lower[{i}]", f"network models take no negative capital, got {v}; "
                      "raise it to 0 or set grid.nonneg")
        for key, value in rfixed.items():
            if value < 0:
                _fail(f"grid.fixed.{key}", f"network models take no negative capital, got {value}")
    _reject_unknown(gc, "grid", {"lower", "upper", "resolution", "nonneg", "fixed"})
    try:
        GridSpec(rgrid["lower"], rgrid["upper"], rgrid["resolution"], rgrid["nonneg"])
    except Exception as exc:
        _fail("grid", str(exc))
    out["grid"] = rgrid

    # ear
    ec = _expect_mapping(cfg.get("ear", None) or {}, "ear")
    weights = ec.get("weights") or []
    if not isinstance(weights, list):
        _fail("ear.weights", "expected a list of weight vectors")
    rweights = []
    for i, w in enumerate(weights):
        vec = _number_list(w, f"ear.weights[{i}]")
        if len(vec) != free_dims:
            _fail(f"ear.weights[{i}]", f"expected {free_dims} entries")
        if any(v <= 0 for v in vec):
            _fail(f"ear.weights[{i}]", "weights must be strictly positive")
        rweights.append(vec)
    _reject_unknown(ec, "ear", {"weights"})
    out["ear"] = {"weights": rweights}

    # output
    oc = _expect_mapping(cfg.get("output", None) or {}, "output")
    out["output"] = {
        "directory": _get_str(oc, "output", "directory", default="out"),
        "write_scenarios": _get_bool(oc, "output", "write_scenarios", default=False),
        "write_network": _get_bool(oc, "output", "write_network", default=False),
        "write_labels": _get_bool(oc, "output", "write_labels", default=True),
    }
    _reject_unknown(oc, "output", {"directory", "write_scenarios", "write_network", "write_labels"})
    return out


def config_hash(resolved: dict) -> str:
    """Stable content hash of a resolved config."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# building live objects


@dataclass
class RunPlan:
    """Everything a run needs, constructed from a resolved config."""

    config: dict
    model: object
    acceptance: AcceptanceSpec
    grid: GridSpec
    ear_weights: list
    network: LiabilityNetwork | None
    scenario_matrix: ScenarioMatrix
    effective_shift: float


def _build_margin(mcfg: dict):
    if mcfg["type"] == "shifted_lognormal":
        return ShiftedLognormal(mu=mcfg["mu"], sigma=mcfg["sigma"], b=mcfg["b"])
    return ScaledBeta(
        alpha=mcfg["alpha"], beta=mcfg["beta"], scale=mcfg["scale"], shift=mcfg["shift"]
    )


def build_run(resolved: dict) -> RunPlan:
    """Instantiate scenarios, model, criterion, and grid from a resolved config."""
    groups = GroupMap(resolved["model"]["groups"])
    sc = resolved["scenarios"]
    copula = CopulaSpec(
        n_firms=groups.n_firms,
        pairwise_correlation=sc["correlation"],
        n_scenarios=sc["count"],
        seed=sc["seed"],
    )
    margins = [_build_margin(m) for m in sc["margins"]]
    base = generate_scenarios(copula, margins, groups.group_sizes)

    network = None
    if resolved["model"]["type"] == "aggregation":
        agg = resolved["model"]["aggregation"]
        spec = AggregationSpec(kind=agg["kind"], mode=agg["mode"], theta=agg["theta"])
        model = AggregationValueModel(base, spec, groups)
    else:
        net_cfg = resolved["model"]["network"]
        if net_cfg["generate"] is not None:
            gen = net_cfg["generate"]
            network = sample_network(NetworkGenSpec(
                group_sizes=groups.group_sizes,
                q=gen["probabilities"],
                w=gen["weights"],
                w_society=gen["society_weights"],
                seed=gen["seed"],
            ))
        else:
            try:
                network = read_edge_csv(net_cfg["edges_file"], groups)
            except SysriskError as exc:
                _fail("model.network.edges_file", str(exc))
        demand_cfg = dict(net_cfg["inverse_demand"])
        f = make_inverse_demand(demand_cfg.pop("type"), **demand_cfg)
        frac = sc["liquid_fraction"]
        if frac is None:
            frac = 1.0
        model = NetworkValueModel(
            network,
            base.scaled(frac),
            base.scaled(1.0 - frac),
            f,
            tol=net_cfg["clearing"]["tol"],
            max_iter=net_cfg["clearing"]["max_iter"],
        )

    acc = resolved["acceptance"]
    shift = acc["shift"]
    if acc["shift_fraction_of_promised"] is not None:
        shift += acc["shift_fraction_of_promised"] * network.society_promised
    spec = AcceptanceSpec(acc["criterion"], shift, **{k: acc[k] for k in _ACCEPTANCE_FIELDS})

    search_model = model
    fixed = resolved["grid"]["fixed"]
    if fixed:
        pinned = {int(key) - 1: value for key, value in fixed.items()}
        search_model = PinnedAllocationModel(model, pinned)
    # a refine factor F puts F - 1 points between neighbours of the configured lattice
    factor = resolved["refine"]
    grid = GridSpec(
        resolved["grid"]["lower"],
        resolved["grid"]["upper"],
        [(r - 1) * factor + 1 for r in resolved["grid"]["resolution"]],
        nonneg_constraint=resolved["grid"]["nonneg"],
    )
    return RunPlan(
        config=resolved,
        model=search_model,
        acceptance=spec,
        grid=grid,
        ear_weights=resolved["ear"]["weights"],
        network=network,
        scenario_matrix=base,
        effective_shift=shift,
    )
