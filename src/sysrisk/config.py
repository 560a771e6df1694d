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
import math
import re
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
from .errors import ConfigurationError, GenerationError, SysriskError
from .netgen import NetworkGenSpec, sample_network
from .riskmeasure import GridSpec
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

_ACCEPTANCE_FIELDS = ("lam", "power", "z", "level")

_MAX_ENTRIES = int(np.iinfo(np.intp).max)  # the most entries a numpy array can index
_MAX_SEED = 2**64 - 1  # the scenario stream's Philox generator takes an unsigned 64-bit key


class _Loader(yaml.SafeLoader):
    """Safe loader that reads floats as YAML 1.2 does.

    YAML 1.1 wants a decimal point and a signed exponent, so it reads 1e-10
    or 2e0 as strings. The resolver added here takes every number with an
    exponent; the inherited ones still read the forms YAML 1.1 knows.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_config(path) -> dict:
    """Parse a YAML (or JSON) config file; a recorded manifest is accepted too.

    JSON is parsed as JSON first, YAML otherwise, with YAML 1.2 floats
    (1e-10 is a number, not a string).
    """
    try:
        with open(path) as fh:
            text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = yaml.load(text, Loader=_Loader)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror}") from exc
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: bad bytes, or over 4300 digits
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


def _is_finite(value: int | float) -> bool:
    """Whether a number is finite as a float; an int beyond the float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _get_number(cfg: dict, path: str, key: str, default=None, required=False):
    if key not in cfg or cfg[key] is None:
        if required:
            _fail(f"{path}.{key}", "required value missing")
        return default
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", f"expected a number, got {value!r}")
    if not _is_finite(value):
        _fail(f"{path}.{key}", "value must be finite")
    return float(value)


def _get_int(cfg: dict, path: str, key: str, default=None, required=False, minimum=None,
             maximum=None):
    if key not in cfg or cfg[key] is None:
        if required:
            _fail(f"{path}.{key}", "required value missing")
        return default
    value = cfg[key]
    if not _is_int(value):
        _fail(f"{path}.{key}", f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(f"{path}.{key}", f"must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(f"{path}.{key}", f"must be at most {maximum}, got {value}")
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
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            _fail(f"{path}[{i}]", f"expected a finite number, got {v!r}")
        if not _is_finite(v):
            _fail(f"{path}[{i}]", "value must be finite")
        out.append(float(v))
    return out


def _matrix(value, path: str, size: int) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != size:
        _fail(path, f"expected a {size}x{size} matrix")
    return [_number_list(row, f"{path}[{i}]") for i, row in enumerate(value)]


def _fresh_seed() -> int:
    return int(np.random.SeedSequence().entropy % (2**63))


def _build_margin(mcfg: dict):
    if mcfg["type"] == "shifted_lognormal":
        return ShiftedLognormal(mu=mcfg["mu"], sigma=mcfg["sigma"], b=mcfg["b"])
    return ScaledBeta(
        alpha=mcfg["alpha"], beta=mcfg["beta"], scale=mcfg["scale"], shift=mcfg["shift"]
    )


def _copula(n_firms: int, rsc: dict) -> CopulaSpec:
    return CopulaSpec(n_firms=n_firms, pairwise_correlation=rsc["correlation"],
                      n_scenarios=rsc["count"], seed=rsc["seed"])


def _resolve_margin(mcfg, path: str) -> dict:
    mcfg = _expect_mapping(mcfg, path)
    kind = _get_str(mcfg, path, "type", required=True, choices=set(_MARGIN_FIELDS))
    fields = _MARGIN_FIELDS[kind]
    out = {"type": kind}
    for key, default in fields.items():
        out[key] = _get_number(mcfg, path, key, default=default, required=default is None)
    _reject_unknown(mcfg, path, {"type", *fields}, what="margin keys")
    try:  # surface bad margin parameters at validation time
        _build_margin(out)
    except SysriskError as exc:
        _fail(path, str(exc))
    return out


def _fold_legacy(cfg: dict) -> dict:
    """Rewrite, in place, the keys of older configs and manifests into today's schema.

    threads (the search is sequential) is dropped; refine: F turns a resolution r into
    (r - 1) F + 1; ubsr with the exp loss is the entropic risk at level -log z, and oce
    with the avar utility is avar at utility_lam; the polynomial loss and the log1p
    utility, which the criteria always use, are dropped. Only well-formed values are
    rewritten: anything else is left for resolve_config to reject at its own path.
    """
    _get_int(cfg, "config", "threads", minimum=1)
    refine = _get_int(cfg, "config", "refine", default=1, minimum=1)
    cfg.pop("threads", None)
    cfg.pop("refine", None)
    grid = cfg.get("grid")
    if refine > 1 and isinstance(grid, dict) and "resolution" in grid:
        res = grid["resolution"]
        scalar = not isinstance(res, (list, tuple))
        axes = [(r - 1) * refine + 1 if _is_int(r) and r >= 2 else r for r in ([res] if scalar else res)]
        grid["resolution"] = axes[0] if scalar else axes
        if scalar and isinstance(grid.get("lower"), (list, tuple)):
            axes *= len(grid["lower"])  # a scalar resolution holds for every axis
        if all(_is_int(r) and r >= 2 for r in axes) and math.prod(axes) > _MAX_ENTRIES:
            _fail("refine", f"the searched lattice exceeds the {_MAX_ENTRIES} entries of an array")
    ac = cfg.get("acceptance")
    if isinstance(ac, dict):
        loss = _get_str(ac, "acceptance", "loss", choices={"exp", "polynomial"})
        utility = _get_str(ac, "acceptance", "utility", choices={"log1p", "avar"})
        if ac.get("criterion") == "oce" and utility == "avar":
            _get_number(ac, "acceptance", "lam")  # a bad lam or level is rejected, not replaced
            lam = _get_number(ac, "acceptance", "utility_lam", required=True)
            if not 0.0 < lam < 1.0:
                _fail("acceptance.utility_lam", f"must lie in (0, 1), got {lam}")
            ac["criterion"], ac["lam"] = "avar", lam
        if ac.get("criterion") == "ubsr" and loss == "exp":
            _get_number(ac, "acceptance", "level")
            z = _get_number(ac, "acceptance", "z")
            if z is None or not z > 0:
                _fail("acceptance.z", f"the exp loss needs a positive target z, got {z}")
            ac["criterion"], ac["level"], ac["z"] = "entropic", -math.log(z), None
        for key in ("loss", "utility", "utility_lam"):
            ac.pop(key, None)
    return cfg


def resolve_config(cfg: dict) -> dict:
    """Validate a raw config and return the fully materialized equivalent.

    The keys of older configs and manifests are first rewritten into today's
    schema (_fold_legacy), so the rest reads one schema. All defaults are made
    explicit and every seed is fixed: the scenario seed defaults to the master
    seed, the network seed to master + 1 so that the two streams never overlap.
    """
    cfg = _fold_legacy(_expect_mapping(copy.deepcopy(cfg), "config"))
    known_top = {"name", "seed", "scenarios", "model", "acceptance", "grid", "ear", "output"}
    _reject_unknown(cfg, "config", known_top, what="top-level keys")

    out: dict = {}
    out["name"] = _get_str(cfg, "config", "name", default="run")
    seed = _get_int(cfg, "config", "seed", default=None, minimum=0, maximum=_MAX_SEED)
    if seed is None:
        seed = _fresh_seed()
    out["seed"] = seed

    # scenarios
    sc = _expect_mapping(cfg.get("scenarios", None) or {}, "scenarios")
    rsc: dict = {}
    rsc["count"] = _get_int(sc, "scenarios", "count", required=True, minimum=1)
    rsc["correlation"] = _get_number(sc, "scenarios", "correlation", default=0.0)
    rsc["seed"] = _get_int(sc, "scenarios", "seed", default=seed, minimum=0, maximum=_MAX_SEED)
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
    if not isinstance(groups, list) or not groups or not all(_is_int(g) and g >= 1 for g in groups):
        _fail("model.groups", "expected a list of positive integers")
    rmodel["groups"] = list(groups)
    n_groups = len(groups)
    if sum(groups) * rsc["count"] > _MAX_ENTRIES:
        _fail("scenarios.count", f"a scenario matrix of {sum(groups)} firms (model.groups) "
              f"by this many scenarios exceeds the {_MAX_ENTRIES} entries of an array")
    if len(rsc["margins"]) != n_groups:
        _fail("scenarios.margins", f"{len(rsc['margins'])} margins for {n_groups} groups")
    try:  # surface a bad correlation at validation time
        _copula(sum(groups), rsc)
    except SysriskError as exc:
        _fail("scenarios.correlation", str(exc))

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
        tol = _get_number(clearing, "model.network.clearing", "tol", default=DEFAULT_TOL)
        if not tol > 0:
            _fail("model.network.clearing.tol", f"must be positive, got {tol}")
        rnet["clearing"] = {
            "tol": tol,
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
        racc[key] = _get_number(ac, "acceptance", key, default=None)
    frac = _get_number(ac, "acceptance", "shift_fraction_of_promised", default=None)
    if frac is not None and mtype != "network":
        _fail("acceptance.shift_fraction_of_promised", "only valid for network models")
    racc["shift_fraction_of_promised"] = frac
    _reject_unknown(ac, "acceptance", {"criterion", "shift", "shift_fraction_of_promised",
                                       *_ACCEPTANCE_FIELDS})
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
    if _is_int(res):
        res = [res] * len(rgrid["lower"])
    if not isinstance(res, (list, tuple)) or not res:
        _fail("grid.resolution", "expected an integer or a non-empty list of integers")
    for i, v in enumerate(res):
        if not _is_int(v):
            _fail(f"grid.resolution[{i}]", f"expected an integer, got {v!r}")
        if v < 2:
            _fail(f"grid.resolution[{i}]", f"must be at least 2, got {v}")
    rgrid["resolution"] = list(res)
    rgrid["nonneg"] = _get_bool(gc, "grid", "nonneg", default=False)
    fixed_raw = _expect_mapping(gc.get("fixed") or {}, "grid.fixed")
    rfixed = {}
    for key, value in fixed_raw.items():
        try:  # an integral float is a group number too, a bool or a fraction is not
            if isinstance(key, bool) or isinstance(key, float) and not key.is_integer():
                raise TypeError
            group_no = int(key)
        except (TypeError, ValueError):
            _fail("grid.fixed", f"keys must be group numbers (1-based), got {key!r}")
        if not 1 <= group_no <= n_groups:
            _fail("grid.fixed", f"group number {group_no} out of range 1..{n_groups}")
        if str(group_no) in rfixed:
            _fail("grid.fixed", f"group {group_no} is pinned twice")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not _is_finite(value):
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
    if math.prod(rgrid["resolution"]) > _MAX_ENTRIES:
        _fail("grid.resolution", f"the searched lattice exceeds the {_MAX_ENTRIES} entries of an array")
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
        if not math.isfinite(sum(v * max(abs(lo), abs(hi))
                                 for v, lo, hi in zip(vec, rgrid["lower"], rgrid["upper"]))):
            _fail(f"ear.weights[{i}]", "the weighted capital cost overflows on the grid box; "
                  "scale the weights down")
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
    model_stats: dict  # manifest name -> the model's work counters, filled as it runs


def build_run(resolved: dict) -> RunPlan:
    """Instantiate scenarios, model, criterion, and grid from a resolved config."""
    groups = GroupMap(resolved["model"]["groups"])
    sc = resolved["scenarios"]
    margins = [_build_margin(m) for m in sc["margins"]]
    try:
        base = generate_scenarios(_copula(groups.n_firms, sc), margins, groups.group_sizes)
    except GenerationError as exc:  # a margin whose values overflow
        _fail(f"scenarios.margins[{exc.group}]", str(exc))

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
        frac = 1.0 if sc["liquid_fraction"] is None else sc["liquid_fraction"]
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

    grid = GridSpec(
        resolved["grid"]["lower"],
        resolved["grid"]["upper"],
        resolved["grid"]["resolution"],
        nonneg_constraint=resolved["grid"]["nonneg"],
        fixed={int(key) - 1: value for key, value in resolved["grid"]["fixed"].items()},
    )
    return RunPlan(
        config=resolved,
        model=model,
        acceptance=spec,
        grid=grid,
        ear_weights=resolved["ear"]["weights"],
        network=network,
        scenario_matrix=base,
        model_stats={"aggregation" if network is None else "clearing": model.stats},
    )
