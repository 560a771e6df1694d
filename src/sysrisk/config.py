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
from dataclasses import MISSING, dataclass, fields

import numpy as np
import yaml

from .acceptance import CRITERIA, AcceptanceSpec
from .aggregation import (
    AGGREGATION_KINDS,
    AGGREGATION_MODES,
    AggregationSpec,
    AggregationValueModel,
    GroupMap,
)
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

_MARGINS = {"shifted_lognormal": ShiftedLognormal, "scaled_beta": ScaledBeta}

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


def _expect_mapping(cfg, path: str) -> dict:
    if not isinstance(cfg, dict):
        _fail(path, f"expected a mapping, got {type(cfg).__name__}")
    return cfg


def _section(cfg: dict, key: str, path: str) -> dict:
    """cfg[key] as a mapping: absent or null reads as empty, any other non-mapping fails at path."""
    value = cfg.get(key)
    return {} if value is None else _expect_mapping(value, path)


def _fields(section: dict, path: str, readers: dict, what: str = "keys") -> dict:
    """Every key of a section read by its reader(value, path); a key with no reader is unknown."""
    out = {key: read(section.get(key), f"{path}.{key}") for key, read in readers.items()}
    unknown = set(section) - set(readers)
    if unknown:
        _fail(path, f"unknown {what} {sorted(unknown, key=str)}")  # YAML keys may be ints too
    return out


def _as_is(value, path: str):
    """The reader of a key that the caller checks once the whole section is read."""
    return value


def _is_finite(value: int | float) -> bool:
    """Whether a number is finite as a float; an int beyond the float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _reader(check):
    """Readers made from check(value, path, **options): an absent or null value reads as
    the default, or fails if the key is required."""
    def make(default=None, required=False, **options):
        def read(value, path: str):
            if value is None:
                if required:
                    _fail(path, "required value missing")
                return default
            return check(value, path, **options)
        return read
    return make


@_reader
def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    if not _is_finite(value):
        _fail(path, "value must be finite")
    return float(value)


@_reader
def _int(value, path: str, minimum=None, maximum=None) -> int:
    if not _is_int(value):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(path, f"must be at most {maximum}, got {value}")
    return int(value)


@_reader
def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected true/false, got {value!r}")
    return value


@_reader
def _str(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        _fail(path, f"must be one of {sorted(choices)}, got {value!r}")
    return value


def _number_list(value, path: str, size: int | None = None) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, "expected a non-empty list of numbers")
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            _fail(f"{path}[{i}]", f"expected a finite number, got {v!r}")
        if not _is_finite(v):
            _fail(f"{path}[{i}]", "value must be finite")
        out.append(float(v))
    if size is not None and len(out) != size:
        _fail(path, f"expected {size} entries")
    return out


def _matrix(value, path: str, size: int) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != size:
        _fail(path, f"expected a {size}x{size} matrix")
    return [_number_list(row, f"{path}[{i}]", size) for i, row in enumerate(value)]


def _groups(value, path: str) -> list:
    if not isinstance(value, list) or not value or not all(_is_int(g) and g >= 1 for g in value):
        _fail(path, "expected a list of positive integers")
    return list(value)


def _resolve_margin(margin, path: str) -> dict:
    """One margin: its type, then the fields of the type's spec with the spec's defaults."""
    margin = _expect_mapping(margin, path)
    read_type = _str(required=True, choices=_MARGINS)
    spec = _MARGINS[read_type(margin.get("type"), f"{path}.type")]
    out = _fields(margin, path, {"type": read_type, **{
        f.name: _number(default=f.default, required=f.default is MISSING) for f in fields(spec)
    }}, what="margin keys")
    _checked(path, _margin, out)
    return out


def _margins(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list (one margin per group)")
    return [_resolve_margin(margin, f"{path}[{i}]") for i, margin in enumerate(value)]


def _fresh_seed() -> int:
    return int(np.random.SeedSequence().entropy % (2**63))


# ---------------------------------------------------------------------------
# spec builders: resolve_config builds each spec once to check it, build_run to use it


def _margin(margin: dict):
    return _MARGINS[margin["type"]](**{key: v for key, v in margin.items() if key != "type"})


def _copula(n_firms: int, sc: dict) -> CopulaSpec:
    return CopulaSpec(n_firms=n_firms, pairwise_correlation=sc["correlation"],
                      n_scenarios=sc["count"], seed=sc["seed"])


def _network(group_sizes, gen: dict) -> NetworkGenSpec:
    return NetworkGenSpec(group_sizes, q=gen["probabilities"], w=gen["weights"],
                          w_society=gen["society_weights"], seed=gen["seed"])


def _inverse_demand(demand: dict):
    params = dict(demand)
    return make_inverse_demand(params.pop("type"), **params)


def _aggregation(agg: dict) -> AggregationSpec:
    return AggregationSpec(**agg)


def _acceptance(acc: dict, network: LiabilityNetwork | None = None) -> AcceptanceSpec:
    """The criterion; shift_fraction_of_promised adds to the shift once the network is known."""
    params = dict(acc)
    frac = params.pop("shift_fraction_of_promised")
    if frac is not None and network is not None:
        params["shift"] += frac * network.society_promised
    return AcceptanceSpec(**params)


def _grid(grid: dict) -> GridSpec:
    return GridSpec(grid["lower"], grid["upper"], grid["resolution"], grid["nonneg"],
                    fixed={int(key) - 1: value for key, value in grid["fixed"].items()})


def _checked(path: str, build, *args):
    """build(*args), with a spec's rejection of its values reported as a config error at path."""
    try:
        return build(*args)
    except (SysriskError, TypeError, ValueError) as exc:
        _fail(path, str(exc))


# ---------------------------------------------------------------------------
# resolution


def _fold_legacy(cfg: dict) -> dict:
    """Rewrite, in place, the keys of older configs and manifests into today's schema.

    threads (the search is sequential) is dropped; refine: F turns a resolution r into
    (r - 1) F + 1; ubsr with the exp loss is the entropic risk at level -log z, and the
    power that loss ignored is dropped; oce with the avar utility is avar at utility_lam;
    the polynomial loss and the log1p utility, which the criteria always use, are
    dropped. Only well-formed values are rewritten: anything else is left for
    resolve_config to reject at its own path.
    """
    _int(minimum=1)(cfg.get("threads"), "config.threads")
    refine = _int(default=1, minimum=1)(cfg.get("refine"), "config.refine")
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
        loss = _str(choices={"exp", "polynomial"})(ac.get("loss"), "acceptance.loss")
        utility = _str(choices={"log1p", "avar"})(ac.get("utility"), "acceptance.utility")
        if ac.get("criterion") == "oce" and utility == "avar":
            _number()(ac.get("lam"), "acceptance.lam")  # a bad lam or level is rejected, not replaced
            lam = _number(required=True)(ac.get("utility_lam"), "acceptance.utility_lam")
            if not 0.0 < lam < 1.0:
                _fail("acceptance.utility_lam", f"must lie in (0, 1), got {lam}")
            ac["criterion"], ac["lam"] = "avar", lam
        if ac.get("criterion") == "ubsr" and loss == "exp":
            _number()(ac.get("level"), "acceptance.level")
            _number()(ac.get("power"), "acceptance.power")  # the exp loss ignored it
            z = _number()(ac.get("z"), "acceptance.z")
            if z is None or not z > 0:
                _fail("acceptance.z", f"the exp loss needs a positive target z, got {z}")
            ac.update(criterion="entropic", level=-math.log(z), z=None, power=None)
        for key in ("loss", "utility", "utility_lam"):
            ac.pop(key, None)
    return cfg


def resolve_config(cfg: dict) -> dict:
    """Validate a raw config and return the fully materialized equivalent.

    The keys of older configs and manifests are first rewritten into today's
    schema (_fold_legacy), so the rest reads one schema. Each section is read
    with one reader per key, and a key without a reader is rejected; each spec
    is built once as a check, by the builder that build_run uses. All defaults
    are made explicit and every seed is fixed: the scenario seed defaults to the
    master seed, the network seed to master + 1 so that the two streams never
    overlap.
    """
    cfg = _fold_legacy(_expect_mapping(copy.deepcopy(cfg), "config"))
    top = _fields(cfg, "config", {
        "name": _str(default="run"),
        "seed": _int(minimum=0, maximum=_MAX_SEED),
        **dict.fromkeys(("scenarios", "model", "acceptance", "grid", "ear", "output"), _as_is),
    }, what="top-level keys")
    seed = _fresh_seed() if top["seed"] is None else top["seed"]
    out: dict = {"name": top["name"], "seed": seed}

    # scenarios
    rsc = _fields(_section(cfg, "scenarios", "scenarios"), "scenarios", {
        "count": _int(required=True, minimum=1),
        "correlation": _number(default=0.0),
        "seed": _int(default=seed, minimum=0, maximum=_MAX_SEED),
        "margins": _margins,
        "liquid_fraction": _number(),
    })
    frac = rsc["liquid_fraction"]
    if frac is not None and not 0.0 <= frac <= 1.0:
        _fail("scenarios.liquid_fraction", f"must lie in [0, 1], got {frac}")
    out["scenarios"] = rsc

    # model
    mc = _section(cfg, "model", "model")
    rmodel = _fields(mc, "model", {"type": _str(required=True, choices=("aggregation", "network")),
                                   "groups": _groups, "aggregation": _as_is, "network": _as_is})
    mtype, groups = rmodel["type"], rmodel["groups"]
    n_groups = len(groups)
    if sum(groups) * rsc["count"] > _MAX_ENTRIES:
        _fail("scenarios.count", f"a scenario matrix of {sum(groups)} firms (model.groups) "
              f"by this many scenarios exceeds the {_MAX_ENTRIES} entries of an array")
    if len(rsc["margins"]) != n_groups:
        _fail("scenarios.margins", f"{len(rsc['margins'])} margins for {n_groups} groups")
    _checked("scenarios.correlation", _copula, sum(groups), rsc)
    other = "network" if mtype == "aggregation" else "aggregation"
    if other in mc:
        _fail(f"model.{other}", f"not allowed for {mtype} models")
    del rmodel[other]  # manifests keep type, groups, then the model's own section

    if mtype == "aggregation":
        rmodel["aggregation"] = _fields(_section(mc, "aggregation", "model.aggregation"),
                                        "model.aggregation", {
            "kind": _str(required=True, choices=AGGREGATION_KINDS),
            "mode": _str(required=True, choices=AGGREGATION_MODES),
            "theta": _number(default=AggregationSpec.theta),
        })
        _checked("model.aggregation", _aggregation, rmodel["aggregation"])
    else:
        net = _section(mc, "network", "model.network")
        if (net.get("generate") is None) == (net.get("edges_file") is None):
            _fail("model.network", "exactly one of generate or edges_file is required")
        rnet = _fields(net, "model.network", dict.fromkeys(
            ("generate", "edges_file", "inverse_demand", "clearing"), _as_is))
        if rnet["generate"] is not None:
            path = "model.network.generate"
            rnet["generate"] = _fields(_expect_mapping(rnet["generate"], path), path, {
                "seed": _int(default=seed + 1, minimum=0),
                "probabilities": lambda value, p: _matrix(value, p, n_groups),
                "weights": lambda value, p: _matrix(value, p, n_groups),
                "society_weights": lambda value, p: _number_list(value, p, n_groups),
            })
            _checked(path, _network, groups, rnet["generate"])
        elif not isinstance(rnet["edges_file"], str):
            _fail("model.network.edges_file", "expected a file path")
        path = "model.network.inverse_demand"
        demand = _section(net, "inverse_demand", path) or {"type": "constant"}
        rnet["inverse_demand"] = {"type": _str(required=True)(demand.get("type"), f"{path}.type"),
                                  **{key: v for key, v in demand.items() if key != "type"}}
        _checked(path, _inverse_demand, rnet["inverse_demand"])
        path = "model.network.clearing"
        rnet["clearing"] = _fields(_section(net, "clearing", path), path, {
            "tol": _number(default=DEFAULT_TOL),
            "max_iter": _int(default=DEFAULT_MAX_ITER, minimum=1),
        })
        if not rnet["clearing"]["tol"] > 0:
            _fail(f"{path}.tol", f"must be positive, got {rnet['clearing']['tol']}")
        rmodel["network"] = rnet
    if rsc["liquid_fraction"] is not None and mtype != "network":
        _fail("scenarios.liquid_fraction", "only meaningful for network models")
    out["model"] = rmodel

    # acceptance: the criterion, then the spec's shift and parameters with its defaults
    racc = _fields(_section(cfg, "acceptance", "acceptance"), "acceptance", {
        "criterion": _str(required=True, choices=CRITERIA),
        **{f.name: _number(default=f.default) for f in fields(AcceptanceSpec)[1:]},
        "shift_fraction_of_promised": _number(),
    })
    if racc["shift_fraction_of_promised"] is not None and mtype != "network":
        _fail("acceptance.shift_fraction_of_promised", "only valid for network models")
    _checked("acceptance", _acceptance, racc)
    out["acceptance"] = racc

    # grid
    gc = _section(cfg, "grid", "grid")
    rgrid = _fields(gc, "grid", {"lower": _number_list, "upper": _number_list, "resolution": _as_is,
                                 "nonneg": _bool(default=False), "fixed": _as_is})
    res = rgrid["resolution"]
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
    rfixed = rgrid["fixed"] = {}
    for key, value in _section(gc, "fixed", "grid.fixed").items():
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
    if math.prod(rgrid["resolution"]) > _MAX_ENTRIES:
        _fail("grid.resolution", f"the searched lattice exceeds the {_MAX_ENTRIES} entries of an array")
    _checked("grid", _grid, rgrid)
    out["grid"] = rgrid

    # ear
    weights = _fields(_section(cfg, "ear", "ear"), "ear", {"weights": _as_is})["weights"]
    if weights is None:
        weights = []
    if not isinstance(weights, list):
        _fail("ear.weights", "expected a list of weight vectors")
    rweights = []
    for i, w in enumerate(weights):
        vec = _number_list(w, f"ear.weights[{i}]", free_dims)
        if any(v <= 0 for v in vec):
            _fail(f"ear.weights[{i}]", "weights must be strictly positive")
        if not math.isfinite(sum(v * max(abs(lo), abs(hi))
                                 for v, lo, hi in zip(vec, rgrid["lower"], rgrid["upper"]))):
            _fail(f"ear.weights[{i}]", "the weighted capital cost overflows on the grid box; "
                  "scale the weights down")
        rweights.append(vec)
    out["ear"] = {"weights": rweights}

    # output
    out["output"] = _fields(_section(cfg, "output", "output"), "output", {
        "directory": _str(default="out"),
        "write_scenarios": _bool(default=False),
        "write_network": _bool(default=False),
        "write_labels": _bool(default=True),
    })
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
    try:
        base = generate_scenarios(_copula(groups.n_firms, sc), [_margin(m) for m in sc["margins"]],
                                  groups.group_sizes)
    except GenerationError as exc:  # a margin whose values overflow
        _fail(f"scenarios.margins[{exc.group}]", str(exc))

    network = None
    if resolved["model"]["type"] == "aggregation":
        model = AggregationValueModel(base, _aggregation(resolved["model"]["aggregation"]), groups)
    else:
        net_cfg = resolved["model"]["network"]
        if net_cfg["generate"] is not None:
            network = sample_network(_network(groups.group_sizes, net_cfg["generate"]))
        else:
            try:
                network = read_edge_csv(net_cfg["edges_file"], groups)
            except SysriskError as exc:
                _fail("model.network.edges_file", str(exc))
        frac = 1.0 if sc["liquid_fraction"] is None else sc["liquid_fraction"]
        model = NetworkValueModel(
            network,
            base.scaled(frac),
            base.scaled(1.0 - frac),
            _inverse_demand(net_cfg["inverse_demand"]),
            tol=net_cfg["clearing"]["tol"],
            max_iter=net_cfg["clearing"]["max_iter"],
        )

    return RunPlan(
        config=resolved,
        model=model,
        acceptance=_acceptance(resolved["acceptance"], network),
        grid=_grid(resolved["grid"]),
        ear_weights=resolved["ear"]["weights"],
        network=network,
        scenario_matrix=base,
        model_stats={"aggregation" if network is None else "clearing": model.stats},
    )
