"""Command line interface: validate configs and execute grid-search runs.

A run takes one config (a YAML file or a built-in preset), generates the
scenario set and the value model, labels the whole capital lattice with
the monotone grid search, optionally refines it, extracts capital
allocation rules for the configured weight vectors, and writes
plot-ready CSV datasets plus a JSON manifest. The manifest is written
with status "running" before the heavy computation starts and finalized
afterwards, so an interrupted run still leaves its full resolved
configuration on disk. Feeding a finished manifest back through
--config reproduces the CSV outputs byte for byte.

Exit codes: 0 success, 2 configuration or validation problem,
3 convergence failure, 4 degenerate search box (with guidance),
1 any other error during the search (a model error, for one).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from ._version import __version__
from .clearing import write_edge_csv
from .config import build_run, config_hash, load_config, resolve_config
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateBoxError,
    SysriskError,
)
from .presets import preset_config, preset_names
from .riskmeasure import (
    ear,
    ear_record,
    grid_search,
    membership_oracle,
    refine,
    write_frontier_csv,
    write_labels_csv,
)
from .scenarios import write_scenario_csv

__all__ = ["main", "console_main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sysrisk",
        description="Set-valued systemic risk measurements on capital grids.",
    )
    parser.add_argument("--version", action="version", version=f"sysrisk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    source = common.add_argument_group("config source (exactly one)")
    source.add_argument("--config", metavar="PATH", help="YAML config file or recorded manifest")
    source.add_argument(
        "--preset",
        metavar="NAME",
        help="built-in configuration, e.g. two_tier:A1 (see list-presets)",
    )
    over = common.add_argument_group("overrides")
    over.add_argument("--seed", type=int, metavar="N", help="master seed override")
    over.add_argument("--scenarios", type=int, metavar="M", help="scenario count override")
    over.add_argument(
        "--grid-res",
        metavar="R[,R...]",
        help="lattice resolution override, scalar or one value per free dimension",
    )
    over.add_argument("--refine", type=int, metavar="F", help="subdivision factor (1 = off)")
    over.add_argument("--out", metavar="DIR", help="output directory override")
    over.add_argument(
        "--ear-weights",
        metavar="W",
        help="weight vectors like '1,1;10,90' (semicolon separates vectors)",
    )
    over.add_argument(
        "--threads",
        type=int,
        metavar="T",
        help="ignored (the search is sequential); validated and recorded so old runs replay",
    )

    run = sub.add_parser("run", parents=[common], help="execute a full run")
    run.set_defaults(handler=cmd_run)
    val = sub.add_parser(
        "validate", parents=[common], help="check a config and build its model, computing nothing"
    )
    val.set_defaults(handler=cmd_validate)
    lst = sub.add_parser("list-presets", help="print the built-in preset names")
    lst.set_defaults(handler=cmd_list_presets)
    return parser


# ---------------------------------------------------------------------------
# config assembly


def _parse_grid_res(text: str) -> list | int:
    try:
        parts = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigurationError(f"cannot parse --grid-res {text!r}") from None
    if not parts:
        raise ConfigurationError("--grid-res is empty")
    return parts[0] if len(parts) == 1 else parts


def _parse_ear_weights(text: str) -> list:
    vectors = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            vectors.append([float(p) for p in chunk.split(",")])
        except ValueError:
            raise ConfigurationError(f"cannot parse --ear-weights {text!r}") from None
    if not vectors:
        raise ConfigurationError("--ear-weights is empty")
    return vectors


def _load_raw(args) -> dict:
    if (args.config is None) == (args.preset is None):
        raise ConfigurationError("exactly one of --config or --preset is required")
    if args.preset is not None:
        return preset_config(args.preset)
    return load_config(args.config)


def _apply_overrides(raw: dict, args) -> dict:
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.scenarios is not None:
        raw.setdefault("scenarios", {})["count"] = args.scenarios
    if args.grid_res is not None:
        raw.setdefault("grid", {})["resolution"] = _parse_grid_res(args.grid_res)
    if args.refine is not None:
        raw["refine"] = args.refine
    if args.threads is not None:
        raw["threads"] = args.threads
    if args.out is not None:
        raw.setdefault("output", {})["directory"] = args.out
    if args.ear_weights is not None:
        raw.setdefault("ear", {})["weights"] = _parse_ear_weights(args.ear_weights)
    return raw


def _resolve_from_args(args) -> dict:
    return resolve_config(_apply_overrides(_load_raw(args), args))


# ---------------------------------------------------------------------------
# manifest handling


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _start_manifest(resolved: dict, outdir: str) -> tuple[str, dict]:
    gen = None
    if resolved["model"]["type"] == "network":
        gen = resolved["model"]["network"]["generate"]
    manifest = {
        "tool": "sysrisk",
        "tool_version": __version__,
        "status": "running",
        "started_at": _utc_now(),
        "config_hash": config_hash(resolved),
        "seeds": {
            "master": resolved["seed"],
            "scenarios": resolved["scenarios"]["seed"],
            "network": gen["seed"] if gen else None,
        },
        "resolved_config": resolved,
    }
    path = os.path.join(outdir, "manifest.json")
    _write_json(path, manifest)
    return path, manifest


def _finish_manifest(path: str, manifest: dict, status: str, started: float, **extra) -> None:
    manifest["status"] = status
    manifest["finished_at"] = _utc_now()
    manifest["wall_clock_seconds"] = round(time.monotonic() - started, 3)
    manifest.update(extra)
    _write_json(path, manifest)


# ---------------------------------------------------------------------------
# commands


def cmd_list_presets(args) -> int:
    for name in preset_names():
        print(name)
    return 0


def cmd_validate(args) -> int:
    try:
        resolved = _resolve_from_args(args)
        plan = build_run(resolved)
    except SysriskError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    cfg = plan.config
    free = plan.grid.ndim
    print(f"config OK: name={cfg['name']!r}, hash {config_hash(cfg)[:12]}")
    print(
        f"model: {cfg['model']['type']}, groups {cfg['model']['groups']}, "
        f"{free} free dimension(s)"
    )
    sc = cfg["scenarios"]
    print(
        f"scenarios: {sc['count']} draws x {plan.scenario_matrix.n_firms} firms, "
        f"correlation {sc['correlation']}, seed {sc['seed']}"
    )
    if plan.network is not None:
        edges = int(np.count_nonzero(plan.network.nominal))
        print(
            f"network: {plan.network.n_firms} firms + society, {edges} edges, "
            f"promised to society {plan.network.society_promised!r}"
        )
        print("inverse demand: OK")
    print(f"acceptance: {cfg['acceptance']['criterion']}, effective shift {plan.effective_shift!r}")
    res = "x".join(str(r) for r in plan.grid.resolution)
    lo = [float(v) for v in plan.grid.lower]
    up = [float(v) for v in plan.grid.upper]
    print(f"grid: {res} lattice over {lo}..{up}")
    return 0


def _degenerate_guidance(approx) -> str:
    if approx.degenerate == "all_in":
        return (
            "every lattice point is acceptable, so the acceptance boundary lies "
            "below the box; extend grid.lower (or drop the non-negativity clip) "
            "to bracket it"
        )
    return (
        "no lattice point is acceptable, so the acceptance boundary lies above "
        "the box; raise grid.upper to bracket it"
    )


def cmd_run(args) -> int:
    started = time.monotonic()
    try:
        resolved = _resolve_from_args(args)
    except SysriskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outdir = resolved["output"]["directory"]
    os.makedirs(outdir, exist_ok=True)
    manifest_path, manifest = _start_manifest(resolved, outdir)

    try:
        plan = build_run(resolved)
    except SysriskError as exc:
        _finish_manifest(manifest_path, manifest, "failed", started, error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2

    res = "x".join(str(r) for r in plan.grid.resolution)
    print(f"run {resolved['name']!r}: {res} lattice, {resolved['scenarios']['count']} scenarios")

    oracle = membership_oracle(plan.model, plan.acceptance)
    try:
        approx = grid_search(oracle, plan.grid)
        if resolved["refine"] > 1:
            approx = refine(oracle, approx, resolved["refine"])
    except ConvergenceError as exc:
        _finish_manifest(manifest_path, manifest, "failed", started, error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SysriskError as exc:
        _finish_manifest(manifest_path, manifest, "failed", started, error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 1

    outputs = ["manifest.json", "inner_frontier.csv", "outer_frontier.csv"]
    write_frontier_csv(approx.inner_frontier, os.path.join(outdir, "inner_frontier.csv"))
    write_frontier_csv(approx.outer_frontier, os.path.join(outdir, "outer_frontier.csv"))
    if resolved["output"]["write_labels"]:
        write_labels_csv(approx, os.path.join(outdir, "labels.csv"))
        outputs.append("labels.csv")
    if resolved["output"]["write_scenarios"]:
        write_scenario_csv(plan.scenario_matrix, os.path.join(outdir, "scenarios.csv"))
        outputs.append("scenarios.csv")
    if resolved["output"]["write_network"] and plan.network is not None:
        write_edge_csv(plan.network, os.path.join(outdir, "network.csv"))
        outputs.append("network.csv")

    n_acc = int(np.count_nonzero(approx.labels == 1))
    print(
        f"labels: {n_acc} acceptable / {approx.labels.size - n_acc} unacceptable, "
        f"{approx.oracle_calls} oracle calls"
        + (f", degenerate ({approx.degenerate})" if approx.degenerate else "")
    )
    print(
        f"frontiers: {len(approx.inner_frontier)} inner, {len(approx.outer_frontier)} outer, "
        f"certified spacing {[float(v) for v in approx.v]!r}"
    )

    ear_results = []
    for w in plan.ear_weights:
        try:
            result = ear(approx, w)
        except DegenerateBoxError as exc:
            guidance = _degenerate_guidance(approx)
            _finish_manifest(
                manifest_path, manifest, "failed", started,
                error=f"{exc}; {guidance}",
                oracle_calls=int(approx.oracle_calls),
            )
            print(f"error: {exc}\nguidance: {guidance}", file=sys.stderr)
            return 4
        ear_results.append(ear_record(result))
        mins = ", ".join(str([float(v) for v in row]) for row in result.minimizers[:4])
        more = "" if len(result.minimizers) <= 4 else f" (+{len(result.minimizers) - 4} more)"
        flag = " [on box boundary]" if result.on_box_boundary else ""
        print(f"ear w={[float(v) for v in result.weights]}: cost {result.min_value!r} at {mins}{more}{flag}")
    if plan.ear_weights:
        _write_json(os.path.join(outdir, "ear.json"), {"results": ear_results})
        outputs.append("ear.json")

    _finish_manifest(
        manifest_path, manifest, "completed", started,
        oracle_calls=int(approx.oracle_calls),
        lattice_points=int(approx.labels.size),
        acceptable_points=n_acc,
        degenerate=approx.degenerate,
        certified=bool(approx.certified),
        outputs=outputs,
    )
    print(f"wrote {outdir}/ ({', '.join(outputs)})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
