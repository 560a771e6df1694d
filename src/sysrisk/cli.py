"""Command line interface: validate configs, execute grid-search runs and sweep presets.

A run takes one config (a YAML file or a built-in preset), generates the
scenario set and the value model, labels the whole capital lattice with
the monotone grid search, extracts capital allocation rules for the
configured weight vectors, and writes plot-ready CSV datasets plus a
JSON manifest. A refine factor F makes the searched lattice (R-1)*F+1
points per axis. The manifest is written with status "running" before
the heavy computation starts and finalized afterwards, so an interrupted
run still leaves its full resolved configuration on disk. Feeding a finished manifest back through
--config reproduces the CSV outputs byte for byte. A sweep searches
several presets the same way and writes nothing.

Exit codes: 0 success, 2 configuration or validation problem,
3 convergence failure, 4 degenerate search box (run only, with guidance),
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

    source = argparse.ArgumentParser(add_help=False)
    group = source.add_argument_group("config source (exactly one)")
    group.add_argument("--config", metavar="PATH", help="YAML config file or recorded manifest")
    group.add_argument(
        "--preset",
        metavar="NAME",
        help="built-in configuration, e.g. two_tier:A1 (see list-presets)",
    )
    overrides = argparse.ArgumentParser(add_help=False)
    group = overrides.add_argument_group("overrides")
    group.add_argument("--seed", type=int, metavar="N", help="master seed override")
    group.add_argument("--scenarios", type=int, metavar="M", help="scenario count override")
    group.add_argument(
        "--grid-res",
        metavar="R[,R...]",
        help="lattice resolution override, scalar or one value per free dimension",
    )
    group.add_argument(
        "--refine", type=int, metavar="F",
        help="subdivision factor: search (R-1)*F+1 lattice points per axis (1 = off)",
    )
    group.add_argument(
        "--ear-weights",
        metavar="W",
        help="weight vectors like '1,1;10,90' (semicolon separates vectors)",
    )
    output = argparse.ArgumentParser(add_help=False)
    group = output.add_argument_group("run settings")
    group.add_argument("--out", metavar="DIR", help="output directory override")
    group.add_argument(
        "--threads",
        type=int,
        metavar="T",
        help="ignored (the search is sequential); validated and recorded so old runs replay",
    )

    run = sub.add_parser("run", parents=[source, overrides, output], help="execute a full run")
    run.set_defaults(handler=cmd_run)
    val = sub.add_parser(
        "validate", parents=[source, overrides, output],
        help="check a config and build its model, computing nothing",
    )
    val.set_defaults(handler=cmd_validate)
    swp = sub.add_parser(
        "sweep",
        parents=[overrides],
        help="search several presets, print one row each and their containment matrix",
    )
    swp.add_argument("presets", nargs="+", metavar="PRESET", help="preset name, e.g. two_tier:B2")
    # a sweep writes nothing, so _apply_overrides finds no --out or --threads
    swp.set_defaults(handler=cmd_sweep, out=None, threads=None)
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
        resolved = resolve_config(_apply_overrides(_load_raw(args), args))
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
        resolved = resolve_config(_apply_overrides(_load_raw(args), args))
    except SysriskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outdir = resolved["output"]["directory"]
    try:
        os.makedirs(outdir, exist_ok=True)
        manifest_path, manifest = _start_manifest(resolved, outdir)
    except OSError as exc:
        print(f"error: cannot write output directory {outdir}: {exc.strerror}", file=sys.stderr)
        return 2

    try:
        plan = build_run(resolved)
    except SysriskError as exc:
        _finish_manifest(manifest_path, manifest, "failed", started, error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2

    res = "x".join(str(r) for r in plan.grid.resolution)
    print(f"run {resolved['name']!r}: {res} lattice, {resolved['scenarios']['count']} scenarios")

    try:
        approx = grid_search(membership_oracle(plan.model, plan.acceptance), plan.grid)
    except SysriskError as exc:
        _finish_manifest(manifest_path, manifest, "failed", started, error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ConvergenceError) else 1

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


def cmd_sweep(args) -> int:
    try:
        configs = [resolve_config(_apply_overrides(preset_config(n), args)) for n in args.presets]
    except SysriskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    width = max(len(cfg["name"]) for cfg in configs)
    print(f"    {'preset':<{width}} acceptable {'points':^11} {'calls':>6}  first ear minimizer")
    searched = []  # (lattice, acceptable mask) per preset
    for i, cfg in enumerate(configs, 1):
        try:
            plan = build_run(cfg)
        except SysriskError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            approx = grid_search(membership_oracle(plan.model, plan.acceptance), plan.grid)
            firsts = [] if approx.degenerate else [
                ear(approx, w).minimizers[0] for w in plan.ear_weights
            ]
        except SysriskError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3 if isinstance(exc, ConvergenceError) else 1
        acc = approx.labels == 1
        rules = [
            f"w={[float(v) for v in w]} ({', '.join(f'{v:.4f}' for v in first)})"
            for w, first in zip(plan.ear_weights, firsts)
        ]
        if approx.degenerate:
            rules = [f"degenerate ({approx.degenerate})"]
        print(
            f"{i:>3} {cfg['name']:<{width}} {acc.mean():10.3f} {acc.sum():>5d}/{acc.size:<5d}"
            f" {approx.oracle_calls:>6d}  " + "  ".join(rules)
        )
        searched.append((approx.grid, acc))

    print("containment: row i, column j counts the points acceptable under i but not under j "
          "(0: region i lies inside region j; -: different lattices)")
    print("    " + "".join(f"{j:>6d}" for j in range(1, len(searched) + 1)))
    for i, (grid_i, acc_i) in enumerate(searched, 1):
        print(f"{i:>3} " + "".join(
            f"{np.count_nonzero(acc_i & ~acc_j):>6d}" if grid_i == grid_j else f"{'-':>6}"
            for grid_j, acc_j in searched
        ))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
