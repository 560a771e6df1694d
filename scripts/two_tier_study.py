#!/usr/bin/env python3
"""Capital requirements across two-tier network connectivity variants.

Labels the 40x40 capital lattice for each requested connectivity variant
of the 10-large / 90-small payment network and prints the allocation rule
under equal capital prices and under prices proportional to group size.
The A row sweeps overall topologies, B isolates intra-group connectivity
of the large firms, and the C variants move inter-group links around.
"""

import argparse

from sysrisk import (
    DegenerateBoxError,
    build_run,
    ear,
    grid_search,
    membership_oracle,
    preset_config,
    resolve_config,
)

ALL_VARIANTS = ("A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4",
                "C1", "C2", "C3", "C4", "C5", "C6")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--variants", default="A1,B2,B4",
                        help=f"comma-separated subset of {','.join(ALL_VARIANTS)}, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scenarios", type=int, default=None)
    parser.add_argument("--resolution", type=int, default=None)
    return parser.parse_args()


def search_variant(variant, args):
    cfg = preset_config(f"two_tier:{variant}")
    cfg["seed"] = args.seed
    if args.scenarios:
        cfg["scenarios"]["count"] = args.scenarios
    if args.resolution:
        cfg["grid"]["resolution"] = args.resolution
    plan = build_run(resolve_config(cfg))
    oracle = membership_oracle(plan.model, plan.acceptance)
    return plan, grid_search(oracle, plan.grid)


def ear_cell(approx, w):
    try:
        row = ear(approx, w).minimizers[0]
    except DegenerateBoxError:
        return "n/a"
    return f"({row[0]:8.4f}, {row[1]:8.4f})"


def main():
    args = parse_args()
    names = ALL_VARIANTS if args.variants.strip().lower() == "all" else [
        v.strip().upper() for v in args.variants.split(",") if v.strip()
    ]
    acceptable = {}
    print(f"seed {args.seed}")
    print(f"{'variant':8s} {'acceptable':>10s} {'ear w=(1,1)':>22s} {'ear w=(10,90)':>22s}")
    for variant in names:
        plan, approx = search_variant(variant, args)
        acceptable[variant] = approx.labels == 1
        frac = acceptable[variant].mean()
        print(f"{variant:8s} {frac:10.3f} {ear_cell(approx, [1.0, 1.0]):>22s} "
              f"{ear_cell(approx, [10.0, 90.0]):>22s}")
    if "B2" in acceptable and "B4" in acceptable:
        # denser intra-links among large firms should shrink the region
        violations = (acceptable["B2"] & ~acceptable["B4"]).mean()
        print(f"B2 region inside B4 region: {1.0 - violations:.4f} of lattice points consistent")


if __name__ == "__main__":
    main()
