#!/usr/bin/env python3
"""Liquidity sweep for the three-tier network with price impact.

Runs the 300-firm clearing model for a range of liquid asset fractions
alpha, with small-firm capital pinned to zero, and reports how the
acceptance region over (large, medium) capital grows with alpha plus the
nesting consistency between neighboring alphas. More liquidity means less
forced selling into the square-root price curve, so requirements shrink.
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

DEFAULT_ALPHAS = "0.0,0.2,0.4,0.6,0.8,1.0"


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alphas", default=DEFAULT_ALPHAS, help="comma-separated liquid fractions")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scenarios", type=int, default=None)
    parser.add_argument("--resolution", type=int, default=None)
    return parser.parse_args()


def search_alpha(alpha, args):
    cfg = preset_config(f"three_tier:alpha={alpha:g}")
    cfg["seed"] = args.seed
    if args.scenarios:
        cfg["scenarios"]["count"] = args.scenarios
    if args.resolution:
        cfg["grid"]["resolution"] = args.resolution
    plan = build_run(resolve_config(cfg))
    oracle = membership_oracle(plan.model, plan.acceptance)
    return grid_search(oracle, plan.grid)


def main():
    args = parse_args()
    alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    acceptable = {}
    print(f"seed {args.seed}, small-firm capital pinned at zero")
    for alpha in alphas:
        approx = search_alpha(alpha, args)
        acceptable[alpha] = approx.labels == 1
        try:
            row = ear(approx, [1.0, 1.0]).minimizers[0]
            rule = f"ear ({row[0]:.4f}, {row[1]:.4f})"
        except DegenerateBoxError:
            rule = f"ear n/a ({approx.degenerate})"
        print(f"alpha {alpha:4.2f}: {acceptable[alpha].mean():6.3f} of lattice acceptable, {rule}")
    for low, high in zip(alphas, alphas[1:]):
        violations = (acceptable[low] & ~acceptable[high]).mean()
        print(f"alpha {low:g} region inside alpha {high:g} region: "
              f"{1.0 - violations:.4f} consistent")


if __name__ == "__main__":
    main()
