#!/usr/bin/env python3
"""Compare the five aggregation value models on shared scenario draws.

For each variant the acceptance region over the capital box is labeled on
one lattice and summarized: minimal-point count, the band of total capital
along the frontier, and the equal-price allocation rule. Averaging over
several seeds (--seeds 1,2,3) shows which features are draw-independent:
the insensitive frontiers stay affine, plain sums ignore sensitivity, and
the insensitive exponential model stays the most conservative.
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

VARIANTS = (
    "sum",
    "loss_insensitive",
    "loss_sensitive",
    "exp_insensitive",
    "exp_sensitive",
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="comma-separated master seeds")
    parser.add_argument("--scenarios", type=int, default=None, help="scenario count override")
    parser.add_argument("--resolution", type=int, default=None, help="lattice resolution override")
    return parser.parse_args()


def search_variant(variant, seed, args):
    cfg = preset_config(f"agg_lognormal:{variant}")
    cfg["seed"] = seed
    if args.scenarios:
        cfg["scenarios"]["count"] = args.scenarios
    if args.resolution:
        cfg["grid"]["resolution"] = args.resolution
    plan = build_run(resolve_config(cfg))
    oracle = membership_oracle(plan.model, plan.acceptance)
    return grid_search(oracle, plan.grid)


def describe(variant, approx):
    if approx.degenerate is not None:
        return f"  {variant:18s} degenerate: {approx.degenerate} ({approx.oracle_calls} calls)"
    totals = approx.inner_frontier.sum(axis=1)
    try:
        allocation = ear(approx, [1.0, 1.0]).minimizers[0]
        rule = f"ear ({allocation[0]:.4f}, {allocation[1]:.4f})"
    except DegenerateBoxError:
        rule = "ear n/a"
    return (
        f"  {variant:18s} {len(totals):3d} minimal points, total capital "
        f"[{totals.min():.4f}, {totals.max():.4f}], {rule} ({approx.oracle_calls} calls)"
    )


def main():
    args = parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    for seed in seeds:
        print(f"seed {seed}")
        searched = {}
        for variant in VARIANTS:
            searched[variant] = search_variant(variant, seed, args)
            print(describe(variant, searched[variant]))
        acceptable = {v: a.labels == 1 for v, a in searched.items()}
        sens_in_insens = not (acceptable["loss_sensitive"] & ~acceptable["loss_insensitive"]).any()
        exp_most_conservative = all(
            not (acceptable["exp_insensitive"] & ~acceptable[v]).any()
            for v in VARIANTS if v != "exp_insensitive"
        )
        print(f"  loss-sensitive region inside loss-insensitive: {sens_in_insens}")
        print(f"  exp-insensitive region inside all others:      {exp_most_conservative}")


if __name__ == "__main__":
    main()
