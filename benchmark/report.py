"""Run the benchmark over several workloads and seeds and summarise the spread.

Usage: python3 benchmark/report.py [--workloads A,B] [--seeds 1-10] [--seconds S]
                                   [--trace 0|1] [--out FILE] [--record-digests]

For each workload and seed it runs run.py once, then prints every metric
of BENCHMARK.json by name, with its unit: the median over seeds, the first
and third quartiles (statistics.quantiles, n=4) and their distance as a share
of the median, next to the metric's bound. --out writes the same summary as
JSON, with the environment record of the first run. --record-digests stores the output digests of every correct run in
digests.json, the reference later runs are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "samples": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    recorded = json.loads((HERE / "digests.json").read_text()) if args.record_digests and \
        (HERE / "digests.json").is_file() else {}
    ok = True
    for workload in args.workloads.split(","):
        per_metric = {m["name"]: [] for m in specs}
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=1000)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED\n{proc.stdout}{proc.stderr}", file=sys.stderr)
                continue
            record = json.loads(
                (HERE / "results" / f"{workload}-seed{seed}-trace{args.trace}.json").read_text())
            summary.setdefault("environment", record["environment"])
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "samples": record["samples"], "metrics": result["metrics"]})
            for name in per_metric:
                per_metric[name].append(result["metrics"][name]["value"])
            if args.record_digests:
                recorded.setdefault(workload, {})[str(seed)] = record["digests"]
            shown = {} if args.trace else result["metrics"]
            print(f"{workload} seed {seed}: {result['attempted']} attempted, 0 failed; "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in shown.items()), flush=True)
        stats = {name: spread(vals) for name, vals in per_metric.items() if vals}
        summary["workloads"][workload] = {"runs": runs, "metrics": stats}
        print(f"\n{workload}")
        for m in specs:
            if m["name"] not in stats:
                continue
            s = stats[m["name"]]
            bound = m.get("bound")
            flag = "" if bound is None else f"  bound {bound} (spread/bound {s['spread'] / bound:.2f})"
            print(f"  {m['name']}: median {s['median']:.6g} {m['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    if args.record_digests:
        (HERE / "digests.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
