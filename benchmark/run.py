"""sysrisk benchmark: shipped case-study runs end to end, checked, optionally traced.

Usage: python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

All runs of one invocation happen in a single fresh worker process
(worker.py), one at a time: a closed loop with a single client, threads at
the default of 1, BLAS on one thread. Each run is one full `sysrisk run`
(cli.main with a config file). The worker makes one untimed warm-up run,
then repeats timed runs until the next one would end more than --seconds
after the warm-up began, with at least one. After each untraced timed run
it times three set-ups (resolve_config + build_run). run_s and setup_s are
means over all the invocation's samples: a shared host switches between
speed levels that last 10-30 s, and a median jumps between levels where a
mean averages them. Every run's outputs are checked: against the recorded
sha256 digests in digests.json where the workload and seed have them,
against the invariants of check.py always, and against the warm-up run of
the same invocation.

--seed sets the scenario draw. Network workloads keep the shipped network of
the case study (network seed 2, what the presets draw at their default
master seed 1), so that a seed varies the Monte Carlo inputs but not the
network the case study is about. At seed 1 every workload is exactly its
preset with the overrides listed in WORKLOADS.

With --trace 0 the last stdout line reports the end-to-end metrics. With
--trace 1 untraced and traced runs alternate in the worker, and it reports
the per-layer metrics of the traced runs (medians), plus trace.overhead_s. The full record
(environment, sample counts, every run, digests, absent metrics and their
reasons, self times) is written to results/, spans to results/*-spans-*.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
DIGESTS = HERE / "digests.json"

HARD_LIMIT_S = 170.0  # a run must end within 180 s
NETWORK_SEED = 2
# One BLAS thread in the worker. On a shared 2-vCPU host, two OpenBLAS threads
# ran two_tier_B2 no faster than one (4.5-5.3 s against 4.5-4.6 s a run) and
# with a wider run-to-run spread, and kept both cores busy.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name: (preset, overrides as dotted config paths); why each was chosen is in
# BENCHMARK.json. The network workload draws 250 of its preset's 1000
# scenarios: a full-size run takes 13-27 s, so an invocation would hold only
# two or three runs. NOTES.md says why three_tier:alpha=0.6 and
# agg_lognormal:sum (refine 4) were dropped.
WORKLOADS = {
    "two_tier_B2": ("two_tier:B2", {"scenarios.count": 250}),
    "agg_exp_sensitive": ("agg_lognormal:exp_sensitive", {}),
}


def workload_config(name: str, seed: int) -> dict:
    from sysrisk.presets import preset_config

    preset, overrides = WORKLOADS[name]
    raw = preset_config(preset)
    raw["seed"] = seed
    for path, value in overrides.items():
        *parents, key = path.split(".")
        node = raw
        for part in parents:
            node = node[part]
        node[key] = value
    if raw["model"]["type"] == "network":
        raw["model"]["network"]["generate"]["seed"] = NETWORK_SEED
    return raw


def run_worker(config_path: Path, workdir: Path, trace: bool, seconds: float, spans_prefix: Path,
               timeout: float) -> dict:
    """Every run of the invocation in one fresh process; raises on a crash, a timeout or a non-zero exit."""
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "worker.py"), str(config_path), str(workdir),
            "1" if trace else "0", repr(seconds), str(spans_prefix)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> str | None:
    """BLAS library numpy was built against."""
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{info.get('name')} {info.get('version')}"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sysrisk").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "worker_env": BLAS_THREADS,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# measurement


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    started = time.perf_counter()
    raw = workload_config(workload, seed)
    reference = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed)) \
        if DIGESTS.is_file() else None
    tag = f"{workload}-seed{seed}-trace{int(trace)}"

    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(raw))
    try:
        worker = run_worker(config_path, workdir, trace, seconds, RESULTS / f"{tag}-spans",
                            timeout=HARD_LIMIT_S - (time.perf_counter() - started))
    except Exception as exc:  # a crash, timeout or unreadable report fails the invocation
        worker = {"runs": [{"traced": False, "problems": [f"worker failed: {exc!r}"]}],
                  "setup_s": [], "peak_rss_mb": None}
    runs = worker["runs"]
    failures = []
    for i, run in enumerate(runs):
        if not run["problems"]:
            if reference is not None and run["digests"] != reference:
                run["problems"].append("outputs differ from the recorded digests")
            if run["digests"] != runs[0]["digests"]:
                run["problems"].append("outputs differ from the warm-up run of this invocation")
            if run["oracle_calls"] != runs[0]["oracle_calls"]:
                run["problems"].append("oracle calls differ from the warm-up run of this invocation")
        if run["problems"]:
            failures.append(f"run {i}: " + "; ".join(run["problems"]))

    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    timed = [r for r in runs if not r.get("warmup") and not r["problems"]]
    untraced = [r for r in timed if not r["traced"]]
    traced_runs = [r for r in timed if r["traced"]]
    record = {
        "workload": workload,
        "preset": WORKLOADS[workload][0],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "reference_digests": "recorded" if reference is not None else "none; invariants only",
        "digests": runs[0].get("digests"),
        "failures": failures,
        "runs": [{k: r.get(k) for k in ("warmup", "traced", "run_s", "oracle_calls", "problems")}
                 for r in runs],
        "samples": {"run_s": len(untraced), "setup_s": len(worker["setup_s"]),
                    "traced_runs": len(traced_runs)},
    }

    metrics = {}
    if untraced and not failures:
        e2e = {
            "run_s": statistics.fmean(r["run_s"] for r in untraced),
            "setup_s": statistics.fmean(worker["setup_s"]),
            "oracle_calls": runs[0]["oracle_calls"],
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        record["end_to_end"] = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
        if not trace:
            metrics = record["end_to_end"]
    if trace and traced_runs and not failures:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced_runs)
            for name in traced_runs[0]["layers"]
        }
        layers["trace.overhead_s"] = (
            statistics.fmean(r["run_s"] for r in traced_runs) - record["end_to_end"]["run_s"]["value"]
        )
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
        first = traced_runs[0]
        record.update(absent=first["absent"], missing_entry_points=first["missing"],
                      tails=first["tails"], self_time=first["self_time"], per_layer=metrics)

    record["result"] = {
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": metrics,
    }
    return record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if not (SRC / "sysrisk" / "__init__.py").is_file():
        print(f"error: no sysrisk source tree at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(exist_ok=True)
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    for name, metric in record["result"]["metrics"].items():
        note = f"  (absent: {record['absent'][name]})" if name in record.get("absent", {}) else ""
        print(f"{name}: {metric['value']:.6g} {metric['unit']}{note}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
