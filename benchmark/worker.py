"""Every run of one benchmark invocation, in one process, timed from outside the library.

Usage: python3 worker.py CONFIG WORKDIR TRACE SECONDS SPANS_PREFIX

CONFIG is a JSON run config. The worker first makes one untimed warm-up
`sysrisk run`, so that imports and first-call costs are paid, then repeats
timed runs until the next one would end more than SECONDS after the warm-up
began, with at least one (with TRACE 1, at least one untraced and one
traced). With TRACE 1 untraced and traced runs alternate: the wrappers of
tracing.py are installed around a traced run and removed after it. After
every untraced run the worker times
SETUP_REPEATS set-ups (resolve_config + build_run) of the same config, so
the set-up samples are spread over the whole invocation like the runs.

Each run writes into its own directory under WORKDIR; the worker checks the
outputs (check.py: digests and invariants) and deletes the directory before
the next run. It prints one JSON line: every run with its wall seconds,
oracle calls, digests and problems, the set-up samples, and the peak
resident memory of the process. The first run that fails ends the loop.
Spans of traced run i go to SPANS_PREFIX-i.json.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from check import digests, invariant_problems
from tracing import Tracer, install, layer_metrics

SETUP_REPEATS = 3


def one_run(cli, config_path: str, outdir: Path) -> dict:
    """One `sysrisk run` with stdout discarded; its wall time, exit code and checked outputs."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        rc = cli.main(["run", "--config", config_path, "--out", str(outdir)])
        run_s = time.perf_counter() - start
    report = {"rc": rc, "run_s": run_s, "problems": []}
    try:
        if rc != 0:
            report["problems"].append(f"sysrisk run exited {rc}")
        else:
            report["oracle_calls"] = json.loads((outdir / "manifest.json").read_text())["oracle_calls"]
            report["digests"] = digests(outdir)
            report["problems"] += invariant_problems(outdir)
    except Exception as exc:  # unreadable output fails the run
        report["problems"].append(f"output unreadable: {exc!r}")
    shutil.rmtree(outdir, ignore_errors=True)
    return report


def time_setups(raw: dict) -> list[float]:
    from sysrisk.config import build_run, resolve_config

    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        plan = build_run(resolve_config(raw))
        times.append(time.perf_counter() - start)
        del plan
    return times


def main(argv) -> int:
    config_path, workdir, trace = argv[1], Path(argv[2]), argv[3] == "1"
    seconds, spans_prefix = float(argv[4]), argv[5]
    from sysrisk import cli

    with open(config_path) as fh:
        raw = json.load(fh)
    out = {"runs": [], "setup_s": []}
    start = time.perf_counter()
    try:
        warmup = one_run(cli, config_path, workdir / "warmup")
        warmup["warmup"], warmup["traced"] = True, False
        out["runs"].append(warmup)
        while not out["runs"][-1]["problems"]:
            timed = [r for r in out["runs"] if not r.get("warmup")]
            n_traced = sum(r["traced"] for r in timed)
            traced = trace and n_traced < len(timed) - n_traced
            began = time.perf_counter()
            if traced:
                tracer = Tracer()
                install(tracer)
                try:
                    report = one_run(cli, config_path, workdir / f"run{len(timed)}")
                finally:
                    tracer.restore()
                with open(f"{spans_prefix}-{len(timed)}.json", "w") as fh:
                    json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
                values, absent, extra = layer_metrics(tracer.spans, tracer.counts)
                report.update(layers=values, absent=absent, missing=tracer.missing, **extra)
            else:
                report = one_run(cli, config_path, workdir / f"run{len(timed)}")
                if not report["problems"]:
                    out["setup_s"] += time_setups(raw)
            report["traced"] = traced
            out["runs"].append(report)
            timed.append(report)
            n_traced += traced
            enough = len(timed) - n_traced >= 1 and (not trace or n_traced >= 1)
            now = time.perf_counter()
            if enough and now + (now - began) > start + seconds:
                break
    except Exception as exc:  # a crash inside the library fails the run it happened in
        out["runs"].append({"traced": False, "problems": [f"run raised {exc!r}"]})
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
