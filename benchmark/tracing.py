"""Spans around the public entry points of each sysrisk module.

The wrappers are installed from outside the package, around a traced run
only, and removed after it: untraced runs execute the library untouched. Spans are
kept in memory as [name, start, end, parent] and written out once the run
has ended. Layer metrics are derived from the spans afterwards.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

# Percentiles tried for a tail, highest first; a tail needs ten calls beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []
        self.counts = {
            "sweeps": [], "edges": 0, "matrix_bytes": 0, "write_bytes": 0,
            "search_calls": 0, "refine_calls": 0, "lattice_points": 0,
        }
        self.missing = []  # entry points this version of the library lacks
        self._patched = []  # (owner, attr, own attribute or None if inherited), in patch order

    def wrap(self, name, fn, after=None):
        """Return fn recording a span; after(args, result) runs once the span is closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, after=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patched.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, self.wrap(name, fn, after))

    def restore(self) -> None:
        """Put back every entry point patch() replaced, last patched first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point where the code that `sysrisk run` executes looks it up."""
    from sysrisk import aggregation, cli, clearing, config, riskmeasure

    counts = tracer.counts

    def scenario_bytes(args, matrix):
        counts["matrix_bytes"] += int(np.asarray(matrix.values).size) * 8

    def edges(args, network):
        counts["edges"] += int(np.count_nonzero(network.nominal))

    def sweeps(args, result):
        # Absent once the model stops exposing the counter; never an error.
        counts["sweeps"].append(getattr(args[0], "last_iterations", None))

    def written(args, result):
        counts["write_bytes"] += os.path.getsize(args[1])

    def searched(args, approx):
        counts["search_calls"] = approx.oracle_calls
        counts["lattice_points"] = int(approx.labels.size)

    def refined(args, approx):
        counts["refine_calls"] = approx.oracle_calls - counts["search_calls"]
        counts["lattice_points"] = int(approx.labels.size)

    tracer.patch(cli, "resolve_config", "config.resolve")
    tracer.patch(cli, "build_run", "config.build")
    tracer.patch(config, "generate_scenarios", "scenarios.generate", scenario_bytes)
    tracer.patch(config, "sample_network", "netgen.sample", edges)
    tracer.patch(config, "NetworkValueModel", "clearing.init")
    tracer.patch(clearing.NetworkValueModel, "samples_at", "clearing.samples_at", sweeps)
    tracer.patch(aggregation.AggregationValueModel, "samples_at", "aggregation.samples_at")
    tracer.patch(riskmeasure, "is_acceptable", "acceptance.is_acceptable")
    tracer.patch(cli, "grid_search", "riskmeasure.grid_search", searched)
    tracer.patch(cli, "refine", "riskmeasure.refine", refined)
    tracer.patch(cli, "ear", "riskmeasure.ear")
    tracer.patch(cli, "write_frontier_csv", "riskmeasure.write", written)
    tracer.patch(cli, "write_labels_csv", "riskmeasure.write", written)


def span_summary(spans) -> dict:
    """Per span name: call count, wall durations and self time (duration minus direct children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"durations": [], "self_s": 0.0})
        entry["durations"].append(end - start)
        entry["self_s"] += end - start - child_time[i]
    return out


def tail(durations) -> tuple[float, int] | None:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    n = len(durations)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return float(np.percentile(durations, pct)), pct
    return None


def layer_metrics(spans, counts) -> tuple[dict, dict, dict]:
    """Per-layer metrics of one traced run.

    Returns (values, absent, extra): absent maps a metric name to the reason it
    could not be measured (its value is then reported as 0); extra holds the
    percentile and sample count behind each *_tail metric and the call count,
    total and self time of every span name.
    """
    summary = span_summary(spans)
    values, absent, tails = {}, {}, {}

    def total(name):
        return float(sum(summary.get(name, {"durations": []})["durations"]))

    def calls_and_latency(layer, span):
        durations = summary.get(span, {"durations": []})["durations"]
        values[f"{layer}.calls"] = len(durations)
        values[f"{layer}.busy_s"] = float(sum(durations))
        if not durations:
            for key in ("call_ms_p50", "call_ms_tail"):
                values[f"{layer}.{key}"] = 0.0
                absent[f"{layer}.{key}"] = f"no {span} calls in this workload"
            return
        values[f"{layer}.call_ms_p50"] = float(np.median(durations)) * 1e3
        found = tail(durations)
        if found is None:
            values[f"{layer}.call_ms_tail"] = 0.0
            absent[f"{layer}.call_ms_tail"] = f"{len(durations)} calls are too few for a tail"
        else:
            values[f"{layer}.call_ms_tail"] = found[0] * 1e3
            tails[f"{layer}.call_ms_tail"] = {"percentile": found[1], "samples": len(durations)}

    calls_and_latency("clearing", "clearing.samples_at")
    calls_and_latency("aggregation", "aggregation.samples_at")
    calls_and_latency("acceptance", "acceptance.is_acceptable")

    sweeps = counts["sweeps"]
    if sweeps and all(s is not None for s in sweeps):
        values["clearing.sweeps_total"] = int(sum(sweeps))
        values["clearing.sweeps_max"] = int(max(sweeps))
        values["clearing.ms_per_sweep"] = values["clearing.busy_s"] * 1e3 / max(sum(sweeps), 1)
    else:
        reason = (
            "NetworkValueModel exposes no last_iterations counter" if sweeps
            else "no clearing calls in this workload"
        )
        for key in ("sweeps_total", "sweeps_max", "ms_per_sweep"):
            values[f"clearing.{key}"] = 0
            absent[f"clearing.{key}"] = reason

    values["clearing.init_s"] = total("clearing.init")
    values["netgen.sample_s"] = total("netgen.sample")
    values["netgen.edges"] = counts["edges"]
    values["scenarios.generate_s"] = total("scenarios.generate")
    values["scenarios.matrix_mb"] = counts["matrix_bytes"] / 1e6
    values["config.resolve_s"] = total("config.resolve")
    values["config.build_s"] = total("config.build")
    if "clearing.init" not in summary:
        for key in ("clearing.init_s", "netgen.sample_s", "netgen.edges"):
            absent[key] = "aggregation model: no network is built"

    values["riskmeasure.oracle_calls"] = counts["search_calls"]
    values["riskmeasure.refine_calls"] = counts["refine_calls"]
    values["riskmeasure.lattice_points"] = counts["lattice_points"]
    values["riskmeasure.calls_per_point"] = (
        (counts["search_calls"] + counts["refine_calls"]) / max(counts["lattice_points"], 1)
    )
    values["riskmeasure.search_s"] = total("riskmeasure.grid_search")
    values["riskmeasure.refine_s"] = total("riskmeasure.refine")
    values["riskmeasure.self_s"] = float(
        sum(summary.get(name, {"self_s": 0.0})["self_s"]
            for name in ("riskmeasure.grid_search", "riskmeasure.refine"))
    )
    values["riskmeasure.ear_s"] = total("riskmeasure.ear")
    values["riskmeasure.write_s"] = total("riskmeasure.write")
    values["riskmeasure.write_bytes"] = counts["write_bytes"]
    if "riskmeasure.refine" not in summary:
        absent["riskmeasure.refine_s"] = "refine is off in this workload"

    self_times = {
        name: {"calls": len(entry["durations"]), "total_s": float(sum(entry["durations"])),
               "self_s": float(entry["self_s"])}
        for name, entry in summary.items()
    }
    return values, absent, {"tails": tails, "self_time": self_times}
