"""Golden outputs: every preset's labels, frontiers and EARs, pinned by digest.

Each case is one `sysrisk run` with --scenarios 150, in two configurations:
seed 1 with --grid-res 10 for all 25 presets, plus --grid-res 19 for one
preset per family; and seed 3 with --grid-res 20 for all 25 presets. At seed 1
several presets share their labels (two_tier B1/B2, A2/C2/C5 and B3/B4,
three_tier alpha 0/0.2 and 0.4/0.6/0.8); in the second configuration only
B1 and C1, one preset by construction, share them, so a change that moves
the labels of one preset shows even where the first cannot tell it from
another. golden.json holds, per case, the sha256 of labels.csv, both
frontier CSVs and ear.json (null where the run writes no such file), the
oracle calls, the search floor, the exit code and the manifest `stats`
without `seconds` and `clearing.max_residual` (so a change that moves only
work counters, such as clearing rounds, shows), and the numpy version it
was recorded with: a different numpy may draw different scenario streams,
and a mismatch then says so. `seconds` depends on the clock and
`max_residual` on the BLAS thread count: the matrix products of clearing
round differently on one OpenBLAS thread than on two, which moves a
residual of order 1e-14 (two_tier A4 at seed 3, grid 20) but no output the
run writes.

identity.json is the same record at full size (no --scenarios or --grid-res
override) for every preset at seeds 1, 2 and 3, and each entry also holds the
config_hash of the resolved config with output.directory left out (a run
writes to a fresh directory). The suite checks its seed-1 cases; the full
check runs all of them, then the seed-1 cases again in a fresh process on
two OpenBLAS threads:

    PYTHONPATH=src python tests/test_golden.py --identity

Rerecord either only when an output change is intended, and name the reason
and the changed cases in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --record
    PYTHONPATH=src python tests/test_golden.py --identity --record

The record ends with a summary against the golden.json it replaces: the
cases whose digests or exit code changed, those whose `stats` moved (with
the keys that moved, and for each moved counter its totals before and
after), and those whose oracle calls moved, with the totals before and
after.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sysrisk.cli import main
from sysrisk.config import config_hash
from sysrisk.presets import preset_names

GOLDEN = Path(__file__).with_name("golden.json")
IDENTITY = Path(__file__).with_name("identity.json")
IDENTITY_SEEDS = (1, 2, 3)
OUTPUTS = ("labels.csv", "inner_frontier.csv", "outer_frontier.csv", "ear.json")
FINE = ("agg_lognormal:sum", "two_tier:B2", "three_tier:alpha=0.6")  # also at grid 19
SECOND = (3, 20)  # seed and grid resolution of the second configuration


def cases() -> list[tuple[str, int, int]]:
    """(preset, seed, grid resolution) of every case."""
    names = preset_names()
    return ([(name, 1, 10) for name in names] + [(name, 1, 19) for name in FINE]
            + [(name, *SECOND) for name in names])


def case_id(preset: str, seed: int, grid_res: int) -> str:
    return preset if (seed, grid_res) == (1, 10) else f"{preset} seed {seed} grid {grid_res}"


def run_case(preset: str, seed: int, grid_res: int, outdir: Path) -> dict:
    return _run(["--preset", preset, "--seed", str(seed), "--scenarios", "150",
                 "--grid-res", str(grid_res)], outdir)[0]


def identity_id(preset: str, seed: int) -> str:
    return f"{preset} seed {seed}"


def identity_case(preset: str, seed: int, outdir: Path) -> dict:
    """The identity record of one full-size run."""
    got, manifest = _run(["--preset", preset, "--seed", str(seed)], outdir)
    resolved = manifest["resolved_config"]
    del resolved["output"]["directory"]
    got["config_hash"] = config_hash(resolved)
    return got


def _run(args: list[str], outdir: Path) -> tuple[dict, dict]:
    """One in-process `sysrisk run`: its record and its manifest."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", *args, "--out", str(outdir)])
    manifest = json.loads((outdir / "manifest.json").read_text())
    digests = {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        if (outdir / name).exists() else None
        for name in OUTPUTS
    }
    stats = manifest.get("stats")
    if stats is not None:
        stats = {key: value for key, value in stats.items() if key != "seconds"}
        if "clearing" in stats:
            stats["clearing"] = {key: value for key, value in stats["clearing"].items()
                                 if key != "max_residual"}
    return {"exit_code": code, "oracle_calls": manifest.get("oracle_calls"),
            "search_floor": manifest.get("search_floor"), "sha256": digests,
            "stats": stats}, manifest


def _mismatch(path: Path, record: dict, name: str, got: dict) -> str | None:
    """Why a case differs from its entry in a record, or None when it matches."""
    expected = record["cases"][name]
    if got == expected:
        return None
    note = ""
    if record["numpy"] != np.__version__:
        note = (
            f" ({path.name} was recorded with numpy {record['numpy']}, this is numpy "
            f"{np.__version__}: the scenario streams may differ)"
        )
    moved = _moved(expected.get("stats"), got["stats"], "stats")
    if moved:
        note = f" (stats moved: {', '.join(moved)}){note}"
    if expected.get("config_hash") != got.get("config_hash"):
        note = f" (config_hash moved){note}"
    return f"{name} differs from {path.name}{note}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def identity():
    return json.loads(IDENTITY.read_text())


@pytest.mark.parametrize("case", cases(), ids=[case_id(*c) for c in cases()])
def test_golden_outputs(golden, case, tmp_path):
    problem = _mismatch(GOLDEN, golden, case_id(*case), run_case(*case, tmp_path))
    assert problem is None, problem


@pytest.mark.parametrize("preset", preset_names())
def test_identity_at_seed_1(identity, preset, tmp_path):
    problem = _mismatch(IDENTITY, identity, identity_id(preset, 1),
                        identity_case(preset, 1, tmp_path))
    assert problem is None, problem


def test_identity_covers_every_case(identity):
    assert sorted(identity["cases"]) == sorted(
        identity_id(name, seed) for name in preset_names() for seed in IDENTITY_SEEDS)


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(case_id(*c) for c in cases())


def test_search_floor_is_at_most_the_oracle_calls(golden, identity):
    # the search queries every frontier point itself, so its floor bounds its calls
    for doc in (golden, identity):
        for name, case in doc["cases"].items():
            assert 0 <= case["search_floor"] <= case["oracle_calls"], name


def test_manifest_counters_agree(golden, identity):
    # the value model answers each oracle call once, and a call its bounds decided is a call
    for doc in (golden, identity):
        for name, case in doc["cases"].items():
            (layer, counters), = case["stats"].items()
            assert layer in ("aggregation", "clearing"), name
            assert counters["calls"] == case["oracle_calls"], name
            assert counters.get("decided", 0) <= counters["calls"], name


def test_record_summary_names_what_moved():
    def case(calls, digest="a", code=0, rounds=0, sweeps=4, tie=None):
        return {"exit_code": code, "oracle_calls": calls, "sha256": {"labels.csv": digest},
                "stats": {"clearing": {"rounds": rounds, "solves": 0, "sweeps": sweeps,
                                       "closest_tie": tie}}}

    old = {"numpy": "1", "cases": {"p": case(10, tie=0.5), "q": case(5), "r": case(7),
                                   "s": case(3), "gone": case(1)}}
    new = {"numpy": "1", "cases": {"p": case(8, sweeps=3), "q": case(5, "b"),
                                   "r": case(7, code=4), "s": case(3, rounds=2, sweeps=1),
                                   "new": case(2)}}
    new["cases"]["q"]["stats"] = None
    assert summary(old, new) == [
        "added: new",
        "removed: gone",
        "outputs or exit code changed: q",
        "outputs or exit code changed: r",
        "stats changed (clearing.closest_tie, clearing.sweeps): p",
        "stats changed (stats): q",
        "stats changed (clearing.rounds, clearing.sweeps): s",
        "stats moved in 3 of 4 common cases",
        "clearing.rounds 0 -> 2 over 3 cases",
        "clearing.sweeps 12 -> 8 over 3 cases",
        "oracle_calls 10 -> 8: p",
        "oracle_calls moved in 1 of 4 common cases, total 25 -> 23",
    ]
    assert summary(old, old)[-3:] == [
        "outputs and exit codes: unchanged in every common case",
        "stats moved in 0 of 5 common cases",
        "oracle_calls moved in 0 of 5 common cases, total 26 -> 26",
    ]


def summary(old: dict, new: dict) -> list[str]:
    """What a new record changes against the old one, one line per finding."""
    before, after = old.get("cases", {}), new["cases"]
    lines = [f"numpy {old.get('numpy')} -> {new['numpy']}"] if old.get("numpy") != new["numpy"] else []
    lines += [f"added: {c}" for c in after if c not in before]
    lines += [f"removed: {c}" for c in before if c not in after]
    common = [c for c in after if c in before]
    outputs = [c for c in common if (before[c]["sha256"], before[c]["exit_code"])
               != (after[c]["sha256"], after[c]["exit_code"])]
    lines += [f"outputs or exit code changed: {c}" for c in outputs]
    lines += [f"config_hash changed: {c}" for c in common
              if before[c].get("config_hash") != after[c].get("config_hash")]
    if not outputs:
        lines.append("outputs and exit codes: unchanged in every common case")
    stats = {c: _moved(before[c].get("stats"), after[c].get("stats"), "stats") for c in common}
    stats = {c: keys for c, keys in stats.items() if keys}
    lines += [f"stats changed ({', '.join(keys)}): {c}" for c, keys in stats.items()]
    lines.append(f"stats moved in {len(stats)} of {len(common)} common cases")
    for key in sorted({key for keys in stats.values() for key in keys}):
        pairs = [(_leaves(before[c].get("stats")).get(key), _leaves(after[c].get("stats")).get(key))
                 for c in common]
        pairs = [pair for pair in pairs if all(_is_count(value) for value in pair)]
        if pairs:  # a counter: its totals over the cases that record it in both
            totals = [sum(pair[side] for pair in pairs) for side in (0, 1)]
            lines.append(f"{key} {totals[0]} -> {totals[1]} over {len(pairs)} cases")
    calls = [c for c in common if before[c]["oracle_calls"] != after[c]["oracle_calls"]]
    lines += [f"oracle_calls {before[c]['oracle_calls']} -> {after[c]['oracle_calls']}: {c}"
              for c in calls]
    total = [sum(doc[c]["oracle_calls"] or 0 for c in common) for doc in (before, after)]
    lines.append(f"oracle_calls moved in {len(calls)} of {len(common)} common cases, "
                 f"total {total[0]} -> {total[1]}")
    return lines


def _moved(old, new, path: str) -> list[str]:
    """Dotted paths of the keys whose values differ between two stats blocks."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [key for name in sorted(old.keys() | new.keys())
                for key in _moved(old.get(name), new.get(name), f"{path}.{name}")]
    return [] if old == new else [path.removeprefix("stats.")]


def _leaves(stats, path: str = "stats") -> dict:
    """The values of a stats block by dotted path, as _moved names them."""
    if isinstance(stats, dict):
        return {key: value for name, inner in stats.items()
                for key, value in _leaves(inner, f"{path}.{name}").items()}
    return {path.removeprefix("stats."): stats}


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _golden_runs() -> list:
    """(case name, function of an output directory returning its record) per golden case."""
    return [(case_id(*case), lambda out, case=case: run_case(*case, out)) for case in cases()]


def _identity_runs(seeds=IDENTITY_SEEDS) -> list:
    """(case name, function of an output directory returning its record) per identity case."""
    return [(identity_id(name, seed), lambda out, name=name, seed=seed: identity_case(name, seed, out))
            for name in preset_names() for seed in seeds]


def record(path: Path, runs: list) -> None:
    doc = {"numpy": np.__version__, "cases": {}}
    for name, run in runs:
        with tempfile.TemporaryDirectory() as tmp:
            doc["cases"][name] = run(Path(tmp))
        print(name, doc["cases"][name]["oracle_calls"])
    old = json.loads(path.read_text()) if path.exists() else {}
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    print("\n".join(summary(old, doc)))


def check_identity(seeds=IDENTITY_SEEDS) -> bool:
    """Run the identity cases of the given seeds, print each mismatch and a count; all match?"""
    doc = json.loads(IDENTITY.read_text())
    runs = _identity_runs(seeds)
    failed = 0
    for name, run in runs:
        with tempfile.TemporaryDirectory() as tmp:
            problem = _mismatch(IDENTITY, doc, name, run(Path(tmp)))
        if problem:
            failed += 1
            print(problem)
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"{len(runs) - failed} of {len(runs)} cases match {IDENTITY.name} "
          f"(OPENBLAS_NUM_THREADS {threads})")
    return not failed


def check_identity_on_two_threads() -> bool:
    """The seed-1 identity cases in a fresh process on two OpenBLAS threads (read at import)."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import test_golden; "
            "sys.exit(0 if test_golden.check_identity((1,)) else 1)")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    return subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


USAGE = """usage: python tests/test_golden.py --record
       python tests/test_golden.py --identity [--record]"""

if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--record"]:
        record(GOLDEN, _golden_runs())
    elif args == ["--identity", "--record"]:
        record(IDENTITY, _identity_runs())
    elif args == ["--identity"]:
        ok = check_identity()
        sys.exit(0 if check_identity_on_two_threads() and ok else 1)
    else:
        sys.exit(USAGE)
