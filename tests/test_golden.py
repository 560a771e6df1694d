"""Golden outputs: every preset's labels, frontiers and EARs, pinned by digest.

Each case is one `sysrisk run` at seed 1 with --scenarios 150 --grid-res 10:
all 25 presets, plus refine 2 for one preset per family. golden.json holds,
per case, the sha256 of labels.csv, both frontier CSVs and ear.json (null
where the run writes no such file), the oracle calls and the exit code, and
the numpy version it was recorded with: a different numpy may draw
different scenario streams, and a mismatch then says so.

Rerecord only when an output change is intended, and name the reason and
the changed cases in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sysrisk.cli import main
from sysrisk.presets import preset_names

GOLDEN = Path(__file__).with_name("golden.json")
OUTPUTS = ("labels.csv", "inner_frontier.csv", "outer_frontier.csv", "ear.json")
REFINED = ("agg_lognormal:sum", "two_tier:B2", "three_tier:alpha=0.6")


def cases() -> list[tuple[str, int]]:
    return [(name, 1) for name in preset_names()] + [(name, 2) for name in REFINED]


def case_id(preset: str, refine: int) -> str:
    return preset if refine == 1 else f"{preset} refine {refine}"


def run_case(preset: str, refine: int, outdir: Path) -> dict:
    argv = [
        "run", "--preset", preset, "--seed", "1", "--scenarios", "150",
        "--grid-res", "10", "--refine", str(refine), "--out", str(outdir),
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    manifest = json.loads((outdir / "manifest.json").read_text())
    digests = {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        if (outdir / name).exists() else None
        for name in OUTPUTS
    }
    return {"exit_code": code, "oracle_calls": manifest.get("oracle_calls"), "sha256": digests}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("preset,refine", cases(), ids=[case_id(*c) for c in cases()])
def test_golden_outputs(golden, preset, refine, tmp_path):
    expected = golden["cases"][case_id(preset, refine)]
    got = run_case(preset, refine, tmp_path)
    note = ""
    if golden["numpy"] != np.__version__:
        note = (
            f" (golden.json was recorded with numpy {golden['numpy']}, this is numpy "
            f"{np.__version__}: the scenario streams may differ)"
        )
    assert got == expected, f"{case_id(preset, refine)} differs from golden.json{note}"


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(case_id(*c) for c in cases())


def record() -> None:
    doc = {"numpy": np.__version__, "cases": {}}
    for preset, refine in cases():
        with tempfile.TemporaryDirectory() as tmp:
            doc["cases"][case_id(preset, refine)] = run_case(preset, refine, Path(tmp))
        print(case_id(preset, refine), doc["cases"][case_id(preset, refine)]["oracle_calls"])
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
