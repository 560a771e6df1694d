"""Smoke tests of the case-study scripts: each runs end to end on a small draw."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), exc.code
    return capsys.readouterr().out.splitlines()


def test_aggregation_study(monkeypatch, capsys):
    variants = ("sum", "loss_insensitive", "loss_sensitive", "exp_insensitive", "exp_sensitive")
    lines = run_script(
        "aggregation_study.py", ["--scenarios", "200", "--resolution", "6"], monkeypatch, capsys
    )
    assert lines[0] == "seed 1"
    rows = [line.split()[0] for line in lines[1:] if line.split()[0] in variants]
    assert rows == list(variants)
    assert any("loss-sensitive region inside loss-insensitive" in line for line in lines)


def test_two_tier_study(monkeypatch, capsys):
    lines = run_script(
        "two_tier_study.py", ["--scenarios", "30", "--resolution", "6"], monkeypatch, capsys
    )
    assert lines[0] == "seed 1" and lines[1].split()[:2] == ["variant", "acceptable"]
    assert [line.split()[0] for line in lines[2:-1]] == ["A1", "B2", "B4"]
    assert lines[-1].startswith("B2 region inside B4 region:")


def test_three_tier_study(monkeypatch, capsys):
    lines = run_script(
        "three_tier_study.py", ["--scenarios", "30", "--resolution", "6"], monkeypatch, capsys
    )
    rows = [line.split(":")[0] for line in lines if "of lattice acceptable" in line]
    assert rows == [f"alpha {a:4.2f}" for a in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
    assert sum("consistent" in line for line in lines) == 5


@pytest.mark.parametrize("name", [p.name for p in sorted(SCRIPTS.glob("*_study.py"))])
def test_study_help(name, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out
