"""The README against the code: its complete config example resolves, and its flags exist."""

import argparse
import re
from pathlib import Path

from sysrisk.cli import build_parser
from sysrisk.config import load_config, resolve_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_resolves(tmp_path):
    text = README.read_text()
    example = re.search(r"A complete network example:\n\n```yaml\n(.*?)```", text, re.S)
    assert example, "the README's complete config example is gone"
    path = tmp_path / "example.yaml"
    path.write_text(example.group(1))
    resolved = resolve_config(load_config(path))
    assert resolved["model"]["type"] == "network"


def test_readme_flags_are_options_of_a_subcommand():
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {flag for sub in subcommands.choices.values() for flag in sub._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README.read_text()))
    assert named, "the README names no flags"
    assert named <= options, sorted(named - options)
