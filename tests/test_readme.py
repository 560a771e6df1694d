"""The README against the code: its complete config example resolves, its flags exist,
every acceptance key and criterion it names is one a config may carry, every preset it
names is a listed one, and every name of its library surface is exported."""

import argparse
import re
from pathlib import Path

import sysrisk
from sysrisk.cli import build_parser
from sysrisk.config import load_config, resolve_config
from sysrisk.presets import preset_config, preset_names

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


# one acceptance block per criterion and per older loss or utility spelling
ACCEPTANCE_BLOCKS = [
    {"criterion": "avar", "lam": 0.5, "shift": 1.0},
    {"criterion": "ubsr", "power": 2.0, "z": 1.0},
    {"criterion": "oce"},
    {"criterion": "entropic", "level": 0.9},
    {"criterion": "ubsr", "loss": "exp", "z": 1.0},
    {"criterion": "ubsr", "loss": "polynomial", "power": 2.0, "z": 1.0},
    {"criterion": "oce", "utility": "log1p"},
    {"criterion": "oce", "utility": "avar", "utility_lam": 0.1},
]


def test_readme_criterion_keys_resolve():
    # every key and value the criterion paragraphs name in backticks is one a config may carry
    text = README.read_text()
    paragraphs = text[text.index("The criterion parameters are"):text.index("The OCE is -sup")]
    named = {part.strip() for token in re.findall(r"`([^`]+)`", paragraphs)
             for part in token.split(":")}
    accepted = set()
    for block in ACCEPTANCE_BLOCKS:
        cfg = preset_config("agg_lognormal:sum")
        cfg["acceptance"] = block
        resolve_config(cfg)
        accepted |= set(block) | {v for v in block.values() if isinstance(v, str)}
    assert "loss" in named and "utility_lam" in named, "the paragraphs name no older spelling"
    assert named <= accepted, sorted(named - accepted)


def test_readme_preset_names_are_listed():
    # the presets it runs, sweeps and loads, and every backticked family:variant or
    # family variant, are names preset_config accepts
    text = re.sub(r"\\\n\s*", " ", README.read_text())  # join continued shell lines
    names = preset_names()
    families = "|".join(sorted({name.split(":")[0] for name in names}))
    named = set(re.findall(r"--preset[ =]([^\s`]+)", text))
    named |= set(re.findall(r'preset_config\("([^"]*)"\)', text))
    for args in re.findall(r"sysrisk sweep((?: +[a-z][^\s`]*)+)", text):
        named |= set(args.split())
    named |= set(re.findall(rf"`((?:{families})[: ][^`]*)`", text))
    assert {"two_tier:B2", "agg_lognormal:sum", "three_tier:alpha=0.6"} <= named
    assert named <= set(names), sorted(named - set(names))


def test_readme_library_names_are_exported():
    # the leading name of every backticked call or name in the "Library use" bullet list
    text = README.read_text()
    section = text[text.index("## Library use"):]
    bullets = re.search(r"Each job has one public\s+name:\n\n(.*?)\n\n", section, re.S)
    assert bullets, "the README's library surface list is gone"
    named = set(re.findall(r"`([A-Za-z_]\w*)", bullets.group(1)))
    assert {"generate_scenarios", "AggregationValueModel", "grid_search"} <= named
    assert named <= set(sysrisk.__all__), sorted(named - set(sysrisk.__all__))
