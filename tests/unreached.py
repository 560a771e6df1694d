"""Statements of the sysrisk package that no Tier-1 test executes.

    PYTHONPATH=src python tests/unreached.py

Runs the Tier-1 suite in this process under a line tracer limited to the
package's source files, then prints every statement that no test executed,
as file:line, the function it is in and its first source line, with the
reason REASONS gives for it. A statement counts as executed when any line
of its own (for a compound statement, its header) ran. Tests that start a
fresh interpreter, such as cli's closed-stdout tests, are not traced, so
what only they run needs a listed reason too.

Exits with the suite's status if a test fails, else 1 if a printed
statement has no listed reason, else 0. A listed statement that the suite
now reaches is named as a stale reason but does not fail the check. Not
part of Tier-1: tracing makes the suite run about twice as long.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import threading
from pathlib import Path

# Why no Tier-1 test executes a statement, keyed by (file, function, first line of the
# statement, stripped) for one statement or by (file, function) for all of a function's.
CLOSED_STDOUT = ("a closed stdout, which test_closed_stdout_exits_quietly and "
                 "test_run_with_closed_stdout_finishes_its_files reach in a fresh interpreter")
REASONS = {
    ("cli.py", "_drop_stdout"): CLOSED_STDOUT,
    ("cli.py", "_Progress.__call__", "return"): CLOSED_STDOUT,
    ("cli.py", "_Progress.__call__", "self.gone = True"): CLOSED_STDOUT,
    ("cli.py", "_Progress.__call__", "_drop_stdout()"): CLOSED_STDOUT,
    ("cli.py", "console_main"): "the console script and `python -m sysrisk.cli`; the "
                                "closed-stdout tests run it in a fresh interpreter",
    ("cli.py", "<module>", "console_main()"): "the `python -m sysrisk.cli` entry; the "
                                              "closed-stdout tests run it in a fresh interpreter",
}


def package_dir() -> Path:
    """The sysrisk source directory, found without importing the package."""
    spec = importlib.util.find_spec("sysrisk")
    if spec is None or not spec.submodule_search_locations:
        sys.exit("sysrisk is not importable; run with PYTHONPATH=src")
    return Path(next(iter(spec.submodule_search_locations))).resolve()


def code_lines(code) -> set[int]:
    """The lines that hold bytecode of a code object and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(source: str, filename: str) -> list[tuple[int, str, set[int]]]:
    """(first line, enclosing function, own lines with bytecode) of every statement with such lines.

    A statement's own lines are its lines less those of the statements nested in it. The
    enclosing function is a dotted name of the defs and classes around the statement, or
    <module>.
    """
    executable = code_lines(compile(source, filename, "exec"))
    out = []

    def visit(node, scope: str):
        for child in ast.iter_child_nodes(node):  # an except clause is no statement: go through it
            if isinstance(child, ast.stmt):
                own = set(range(child.lineno, child.end_lineno + 1))
                for inner in ast.walk(child):
                    if isinstance(inner, ast.stmt) and inner is not child:
                        own -= set(range(inner.lineno, inner.end_lineno + 1))
                if own & executable:
                    out.append((child.lineno, scope, own & executable))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
            else:
                visit(child, scope)

    visit(ast.parse(source, filename), "<module>")
    return sorted(out, key=lambda item: item[0])


def trace_suite(files: dict[str, set[int]], args: list[str]) -> int:
    """Run pytest on args, adding to files[path] every line executed in that source file."""
    import pytest

    def make_local(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    locals_by_file = {path: make_local(lines) for path, lines in files.items()}

    def tracer(frame, event, arg):
        local = locals_by_file.get(frame.f_code.co_filename)
        if local is not None:
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        return int(pytest.main(args))
    finally:
        sys.settrace(None)
        threading.settrace(None)


def main() -> int:
    root = package_dir()
    sources = sorted(root.glob("*.py"))
    executed = {str(path): set() for path in sources}
    repo = Path(__file__).resolve().parents[1]
    status = trace_suite(executed, ["-q", "--continue-on-collection-errors", str(repo / "tests")])
    if status:
        print(f"the suite failed (pytest exit {status}); no unreached statements reported")
        return status
    unlisted, listed = 0, set()
    print("\nstatements no Tier-1 test executes:")
    for path in sources:
        source = path.read_text()
        lines = source.splitlines()
        for first, scope, own in statements(source, str(path)):
            if own & executed[str(path)]:
                continue
            text = lines[first - 1].strip()
            key = next((key for key in ((path.name, scope, text), (path.name, scope))
                        if key in REASONS), None)
            listed.add(key)
            unlisted += key is None
            reason = REASONS[key] if key else "NO REASON LISTED"
            print(f"  {path.name}:{first} in {scope}: {text}\n      {reason}")
    for key in sorted(set(REASONS) - listed):
        print(f"  stale reason, the suite reaches all it covers now: {': '.join(key)}")
    print(f"{unlisted} unreached statement(s) without a listed reason")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
