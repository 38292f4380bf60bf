"""Guard against code that only tests call.

Every top-level function or class in ``src/repro``, and every non-dunder
method of a top-level class, must be named in a file under ``src/``,
``jobs/``, ``benchmarks/`` or ``perfbench/`` other than by its own
definition. Re-export imports in ``__init__.py``, comments and strings
(docstrings included) do not count.
"""
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "jobs", "benchmarks", "perfbench")

# Reference implementations that tests compare the production paths with.
TEST_REFERENCES = {"general_greedy", "_spread_once", "sampled_arcs"}


def _definitions() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(
                    item.name for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
    return names


def _named(source: str, init: bool) -> set[str]:
    """Names in the code of ``source``: not in comments or strings,
    docstrings included, not the name a ``def``/``class`` header defines
    and, in an ``__init__.py``, not in its import statements."""
    skip: set[int] = set()
    if init:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                skip.update(range(node.lineno, node.end_lineno + 1))
    names, prev = set(), None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if (tok.type == tokenize.NAME and tok.start[0] not in skip
                and tok.string not in ("def", "class")
                and prev not in ("def", "class")):
            names.add(tok.string)
        prev = tok.string
    return names


def _program_names() -> set[str]:
    names: set[str] = set()
    for d in PROGRAM_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            names |= _named(path.read_text(), init=path.name == "__init__.py")
    return names


def test_every_definition_is_named_by_the_program():
    unused = _definitions() - _program_names() - TEST_REFERENCES
    assert not unused, f"defined in src/repro but named only by tests: {sorted(unused)}"


def test_guard_ignores_definitions_and_reexports():
    assert _named("def f(x):\n    return g(x)\n", init=False) == {"return", "g", "x"}
    reexport = "from m import (\n    f,\n    g,\n)\n"
    assert _named(reexport, init=True) == set()
    assert {"f", "g"} <= _named(reexport, init=False)
    words = '"""f g."""\nx = "h"  # k\n'
    assert _named(words, init=False) == {"x"}
