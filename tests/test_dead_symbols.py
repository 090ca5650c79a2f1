"""Guard against dead code: every public symbol in ``src/repro`` has a user.

An ``ast`` scan collects each public top-level function, class and
constant, and each public method, defined under ``src/repro``. A name is
dead when it appears only once — at its own definition — as a ``\\w+``
token across the Python files of ``src/``, ``tests/``, ``benchmarks/``,
``layerbench/`` and ``examples/``. ``__all__`` lists and the import
re-exports of package ``__init__.py`` files do not count as uses: they
only repeat a name, they do not call it.

``DOCUMENTED_TABLES`` names the one exception: a table that no code
reads but that the docs ask contributors to extend.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED_DIRS = ("src", "tests", "benchmarks", "layerbench", "examples")
TOKEN = re.compile(r"\w+")

DOCUMENTED_TABLES = {
    # docs/scenarios.md: a new regime adds its one-line description here.
    "REGIME_DESCRIPTIONS",
}


def _python_files() -> list[Path]:
    return sorted(
        path
        for name in SCANNED_DIRS
        for path in (ROOT / name).rglob("*.py")
        if "__pycache__" not in path.parts
    )


def _targets(node: ast.stmt) -> list:
    """The names an assignment binds (empty for other statements)."""
    return getattr(node, "targets", None) or [getattr(node, "target", None)]


def _counted_source(path: Path, source: str, tree: ast.Module) -> str:
    """The file's text minus ``__all__`` lists and package re-exports."""
    skip = set()
    for node in tree.body:
        reexport = path.name == "__init__.py" and isinstance(
            node, (ast.Import, ast.ImportFrom)
        )
        if reexport or any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in _targets(node)
        ):
            skip.update(range(node.lineno - 1, node.end_lineno))
    lines = source.splitlines()
    return "\n".join(line for i, line in enumerate(lines) if i not in skip)


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Public top-level functions, classes, constants and methods."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            found.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (item.name, item.lineno)
                for item in node.body
                if isinstance(item, functions)
            )
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            found.extend(
                (t.id, node.lineno) for t in _targets(node) if isinstance(t, ast.Name)
            )
    return [(name, line) for name, line in found if not name.startswith("_")]


def find_dead_symbols() -> list[str]:
    tokens: Counter[str] = Counter()
    definitions = []
    for path in _python_files():
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        tokens.update(TOKEN.findall(_counted_source(path, source, tree)))
        if path.is_relative_to(ROOT / "src" / "repro"):
            rel = path.relative_to(ROOT)
            definitions.extend(
                (name, f"{rel}:{line}") for name, line in _definitions(tree)
            )
    return sorted(
        f"{where}: {name}"
        for name, where in definitions
        if tokens[name] == 1 and name not in DOCUMENTED_TABLES
    )


def test_no_unreferenced_public_symbols():
    dead = find_dead_symbols()
    assert not dead, (
        f"{len(dead)} public symbol(s) under src/repro are referenced nowhere "
        "(delete them, or use them):\n" + "\n".join(dead)
    )
