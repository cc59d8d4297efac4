"""Every name a library module imports is used in it, and every private
module-level name of the library is read somewhere in it.

No linter ships with the project, so this walks each module's syntax
tree with the standard library alone.  `__init__.py` is left out of the
import check: its imports are the package's public names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pitc"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements of `source` that no other
    expression in it reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = ("from itertools import permutations, product\n"
              "import os.path\n"
              "print(product)\n")
    assert unused_imports(source) == ["permutations (line 1)", "os (line 2)"]


def _defined(stmt: ast.stmt) -> list[str]:
    """The module-level names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read(stmt: ast.stmt) -> set[str]:
    """The names and attributes a statement reads."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level names starting with `_` (dunders aside) that no other
    top-level statement of the modules `sources` reads; a helper that
    only calls itself counts as unread."""
    stmts = [(module, stmt) for module, source in sources.items()
             for stmt in ast.parse(source).body]
    reads = [_read(stmt) for _, stmt in stmts]
    out = []
    for i, (module, stmt) in enumerate(stmts):
        for name in _defined(stmt):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in r for j, r in enumerate(reads) if j != i):
                out.append(f"{module}: {name} (line {stmt.lineno})")
    return out


def test_no_unread_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unread_private_names(sources) == []


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": ("_LIMIT = 3\n"
                 "def _walk(n):\n    return _walk(n - 1) if n else _LIMIT\n"
                 "def _used():\n    return 1\n"
                 "__version__ = '1'\n"),
        "b.py": "from a import _used\nprint(_used())\n",
    }
    assert unread_private_names(sources) == ["a.py: _walk (line 2)"]
