"""Source hygiene over ``src/repro``, by static inspection only.

Two rules, both checked with the standard library's :mod:`ast` so the
test runs with and without numpy:

- every module-level import binds a name its module reads somewhere:
  as a plain name, as the base of an attribute chain, inside a string
  annotation, or listed in ``__all__``. Package ``__init__`` modules
  re-export by importing, and ``from __future__`` imports bind nothing,
  so both are exempt;
- no ``assert`` statement: ``python -O`` strips them, so an invariant
  guarded by one silently stops being checked. Raise a typed error
  instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))


def _rel(path: Path) -> str:
    return path.relative_to(SRC.parent).as_posix()


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports -> line number."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _string_annotation_names(text: str) -> set[str]:
    """Names read by a string annotation such as ``"SimTime | None"``."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations and ``__all__``
    included."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                read.add(base.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Cheap superset: any string that parses as an expression
            # may be a forward reference.
            read |= _string_annotation_names(node.value)
        elif isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
            if any(t.id == "__all__" for t in targets) and isinstance(
                node.value, (ast.List, ast.Tuple)
            ):
                read |= {
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                }
    return read


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each top-level import nothing reads."""
    tree = ast.parse(source)
    read = _read_names(tree)
    return sorted(
        (line, name)
        for name, line in _imported_names(tree).items()
        if name not in read
    )


def assert_statements(path: Path) -> list[str]:
    """``module:line`` for each ``assert`` statement."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{_rel(path)}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]


def test_sources_are_found():
    assert len(MODULES) > 50


def test_no_unused_module_level_imports():
    found = [
        f"{_rel(path)}:{line} {name}"
        for path in MODULES
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_no_assert_statements_in_the_package():
    found = [entry for path in MODULES for entry in assert_statements(path)]
    assert found == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", ["os"]),
        ("import os\nos.getcwd()\n", []),
        ("import os.path\nos.path.join('a')\n", []),
        ("from a import b as c\nc()\n", []),
        ("from a import b\nx: 'b | None' = None\n", []),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from __future__ import annotations\n", []),
        ("from a import b\nb = 1\n", ["b"]),
    ],
)
def test_unused_import_scan_reads_what_a_module_reads(source, expected):
    assert [name for _, name in unused_imports(source)] == expected
