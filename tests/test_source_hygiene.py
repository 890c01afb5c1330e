"""Source hygiene over ``src/repro``, by static inspection only.

Three rules, all checked with the standard library's :mod:`ast` and a
text search so the test runs with and without numpy:

- every module-level import binds a name its module reads somewhere:
  as a plain name, as the base of an attribute chain, inside a string
  annotation, or listed in ``__all__``. Package ``__init__`` modules
  re-export by importing, and ``from __future__`` imports bind nothing,
  so both are exempt;
- no ``assert`` statement: ``python -O`` strips them, so an invariant
  guarded by one silently stops being checked. Raise a typed error
  instead;
- every top-level function and class, and every non-dunder method of
  a top-level class, is named somewhere besides its definition: in
  ``src/``, ``tests/``, ``benchmarks/``, ``scripts/`` or ``examples/``,
  as a whole word (a string naming it, as ``getattr`` takes, counts).
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))
#: Where a use of a ``src/repro`` name may live.
REFERENCE_DIRS = ("src", "tests", "benchmarks", "scripts", "examples")


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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_names(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of each top-level function and class and each
    method of a top-level class, dunders (which Python calls by
    protocol) excepted."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)):
            continue
        found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (item.lineno, item.name)
                for item in node.body
                if isinstance(item, functions)
            )
    return [(line, name) for line, name in found if not _is_dunder(name)]


def unreferenced_names(
    modules: dict[str, str], corpus: list[str]
) -> list[str]:
    """``module:line name`` for each name defined in ``modules`` (path
    -> source) that occurs in ``corpus`` only as often as it is
    defined there."""
    words = Counter(
        word for text in corpus for word in re.findall(r"\w+", text)
    )
    defined = {
        rel: defined_names(ast.parse(source))
        for rel, source in modules.items()
    }
    definitions = Counter(
        name for found in defined.values() for _, name in found
    )
    return sorted(
        f"{rel}:{line} {name}"
        for rel, found in defined.items()
        for line, name in found
        if words[name] <= definitions[name]
    )


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


def test_every_defined_name_is_referenced():
    modules = {
        _rel(path): path.read_text(encoding="utf-8") for path in MODULES
    }
    corpus = [
        path.read_text(encoding="utf-8")
        for folder in REFERENCE_DIRS
        for path in sorted((REPO / folder).rglob("*.py"))
    ]
    assert unreferenced_names(modules, corpus) == []


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


@pytest.mark.parametrize(
    "source, corpus, expected",
    [
        ("def f():\n    pass\n", [], ["m.py:1 f"]),
        ("def f():\n    pass\n", ["f()"], []),
        ("def f():\n    pass\n", ["ff()", "f_g"], ["m.py:1 f"]),
        ("class C:\n    def m(self):\n        pass\n", ["C"], ["m.py:2 m"]),
        ("class C:\n    def __len__(self):\n        return 0\n", ["C"], []),
        ("def __getattr__(name):\n    pass\n", [], []),
        ("class C:\n    def m(self):\n        pass\n", ["C", "getattr(c, 'm')"], []),
        ("def f():\n    def inner():\n        pass\n    inner()\n", ["f"], []),
    ],
)
def test_unreferenced_name_scan_counts_whole_words(source, corpus, expected):
    assert unreferenced_names({"m.py": source}, [source, *corpus]) == expected
