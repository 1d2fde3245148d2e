"""A ratchet on the package exports that no library code uses.

An exported name counts as used when some module of the package other than
``__init__.py`` refers to it in code: a ``Name`` or ``Attribute`` node of
its syntax tree outside the name's own ``def`` or ``class``.  Docstrings,
comments, messages and imports do not count.  The unused ones are frozen
below: a new export that only tests call fails this test, and so does a
listed name that gains a caller in the library (remove it from the list then).
"""

import ast
from pathlib import Path

import expander_ltc

# test-only exports, each with the reason it stays in the library
TEST_ONLY_EXPORTS = frozenset({
    "greedy_flip",  # test_acceptance criterion 7 checks the library's own flip
    "graph_from_edge_list",  # `verify --report` (ROADMAP item 7) reads edge lists
    "matrix_from_alist",  # `verify --report` reads the alist matrices
    "matrix_from_dense_text",  # `verify --report` checks alist against dense text
})


def _exports(package: Path) -> list[str]:
    tree = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _references(node: ast.AST, names: set[str]) -> set[str]:
    """The names of ``names`` that code under ``node`` refers to, not counting
    references inside a name's own definition."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and child.id in names:
            found.add(child.id)
        elif isinstance(child, ast.Attribute) and child.attr in names:
            found.add(child.attr)
        inner = names
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = names - {child.name}
        found |= _references(child, inner)
    return found


def _unused(package: Path, names: list[str]) -> set[str]:
    used = set()
    for p in sorted(package.glob("*.py")):
        if p.name != "__init__.py":
            tree = ast.parse(p.read_text(encoding="utf-8"))
            used |= _references(tree, set(names))
    return set(names) - used


def test_test_only_exports_are_frozen():
    package = Path(expander_ltc.__file__).resolve().parent
    names = _exports(package)
    assert TEST_ONLY_EXPORTS <= set(names)
    assert _unused(package, names) == TEST_ONLY_EXPORTS
