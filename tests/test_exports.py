"""A ratchet on the package exports that no library code uses.

An exported name counts as used when some module of the package other than
``__init__.py`` names it (a whole-word match); the name's own ``def`` or
``class`` line does not count.  The unused ones are frozen below: a new
export that only tests call fails this test, and so does a listed name that
gains a caller in the library (remove it from the list then).
"""

import ast
import re
from pathlib import Path

import expander_ltc

# test-only exports still waiting to get a caller or to move into tests/
TEST_ONLY_EXPORTS = frozenset({
    "cayley_left",
    "check_edge_count_lemma",
    "degree_split",
    "graph_from_edge_list",
    "is_free_action",
    "matrix_from_alist",
    "matrix_from_dense_text",
    "right_regular_action_as_left",
    "small_set_ltc_check",
    "square_count",
    "trivial_action",
    "unbalance",
    "unique_neighbors",
})


def _exports(package: Path) -> list[str]:
    tree = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _unused(package: Path, names: list[str]) -> set[str]:
    texts = [
        p.read_text(encoding="utf-8")
        for p in sorted(package.glob("*.py"))
        if p.name != "__init__.py"
    ]
    unused = set()
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^[ \t]*(?:def|class)[ \t]+{re.escape(name)}\b", re.M)
        if all(len(word.findall(t)) == len(definition.findall(t)) for t in texts):
            unused.add(name)
    return unused


def test_test_only_exports_are_frozen():
    package = Path(expander_ltc.__file__).resolve().parent
    names = _exports(package)
    assert TEST_ONLY_EXPORTS <= set(names)
    assert _unused(package, names) == TEST_ONLY_EXPORTS
