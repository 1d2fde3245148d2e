"""The package imports nothing outside the standard library and itself.

Every ``import`` and ``from ... import`` of every module of the package is
read from its syntax tree, wherever it stands (top level or inside a
function).  An absolute import must name a standard-library module by its
top-level name (``sys.stdlib_module_names``); a relative one must stay in the
package (one leading dot) and name one of its modules.
"""

import ast
import sys
from pathlib import Path

import pytest

import expander_ltc

PACKAGE = Path(expander_ltc.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
OWN = {p.stem for p in MODULES}


def _outside(source: str) -> set[str]:
    """The imports in ``source`` that leave the standard library and the
    package, as written (``numpy``, ``..x``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # ``from . import a, b`` imports the modules ``a`` and ``b``
            names = ([(node.level, node.module)] if node.module
                     else [(node.level, alias.name) for alias in node.names])
        else:
            continue
        for level, name in names:
            top = name.split(".")[0]
            if not (top in sys.stdlib_module_names if level == 0
                    else level == 1 and top in OWN):
                found.add("." * level + name)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_are_standard_library_or_the_package(path):
    assert _outside(path.read_text(encoding="utf-8")) == set()


def test_outside_imports_are_caught():
    source = (
        "import json, numpy.linalg\n"
        "from . import f2, nowhere\n"
        "from .graphs import BipartiteGraph\n"
        "from ..other import x\n"
        "def f():\n"
        "    from scipy import sparse\n"
    )
    assert _outside(source) == {"numpy.linalg", ".nowhere", "..other", "scipy"}
