"""A ratchet on inline integer checks: each scalar rule is stated once.

``errors._at_least`` (an int of at least a minimum), ``errors._index`` (an
int in ``0..size-1``) and ``errors._cutoff`` (an int or ``Fraction`` in
(0, 1]) are the library's rules for sizes, indices and cutoffs, and every
other module calls them.  A comparison ``type(x) is int`` or
``type(x) is not int`` written anywhere else in the package restates a rule
in place.  The few that state no rule of ``errors`` are frozen below, by the
function that holds them and with a reason each: a new inline check fails
this test, and so does a listed one that goes away (remove it from the list
then).
"""

import ast
from pathlib import Path

import expander_ltc

PACKAGE = Path(expander_ltc.__file__).resolve().parent

# (module, enclosing function) of each inline check, with the reason it stays
ALLOWED = {
    ("f2.py", "BitVector.__new__"): "the bits are a pattern of `length` bits, no range",
    ("f2.py", "BitMatrix.__init__"): "each row is a pattern of `cols` bits, no range",
    ("search.py", "_check_field"): "a seed is any int: it has no range",
}


def _is_type_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "type"
        and len(node.args) == 1
    )


def _is_int_check(node: ast.Compare) -> bool:
    """Whether the comparison holds ``type(x) is int`` or ``is not int``, either
    way round."""
    operands = [node.left, *node.comparators]
    for op, a, b in zip(node.ops, operands, operands[1:]):
        if isinstance(op, (ast.Is, ast.IsNot)):
            for call, name in ((a, b), (b, a)):
                if _is_type_call(call) and isinstance(name, ast.Name) and name.id == "int":
                    return True
    return False


def inline_int_checks(source: str) -> set[str]:
    """The qualified names of the functions (``Class.method``, or ``<module>``)
    that hold an inline ``type(x) is [not] int``."""
    found = set()

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Compare) and _is_int_check(child):
                found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_finder_sees_each_spelling():
    source = (
        "def f(x):\n    return type(x) is int\n"
        "class C:\n    def g(self, x):\n        if int is not type(x): pass\n"
        "ok = isinstance(1, int) and type(1) == int\n"
    )
    assert inline_int_checks(source) == {"f", "C.g"}


def test_inline_int_checks_are_the_frozen_ones():
    found = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "errors.py"
        for name in inline_int_checks(path.read_text(encoding="utf-8"))
    }
    assert found == set(ALLOWED)


def test_errors_holds_the_rules():
    assert {"_at_least", "_index", "_cutoff"} <= inline_int_checks(
        (PACKAGE / "errors.py").read_text(encoding="utf-8")
    )
