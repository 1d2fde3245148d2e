"""A ratchet on the package exports, and their members, that no library code uses.

An exported name counts as used when some module of the package other than
``__init__.py`` refers to it in code: a ``Name`` or ``Attribute`` node of
its syntax tree outside the name's own ``def`` or ``class``.  Docstrings,
comments, messages and imports do not count.  The unused ones are frozen
below: a new export that only tests call fails this test, and so does a
listed name that gains a caller in the library (remove it from the list then).
The exports themselves are read from the package's lazy namespace.

The members of the exported classes are their record fields, slots, methods
and properties: the public names each class defines.  A member counts as
read when an ``Attribute`` node names it outside a ``def`` of that name, and
not as the target of an assignment.
Matching is by name alone, so a member that shares its name with another
read attribute (``weight``, ``table``) counts as read.  A member named like
an attribute of a builtin type (``count``, as ``list.count``) would count as
read wherever the library uses that builtin attribute, so each such member is
listed with a library line that reads it.

The attributes an exported exception sets in its ``__init__`` are members
too, so one that no library code reads fails the member ratchet.  Each is
also listed below with what reads it, since a payload named like another
record's field (``witness``) counts as read by name alone; a new payload
fails until it is listed.

The public module-level names that are not exports (a ``def``, ``class`` or
assignment at the top of a submodule, not starting with ``_``) are held to
the same rule: the unused ones are frozen below, each with its reason.
``cli``'s ``cmd_*`` functions count as used, since ``main`` looks them up by
name.

The private module-level functions (a top-level ``def`` of a submodule whose
name starts with ``_`` but not ``__``) are held to it too, so a helper that
loses its last library caller fails: the unused ones are frozen below, each
with its reason.
"""

import ast
import inspect
import sys
import textwrap
from pathlib import Path

import pytest

import expander_ltc

# the public names, frozen: an export added or dropped fails this
EXPORTS = frozenset({
    "C1Vector", "CodeInstance", "DistanceReport", "FlipResult",
    "LocallyMinimalDistance", "LTProfile", "SmallSetCheck", "SmallSetSummary",
    "SoundnessReport", "boundary_1", "c0_weighted_norm", "code_from_complex",
    "distance_certificate", "greedy_flip", "is_locally_minimal",
    "locally_minimal_distance", "lt_profile", "sharp_example", "small_set_epsilon",
    "small_set_suite", "soundness_exhaustive", "soundness_from_lt", "weighted_norm",
    "BudgetExceededError", "ConfigError", "DegenerateCodeError", "ExpanderLtcError",
    "FreenessViolationError", "InvalidParameterError", "InvalidWedgeError",
    "IrregularGraphError", "PreconditionViolationError", "SizeLimitError",
    "VerificationError",
    "BitMatrix", "BitVector", "kernel_basis", "min_weight_nonzero", "rank",
    "matrix_from_alist", "matrix_from_dense_text", "matrix_to_alist",
    "matrix_to_dense_text",
    "BipartiteGraph", "ExpansionCertificate", "GraphAction", "Regularity",
    "certify_expansion", "check_invariance", "check_regularity",
    "check_unique_neighbor_lemma", "graph_from_edge_list", "graph_to_edge_list",
    "layered_cayley",
    "FiniteGroup", "GroupAction", "OrbitLabeling", "block_action",
    "group_from_spec", "left_regular_action", "make_cyclic",
    "make_direct_product", "orbit_labeling", "right_regular_action_as_left",
    "BalancedProductComplex", "OneDSubgraph", "balanced_product",
    "inherited_expansion", "left_right_cayley", "one_d_subgraph",
    "verify_chain_identity", "verify_copy_decomposition",
    "SearchResult", "SearchSpec", "random_generating_set", "search_pair",
})

# test-only exports, each with the reason it stays in the library
TEST_ONLY_EXPORTS = frozenset({
    "greedy_flip",  # test_acceptance criterion 7 checks the library's own flip
    "graph_from_edge_list",  # `verify --report` (ROADMAP item 7) reads edge lists
    "matrix_from_alist",  # `verify --report` reads the alist matrices
    "matrix_from_dense_text",  # `verify --report` checks alist against dense text
    # the Gray-sweep oracle of the weight-first distance; the benchmark tracer
    # wraps it by name
    "min_weight_nonzero",
})

# public module-level names, not exported, that no library code uses -> why
# each stays
TEST_ONLY_MODULE_NAMES = {
    "analysis.enumerate_small_c1": (
        "the benchmark tracer wraps it; it moves to the small-set reference "
        "once the tracer no longer wraps library names"
    ),
}

# private module-level functions that no library code calls -> why each stays
TEST_ONLY_PRIVATE_FUNCTIONS: dict[str, str] = {}

# members that no library code reads, each with the reason it stays
TEST_ONLY_MEMBERS = frozenset({
    "BitMatrix.transpose",  # the benchmark tracer wraps it; test oracles use it
    "FlipResult.final",  # the record of greedy_flip, a test-only export above
    "FlipResult.flips",  # the record of greedy_flip
    "FlipResult.steps",  # the record of greedy_flip
    # the checked point lookup of the error contract; library loops read rows
    "GroupAction.act",
})

# the attributes exported exceptions set in ``__init__`` -> what reads each
EXCEPTION_PAYLOADS = {
    "BudgetExceededError.required": "cli._stage and distance_certificate",
    "BudgetExceededError.budget": "cli._stage and distance_certificate",
    "FreenessViolationError.witness": "the tests, which check that it reproduces",
}

# builtin types whose attribute names a member may share
BUILTIN_TYPES = (dict, list, set, frozenset, str, int, tuple)

# members named like a builtin attribute -> (module, a line of it that reads them)
BUILTIN_NAMED_MEMBERS = {
    "SmallSetSummary.count": (
        "cli.py",
        'f"small-set inequality on {summary.count} locally minimal vectors{meaning}",',
    ),
}


def _exports() -> list[str]:
    return list(expander_ltc.__all__)


def _payloads(cls: type) -> set[str]:
    """The attributes ``cls.__init__`` sets on ``self``, if ``cls`` defines one."""
    init = vars(cls).get("__init__")
    if init is None:
        return set()
    tree = ast.parse(textwrap.dedent(inspect.getsource(init)))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def _members() -> dict[str, set[str]]:
    """Each public member name of the exported classes -> its "Class.member"s,
    with the payloads of the exported exceptions."""
    members: dict[str, set[str]] = {}
    for name in _exports():
        obj = getattr(expander_ltc, name)
        if isinstance(obj, type):
            own = {*getattr(obj, "_fields", ()), *vars(obj)}
            if issubclass(obj, BaseException):
                own |= _payloads(obj)
            for member in own:
                if not member.startswith("_"):
                    members.setdefault(member, set()).add(f"{name}.{member}")
    return members


def _references(node: ast.AST, names: set[str], attributes_only: bool) -> set[str]:
    """The names of ``names`` that code under ``node`` refers to, not counting
    references inside a name's own definition."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and child.id in names and not attributes_only:
            found.add(child.id)
        elif (
            isinstance(child, ast.Attribute)
            and child.attr in names
            and not isinstance(child.ctx, ast.Store)
        ):
            found.add(child.attr)
        inner = names
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = names - {child.name}
        found |= _references(child, inner, attributes_only)
    return found


def _unused(names: list[str], attributes_only: bool = False) -> set[str]:
    package = Path(expander_ltc.__file__).resolve().parent
    used = set()
    for p in sorted(package.glob("*.py")):
        if p.name != "__init__.py":
            tree = ast.parse(p.read_text(encoding="utf-8"))
            used |= _references(tree, set(names), attributes_only)
    return set(names) - used


def test_test_only_exports_are_frozen():
    names = _exports()
    assert TEST_ONLY_EXPORTS <= set(names)
    assert _unused(names) == TEST_ONLY_EXPORTS


def _module_names() -> dict[str, str]:
    """Each public module-level name of the submodules that is not an export
    -> its "module.name"."""
    package = Path(expander_ltc.__file__).resolve().parent
    names = {}
    for p in sorted(package.glob("*.py")):
        if p.name == "__init__.py":
            continue
        for node in ast.parse(p.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            for name in defined:
                if not name.startswith("_") and name not in EXPORTS:
                    names[name] = f"{p.stem}.{name}"
    return names


def test_test_only_module_names_are_frozen():
    names = _module_names()
    assert set(TEST_ONLY_MODULE_NAMES) <= set(names.values())
    commands = {name for name in names if name.startswith("cmd_")}
    assert commands  # main's dispatch table
    unused = _unused(sorted(set(names) - commands))
    assert {names[name] for name in unused} == set(TEST_ONLY_MODULE_NAMES)


def _private_functions() -> dict[str, str]:
    """Each private module-level function of the submodules -> its
    "module.name"."""
    package = Path(expander_ltc.__file__).resolve().parent
    names = {}
    for p in sorted(package.glob("*.py")):
        if p.name == "__init__.py":
            continue
        for node in ast.parse(p.read_text(encoding="utf-8")).body:
            if (
                isinstance(node, ast.FunctionDef)
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                assert node.name not in names, f"{node.name} defined twice"
                names[node.name] = f"{p.stem}.{node.name}"
    return names


def test_test_only_private_functions_are_frozen():
    names = _private_functions()
    assert set(TEST_ONLY_PRIVATE_FUNCTIONS) <= set(names.values())
    unused = _unused(sorted(names))
    assert {names[name] for name in unused} == set(TEST_ONLY_PRIVATE_FUNCTIONS)


def test_test_only_members_are_frozen():
    members = _members()
    assert TEST_ONLY_MEMBERS <= set().union(*members.values())
    unused = _unused(list(members), attributes_only=True)
    assert set().union(*(members[m] for m in unused)) == TEST_ONLY_MEMBERS


def test_exception_payloads_are_listed():
    payloads = {
        f"{name}.{attr}"
        for name in _exports()
        if isinstance(obj := getattr(expander_ltc, name), type)
        and issubclass(obj, BaseException)
        for attr in _payloads(obj)
    }
    assert payloads == set(EXCEPTION_PAYLOADS)


def test_members_named_like_builtin_attributes_are_read_where_listed():
    members = _members()
    named = {
        member
        for name, owners in members.items()
        if any(hasattr(t, name) for t in BUILTIN_TYPES)
        for member in owners
    }
    assert named == set(BUILTIN_NAMED_MEMBERS)
    package = Path(expander_ltc.__file__).resolve().parent
    for member, (module, line) in BUILTIN_NAMED_MEMBERS.items():
        source = (package / module).read_text(encoding="utf-8")
        at = {i for i, text in enumerate(source.splitlines(), 1) if text.strip() == line}
        attr = member.split(".")[1]
        assert any(
            isinstance(node, ast.Attribute) and node.attr == attr and node.lineno in at
            for node in ast.walk(ast.parse(source))
        ), member


def test_exports_are_frozen():
    assert len(EXPORTS) == 76
    assert set(_exports()) == EXPORTS


def test_each_export_is_the_object_its_submodule_defines():
    for name in EXPORTS:
        obj = getattr(expander_ltc, name)
        assert obj.__module__.startswith("expander_ltc."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_dir_and_star_import_list_every_export():
    assert EXPORTS <= set(dir(expander_ltc))
    namespace: dict = {}
    exec("from expander_ltc import *", namespace)
    assert EXPORTS <= set(namespace)
    assert all(namespace[name] is getattr(expander_ltc, name) for name in EXPORTS)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        expander_ltc.no_such_name
