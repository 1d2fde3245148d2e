"""Library calls raise only the package's own errors on bad sizes, budgets,
cutoffs, group elements, generator lists, subgraph selectors, vertices and
search specs.

Each call gets drawn values of the wrong type or range (negative or
non-integer sizes, cutoffs that are text, ``None``, floats or fractions
outside (0, 1], group elements and action points that are negative, outside
the group, floats, bools, text or lists, generator lists with floats, bools,
negatives, elements outside the group or duplicates, lists of generator sets
that are empty or hold an empty set or a non-list, selectors that are
unhashable, ``None`` or unknown strings, vertices, corners, vector indices
and matrix entries that are floats, bools, text, lists, negative or out of
range, search trials,
seeds and degrees that are text, ``None``, floats, 0 or negative, search
groups that are not groups, cutoffs outside (0, 1] and eps targets outside
(0, 1) or of the wrong type, budgets and profile weights that are text,
``None``, floats, bools, 0 or negative).  It must either return or raise an
``errors.ExpanderLtcError``; any other exception fails the test.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expander_ltc import errors
from expander_ltc.analysis import (
    code_from_complex,
    distance_certificate,
    locally_minimal_distance,
    lt_profile,
    sharp_example,
)
from expander_ltc.f2 import BitMatrix, BitVector
from expander_ltc.graphs import BipartiteGraph, certify_expansion, layered_cayley
from expander_ltc.groups import block_action, left_regular_action, make_cyclic
from expander_ltc.products import inherited_expansion, left_right_cayley, one_d_subgraph
from expander_ltc.search import SearchSpec, random_generating_set, search_pair

CALLS = {
    "BitVector": lambda n, m: BitVector(n, m),
    "BitVector.from_support": lambda n, m: BitVector.from_support(n, [m]),
    "BitVector[]": lambda n, m: BitVector(max(n, 0), 0)[m],
    "BitMatrix": lambda n, m: BitMatrix(n, m),
    "BipartiteGraph": lambda n, m: BipartiteGraph(n, m, [(0, 0)]),
    "block_action": lambda n, _: block_action(left_regular_action(make_cyclic(3)), n),
    "make_cyclic": lambda n, _: make_cyclic(n),
    "random_generating_set": lambda n, m: random_generating_set(
        make_cyclic(5), n, random.Random(m)
    ),
}


def _returns_or_raises_package_error(call) -> None:
    try:
        call()
    except errors.ExpanderLtcError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(CALLS)), st.integers(-3, 8), st.integers(-3, 8))
def test_sizes_raise_only_package_errors(name, n, m):
    _returns_or_raises_package_error(lambda: CALLS[name](n, m))


# a size of the wrong type: a float, even a whole one, text or None
ODD_SIZES = st.one_of(st.integers(-3, 8), st.floats(-3, 8), st.just(2.0), st.none(),
                      st.just("2"))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(ODD_SIZES, st.booleans()), st.integers(0, 3))
def test_random_generating_set_sizes_raise_only_package_errors(size, seed):
    _returns_or_raises_package_error(
        lambda: random_generating_set(make_cyclic(4), size, random.Random(seed))
    )


# elements of Z_4, which are also the points of its left regular action
ELEMENTS = st.one_of(
    st.integers(-5, 9), st.floats(-2, 5), st.booleans(), st.none(), st.just("1"),
    st.just([0]),
)
_Z4 = make_cyclic(4)
_REGULAR = left_regular_action(_Z4)
ELEMENT_CALLS = {
    "mul": _Z4.mul,
    "inv": lambda a, _: _Z4.inv(a),
    "act": _REGULAR.act,
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(ELEMENT_CALLS)), ELEMENTS, ELEMENTS)
def test_group_elements_raise_only_package_errors(name, a, b):
    _returns_or_raises_package_error(lambda: ELEMENT_CALLS[name](a, b))


@pytest.mark.parametrize("call, bad", [
    (make_cyclic, 1.5), (make_cyclic, 2.0), (make_cyclic, True), (make_cyclic, "3"),
    (lambda bad: BitVector(3, bad), "x"), (lambda bad: BitVector(3, bad), 1.0),
    (lambda bad: BitVector(3, bad), True), (lambda bad: BitVector(bad, 1), "3"),
    (lambda bad: BitVector(bad, 1), 3.0), (lambda bad: BitMatrix(bad, 2), 2.0),
    (lambda bad: BitMatrix(2, bad), "2"),
    (lambda bad: BipartiteGraph(bad, 2, []), True),
    (lambda bad: BipartiteGraph(bad, 2, []), 2.0),
    (lambda bad: BipartiteGraph(2, bad, []), "2"),
    (lambda bad: block_action(_REGULAR, bad), True),
    (lambda bad: block_action(_REGULAR, bad), 1.5),
    (lambda bad: random_generating_set(make_cyclic(6), bad, random.Random(0)), True),
    (lambda bad: random_generating_set(make_cyclic(6), bad, random.Random(0)), 2.0),
], ids=[
    "make_cyclic-1.5", "make_cyclic-2.0", "make_cyclic-True", "make_cyclic-str",
    "BitVector-bits-str", "BitVector-bits-float", "BitVector-bits-True",
    "BitVector-length-str", "BitVector-length-float", "BitMatrix-rows-float",
    "BitMatrix-cols-str", "BipartiteGraph-v0-True", "BipartiteGraph-v0-2.0",
    "BipartiteGraph-v1-str", "block_action-True", "block_action-1.5",
    "random_generating_set-True", "random_generating_set-2.0",
])
def test_bad_size_raises(call, bad):
    with pytest.raises(errors.InvalidParameterError):
        call(bad)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", "x", None, -1, 4, 10])
@pytest.mark.parametrize("call", [
    # BitVector(3, 5) is 1, 0, 1: unchecked, True would read entry 1, 4 and 10
    # would read 0, -1 would raise ValueError and a float TypeError
    lambda bad: BitVector(3, 5)[bad],
    lambda bad: BipartiteGraph(2, 2, [(bad, 1)]),
    lambda bad: BipartiteGraph(2, 2, [(0, bad)]),
    # 1.0 and True would be equal to the edge before them
    lambda bad: BipartiteGraph(2, 2, [(1, 1), (bad, 1)]),
    lambda bad: BitVector.from_support(3, [bad]),
    lambda bad: BitMatrix(2, 2, [bad, 0]),
    lambda bad: BitMatrix(2, 2).set(bad, 0, 1),
    lambda bad: BitMatrix(2, 2).set(0, bad, 1),
    # 1.0 and True equal 1, and 4 and -1 are odd, yet none is an entry
    lambda bad: BitMatrix(2, 2).set(0, 0, bad),
], ids=["BitVector[]", "edge-u", "edge-v", "edge-u-repeated", "from_support",
        "BitMatrix-row", "BitMatrix.set-row", "BitMatrix.set-column",
        "BitMatrix.set-value"])
def test_bad_vertex_index_or_row_raises(call, bad):
    # 4 and 10 lie outside 0..2 and need more bits than two columns
    with pytest.raises(errors.InvalidParameterError):
        call(bad)


@pytest.mark.parametrize("bad", [-1, 4, 1.0, True, None, "1", [0]])
@pytest.mark.parametrize("call", [
    lambda bad: _Z4.mul(bad, 1),
    lambda bad: _Z4.mul(1, bad),
    lambda bad: _Z4.inv(bad),
    lambda bad: _REGULAR.act(bad, 1),
    lambda bad: _REGULAR.act(1, bad),
], ids=["mul-a", "mul-b", "inv", "act-g", "act-x"])
def test_bad_group_element_raises(call, bad):
    with pytest.raises(errors.InvalidParameterError):
        call(bad)


CUTOFFS = st.one_of(
    st.none(),
    st.text(max_size=4),
    st.sampled_from(["1/2", "1", "0.5"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.fractions(min_value=-2, max_value=2, max_denominator=12),
    st.integers(-2, 2),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(CUTOFFS)
def test_cutoffs_raise_only_package_errors(c):
    x = layered_cayley(make_cyclic(6), [[1, 2]])[0]
    _returns_or_raises_package_error(lambda: certify_expansion(x, c))


@pytest.mark.parametrize("c", ["1/2", None, 0.5, Fraction(0), Fraction(3, 2), -1])
def test_cutoff_not_in_the_unit_interval_as_int_or_fraction_raises(c):
    with pytest.raises(errors.InvalidParameterError):
        certify_expansion(layered_cayley(make_cyclic(6), [[1, 2]])[0], c)


# elements of Z_5 mixed with floats, negatives and elements outside the group;
# the small range makes duplicates common
GENERATORS = st.lists(
    st.one_of(st.integers(-2, 7), st.floats(-2, 7), st.sampled_from([1.0, 2.0])),
    max_size=5,
)
GENERATOR_CALLS = {
    "layered_cayley": lambda a, _: layered_cayley(make_cyclic(5), [a]),
    "layered_cayley-2": lambda a, b: layered_cayley(make_cyclic(5), [b, a]),
    "left_right_cayley": lambda a, b: left_right_cayley(make_cyclic(5), a, b),
    "left_right_cayley-b": lambda a, b: left_right_cayley(make_cyclic(5), b, a),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(GENERATOR_CALLS)), GENERATORS, GENERATORS)
def test_generator_lists_raise_only_package_errors(name, a, b):
    _returns_or_raises_package_error(lambda: GENERATOR_CALLS[name](a, b))


@pytest.mark.parametrize("gens", [[1.0], [1, 2.0], [-1], [5], [1, 1], [], [True]])
@pytest.mark.parametrize("name", sorted(GENERATOR_CALLS))
def test_bad_generator_list_raises(name, gens):
    with pytest.raises(errors.InvalidParameterError):
        GENERATOR_CALLS[name](gens, [1])


# lists of generator sets of Z_5: empty, or holding an empty set, a bad
# generator list or something that is no list at all
GENERATOR_SETS = st.one_of(
    st.lists(st.one_of(GENERATORS, st.lists(st.booleans(), max_size=2), st.none(),
                       st.integers(0, 4)), max_size=3),
    st.none(),
    st.integers(0, 4),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(GENERATOR_SETS)
def test_layered_cayley_generator_sets_raise_only_package_errors(gen_sets):
    _returns_or_raises_package_error(lambda: layered_cayley(make_cyclic(5), gen_sets))


@pytest.mark.parametrize("gen_sets", [
    [], [[]], [[1], []], [[5]], [[-1]], [[1, 1]], [[True]], [[1.0]], [["1"]],
    [[1], None], [1], None, 3,
])
def test_bad_generator_sets_raise(gen_sets):
    with pytest.raises(errors.InvalidParameterError):
        layered_cayley(make_cyclic(5), gen_sets)


_BP = left_right_cayley(make_cyclic(6), [1, 2], [1, 3])
_CERT = certify_expansion(_BP.x, Fraction(1, 2))
_CODE = code_from_complex(_BP)
_SUB_CERT = inherited_expansion(_BP, _CERT, "*0")
# a budget of the wrong type or range: text, None, a float, a bool, 0 or negative
BUDGETS = st.one_of(ODD_SIZES, st.booleans(), st.just(1.5), st.integers(-2, 1),
                    st.just(1 << 24))
BUDGET_CALLS = {
    "distance_certificate": lambda b: distance_certificate(_CODE, _BP, _SUB_CERT, b),
    "locally_minimal_distance": lambda b: locally_minimal_distance(_BP, b),
    "lt_profile": lambda b: lt_profile(_BP, 4, b),
    "lt_profile-max_c1_weight": lambda w: lt_profile(_BP, w),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(BUDGET_CALLS)), BUDGETS)
def test_budgets_raise_only_package_errors(name, budget):
    _returns_or_raises_package_error(lambda: BUDGET_CALLS[name](budget))


@pytest.mark.parametrize("budget", [0, -1, True, False, 1.5, 2.0, "x", None])
@pytest.mark.parametrize("name", sorted(BUDGET_CALLS.keys() - {"lt_profile-max_c1_weight"}))
def test_bad_budget_raises(name, budget):
    with pytest.raises(errors.InvalidParameterError, match="budget"):
        BUDGET_CALLS[name](budget)


@pytest.mark.parametrize("weight", [-1, True, 1.5, "x", None])
def test_bad_max_c1_weight_raises(weight):
    with pytest.raises(errors.InvalidParameterError, match="max_c1_weight"):
        lt_profile(_BP, weight)


SELECTORS = st.one_of(
    st.sampled_from(["*0", "*1", "0*", "1*"]),
    st.none(),
    st.text(max_size=3),
    st.lists(st.sampled_from(["*0", "1*"]), max_size=2),
    st.dictionaries(st.sampled_from(["*0"]), st.integers(), max_size=1),
    st.sets(st.sampled_from(["*0", "0*"]), max_size=2),
    st.integers(-1, 3),
)
SELECTOR_CALLS = {
    "one_d_subgraph": lambda which: one_d_subgraph(_BP, which),
    "inherited_expansion": lambda which: inherited_expansion(_BP, _CERT, which),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(SELECTOR_CALLS)), SELECTORS)
def test_selectors_raise_only_package_errors(name, which):
    _returns_or_raises_package_error(lambda: SELECTOR_CALLS[name](which))


@pytest.mark.parametrize("which", [["*0"], {}, None, "*2", ""])
@pytest.mark.parametrize("name", sorted(SELECTOR_CALLS))
def test_bad_selector_raises(name, which):
    with pytest.raises(errors.InvalidParameterError):
        SELECTOR_CALLS[name](which)


# V00 of the Z6 complex has 6 vertices
VERTICES = st.one_of(
    st.integers(-3, 12), st.floats(-3, 12), st.sampled_from([1.0, 1.5]), st.none(),
    st.just("1"),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(VERTICES)
def test_vertices_raise_only_package_errors(x00):
    _returns_or_raises_package_error(lambda: sharp_example(_BP, x00))


@pytest.mark.parametrize("x00", [1.5, 1.0, -1, 6, None, "1", True])
def test_bad_vertex_raises(x00):
    with pytest.raises(errors.InvalidParameterError):
        sharp_example(_BP, x00)


# corners of the Z6 complex are 0..3, and each has 6 vertices
CORNERS = st.one_of(VERTICES, st.lists(st.integers(0, 3), max_size=2))
VERTEX_CALLS = {
    "label": lambda corner, v, w: _BP.label(corner, v),
    "complete_square": lambda corner, v, w: _BP.complete_square(corner, v, w),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(VERTEX_CALLS)), CORNERS, CORNERS, CORNERS)
def test_complex_vertices_raise_only_package_errors(name, corner, v, w):
    _returns_or_raises_package_error(lambda: VERTEX_CALLS[name](corner, v, w))


@pytest.mark.parametrize("corner, index", [
    (0, 99), (0, 6), (0, -1), (4, 0), (5, 0), (-1, 0), ("a", 0), (None, 0),
    (1.0, 0), (0, 1.0), (0, "1"), (0, [0]), (True, 0), (0, True),
])
def test_bad_label_raises(corner, index):
    with pytest.raises(errors.InvalidParameterError):
        _BP.label(corner, index)


@pytest.mark.parametrize("triple", [
    ([0], 0, 0), (0, [1], 2), (0, 1, {}), (0.0, 1, 2), (6, 0, 0), (0, -1, 0),
    (0, 1, 6), (None, 1, 2), ("0", 1, 2),
])
def test_bad_square_vertex_raises(triple):
    with pytest.raises(errors.InvalidParameterError):
        _BP.complete_square(*triple)


SPEC_FIELDS = ("trials", "seed", "w_down", "w_up", "w_right", "w_left")


def _search(**values) -> None:
    """A search on Z4 with c = 1/4, which certifies every valid draw at once."""
    quarter = Fraction(1, 4)
    spec = dict(group=_Z4, trials=1, seed=0, w_down=1, w_up=2, w_right=1, w_left=2,
                c_x=quarter, c_y=quarter)
    spec.update(values)
    search_pair(SearchSpec(**spec))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({}, optional={
    **{
        field: st.one_of(ODD_SIZES, st.just(0), st.integers(-3, -1), st.booleans())
        for field in SPEC_FIELDS
    },
    "group": st.one_of(
        st.just(_Z4), st.none(), st.integers(1, 4), st.just("Z4"),
        st.just(_Z4.table), st.just(left_regular_action(_Z4)),
    ),
    "eps_target": st.one_of(CUTOFFS, st.just(Fraction(1, 2))),
    "c_x": CUTOFFS,
    "c_y": CUTOFFS,
}))
def test_search_specs_raise_only_package_errors(values):
    _returns_or_raises_package_error(lambda: _search(**values))


# every integer is a seed, so only the non-integers are bad there; an eps
# target must be an int or Fraction in (0, 1), a cutoff one in (0, 1], and a
# group a FiniteGroup
BAD_SPEC_VALUES = [
    (field, value)
    for field in SPEC_FIELDS
    for value in ["x", "2", None, 2.0, 1.5, 0, -1]
    if not (field == "seed" and isinstance(value, int))
] + [
    ("group", value) for value in [None, 4, "Z4", _Z4.table, left_regular_action(_Z4)]
] + [
    ("eps_target", value)
    for value in ["x", "1/2", 0.5, Fraction(0), Fraction(1), Fraction(3, 2), 0, 1, -1]
] + [
    (field, value)
    for field in ("c_x", "c_y")
    for value in ["x", "1/2", None, 0.5, Fraction(0), Fraction(3, 2), 0, -1, 2]
] + [
    # a bool is no integer, so no degree, trial count, seed or cutoff
    (field, True) for field in (*SPEC_FIELDS, "c_x", "c_y")
]


@pytest.mark.parametrize("field, value", BAD_SPEC_VALUES)
def test_bad_search_spec_raises(field, value):
    with pytest.raises(errors.InvalidParameterError, match=field):
        _search(**{field: value})
