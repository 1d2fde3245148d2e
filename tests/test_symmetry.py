"""The generator proofs of actions and invariance against the all-element oracles."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expander_ltc.errors import InvalidParameterError
from expander_ltc.graphs import BipartiteGraph, check_invariance, layered_cayley
from expander_ltc.groups import (
    GroupAction,
    block_action,
    check_action_axioms,
    check_group_axioms,
    left_regular_action,
    make_cyclic,
    make_direct_product,
    right_regular_action_as_left,
)

from products_reference import s3
from search_reference import draw_layered
from symmetry_reference import (
    cayley_left,
    reference_action_axioms,
    reference_group_axioms,
    reference_invariance,
    subgroup,
)

GROUPS = {
    **{f"Z{n}": make_cyclic(n) for n in range(1, 13)},
    "Z2xZ4": make_direct_product(make_cyclic(2), make_cyclic(4)),
    "S3": s3(),
}


def _verdict(check, *args):
    try:
        return check(*args)
    except InvalidParameterError:
        return "rejected"


def _powers(g, x):
    out, y = [g.identity], x
    while y != g.identity:
        out.append(y)
        y = g.mul(y, x)
    return out


def _actions(g, blocks, x):
    """Every kind of action the library builds on ``g``."""
    return [
        left_regular_action(g),
        right_regular_action_as_left(g),
        block_action(left_regular_action(g), blocks),
        block_action(right_regular_action_as_left(g), blocks),
        subgroup(g, _powers(g, x))[1],
    ]


@st.composite
def actions(draw):
    g = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
    blocks = draw(st.integers(1, 3))
    x = draw(st.integers(0, g.order - 1))
    return draw(st.sampled_from(_actions(g, blocks, x)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(actions())
def test_action_proof_accepts_what_the_oracle_accepts(a):
    assert _verdict(check_action_axioms, a) is None
    assert _verdict(reference_action_axioms, a) is None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    actions(), st.sampled_from(["generator", "non-generator", "identity"]), st.data()
)
def test_action_proof_rejects_corrupted_tables(a, corruption, data):
    g = a.group
    assume(g.order > 1)
    gens = g.generating_set()
    table = [list(row) for row in a.table]
    i, j = data.draw(
        st.lists(st.integers(0, a.set_size - 1), min_size=2, max_size=2, unique=True)
    )
    if corruption == "generator":  # two points land on one
        s = data.draw(st.sampled_from(gens))
        table[s][j] = table[s][i]
    elif corruption == "non-generator":  # still a permutation, but the wrong one
        others = [c for c in g.elements() if c != g.identity and c not in gens]
        assume(others)
        c = data.draw(st.sampled_from(others))
        table[c][i], table[c][j] = table[c][j], table[c][i]
    else:  # the identity's row moves to another element
        h = data.draw(st.sampled_from([h for h in g.elements() if h != g.identity]))
        table[g.identity], table[h] = table[h], table[g.identity]
    broken = GroupAction(g, a.set_size, tuple(map(tuple, table)))
    assert _verdict(check_action_axioms, broken) == "rejected"
    assert _verdict(reference_action_axioms, broken) == "rejected"
    # check_invariance proves its actions first, whatever the graph
    x = BipartiteGraph(a.set_size, a.set_size, [(u, u) for u in range(a.set_size)])
    assert _verdict(check_invariance, x, broken, broken) == "rejected"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(GROUPS)), st.booleans(), st.data())
def test_light_associativity_agrees_with_the_cubic_check(name, corrupt, data):
    g = GROUPS[name]
    if corrupt:
        # an entry off the identity's row and column that is not the identity,
        # changed to another non-identity element: the identity and inverse
        # axioms still hold, so only associativity can reject the table
        e = g.identity
        cells = [
            (a, b) for a in g.elements() for b in g.elements()
            if e not in (a, b, g.table[a][b])
        ]
        assume(cells)
        a, b = data.draw(st.sampled_from(cells))
        v = data.draw(st.sampled_from(
            [v for v in g.elements() if v not in (e, g.table[a][b])]
        ))
        table = [list(row) for row in g.table]
        table[a][b] = v
        g = g._replace(table=tuple(map(tuple, table)))
    verdict = _verdict(check_group_axioms, g)
    assert verdict == _verdict(reference_group_axioms, g)
    assert (verdict == "rejected") == corrupt


def _invariant_graphs(g, seed):
    """Graphs with an action the library expects to preserve them."""
    rng = random.Random(seed)
    degree = rng.randint(1, min(3, g.order))
    gens = sorted(rng.sample(range(g.order), degree))
    left, right = left_regular_action(g), right_regular_action_as_left(g)
    x, action, _ = draw_layered(g, rng.randint(1, 2), degree, rng)
    return [
        (x, action.on_v0, action.on_v1),
        (layered_cayley(g, [gens])[0], left, left),
        (cayley_left(g, gens), right, right),
    ]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(GROUPS)), st.integers(0, 2**16), st.data())
def test_invariance_proof_agrees_with_the_oracle(name, seed, data):
    g = GROUPS[name]
    x, a0, a1 = data.draw(st.sampled_from(_invariant_graphs(g, seed)))
    assert check_invariance(x, a0, a1) and reference_invariance(x, a0, a1)
    # with one edge dropped, its orbit under G is broken
    edges = sorted(x.edges)
    del edges[data.draw(st.integers(0, len(edges) - 1))]
    dropped = BipartiteGraph(x.v0_size, x.v1_size, edges)
    invariant = reference_invariance(dropped, a0, a1)
    assert check_invariance(dropped, a0, a1) == invariant == (g.order == 1)


@pytest.mark.parametrize(
    "gens",
    [gens for k in (1, 2, 3) for gens in itertools.combinations(range(6), k)],
    ids=str,
)
def test_cayley_graphs_over_s3(gens):
    # a left Cayley graph is right-invariant, and left-invariant only if its
    # generators are closed under conjugation; mirrored for a right one
    g = s3()
    normal = all(g.mul(g.mul(h, a), g.inv(h)) in gens for h in range(6) for a in gens)
    left, right = left_regular_action(g), right_regular_action_as_left(g)
    for x, same, other in ((cayley_left(g, gens), right, left),
                           (layered_cayley(g, [gens])[0], left, right)):
        assert check_invariance(x, same, same) and reference_invariance(x, same, same)
        assert check_invariance(x, other, other) == normal
        assert reference_invariance(x, other, other) == normal
