"""Reference symmetry checks: every group element, one at a time.

``groups.check_group_axioms``, ``groups.check_action_axioms`` and
``graphs.check_invariance`` prove their claims from a generating set.  These
are the exhaustive versions they replace: associativity on every triple, the
action law on every pair of elements and every point, and every element
against every edge, so they serve as an independent oracle.

Also the fixtures the symmetry tests build on and no command uses: left
Cayley graphs, the trivial action and subgroups acting on their group.
"""

from typing import Sequence

from expander_ltc.errors import InvalidParameterError
from expander_ltc.graphs import BipartiteGraph, _check_generators
from expander_ltc.groups import FiniteGroup, GroupAction, _maybe_check


def reference_group_axioms(g: FiniteGroup) -> None:
    """Identity, inverses and ``(ab)c = a(bc)`` for every triple; raises
    ``InvalidParameterError`` otherwise."""
    n, t, e = g.order, g.table, g.identity
    for a in range(n):
        if t[e][a] != a or t[a][e] != a:
            raise InvalidParameterError(f"identity axiom fails at element {a}")
        if t[a][g.inverse[a]] != e or t[g.inverse[a]][a] != e:
            raise InvalidParameterError(f"inverse axiom fails at element {a}")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise InvalidParameterError(
                        f"associativity fails on triple ({a}, {b}, {c})"
                    )


def reference_action_axioms(a) -> None:
    """The identity fixes every point and ``g1.(g2.x) = (g1 g2).x`` for all
    ``g1``, ``g2`` and ``x``; raises ``InvalidParameterError`` otherwise."""
    g = a.group
    for x in range(a.set_size):
        if a.act(g.identity, x) != x:
            raise InvalidParameterError(f"identity does not fix point {x}")
    for g1 in g.elements():
        for g2 in g.elements():
            g12 = g.mul(g1, g2)
            for x in range(a.set_size):
                if a.act(g1, a.act(g2, x)) != a.act(g12, x):
                    raise InvalidParameterError(
                        f"action not compatible on ({g1}, {g2}, {x})"
                    )


def reference_invariance(x, a0, a1) -> bool:
    """Whether every group element maps every edge to an edge."""
    if a0.set_size != x.v0_size or a1.set_size != x.v1_size:
        raise InvalidParameterError("action set sizes do not match the graph")
    if a0.group.order != a1.group.order or a0.group.table != a1.group.table:
        raise InvalidParameterError("the two actions use different groups")
    edges = x.edges
    for g in a0.group.elements():
        r0, r1 = a0.table[g], a1.table[g]
        for (u, v) in edges:
            if (r0[u], r1[v]) not in edges:
                return False
    return True


def cayley_left(g: FiniteGroup, a_set: Sequence[int]) -> BipartiteGraph:
    """Bipartite Cayley graph with edges ``(x, a*x)`` for ``a`` in ``a_set``."""
    gens = _check_generators(g, a_set)
    edges = [(x, g.mul(a, x)) for x in g.elements() for a in gens]
    return BipartiteGraph(g.order, g.order, edges)


def trivial_action(g: FiniteGroup, set_size: int) -> GroupAction:
    table = tuple(tuple(range(set_size)) for _ in g.elements())
    return GroupAction(g, set_size, table)


def subgroup(g: FiniteGroup, elements: Sequence[int]) -> tuple[FiniteGroup, GroupAction]:
    """A subgroup as a standalone group, plus its left action on ``G``.

    ``elements`` must be closed under multiplication and contain the identity.
    """
    elems = list(dict.fromkeys(elements))
    if g.identity not in elems:
        raise InvalidParameterError("subgroup must contain the identity")
    index = {x: i for i, x in enumerate(elems)}
    k = len(elems)
    try:
        table = tuple(
            tuple(index[g.mul(a, b)] for b in elems) for a in elems
        )
        inverse = tuple(index[g.inv(a)] for a in elems)
    except KeyError as exc:
        raise InvalidParameterError(
            f"subset not closed under multiplication (missing {exc.args[0]})"
        ) from None
    sub = _maybe_check(
        FiniteGroup(k, table, index[g.identity], inverse, name=f"sub{k}<{g.name}>")
    )
    act_table = tuple(tuple(g.mul(a, x) for x in g.elements()) for a in elems)
    return sub, GroupAction(sub, g.order, act_table)
