"""Reference symmetry checks: every group element, one at a time.

``groups.check_action_axioms`` and ``graphs.check_invariance`` prove their
claims from a generating set.  These are the exhaustive versions they
replace: the action law on every pair of elements and every point, and
every element against every edge, so they serve as an independent oracle.
"""

from expander_ltc.errors import InvalidParameterError


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
