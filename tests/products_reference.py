"""References for the product tests: the hypergraph product and the
entry-by-entry boundary maps.

With the trivial group acting, ``balanced_product`` must give exactly the
hypergraph (Cartesian) product, so the tests use it as an oracle for the
quotient's corners, edge sets and faces.  ``reference_boundaries`` sets each
entry of ``d1`` and ``d2`` from one edge of a subgraph, as an oracle for the
boundary maps that ``balanced_product`` assembles from neighbourhood masks.
"""

import itertools
from typing import NamedTuple

from expander_ltc.f2 import BitMatrix
from expander_ltc.graphs import BipartiteGraph
from expander_ltc.groups import FiniteGroup


class HypergraphProduct(NamedTuple):
    """The Cartesian product of two bipartite graphs, with faces."""

    x: BipartiteGraph
    y: BipartiteGraph
    v00: int
    v10: int
    v01: int
    v11: int
    e_s0: frozenset[tuple[int, int]]  # V00 - V10
    e_s1: frozenset[tuple[int, int]]  # V01 - V11
    e_0s: frozenset[tuple[int, int]]  # V00 - V01
    e_1s: frozenset[tuple[int, int]]  # V10 - V11
    faces: tuple[tuple[int, int, int, int], ...]


def hypergraph_product(x: BipartiteGraph, y: BipartiteGraph) -> HypergraphProduct:
    """All four corner vertex sets, four edge sets and the face set.

    Corner ``(alpha, beta)`` vertices are pairs ``(x_alpha, y_beta)`` indexed
    as ``x * |V_{Y,beta}| + y``.
    """
    sizes = (
        x.v0_size * y.v0_size,
        x.v1_size * y.v0_size,
        x.v0_size * y.v1_size,
        x.v1_size * y.v1_size,
    )
    ny0, ny1 = y.v0_size, y.v1_size

    e_s0 = frozenset(
        (x0 * ny0 + y0, x1 * ny0 + y0) for (x0, x1) in x.edges for y0 in range(ny0)
    )
    e_s1 = frozenset(
        (x0 * ny1 + y1, x1 * ny1 + y1) for (x0, x1) in x.edges for y1 in range(ny1)
    )
    e_0s = frozenset(
        (x0 * ny0 + y0, x0 * ny1 + y1) for x0 in range(x.v0_size) for (y0, y1) in y.edges
    )
    e_1s = frozenset(
        (x1 * ny0 + y0, x1 * ny1 + y1) for x1 in range(x.v1_size) for (y0, y1) in y.edges
    )
    faces = tuple(
        sorted(
            (x0 * ny0 + y0, x1 * ny0 + y0, x0 * ny1 + y1, x1 * ny1 + y1)
            for (x0, x1) in x.edges
            for (y0, y1) in y.edges
        )
    )
    return HypergraphProduct(x, y, *sizes, e_s0, e_s1, e_0s, e_1s, faces)


def reference_boundaries(bp) -> tuple[BitMatrix, BitMatrix]:
    """``(d1, d2)`` of a complex, one entry per edge of its four subgraphs.

    ``d2`` has a row per V10 vertex, then one per V01 vertex, and a column
    per V00 vertex; ``d1`` has a row per V11 vertex and the columns of V10,
    then V01.
    """
    n10 = bp.n10
    d2 = BitMatrix(n10 + bp.n01, bp.n00)
    for i00, i10 in bp.g_s0.edges:
        d2.set(i10, i00, 1)
    for i00, i01 in bp.g_0s.edges:
        d2.set(n10 + i01, i00, 1)
    d1 = BitMatrix(bp.sizes[3], n10 + bp.n01)
    for i10, i11 in bp.g_1s.edges:
        d1.set(i11, i10, 1)
    for i01, i11 in bp.g_s1.edges:
        d1.set(i11, n10 + i01, 1)
    return d1, d2


def s3() -> FiniteGroup:
    """The symmetric group on three points, by its table; 0 is the identity,
    3 and 4 are the two 3-cycles."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms) for p in perms
    )
    inverse = tuple(index[tuple(p.index(i) for i in range(3))] for p in perms)
    return FiniteGroup(6, table, 0, inverse, name="S3")
