"""Reference hypergraph (Cartesian) product for the product tests.

With the trivial group acting, ``balanced_product`` must give exactly this
complex, so the tests use it as an oracle for the quotient's corners, edge
sets and faces.
"""

from typing import NamedTuple

from expander_ltc.graphs import BipartiteGraph


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
