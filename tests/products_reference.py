"""References for the product tests: the hypergraph product, the |G|-fold
quotient and the entry-by-entry boundary maps.

With the trivial group acting, ``balanced_product`` must give exactly the
hypergraph (Cartesian) product, so the tests use it as an oracle for the
quotient's corners, edge sets and faces.  ``reference_balanced_product``
walks every member of every orbit and checks that each quotient cell is met
exactly |G| times, as an oracle for ``balanced_product``, which walks one
member per orbit.  ``reference_boundaries`` sets each entry of ``d1`` and
``d2`` from one edge of a subgraph, as an oracle for the boundary maps that
``balanced_product`` assembles from neighbourhood masks.
"""

import itertools
from collections import Counter
from typing import NamedTuple

from expander_ltc.errors import (
    InvalidParameterError,
    SizeLimitError,
    VerificationError,
)
from expander_ltc.f2 import BitMatrix
from expander_ltc.graphs import (
    BipartiteGraph,
    GraphAction,
    check_invariance,
    check_regularity,
)
from expander_ltc.groups import FiniteGroup, orbit_labeling
from expander_ltc.products import (
    MAX_PRODUCT_VERTICES,
    BalancedProductComplex,
    verify_chain_identity,
)


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


def reference_balanced_product(
    x: BipartiteGraph, y: BipartiteGraph, ax: GraphAction, ay: GraphAction
) -> BalancedProductComplex:
    """``balanced_product`` by the |G|-fold enumeration: every pair of every
    orbit is mapped through a full quotient table, and each quotient cell
    must be met exactly |G| times."""
    g = ax.group
    if ay.group.order != g.order or ay.group.table != g.table:
        raise InvalidParameterError("the two factors must share one group")
    if not check_invariance(x, ax.on_v0, ax.on_v1):
        raise InvalidParameterError("first factor is not invariant under its action")
    if not check_invariance(y, ay.on_v0, ay.on_v1):
        raise InvalidParameterError("second factor is not invariant under its action")
    labelings = tuple(map(orbit_labeling, (ax.on_v0, ax.on_v1, ay.on_v0, ay.on_v1)))
    n_r = (labelings[0].num_orbits, labelings[1].num_orbits)
    n_s = (labelings[2].num_orbits, labelings[3].num_orbits)
    sides = [(0, 0), (1, 0), (0, 1), (1, 1)]  # corners 00, 10, 01, 11
    sizes = tuple(n_r[a] * n_s[b] * g.order for a, b in sides)
    if max(sizes) > MAX_PRODUCT_VERTICES:
        raise SizeLimitError(f"quotient corner of size {max(sizes)} exceeds cap")

    def quotient_table(a: int, b: int) -> list[list[int]]:
        """``q[x][y]``: the index of the orbit of ``(x, y)`` in a corner."""
        return [
            [
                (i_r * n_s[b] + i_s) * g.order + g.mul(g.inv(gx), gy)
                for gy, i_s in labelings[2 + b].label
            ]
            for gx, i_r in labelings[a].label
        ]

    q00, q10, q01, q11 = (quotient_table(a, b) for a, b in sides)

    def counted(cells, what: str) -> Counter:
        counts = Counter(cells)
        for cell, cnt in counts.items():
            if cnt != g.order:
                raise VerificationError(
                    f"{what} {cell} has multiplicity {cnt}/{g.order}"
                )
        return counts

    def quotient_edges(pairs, corner_a, corner_b, expected, what) -> BipartiteGraph:
        counts = counted(pairs, f"{what}: incidence")
        if len(counts) != expected:
            raise VerificationError(
                f"{what}: got {len(counts)} edge orbits, expected {expected}"
            )
        return BipartiteGraph(sizes[corner_a], sizes[corner_b], counts)

    g_s0 = quotient_edges(
        (pair for (x0, x1) in x.edges for pair in zip(q00[x0], q10[x1])),
        0, 1, len(x.edges) * y.v0_size // g.order, "E*0",
    )
    g_s1 = quotient_edges(
        (pair for (x0, x1) in x.edges for pair in zip(q01[x0], q11[x1])),
        2, 3, len(x.edges) * y.v1_size // g.order, "E*1",
    )
    g_0s = quotient_edges(
        ((r00[y0], r01[y1]) for r00, r01 in zip(q00, q01) for (y0, y1) in y.edges),
        0, 2, x.v0_size * len(y.edges) // g.order, "E0*",
    )
    g_1s = quotient_edges(
        ((r10[y0], r11[y1]) for r10, r11 in zip(q10, q11) for (y0, y1) in y.edges),
        1, 3, x.v1_size * len(y.edges) // g.order, "E1*",
    )
    faces = tuple(sorted(counted(
        (
            (q00[x0][y0], q10[x1][y0], q01[x0][y1], q11[x1][y1])
            for (x0, x1) in x.edges
            for (y0, y1) in y.edges
        ),
        "face",
    )))
    wedge_to_face: dict = {}
    for (i00, i10, i01, i11) in faces:
        key = (i00, i10, i01)
        if key in wedge_to_face:
            raise VerificationError(f"wedge {key} completed by two faces")
        wedge_to_face[key] = i11
    reg_x, reg_y = check_regularity(x), check_regularity(y)

    d2 = BitMatrix(
        sizes[1] + sizes[2], sizes[0], g_s0.right_masks + g_0s.right_masks
    )
    d1 = BitMatrix(
        sizes[3],
        sizes[1] + sizes[2],
        [a | b << sizes[1] for a, b in zip(g_1s.right_masks, g_s1.right_masks)],
    )
    ok, bad = verify_chain_identity(d1, d2)
    if not ok:
        raise VerificationError(
            f"chain condition d1 d2 = 0 violated at entry {bad}"
        )
    return BalancedProductComplex(
        group=g, x=x, y=y, ax=ax, ay=ay, labelings=labelings, sizes=sizes,
        g_s0=g_s0, g_s1=g_s1, g_0s=g_0s, g_1s=g_1s, faces=faces,
        reg_x=reg_x, reg_y=reg_y,
        d2=d2, d1=d1, wedge_to_face=wedge_to_face,
    )


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
