"""Balanced products of group-symmetric bipartite graphs.

The balanced product quotients the Cartesian (hypergraph) product of two
graphs by the diagonal action of a common group that acts freely on both.
Every quotient vertex carries a canonical ``(h, r, s)`` label, and the two
boundary maps of the induced 3-term GF(2) chain complex are materialized as
bit matrices.  Every complex is checked once, where it is built: ``d1 @ d2 ==
0``, the degrees of its four subgraphs and its square identity.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from fractions import Fraction

from .errors import (
    InvalidParameterError,
    InvalidWedgeError,
    IrregularGraphError,
    MultiplicityViolationError,
    SizeLimitError,
    VerificationError,
    _index,
    _record,
)
from .f2 import BitMatrix
from .graphs import (
    BipartiteGraph,
    ExpansionCertificate,
    GraphAction,
    _check_generators,
    check_invariance,
    check_regularity,
    layered_cayley,
)
from .groups import FiniteGroup, OrbitLabeling, orbit_labeling

MAX_PRODUCT_VERTICES = 1 << 20

#: A corner-to-corner subgraph selector: one of ``"*0"``, ``"*1"``, ``"0*"``,
#: ``"1*"`` (see ``one_d_subgraph``).
SubgraphName = str


def _sides(corner: int) -> tuple[int, int]:
    """The factor sides of a corner (0:00, 1:10, 2:01, 3:11): the first
    factor's side, then the second factor's."""
    return corner & 1, corner >> 1


class BalancedProductComplex(_record("BalancedProductComplex", [
    "group",  # FiniteGroup
    "x",  # BipartiteGraph
    "y",  # BipartiteGraph
    "ax",  # GraphAction
    "ay",  # GraphAction
    "labelings",  # tuple of four OrbitLabeling, one per corner
    "sizes",  # tuple[int, int, int, int]: |V00|, |V10|, |V01|, |V11|
    "g_s0",  # BipartiteGraph: V00 - V10
    "g_s1",  # BipartiteGraph: V01 - V11
    "g_0s",  # BipartiteGraph: V00 - V01
    "g_1s",  # BipartiteGraph: V10 - V11
    "faces",  # tuple[tuple[int, int, int, int], ...]
    "reg_x",  # Regularity
    "reg_y",  # Regularity
    "d2",  # BitMatrix
    "d1",  # BitMatrix
    "wedge_to_face",  # dict
])):
    """The quotient product with labels, subgraphs, faces and boundary maps.

    Corner ``(alpha, beta)`` vertices carry labels ``(h, i_r, i_s)`` where
    ``i_r`` indexes the orbit representatives of the first factor's side
    ``alpha`` and ``i_s`` those of the second factor's side ``beta``; the
    index order is lexicographic in ``(i_r, i_s, h)``.

    The four corner-to-corner subgraphs ``g_s0`` (V00-V10), ``g_s1``
    (V01-V11), ``g_0s`` (V00-V01) and ``g_1s`` (V10-V11) are the one store of
    the incidences, the lower corner on the left.  Both boundary maps are
    built from their masks: the rows of ``d2`` are the right masks of
    ``g_s0`` and ``g_0s``, its columns their left masks; ``d1`` joins the
    right masks of ``g_1s`` and ``g_s1``, its columns their left masks.
    """

    __slots__ = ()

    # --- degree shorthands (down/up from the first factor, right/left second)
    @property
    def w_down(self) -> int:
        return self.reg_x.w0

    @property
    def w_up(self) -> int:
        return self.reg_x.w1

    @property
    def w_right(self) -> int:
        return self.reg_y.w0

    @property
    def w_left(self) -> int:
        return self.reg_y.w1

    @property
    def n00(self) -> int:
        return self.sizes[0]

    @property
    def n10(self) -> int:
        return self.sizes[1]

    @property
    def n01(self) -> int:
        return self.sizes[2]

    def label(self, corner: int, index: int) -> tuple[int, int, int]:
        """``(h, i_r, i_s)`` of a vertex; corner is 0:00, 1:10, 2:01, 3:11."""
        self._check_vertex(corner, index)
        rest, h = divmod(index, self.group.order)
        i_r, i_s = divmod(rest, self._y_labeling(corner).num_orbits)
        return (h, i_r, i_s)

    def _check_vertex(self, corner: int, index: int) -> None:
        size = self.sizes[_index(corner, 4, "corner")]
        _index(index, size, f"corner {corner} vertex")

    def _x_labeling(self, corner: int) -> OrbitLabeling:
        return self.labelings[_sides(corner)[0]]

    def _y_labeling(self, corner: int) -> OrbitLabeling:
        return self.labelings[2 + _sides(corner)[1]]

    def complete_square(self, x00: int, x10: int, x01: int) -> int:
        """The unique ``x11`` making ``(x00, x10, x01, x11)`` a face."""
        for corner, vertex in enumerate((x00, x10, x01)):
            self._check_vertex(corner, vertex)
        key = (x00, x10, x01)
        if key not in self.wedge_to_face:
            raise InvalidWedgeError(
                f"({x00}, {x10}, {x01}) is not a wedge of this complex"
            )
        return self.wedge_to_face[key]


def balanced_product(
    x: BipartiteGraph,
    y: BipartiteGraph,
    ax: GraphAction,
    ay: GraphAction,
) -> BalancedProductComplex:
    """Quotient the hypergraph product of two G-graphs by the diagonal action.

    Both actions must be free and leave their graph invariant, so each orbit
    of the diagonal action holds one pair whose first-factor vertex is labeled
    ``(identity, i)``; only those pairs are walked.  A doubled incidence, or a
    subgraph with the wrong edge count, is rejected (it would cancel in GF(2));
    then ``_check_structure`` checks the complex.
    """
    g = ax.group
    if ay.group.order != g.order or ay.group.table != g.table:
        raise InvalidParameterError("the two factors must share one group")
    if not check_invariance(x, ax.on_v0, ax.on_v1):
        raise InvalidParameterError("first factor is not invariant under its action")
    if not check_invariance(y, ay.on_v0, ay.on_v1):
        raise InvalidParameterError("second factor is not invariant under its action")

    # orbit labelings; freeness is enforced here (raises with a witness)
    labelings = tuple(map(orbit_labeling, (ax.on_v0, ax.on_v1, ay.on_v0, ay.on_v1)))
    lab_x0, lab_x1, lab_y0, lab_y1 = labelings

    n_r = (lab_x0.num_orbits, lab_x1.num_orbits)
    n_s = (lab_y0.num_orbits, lab_y1.num_orbits)
    sizes = tuple(n_r[a] * n_s[b] * g.order for a, b in map(_sides, range(4)))
    if max(sizes) > MAX_PRODUCT_VERTICES:
        raise SizeLimitError(f"quotient corner of size {max(sizes)} exceeds cap")

    table, inverse = g.table, g.inverse

    def orbit(b: int, gx: int, j: int, y_vertex: int) -> int:
        """The orbit index of ``(gx . r_j, y_vertex)``, ``y_vertex`` on side ``b``."""
        gy, i_s = labelings[2 + b].label[y_vertex]
        return (j * n_s[b] + i_s) * g.order + table[inverse[gx]][gy]

    def quotient_edges(
        pairs: Iterable[tuple[int, int]], which: SubgraphName, expected: int
    ) -> BipartiteGraph:
        _, corner_a, corner_b, _ = _SUBGRAPH_CORNERS[which]
        edges: set = set()
        for pair in pairs:
            if pair in edges:
                raise MultiplicityViolationError(f"E{which}: edge {pair} met twice")
            edges.add(pair)
        if len(edges) != expected:
            raise MultiplicityViolationError(
                f"E{which}: got {len(edges)} edge orbits, expected {expected}"
            )
        return BipartiteGraph(sizes[corner_a], sizes[corner_b], edges)

    # per side the x-vertices labeled (identity, i), and the x-edges from them
    e = g.identity
    reps = [[i for h, i in lab.label if h == e] for lab in (lab_x0, lab_x1)]
    rep_edges = [
        (lab_x0.label[x0][1], lab_x1.label[x1])
        for (x0, x1) in x.edges
        if lab_x0.label[x0][0] == e
    ]
    g_s0, g_s1 = (
        quotient_edges(
            ((orbit(b, e, i, v), orbit(b, gx, j, v))
             for i, (gx, j) in rep_edges for v in range(y_size)),
            f"*{b}", len(x.edges) * y_size // g.order,
        )
        for b, y_size in enumerate((y.v0_size, y.v1_size))
    )
    g_0s, g_1s = (
        quotient_edges(
            ((orbit(0, e, i, y0), orbit(1, e, i, y1))
             for i in reps[a] for (y0, y1) in y.edges),
            f"{a}*", x_size * len(y.edges) // g.order,
        )
        for a, x_size in enumerate((x.v0_size, x.v1_size))
    )
    wedge_to_face: dict = {}
    for i, (gx, j) in rep_edges:
        for (y0, y1) in y.edges:
            key = (orbit(0, e, i, y0), orbit(0, gx, j, y0), orbit(1, e, i, y1))
            if key in wedge_to_face:
                raise MultiplicityViolationError(f"wedge {key} completed by two faces")
            wedge_to_face[key] = orbit(1, gx, j, y1)
    faces = tuple(sorted(key + (i11,) for key, i11 in wedge_to_face.items()))

    reg_x = check_regularity(x)
    reg_y = check_regularity(y)

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
        raise MultiplicityViolationError(
            f"chain condition d1 d2 = 0 violated at entry {bad}"
        )

    bp = BalancedProductComplex(
        group=g,
        x=x,
        y=y,
        ax=ax,
        ay=ay,
        labelings=labelings,
        sizes=sizes,
        g_s0=g_s0,
        g_s1=g_s1,
        g_0s=g_0s,
        g_1s=g_1s,
        faces=faces,
        reg_x=reg_x,
        reg_y=reg_y,
        d2=d2,
        d1=d1,
        wedge_to_face=wedge_to_face,
    )
    _check_structure(bp)
    return bp


def _check_structure(bp: BalancedProductComplex) -> None:
    """``VerificationError`` unless each subgraph has its factor's degrees
    (``g_s0``, ``g_s1`` those of x, ``g_0s``, ``g_1s`` those of y), which fixes
    the weight of every row and column of ``d2`` and ``d1``, and each V10 and
    V01 vertex share as many faces as common V00 neighbours.  A c1's squares,
    counted by degrees or by faces, are sums of these numbers over its (v10,
    v01) pairs, so one pass proves the two counts equal for every c1.
    """
    for which, (name, _, _, factor) in _SUBGRAPH_CORNERS.items():
        expected = bp.reg_x if factor == "x" else bp.reg_y
        try:
            degrees = check_regularity(getattr(bp, name))
        except IrregularGraphError as exc:
            raise VerificationError(f"E{which}: {exc}") from None
        if degrees != expected:
            raise VerificationError(
                f"E{which} has degrees {tuple(degrees)}, its factor {tuple(expected)}"
            )
    shared = Counter((i10, i01) for (_, i10, i01, _) in bp.faces)
    for i10, m10 in enumerate(bp.g_s0.right_masks):
        for i01, m01 in enumerate(bp.g_0s.right_masks):
            by_degrees = (m10 & m01).bit_count()
            by_faces = shared.pop((i10, i01), 0)
            if by_degrees != by_faces:
                raise VerificationError(
                    f"square counting methods disagree at (v10 {i10}, v01 "
                    f"{i01}): {by_degrees} by degrees, {by_faces} by faces"
                )
    if shared:
        raise VerificationError(
            f"square counting methods disagree: faces at {sorted(shared)} "
            "outside V10 x V01"
        )


def complex_manifest(bp: BalancedProductComplex) -> dict:
    """Sizes, degrees and canonical labels of a complex, JSON-ready."""
    return {
        "group_order": bp.group.order,
        "group_name": bp.group.name,
        "sizes": list(bp.sizes),
        "degrees": {
            "w_down": bp.w_down,
            "w_up": bp.w_up,
            "w_right": bp.w_right,
            "w_left": bp.w_left,
        },
        "labels": {
            str(corner): [list(bp.label(corner, i)) for i in range(bp.sizes[corner])]
            for corner in range(4)
        },
        "faces": [list(f) for f in bp.faces],
    }


def verify_chain_identity(
    d1: BitMatrix, d2: BitMatrix
) -> tuple[bool, tuple[int, int] | None]:
    """Recheck ``d1 @ d2 == 0``; returns the first offending entry if any."""
    product = d1.matmul(d2)
    if product.is_zero():
        return True, None
    return False, product.nonzero_entries()[0]


def left_right_cayley(
    g: FiniteGroup, a_set: Iterable[int], b_set: Iterable[int]
) -> BalancedProductComplex:
    """Balanced product of the two right Cayley graphs on ``A^-1`` and ``B``.

    All four corners biject with ``G`` and the faces are the squares
    ``(g, ag, gb, agb)``.
    """
    x, ax = layered_cayley(g, [[g.inverse[a] for a in _check_generators(g, a_set)]])
    y, ay = layered_cayley(g, [b_set])
    return balanced_product(x, y, ax, ay)


class OneDSubgraph(_record("OneDSubgraph", [
    "graph",  # BipartiteGraph
    "factor",  # BipartiteGraph
    "num_copies",  # int
    "copy_of_left",  # tuple[int, ...]
    "copy_of_right",  # tuple[int, ...]
    "iso_left",  # tuple[int, ...]
    "iso_right",  # tuple[int, ...]
])):
    """A corner-to-corner subgraph plus its decomposition into factor copies.

    ``copy_of[v]`` gives the copy index of each left/right vertex, and
    ``iso_left`` / ``iso_right`` map subgraph vertices to vertices of the
    factor graph, restricting to a graph isomorphism on every copy.
    """

    __slots__ = ()


# selector -> (the stored subgraph, its left and right corners, the factor)
_SUBGRAPH_CORNERS: dict[str, tuple[str, int, int, str]] = {
    "*0": ("g_s0", 0, 1, "x"),
    "*1": ("g_s1", 2, 3, "x"),
    "0*": ("g_0s", 0, 2, "y"),
    "1*": ("g_1s", 1, 3, "y"),
}


def _subgraph_corners(which: SubgraphName) -> tuple[str, int, int, str]:
    if isinstance(which, str) and which in _SUBGRAPH_CORNERS:
        return _SUBGRAPH_CORNERS[which]
    raise InvalidParameterError(f"unknown subgraph selector: {which!r}")


def one_d_subgraph(bp: BalancedProductComplex, which: SubgraphName) -> OneDSubgraph:
    """One of the four corner-to-corner subgraphs with its copy witness.

    ``graph`` is the subgraph the complex stores (``bp.g_s0`` for ``"*0"``,
    and so on); the witness is computed here.  The subgraph decomposes into
    disjoint copies of the matching factor, one copy per orbit of the other
    factor's paired side.
    """
    name, ca, cb, factor_kind = _subgraph_corners(which)
    graph = getattr(bp, name)
    g = bp.group

    # a labeling's action is the factor's action on the corner's side
    if factor_kind == "x":
        factor = bp.x

        # copies are labeled by i_s; (h, r) maps to the factor vertex h^-1 . r
        def project(corner: int, index: int) -> tuple[int, int]:
            h, i_r, i_s = bp.label(corner, index)
            lab = bp._x_labeling(corner)
            return i_s, lab.action.table[g.inverse[h]][lab.representatives[i_r]]

    else:
        factor = bp.y

        # copies are labeled by i_r; (h, s) maps to the factor vertex h . s
        def project(corner: int, index: int) -> tuple[int, int]:
            h, i_r, i_s = bp.label(corner, index)
            lab = bp._y_labeling(corner)
            return i_r, lab.action.table[h][lab.representatives[i_s]]

    copy_left, iso_left = zip(*(project(ca, i) for i in range(bp.sizes[ca])))
    copy_right, iso_right = zip(*(project(cb, i) for i in range(bp.sizes[cb])))
    num_copies = len(set(copy_left) | set(copy_right))

    return OneDSubgraph(
        graph=graph,
        factor=factor,
        num_copies=num_copies,
        copy_of_left=copy_left,
        copy_of_right=copy_right,
        iso_left=iso_left,
        iso_right=iso_right,
    )


def verify_copy_decomposition(sub: OneDSubgraph) -> bool:
    """Check the copy witness as two bijections: each side's ``(copy, factor
    vertex)`` pairs are the copies times the factor's side, each once; and
    the edges map onto the copies times the factor's edges, inside one copy
    (one to one, as the vertex maps are).  Each map must have one entry per
    vertex of its side of the graph."""
    g = sub.graph
    lengths = map(len, (sub.copy_of_left, sub.iso_left, sub.copy_of_right, sub.iso_right))
    if tuple(lengths) != (g.v0_size, g.v0_size, g.v1_size, g.v1_size):
        return False
    copies = range(sub.num_copies)
    left = list(zip(sub.copy_of_left, sub.iso_left))
    right = list(zip(sub.copy_of_right, sub.iso_right))
    for pairs, size in ((left, sub.factor.v0_size), (right, sub.factor.v1_size)):
        if len(pairs) != len(copies) * size or set(pairs) != {
            (c, v) for c in copies for v in range(size)
        }:
            return False
    return {(left[u], right[v]) for u, v in g.edges} == {
        ((c, a), (c, b)) for c in copies for a, b in sub.factor.edges
    }


def inherited_expansion(
    bp: BalancedProductComplex,
    factor_cert: ExpansionCertificate,
    which: SubgraphName,
) -> ExpansionCertificate:
    """Certificate for a 1-d subgraph inherited from its factor's certificate.

    The cutoff scales by |factor left side| / |subgraph left side| and epsilon
    carries over unchanged.
    """
    _, ca, _, factor_kind = _subgraph_corners(which)
    factor = bp.x if factor_kind == "x" else bp.y
    scale = Fraction(factor.v0_size, bp.sizes[ca])
    return ExpansionCertificate(
        c=factor_cert.c * scale,
        epsilon=factor_cert.epsilon,
        w0=factor_cert.w0,
        max_checked_size=factor_cert.max_checked_size,
        worst_witness=None,
    )
