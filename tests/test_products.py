"""Tests for hypergraph/balanced products, square completion, subgraphs."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import products_reference
from expander_ltc import products
from expander_ltc.errors import (
    FreenessViolationError,
    InvalidParameterError,
    InvalidWedgeError,
    MultiplicityViolationError,
    VerificationError,
)
from expander_ltc.f2 import BitMatrix
from expander_ltc.graphs import (
    BipartiteGraph,
    Regularity,
    certify_expansion,
    layered_cayley,
)
from expander_ltc.groups import group_from_spec, make_cyclic, make_direct_product
from expander_ltc.products import (
    GraphAction,
    balanced_product,
    complex_manifest,
    inherited_expansion,
    left_right_cayley,
    one_d_subgraph,
    verify_chain_identity,
    verify_copy_decomposition,
)
from products_reference import (
    hypergraph_product,
    reference_balanced_product,
    reference_boundaries,
    s3,
)
from search_reference import draw_layered
from symmetry_reference import trivial_action


def _layered_z5(seed):
    rng = random.Random(seed)
    g = make_cyclic(5)
    x, ax, _ = draw_layered(g, 3, 2, rng)
    y, ay, _ = draw_layered(g, 3, 2, rng)
    return balanced_product(x, y, ax, ay)


_Z2XZ4 = {"kind": "product", "factors": [
    {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 4}]}

BOUNDARY_INSTANCES = {
    "Z5": lambda: left_right_cayley(make_cyclic(5), [1, 2], [1, 3]),
    "Z12": lambda: left_right_cayley(make_cyclic(12), [1, 2], [1, 3]),
    "Z20": lambda: left_right_cayley(make_cyclic(20), [1, 2, 5], [1, 3, 7]),
    "Z2xZ4": lambda: left_right_cayley(group_from_spec(_Z2XZ4), [1, 2], [1, 3]),
    "S3": lambda: left_right_cayley(s3(), [1, 2], [1, 3]),
    "S3-3-cycles": lambda: left_right_cayley(s3(), [1, 2], [3, 4]),
    **{f"Z5-layered-{seed}": (lambda seed=seed: _layered_z5(seed))
       for seed in range(4)},
}


class TestHypergraphProduct:
    def test_minimal_product(self):
        x = BipartiteGraph(1, 1, [(0, 0)])
        hp = hypergraph_product(x, x)
        assert (hp.v00, hp.v10, hp.v01, hp.v11) == (1, 1, 1, 1)
        assert len(hp.e_s0) + len(hp.e_s1) + len(hp.e_0s) + len(hp.e_1s) == 4
        assert len(hp.faces) == 1

    def test_face_count_multiplies(self):
        x = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        y = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 1)])
        hp = hypergraph_product(x, y)
        assert len(hp.faces) == len(x.edges) * len(y.edges) == 6

    def test_k22_face_audit(self):
        k22 = BipartiteGraph(2, 2, [(i, j) for i in range(2) for j in range(2)])
        hp = hypergraph_product(k22, k22)
        assert len(hp.faces) == 16
        for (i00, i10, i01, i11) in hp.faces:
            assert (i00, i10) in hp.e_s0
            assert (i01, i11) in hp.e_s1
            assert (i00, i01) in hp.e_0s
            assert (i10, i11) in hp.e_1s


class TestBalancedProduct:
    def test_z5_faces_match_translation_formula(self):
        bp = left_right_cayley(make_cyclic(5), [1], [2])
        assert bp.sizes == (5, 5, 5, 5)
        assert set(bp.faces) == {
            (g, (g + 1) % 5, (g + 2) % 5, (g + 3) % 5) for g in range(5)
        }

    @pytest.mark.parametrize("a_set", [[-1], [9], []])
    def test_a_set_checked_before_inversion(self, a_set):
        with pytest.raises(InvalidParameterError):
            left_right_cayley(make_cyclic(7), a_set, [1, 3])

    @pytest.mark.parametrize("g, a_set, b_set", [
        (make_cyclic(5), [1, 2], [1, 3]),
        (make_cyclic(12), [1, 2, 5], [1, 3, 7]),
        (group_from_spec(_Z2XZ4), [1, 2], [1, 3]),
        (s3(), [1, 2], [1, 3]),
        (s3(), [1, 2], [3, 4]),
    ], ids=["Z5", "Z12", "Z2xZ4", "S3", "S3-3-cycles"])
    def test_is_the_product_of_two_one_layer_builds(self, g, a_set, b_set):
        x, ax = layered_cayley(g, [[g.inv(a) for a in a_set]])
        y, ay = layered_cayley(g, [b_set])
        assert left_right_cayley(g, a_set, b_set) == balanced_product(x, y, ax, ay)

    def test_edge_sets_match_direct_formulas(self):
        g = make_cyclic(5)
        bp = left_right_cayley(g, [1, 2], [1, 3])
        n = g.order
        assert bp.g_s0.edges == frozenset(
            (h, (a + h) % n) for h in range(n) for a in (1, 2)
        )
        assert bp.g_0s.edges == frozenset(
            (h, (h + b) % n) for h in range(n) for b in (1, 3)
        )
        assert bp.g_s1.edges == frozenset(
            (h, (a + h) % n) for h in range(n) for a in (1, 2)
        )
        assert bp.g_1s.edges == frozenset(
            (h, (h + b) % n) for h in range(n) for b in (1, 3)
        )

    def test_trivial_group_equals_hypergraph_product(self):
        g = make_cyclic(1)
        x = BipartiteGraph(2, 2, [(i, j) for i in range(2) for j in range(2)])
        y = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        act = GraphAction(trivial_action(g, 2), trivial_action(g, 2))
        bp = balanced_product(x, y, act, act)
        hp = hypergraph_product(x, y)
        assert bp.sizes == (hp.v00, hp.v10, hp.v01, hp.v11)
        assert bp.g_s0.edges == hp.e_s0
        assert bp.g_s1.edges == hp.e_s1
        assert bp.g_0s.edges == hp.e_0s
        assert bp.g_1s.edges == hp.e_1s
        assert bp.faces == hp.faces

    def test_non_free_action_rejected(self):
        g = make_cyclic(3)
        x = BipartiteGraph(3, 3, [(i, i) for i in range(3)])
        bad = GraphAction(trivial_action(g, 3), trivial_action(g, 3))
        with pytest.raises(FreenessViolationError):
            balanced_product(x, x, bad, bad)

    def test_mismatched_groups_rejected(self):
        x5, a5 = layered_cayley(make_cyclic(5), [[1]])
        x7, a7 = layered_cayley(make_cyclic(7), [[1]])
        with pytest.raises(InvalidParameterError):
            balanced_product(x5, x7, a5, a7)

    def test_corner_size_ratio(self):
        # skewed degrees: (w_down, w_up) = (2, 4), (w_right, w_left) = (1, 2)
        rng = random.Random(11)
        g = make_cyclic(7)
        x, ax, _ = draw_layered(g, 2, 2, rng)
        y, ay, _ = draw_layered(g, 2, 1, rng)
        bp = balanced_product(x, y, ax, ay)
        wu, wd, wr, wl = bp.w_up, bp.w_down, bp.w_right, bp.w_left
        target = (wu * wl, wd * wl, wu * wr, wd * wr)
        for i in range(4):
            for j in range(4):
                assert bp.sizes[i] * target[j] == bp.sizes[j] * target[i]

    @pytest.mark.parametrize("name", sorted(BOUNDARY_INSTANCES))
    def test_boundaries_match_entrywise_reference(self, name):
        bp = BOUNDARY_INSTANCES[name]()
        assert (bp.d1, bp.d2) == reference_boundaries(bp)

    def test_chain_identity_holds(self):
        bp = left_right_cayley(make_cyclic(6), [1, 2], [1, 5])
        ok, witness = verify_chain_identity(bp.d1, bp.d2)
        assert ok and witness is None

    def test_chain_identity_fault_injection(self):
        bp = left_right_cayley(make_cyclic(6), [1, 2], [1, 5])
        d1 = BitMatrix(bp.d1.rows, bp.d1.cols, bp.d1.row_bits)  # a copy
        d1.row_bits[0] ^= 1  # flip entry (0, 0)
        ok, witness = verify_chain_identity(d1, bp.d2)
        assert not ok
        assert witness is not None
        i, j = witness
        assert d1.matmul(bp.d2).row_bits[i] >> j & 1 == 1

    @pytest.mark.parametrize("which", ["*0", "*1", "0*", "1*"])
    def test_subgraph_degree_fault_injection(self, which):
        # one edge of the subgraph moved onto another left vertex
        bp = left_right_cayley(make_cyclic(6), [1, 2], [1, 5])
        name = products._SUBGRAPH_CORNERS[which][0]
        graph = getattr(bp, name)
        (u, v), *rest = sorted(graph.edges)
        w = next(w for w in range(graph.v0_size) if (w, v) not in graph.edges)
        moved = BipartiteGraph(graph.v0_size, graph.v1_size, {(w, v), *rest})
        with pytest.raises(VerificationError, match=re.escape(f"E{which}: left vertex")):
            products._check_structure(bp._replace(**{name: moved}))

    def test_subgraph_degrees_must_be_the_factors(self):
        bp = left_right_cayley(make_cyclic(6), [1, 2], [1, 5])
        products._check_structure(bp)
        message = "E*0 has degrees (2, 2), its factor (3, 3)"
        with pytest.raises(VerificationError, match=re.escape(message)):
            products._check_structure(bp._replace(reg_x=Regularity(3, 3)))

    def test_wrong_orbit_label_rejected(self, monkeypatch):
        # left vertex 0 of the first factor takes vertex 1's label, so no
        # vertex carries the representative's label (identity, 0)
        real_labeling = products.orbit_labeling
        labelings = []

        def mislabel(action):
            lab = real_labeling(action)
            if not labelings:
                label = list(lab.label)
                label[0] = label[1]
                lab = lab._replace(label=tuple(label))
            labelings.append(lab)
            return lab

        monkeypatch.setattr(products, "orbit_labeling", mislabel)
        with pytest.raises(
            MultiplicityViolationError, match="E\\*0: got 0 edge orbits, expected 16"
        ):
            left_right_cayley(make_cyclic(8), [1, 2], [1, 3])
        assert len(labelings) == 4


def _assert_same_complex(bp, ref):
    for field in bp._fields:
        assert getattr(bp, field) == getattr(ref, field), field


def _mislabeling(real_labeling, side):
    """``orbit_labeling`` whose ``side``-th call gives vertex 0 vertex 1's label."""
    calls = []

    def mislabel(action):
        lab = real_labeling(action)
        if len(calls) == side:
            label = list(lab.label)
            label[0] = label[1]
            lab = lab._replace(label=tuple(label))
        calls.append(lab)
        return lab

    return mislabel


_Z2XZ3 = {"kind": "product", "factors": [
    {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}]}
ORACLE_INSTANCES = {
    **{f"Z{n}": (lambda n=n: left_right_cayley(make_cyclic(n), [1, 2], [1, 3]))
       for n in (6, 8, 12, 16, 24)},
    "Z2xZ3": lambda: left_right_cayley(group_from_spec(_Z2XZ3), [1, 2], [1, 3]),
    **BOUNDARY_INSTANCES,
}

ORACLE_GROUPS = {
    "Z2": lambda: make_cyclic(2),
    "Z3": lambda: make_cyclic(3),
    "Z5": lambda: make_cyclic(5),
    "Z6": lambda: make_cyclic(6),
    "Z2xZ2": lambda: make_direct_product(make_cyclic(2), make_cyclic(2)),
    "Z2xZ3": lambda: group_from_spec(_Z2XZ3),
    "S3": s3,
}


def _flipped(graph, action):
    """The same graph with its two sides swapped."""
    edges = [(v, u) for u, v in graph.edges]
    return (
        BipartiteGraph(graph.v1_size, graph.v0_size, edges),
        GraphAction(action.on_v1, action.on_v0),
    )


@st.composite
def layered_factors(draw):
    """Two layered factors (1-3 layers of degree 1-3), each with its sides
    swapped or not, so that either side of either factor may hold several
    orbits."""
    g = ORACLE_GROUPS[draw(st.sampled_from(sorted(ORACLE_GROUPS)))]()
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    factors = []
    for _ in range(2):
        graph, action, _ = draw_layered(
            g, draw(st.integers(1, 3)), draw(st.integers(1, min(3, g.order))), rng
        )
        factors.append(_flipped(graph, action) if draw(st.booleans()) else (graph, action))
    (x, ax), (y, ay) = factors
    return x, y, ax, ay


class TestOnePairPerOrbit:
    """``balanced_product`` walks one pair per orbit; the reference walks all
    |G| of them and counts each quotient cell."""

    @pytest.mark.parametrize("name", sorted(ORACLE_INSTANCES))
    def test_matches_the_oracle(self, name):
        bp = ORACLE_INSTANCES[name]()
        _assert_same_complex(bp, reference_balanced_product(bp.x, bp.y, bp.ax, bp.ay))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(layered_factors())
    def test_matches_the_oracle_on_layered_draws(self, factors):
        _assert_same_complex(
            balanced_product(*factors), reference_balanced_product(*factors)
        )

    @pytest.mark.parametrize("side", range(4))
    def test_a_repeated_label_on_any_side_is_rejected(self, monkeypatch, side):
        bp = left_right_cayley(make_cyclic(8), [1, 2], [1, 3])
        for module, build in (
            (products, balanced_product),
            (products_reference, reference_balanced_product),
        ):
            mislabel = _mislabeling(module.orbit_labeling, side)
            monkeypatch.setattr(module, "orbit_labeling", mislabel)
            with pytest.raises(MultiplicityViolationError):
                build(bp.x, bp.y, bp.ax, bp.ay)


class TestLabels:
    def test_corners_biject_with_group(self):
        bp = left_right_cayley(make_cyclic(9), [1, 4], [2])
        assert bp.sizes == (9, 9, 9, 9)
        for corner in range(4):
            labels = {bp.label(corner, i) for i in range(9)}
            assert labels == {(h, 0, 0) for h in range(9)}

    def test_label_round_trip(self):
        rng = random.Random(2)
        g = make_cyclic(5)
        x, ax, _ = draw_layered(g, 2, 1, rng)
        y, ay, _ = draw_layered(g, 3, 1, rng)
        bp = balanced_product(x, y, ax, ay)
        for corner in range(4):
            ns = bp._y_labeling(corner).num_orbits
            for i in range(bp.sizes[corner]):
                h, r, s = bp.label(corner, i)
                assert (r * ns + s) * g.order + h == i  # (i_r, i_s, h) order


class TestCompleteSquare:
    def test_z7_wedge(self):
        bp = left_right_cayley(make_cyclic(7), [1], [2])
        assert bp.complete_square(0, 1, 2) == 3
        assert (0, 1, 2, 3) in bp.faces

    def test_every_wedge_has_unique_face(self):
        bp = left_right_cayley(make_cyclic(8), [1, 2], [1, 3])
        wedges = {}
        for (i00, i10, i01, i11) in bp.faces:
            key = (i00, i10, i01)
            assert key not in wedges
            wedges[key] = i11
        # every (down-edge, right-edge) pair at a shared corner is a wedge
        for (i00, i10) in bp.g_s0.edges:
            for (j00, i01) in bp.g_0s.edges:
                if i00 == j00:
                    assert bp.complete_square(i00, i10, i01) == wedges[(i00, i10, i01)]

    def test_mirrored_completion_is_inverse(self):
        bp = left_right_cayley(make_cyclic(8), [1, 2], [1, 3])
        upper = {}
        for (i00, i10, i01, i11) in bp.faces:
            key = (i10, i01, i11)
            assert key not in upper  # the upper wedge also determines the face
            upper[key] = i00
        for (i00, i10, i01, i11) in bp.faces:
            assert upper[(i10, i01, i11)] == i00

    def test_label_formula(self):
        # completing (h00,r0,s0), (h10,r1,s0), (h01,r0,s1) yields the vertex
        # labeled (h10 * h00^-1 * h01, r1, s1)
        rng = random.Random(4)
        g = make_cyclic(6)
        x, ax, _ = draw_layered(g, 2, 1, rng)
        y, ay, _ = draw_layered(g, 2, 1, rng)
        bp = balanced_product(x, y, ax, ay)
        for (i00, i10, i01, i11) in bp.faces:
            h00, _, _ = bp.label(0, i00)
            h10, r1, _ = bp.label(1, i10)
            h01, _, s1 = bp.label(2, i01)
            expected = g.mul(h10, g.mul(g.inv(h00), h01))
            assert bp.label(3, i11) == (expected, r1, s1)

    def test_invalid_wedge_rejected(self):
        bp = left_right_cayley(make_cyclic(7), [1], [2])
        with pytest.raises(InvalidWedgeError):
            bp.complete_square(0, 0, 0)


class TestOneDSubgraph:
    def test_single_copy_case(self):
        bp = left_right_cayley(make_cyclic(5), [1, 2], [1])
        sub = one_d_subgraph(bp, "*0")
        assert sub.num_copies == 1
        assert verify_copy_decomposition(sub)

    def test_multi_orbit_copies(self):
        # X with two left orbits: the right-facing subgraph splits in two
        rng = random.Random(8)
        g = make_cyclic(5)
        x, ax, _ = draw_layered(g, 2, 1, rng)
        y, ay = layered_cayley(g, [[1, 2]])
        bp = balanced_product(x, y, ax, ay)
        sub = one_d_subgraph(bp, "0*")
        assert sub.num_copies == 2
        assert verify_copy_decomposition(sub)

    def test_all_four_subgraphs_decompose(self):
        rng = random.Random(13)
        g = make_cyclic(6)
        x, ax, _ = draw_layered(g, 2, 2, rng)
        y, ay, _ = draw_layered(g, 3, 1, rng)
        bp = balanced_product(x, y, ax, ay)
        for which in ("*0", "*1", "0*", "1*"):
            sub = one_d_subgraph(bp, which)
            assert verify_copy_decomposition(sub)

    @staticmethod
    def _tampered(sub):
        """Broken copies of a valid witness with two copies, one per fault."""
        right = sub.copy_of_right
        # the right vertices in the copy of left vertex 0
        same = [v for v in range(len(right)) if right[v] == sub.copy_of_left[0]]
        v, w = same[:2]
        # an edge of vertex 0 moved to a vertex of its copy that it does not
        # meet in the factor
        far = next(x for x in same
                   if (sub.iso_left[0], sub.iso_right[x]) not in sub.factor.edges)
        first = min(e for e in sub.graph.edges if e[0] == 0)
        moved = (sub.graph.edges - {first}) | {(0, far)}
        dropped = sorted(sub.graph.edges)[1:]
        # a new left vertex n with the copy, image and edges of vertex 0
        n = sub.graph.v0_size
        twin_edges = sub.graph.edges | {(n, b) for a, b in sub.graph.edges if a == 0}

        def graph(edges, v0_size=n, v1_size=sub.graph.v1_size):
            return BipartiteGraph(v0_size, v1_size, edges)

        return {
            "vertex-in-another-copy": sub._replace(
                copy_of_right=(*right[:v], 1 - right[v], *right[v + 1:])),
            "two-vertices-one-image": sub._replace(
                iso_right=tuple(sub.iso_right[w] if i == v else im
                                for i, im in enumerate(sub.iso_right))),
            "edge-dropped": sub._replace(graph=graph(dropped)),
            "one-more-copy": sub._replace(num_copies=sub.num_copies + 1),
            "edge-onto-a-non-edge": sub._replace(graph=graph(moved)),
            "left-vertex-twinned": sub._replace(
                graph=graph(twin_edges, n + 1),
                copy_of_left=(*sub.copy_of_left, sub.copy_of_left[0]),
                iso_left=(*sub.iso_left, sub.iso_left[0])),
            # one isolated vertex more on each side, which no map covers
            "isolated-vertices-added": sub._replace(
                graph=graph(sub.graph.edges, n + 1, sub.graph.v1_size + 1)),
            # the maps stop short of the endpoint of a new edge
            "maps-short-of-an-edge": sub._replace(
                graph=graph(twin_edges, n + 1)),
        }

    @pytest.mark.parametrize("fault", [
        "vertex-in-another-copy", "two-vertices-one-image", "edge-dropped",
        "one-more-copy", "edge-onto-a-non-edge", "left-vertex-twinned",
        "isolated-vertices-added", "maps-short-of-an-edge",
    ])
    def test_tampered_witness_rejected(self, fault):
        rng = random.Random(8)
        g = make_cyclic(5)
        x, ax, _ = draw_layered(g, 2, 1, rng)
        y, ay = layered_cayley(g, [[1, 2]])
        sub = one_d_subgraph(balanced_product(x, y, ax, ay), "0*")
        assert sub.num_copies == 2 and verify_copy_decomposition(sub)
        assert not verify_copy_decomposition(self._tampered(sub)[fault])

    def test_subgraph_degrees_match_factor(self):
        bp = left_right_cayley(make_cyclic(7), [1, 3], [2])
        sub = one_d_subgraph(bp, "*0")
        assert sub.graph.left_degree(0) == sub.factor.left_degree(0)
        assert sub.graph.right_degree(0) == sub.factor.right_degree(0)

    def test_unknown_selector(self):
        bp = left_right_cayley(make_cyclic(5), [1], [2])
        with pytest.raises(InvalidParameterError):
            one_d_subgraph(bp, "xx")


class TestInheritedExpansion:
    def test_single_copy_matches_direct(self):
        bp = left_right_cayley(make_cyclic(9), [1, 2], [1, 4])
        cert = certify_expansion(bp.x, Fraction(1, 3))
        inherited = inherited_expansion(bp, cert, "*0")
        sub = one_d_subgraph(bp, "*0")
        direct = certify_expansion(sub.graph, inherited.c)
        assert inherited.epsilon == direct.epsilon
        assert inherited.c == cert.c  # single copy: no rescaling

    def test_multi_copy_scaling_and_epsilon(self):
        rng = random.Random(21)
        g = make_cyclic(5)
        x, ax, _ = draw_layered(g, 2, 1, rng)
        y, ay = layered_cayley(g, [[1, 2]])
        bp = balanced_product(x, y, ax, ay)
        cert = certify_expansion(y, Fraction(2, 5))
        inherited = inherited_expansion(bp, cert, "0*")
        # the 0* subgraph has 2 copies: cutoff shrinks by |V_Y0| / |V00|
        assert inherited.c == cert.c * Fraction(y.v0_size, bp.n00)
        direct = certify_expansion(one_d_subgraph(bp, "0*").graph, inherited.c)
        assert inherited.epsilon == direct.epsilon

    @pytest.mark.parametrize("which", ["2*", "xx", "", "*"])
    def test_unknown_selector(self, which):
        bp = left_right_cayley(make_cyclic(6), [1, 2], [1, 3])
        cert = certify_expansion(bp.x, Fraction(1, 2))
        with pytest.raises(InvalidParameterError, match="unknown subgraph selector"):
            inherited_expansion(bp, cert, which)


class TestManifest:
    def test_manifest_shape(self):
        bp = left_right_cayley(make_cyclic(5), [1], [2])
        m = complex_manifest(bp)
        assert m["sizes"] == [5, 5, 5, 5]
        assert m["degrees"]["w_down"] == 1
        assert len(m["labels"]["0"]) == 5
        assert len(m["faces"]) == len(bp.faces)
