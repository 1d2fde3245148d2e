"""Tests for bipartite graphs, Cayley constructions, and expansion bounds."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expander_ltc import graphs
from expander_ltc.errors import (
    BudgetExceededError,
    InvalidParameterError,
    IrregularGraphError,
    PreconditionViolationError,
    VerificationError,
)
from expander_ltc.graphs import (
    BipartiteGraph,
    ExpansionCertificate,
    GraphAction,
    certify_expansion,
    check_invariance,
    check_regularity,
    check_unique_neighbor_lemma,
    graph_from_edge_list,
    graph_to_edge_list,
    layered_cayley,
)
from expander_ltc.groups import (
    GroupAction,
    left_regular_action,
    make_cyclic,
    make_direct_product,
    orbit_labeling,
    right_regular_action_as_left,
)
from expander_ltc.search import _least_translate

import lemma_checks
from lemma_checks import DegreeSplit, check_edge_count_lemma, degree_split, majorizes
from products_reference import s3
from search_reference import draw_layered
from subset_reference import (
    reference_certificate,
    reference_unique_lemma,
    unique_neighbors,
)
from symmetry_reference import cayley_left, trivial_action


def k33():
    return BipartiteGraph(3, 3, [(i, j) for i in range(3) for j in range(3)])


class TestCayley:
    def test_single_generator_matching(self):
        x = cayley_left(make_cyclic(5), [1])
        assert len(x.edges) == 5
        assert check_regularity(x) == check_regularity(x)
        assert all(x.left_degree(u) == 1 for u in range(5))

    def test_degree_equals_generator_count(self):
        x = cayley_left(make_cyclic(5), [1, 2])
        reg = check_regularity(x)
        assert (reg.w0, reg.w1) == (2, 2)
        assert len(x.edges) == 10

    def test_right_invariance_of_left_cayley(self):
        g = make_cyclic(7)
        x = cayley_left(g, [1, 2, 4])
        assert check_invariance(
            x, right_regular_action_as_left(g), right_regular_action_as_left(g)
        )

    def test_abelian_left_cayley_also_left_invariant(self):
        # translations commute in an abelian group, so even the "wrong"
        # action leaves the graph invariant here
        g = make_cyclic(5)
        x = cayley_left(g, [1, 2])
        assert check_invariance(x, left_regular_action(g), left_regular_action(g))

    def test_left_invariance_of_right_cayley(self):
        g = make_cyclic(6)
        x = layered_cayley(g, [[1, 3]])[0]
        assert check_invariance(x, left_regular_action(g), left_regular_action(g))

    def test_identity_generator_matching(self):
        x = layered_cayley(make_cyclic(5), [[0]])[0]
        assert x.edges == frozenset((i, i) for i in range(5))

    def test_abelian_left_right_agree(self):
        g = make_cyclic(6)
        assert layered_cayley(g, [[1, 3]])[0].edges == cayley_left(g, [1, 3]).edges

    def test_empty_generating_set_rejected(self):
        with pytest.raises(InvalidParameterError):
            cayley_left(make_cyclic(5), [])

    def test_duplicate_generators_rejected(self):
        with pytest.raises(InvalidParameterError):
            layered_cayley(make_cyclic(5), [[1, 1]])


# Z_n, and S3 x Z2, where x*b and b*x differ
BUILDER_GROUPS = {
    "Z5": make_cyclic(5),
    "Z8": make_cyclic(8),
    "S3xZ2": make_direct_product(s3(), make_cyclic(2)),
}


class TestLayeredCayley:
    """``layered_cayley`` against edges and action tables written out here."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(BUILDER_GROUPS))
    def test_edges_and_action_match_a_direct_build(self, name, layers):
        g = BUILDER_GROUPS[name]
        n = g.order
        rng = random.Random(n * 10 + layers)
        gen_sets = [rng.sample(range(n), rng.randint(1, 3)) for _ in range(layers)]
        x, action = layered_cayley(g, gen_sets)
        # copy i of G on the left, one G on the right, x -- x*b for b in S_i
        assert (x.v0_size, x.v1_size) == (layers * n, n)
        assert x.edges == {
            (i * n + u, g.mul(u, b))
            for i, gens in enumerate(gen_sets)
            for u in range(n)
            for b in gens
        }
        # h sends u in copy i to h*u in copy i, and v on the right to h*v
        assert action.on_v0.table == tuple(
            tuple(i * n + g.mul(h, u) for i in range(layers) for u in range(n))
            for h in range(n)
        )
        assert action.on_v1.table == tuple(
            tuple(g.mul(h, v) for v in range(n)) for h in range(n)
        )
        assert action.group is g and action.on_v1.group is g
        assert check_invariance(x, action.on_v0, action.on_v1)
        assert orbit_labeling(action.on_v0).num_orbits == layers  # free


class TestRegularity:
    def test_k33(self):
        reg = check_regularity(k33())
        assert (reg.w0, reg.w1) == (3, 3)

    def test_irregular_path(self):
        x = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 1)])
        with pytest.raises(IrregularGraphError):
            check_regularity(x)

    def test_cayley_z7(self):
        reg = check_regularity(cayley_left(make_cyclic(7), [1, 2, 4]))
        assert (reg.w0, reg.w1) == (3, 3)


class TestInvariance:
    def test_trivial_action_always_invariant(self):
        g = make_cyclic(1)
        x = k33()
        assert check_invariance(x, trivial_action(g, 3), trivial_action(g, 3))

    def test_size_mismatch_rejected(self):
        g = make_cyclic(3)
        with pytest.raises(InvalidParameterError):
            check_invariance(k33(), left_regular_action(g), trivial_action(g, 5))

    def test_noninvariant_detected(self):
        g = make_cyclic(3)
        x = BipartiteGraph(3, 3, [(0, 0)])
        assert not check_invariance(x, left_regular_action(g), left_regular_action(g))


class TestUniqueNeighbors:
    def test_singleton_full_neighborhood(self):
        x = cayley_left(make_cyclic(7), [1, 2, 4])
        assert unique_neighbors(x, [0]) == frozenset(x.left_neighbors(0))

    def test_k22_two_vertices_empty(self):
        x = BipartiteGraph(2, 2, [(i, j) for i in range(2) for j in range(2)])
        assert unique_neighbors(x, [0, 1]) == frozenset()

    def test_matches_degree_census(self):
        x = cayley_left(make_cyclic(7), [1, 2, 4])
        v0 = [0, 1]
        census = {}
        for u in v0:
            for w in x.left_neighbors(u):
                census[w] = census.get(w, 0) + 1
        assert unique_neighbors(x, v0) == frozenset(
            w for w, c in census.items() if c == 1
        )


class TestCertifyExpansion:
    def test_perfect_matching_eps_zero(self):
        x = cayley_left(make_cyclic(8), [1])
        cert = certify_expansion(x, Fraction(1))
        assert cert.epsilon == 0
        assert cert.mode == "exhaustive"

    def test_k33_pairs_eps_half(self):
        cert = certify_expansion(k33(), Fraction(1))
        # pairs see 3 neighbors out of 2*3 possible: ratio 3/2, eps = 1/2
        assert cert.epsilon == Fraction(1, 2)

    def test_z11_exhaustive(self):
        x = cayley_left(make_cyclic(11), [1, 2, 5])
        cert = certify_expansion(x, Fraction(3, 11))
        assert cert.max_checked_size == 2
        # independent oracle: worst pairwise neighborhood union
        worst = min(
            (x.left_masks[a] | x.left_masks[b]).bit_count()
            for a, b in itertools.combinations(range(11), 2)
        )
        assert cert.epsilon == 1 - Fraction(worst, 2 * 3)

    def test_witness_reproduces_ratio(self):
        x = cayley_left(make_cyclic(11), [1, 2, 5])
        cert = certify_expansion(x, Fraction(3, 11))
        subset, ratio = cert.worst_witness
        union = 0
        for u in subset:
            union |= x.left_masks[u]
        assert Fraction(union.bit_count(), len(subset)) == ratio
        assert 1 - ratio / cert.w0 == cert.epsilon

    def test_monotone_in_c(self):
        x = cayley_left(make_cyclic(10), [1, 2, 5])
        eps = [
            certify_expansion(x, c).epsilon
            for c in (Fraction(2, 10), Fraction(3, 10), Fraction(5, 10))
        ]
        assert eps == sorted(eps)

    def test_budget_exceeded(self):
        x = cayley_left(make_cyclic(30), [1, 2, 3])
        with pytest.raises(BudgetExceededError):
            certify_expansion(x, Fraction(1, 2), max_evals=100)

    def test_invalid_c_rejected(self):
        with pytest.raises(InvalidParameterError):
            certify_expansion(k33(), Fraction(3, 2))


class TestUniqueNeighborLemma:
    def test_singletons_trivially_satisfy(self):
        x = cayley_left(make_cyclic(7), [1, 2, 4])
        cert = certify_expansion(x, Fraction(2, 7))
        ok, _ = check_unique_neighbor_lemma(x, cert)
        assert ok

    def test_matching_equality_case(self):
        x = cayley_left(make_cyclic(6), [1])
        cert = certify_expansion(x, Fraction(1))
        assert cert.epsilon == 0
        ok, worst = check_unique_neighbor_lemma(x, cert)
        assert ok
        subset, uniq = worst
        assert uniq == len(subset)  # w0 = 1, eps = 0: equality

    def test_certified_expander_passes(self):
        x = cayley_left(make_cyclic(11), [1, 2, 5])
        cert = certify_expansion(x, Fraction(3, 11))
        ok, _ = check_unique_neighbor_lemma(x, cert)
        assert ok

    def test_certificate_of_smaller_group_rejected(self):
        # same left degree, but the Z12 certificate covers sizes up to 5 and
        # c = 1/2 on Z4 covers only size 1
        x12, _ = layered_cayley(make_cyclic(12), [[1, 2]])
        cert = certify_expansion(x12, Fraction(1, 2))
        assert cert.max_checked_size == 5
        x4, _ = layered_cayley(make_cyclic(4), [[1, 2]])
        with pytest.raises(InvalidParameterError, match="sizes up to 5"):
            check_unique_neighbor_lemma(x4, cert)

    def test_certificate_of_other_degree_rejected(self):
        g = make_cyclic(12)
        cert = certify_expansion(layered_cayley(g, [[1, 2]])[0], Fraction(1, 2))
        with pytest.raises(InvalidParameterError, match="left degree 2, the graph 3"):
            check_unique_neighbor_lemma(layered_cayley(g, [[1, 2, 5]])[0], cert)


class TestEdgeCountLemma:
    def test_empty_v1(self):
        x = cayley_left(make_cyclic(11), [1, 2, 5])
        cert = certify_expansion(x, Fraction(3, 11))
        assert check_edge_count_lemma(x, cert, [0, 1], [])

    def test_full_v1(self):
        x = cayley_left(make_cyclic(11), [1, 2, 5])
        cert = certify_expansion(x, Fraction(3, 11))
        assert check_edge_count_lemma(x, cert, [0, 1], range(11))

    def test_random_small_pairs(self):
        rng = random.Random(0)
        x = cayley_left(make_cyclic(11), [1, 2, 5])
        cert = certify_expansion(x, Fraction(3, 11))
        for _ in range(50):
            v0 = rng.sample(range(11), 2)
            v1 = rng.sample(range(11), rng.randint(0, 6))
            assert check_edge_count_lemma(x, cert, v0, v1)


class TestDegreeSplit:
    def _setup(self):
        # c = 6/11 keeps the smallness bound c*|V0|/w1 = 2 above a singleton
        x = cayley_left(make_cyclic(11), [1, 2, 5])
        cert = certify_expansion(x, Fraction(6, 11))
        return x, cert

    def test_empty_v1_all_zero(self):
        x, cert = self._setup()
        split = degree_split(x, cert, [])
        assert all(d == 0 for d in split.d1)
        assert all(d == 0 for d in split.d2)

    def test_single_vertex(self):
        x, cert = self._setup()
        split = degree_split(x, cert, [4])
        assert sum(split.d1) <= 1
        assert all(d <= cert.epsilon * cert.w0 for d in split.d2)
        # parts sum back to the true degrees
        for u in range(x.v0_size):
            deg = sum(1 for w in x.left_neighbors(u) if w == 4)
            assert split.d1[u] + split.d2[u] == deg

    def test_v1_too_large_rejected(self):
        x, cert = self._setup()
        with pytest.raises(PreconditionViolationError):
            degree_split(x, cert, range(5))


class TestCheckSplit:
    """``_check_split`` raises ``VerificationError`` on each broken property."""

    def test_heavy_part_too_large(self):
        split = DegreeSplit((Fraction(3),), (Fraction(0),))
        with pytest.raises(VerificationError, match="heavy part"):
            lemma_checks._check_split(split, Fraction(1), 1, 2)

    def test_capped_part_above_cap(self):
        split = DegreeSplit((Fraction(0),), (Fraction(2),))
        with pytest.raises(VerificationError, match="exceeds"):
            lemma_checks._check_split(split, Fraction(1), 1, 1)

    def test_capped_part_not_majorized(self):
        split = DegreeSplit((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
        with pytest.raises(VerificationError, match="majorized"):
            lemma_checks._check_split(split, Fraction(1), 1, 1)

    def test_fires_from_degree_split(self, monkeypatch):
        x = cayley_left(make_cyclic(11), [1, 2, 5])
        cert = certify_expansion(x, Fraction(6, 11))
        monkeypatch.setattr(lemma_checks, "majorizes", lambda a, b: False)
        with pytest.raises(VerificationError):
            degree_split(x, cert, [4])


def _cayley_cases():
    """Cayley graphs with an action by automorphisms on both sides."""
    z2z4 = make_direct_product(make_cyclic(2), make_cyclic(4))
    z3z3 = make_direct_product(make_cyclic(3), make_cyclic(3))
    cases = []
    for g, gens, c in (
        (make_cyclic(10), [1, 3], Fraction(1, 2)),
        (make_cyclic(11), [1, 2, 5], Fraction(1, 3)),
        (make_cyclic(12), [1, 5, 6], Fraction(1, 4)),
        (z2z4, [1, 2, 5], Fraction(1, 2)),
        (z3z3, [1, 3], Fraction(1, 2)),
    ):
        left = GraphAction(left_regular_action(g), left_regular_action(g))
        cases.append((f"right-{g.name}", layered_cayley(g, [gens])[0], left, c))
        flip = right_regular_action_as_left(g)
        right = GraphAction(flip, flip)
        cases.append((f"left-{g.name}", cayley_left(g, gens), right, c))
    return cases


def _layered_cases():
    """Layered Cayley graphs: 1-2 layers, degrees 2-3, c in {1/4, 1/3, 1/2}."""
    cases = []
    rng = random.Random(2201)
    groups = [make_cyclic(6), make_direct_product(make_cyclic(2), make_cyclic(3)),
              make_cyclic(7)]
    cutoffs = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
    for i, (layers, degree, c) in enumerate(
        itertools.product((1, 2), (2, 3), cutoffs)
    ):
        g = groups[i % len(groups)]
        x, action, _ = draw_layered(g, layers, degree, rng)
        cases.append((f"layered-{g.name}-{layers}x{degree}-c{c}", x, action, c))
    return cases


def _pruning_cases():
    """Factors on which the |N(S)| scan skips most subsets.

    The Z16 draws are those the ``search-trials`` benchmark certifies at seed
    0: trial ``t`` draws from ``Random(t)``, and ``search_pair`` certifies one
    draw per translation class.
    """
    g = make_cyclic(16)
    cases, seen = [], set()
    for trial in range(10):
        rng = random.Random(trial)
        for side in "xy":
            x, action, gens = draw_layered(g, 1, 2, rng)
            key = _least_translate(g, gens)[0]
            if key not in seen:
                seen.add(key)
                cases.append((f"search-Z16-{trial}{side}", x, action, Fraction(1, 2)))
    x, action, _ = draw_layered(make_cyclic(8), 2, 3, random.Random(0))
    cases.append(("layered-Z8-2x3-c1/2", x, action, Fraction(1, 2)))
    return cases


KERNEL_CASES = _cayley_cases() + _layered_cases()
PRUNING_CASES = _pruning_cases()


def _case_id(case):
    return case[0]


class TestSubsetKernel:
    """The depth-first kernel agrees with the plain combinations scan."""

    @pytest.mark.parametrize("case", KERNEL_CASES + PRUNING_CASES, ids=_case_id)
    @pytest.mark.parametrize("use_action", [False, True], ids=["all", "orbits"])
    def test_certificate_matches_reference(self, case, use_action):
        _, x, action, c = case
        cert = certify_expansion(x, c, action=action if use_action else None)
        assert cert == reference_certificate(x, c)

    @pytest.mark.parametrize("case", KERNEL_CASES, ids=_case_id)
    @pytest.mark.parametrize("use_action", [False, True], ids=["all", "orbits"])
    def test_unique_lemma_matches_reference(self, case, use_action):
        _, x, action, c = case
        act = action if use_action else None
        cert = certify_expansion(x, c)
        assert check_unique_neighbor_lemma(x, cert, action=act) == (
            reference_unique_lemma(x, cert)
        )
        # an understated epsilon makes the bound fail, often first at a size
        # the depth-first scan reaches after a larger counterexample: the
        # result must still be the reference's first counterexample
        for shrink in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            strict = ExpansionCertificate(
                c=c, epsilon=cert.epsilon * shrink, w0=cert.w0,
                max_checked_size=cert.max_checked_size,
            )
            assert check_unique_neighbor_lemma(x, strict, action=act) == (
                reference_unique_lemma(x, strict)
            )

    @pytest.mark.parametrize("unique", [False, True], ids=["union", "unique"])
    def test_pruned_work(self, unique):
        class CountingMasks(list):
            """Neighbor masks counting the kernel's reads: one per visited subset."""

            reads = 0

            def __getitem__(self, i):
                self.reads += 1
                return super().__getitem__(i)

        # the |N(S)| walk's reads on each case, as first measured with the
        # (once, more) walk: carrying the prefix union visits the same subsets
        union_reads = {
            "search-Z16-0x": 1956, "search-Z16-1x": 1909, "search-Z16-1y": 2379,
            "search-Z16-3y": 1687, "search-Z16-4y": 1420, "search-Z16-8y": 2498,
            "search-Z16-9y": 2464, "layered-Z8-2x3-c1/2": 285,
        }
        assert sorted(union_reads) == sorted(case[0] for case in PRUNING_CASES)
        for name, x, action, c in PRUNING_CASES:
            kmax = graphs._strict_floor(c * x.v0_size)
            starts = graphs._scan_starts(x, action)
            masks = CountingMasks(x.left_masks)
            if unique:
                graphs._least_unique(masks, kmax, starts, [0] * (kmax + 1))
            else:
                graphs._least_union(masks, kmax, starts)
            # every S whose least vertex is a start
            full = sum(
                comb(x.v0_size - 1 - s, k - 1) for s in starts for k in range(1, kmax + 1)
            )
            if name.startswith("search-"):  # one orbit: vertex 0 starts every S
                assert full == 9949
            if unique:  # unique-neighbor counts are not monotone: no pruning
                assert masks.reads == full, name
            else:
                assert masks.reads == union_reads[name], name

    def test_counterexample_found(self):
        x = layered_cayley(make_cyclic(10), [[1, 3]])[0]
        cert = certify_expansion(x, Fraction(1, 2))
        strict = ExpansionCertificate(
            c=cert.c, epsilon=Fraction(0), w0=cert.w0,
            max_checked_size=cert.max_checked_size,
        )
        ok, (subset, uniq) = check_unique_neighbor_lemma(x, strict)
        assert not ok
        assert uniq == len(unique_neighbors(x, subset)) < 2 * len(subset)

    def test_non_invariant_action_rejected(self):
        g = make_cyclic(7)
        x = cayley_left(g, [1, 2, 4])
        negate = GroupAction(
            make_cyclic(2), 7, (tuple(range(7)), tuple((-u) % 7 for u in range(7)))
        )
        assert not check_invariance(x, negate, negate)
        cert = certify_expansion(x, Fraction(2, 7))
        with pytest.raises(InvalidParameterError):
            certify_expansion(x, Fraction(2, 7), action=GraphAction(negate, negate))
        with pytest.raises(InvalidParameterError):
            check_unique_neighbor_lemma(x, cert, action=GraphAction(negate, negate))

    def test_non_permutation_action_rejected(self):
        # every edge of K33 maps to an edge, but the map is not a bijection,
        # so the action proof rejects it before any edge is looked at
        collapse = GroupAction(make_cyclic(2), 3, ((0, 1, 2), (0, 0, 0)))
        with pytest.raises(InvalidParameterError):
            check_invariance(k33(), collapse, collapse)
        action = GraphAction(collapse, collapse)
        with pytest.raises(InvalidParameterError):
            certify_expansion(k33(), Fraction(1), action=action)

    @pytest.mark.parametrize("use_action", [False, True], ids=["all", "orbits"])
    def test_budget_counts_every_subset(self, use_action):
        g = make_cyclic(12)
        x = layered_cayley(g, [[1, 5]])[0]
        action = GraphAction(left_regular_action(g), left_regular_action(g))
        act = action if use_action else None
        total = sum(comb(12, k) for k in range(1, 6))  # sizes below 12 / 2
        with pytest.raises(BudgetExceededError) as info:
            certify_expansion(x, Fraction(1, 2), max_evals=total - 1, action=act)
        assert info.value.required == total
        certify_expansion(x, Fraction(1, 2), max_evals=total, action=act)


class TestMajorizes:
    def test_basic_true(self):
        assert majorizes([3, 1], [2, 2])

    def test_basic_false(self):
        assert not majorizes([2, 2], [3, 1])

    def test_zero_padding(self):
        assert majorizes([4], [2, 2])
        assert not majorizes([2, 2], [4])


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6),
        min_size=3,
        max_size=3,
    )
)
def test_majorization_transitivity(data):
    a, b, c = data
    if majorizes(a, b) and majorizes(b, c):
        assert majorizes(a, c)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=1, max_value=6),
)
def test_sum_product_majorization(seed, n):
    """If A' majorizes A and B' majorizes B (all descending, nonnegative),
    then sum(a_i b_i) <= sum(a'_i b'_i)."""
    rng = random.Random(seed)

    def descending():
        return sorted((rng.randint(0, 9) for _ in range(n)), reverse=True)

    a, b = descending(), descending()
    # build dominating sequences by shifting mass toward the front
    a2 = sorted(a, reverse=True)
    b2 = sorted(b, reverse=True)
    for seq in (a2, b2):
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i < j and seq[j] > 0:
                seq[i] += 1
                seq[j] -= 1
                seq.sort(reverse=True)
    if majorizes(a2, a) and majorizes(b2, b):
        assert sum(x * y for x, y in zip(a, b)) <= sum(
            x * y for x, y in zip(a2, b2)
        )


class TestEdgeListFormat:
    def test_round_trip(self):
        x = cayley_left(make_cyclic(7), [1, 2, 4])
        assert graph_from_edge_list(graph_to_edge_list(x)) == x

    def test_header_line(self):
        x = BipartiteGraph(2, 3, [(0, 0), (1, 2)])
        text = graph_to_edge_list(x)
        assert text.splitlines()[0] == "2 3"

    @pytest.mark.parametrize("header", ["2 3 4", "two 3", "2"])
    def test_header_not_two_integers_rejected(self, header):
        with pytest.raises(InvalidParameterError, match="two integers"):
            graph_from_edge_list(f"{header}\n0 0\n")

    @pytest.mark.parametrize("edge", ["0 0 1", "0 x", "1"])
    def test_edge_not_two_integers_rejected(self, edge):
        with pytest.raises(InvalidParameterError, match="two integers"):
            graph_from_edge_list(f"2 3\n{edge}\n")
