"""Tests for code-level analyses, with independent brute-force oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expander_ltc.analysis import (
    C1Vector,
    boundary_1,
    c0_weighted_norm,
    code_from_complex,
    distance_certificate,
    greedy_flip,
    is_locally_minimal,
    locally_minimal_distance,
    lt_profile,
    sharp_example,
    small_set_suite,
    soundness_exhaustive,
    soundness_from_lt,
    weighted_norm,
)
from expander_ltc import analysis, products
from expander_ltc.cli import build_report
from expander_ltc.errors import (
    DegenerateCodeError,
    PreconditionViolationError,
    VerificationError,
)
from expander_ltc.f2 import BitMatrix, BitVector
from expander_ltc.graphs import BipartiteGraph, certify_expansion, small_set_epsilon
from expander_ltc.groups import make_cyclic
from expander_ltc.products import (
    GraphAction,
    balanced_product,
    inherited_expansion,
    left_right_cayley,
)

from search_reference import draw_layered
from small_set_reference import column_masks, reference_square_count
from sweep_reference import column_bits
from symmetry_reference import trivial_action


def _column(m, j):
    return BitVector(m.rows, column_bits(m, j))


def brute_force_soundness(h: BitMatrix):
    """Oracle: min over non-codewords of (|Hx| * n) / (m * d(x, C))."""
    n, m = h.cols, h.rows
    codewords = [
        x for x in range(1 << n) if h.mul_vec(BitVector(n, x)).bits == 0
    ]
    best = None
    for x in range(1 << n):
        syn = h.mul_vec(BitVector(n, x))
        if syn.bits == 0:
            continue
        dist = min((x ^ c).bit_count() for c in codewords)
        ratio = Fraction(syn.weight() * n, m * dist)
        if best is None or ratio < best:
            best = ratio
    return best


class TestCodeFromComplex:
    def test_z7_parameters(self):
        bp = left_right_cayley(make_cyclic(7), [1], [1, 2, 3])
        code = code_from_complex(bp)
        assert (code.n, code.m) == (7, 14)
        assert code.locality == max(bp.w_up, bp.w_left) == 3
        # every bit feeds w_down checks of the first kind and w_right of the second
        for j in range(code.n):
            col = column_bits(code.h, j)
            low = col & ((1 << bp.n10) - 1)
            assert low.bit_count() == bp.w_down == 1
            assert (col >> bp.n10).bit_count() == bp.w_right == 3

    def test_k_at_least_n_minus_m(self):
        for a, b in ([1], [1, 2]), ([1, 2], [2, 3]):
            bp = left_right_cayley(make_cyclic(9), a, b)
            code = code_from_complex(bp)
            assert code.k >= code.n - code.m

    def test_rate_bound(self):
        bp = left_right_cayley(make_cyclic(8), [1, 2], [1, 3])
        code = code_from_complex(bp)
        bound = 1 - Fraction(bp.w_down, bp.w_up) - Fraction(bp.w_right, bp.w_left)
        assert code.rate >= bound


class TestSoundness:
    def test_balanced_product_instance_matches_oracle(self):
        bp = left_right_cayley(make_cyclic(5), [1], [1, 2])
        code = code_from_complex(bp)
        rep = soundness_exhaustive(code, lt_profile(bp, code.m))
        assert rep.s == brute_force_soundness(code.h)
        syndrome = code.h.mul_vec(rep.witness)
        ratio = Fraction(syndrome.weight() * code.n, code.m * rep.witness.weight())
        assert ratio == rep.s

    def test_degenerate_code_rejected(self):
        from expander_ltc.analysis import CodeInstance

        bp = left_right_cayley(make_cyclic(5), [1], [1, 2])
        code = CodeInstance(h=BitMatrix(2, 4), n=4, m=2, k=4, locality=0)
        with pytest.raises(DegenerateCodeError):
            soundness_exhaustive(code, lt_profile(bp, 2))

    @pytest.mark.parametrize("order, b_set", [(8, [1, 5]), (5, [1, 3])])
    def test_profile_of_another_complex_rejected(self, order, b_set):
        # same sizes with other faces, and fewer bits: either way the least
        # ratio's witness does not map to its syndrome under this code's checks
        code = code_from_complex(left_right_cayley(make_cyclic(8), [1, 2], [1, 3]))
        ltp = lt_profile(left_right_cayley(make_cyclic(order), [1, 2], b_set), 4)
        with pytest.raises(VerificationError, match="not of this code's complex"):
            soundness_exhaustive(code, ltp)


class TestWeightedNorms:
    def test_zero_vector(self):
        bp = left_right_cayley(make_cyclic(6), [1, 2], [1, 3])
        assert weighted_norm(C1Vector.from_supports(bp, [], []), bp) == 0
        assert c0_weighted_norm(BitVector(bp.sizes[3]), bp) == 0

    def test_additivity(self):
        bp = left_right_cayley(make_cyclic(6), [1, 2], [1, 3])
        one = C1Vector.from_supports(bp, [0], [1])
        two = C1Vector.from_supports(bp, [0, 2], [1, 3])
        assert weighted_norm(two, bp) == 2 * weighted_norm(one, bp)


class TestLocalMinimality:
    def test_zero_is_minimal(self):
        bp = left_right_cayley(make_cyclic(6), [1, 2], [1, 3])
        assert is_locally_minimal(C1Vector.from_supports(bp, [], []), bp) == (True, None)

    def test_single_boundary_not_minimal(self):
        bp = left_right_cayley(make_cyclic(6), [1, 2], [1, 3])
        col = _column(bp.d2, 0)
        c1 = C1Vector.from_stacked(bp, col)
        minimal, improving = is_locally_minimal(c1, bp)
        assert not minimal
        assert improving == 0

    def test_matches_definition_brute_force(self):
        bp = left_right_cayley(make_cyclic(5), [1], [1, 2])
        rng = random.Random(0)
        for _ in range(60):
            c1 = C1Vector(
                BitVector(bp.n10, rng.getrandbits(bp.n10)),
                BitVector(bp.n01, rng.getrandbits(bp.n01)),
            )
            base = weighted_norm(c1, bp)
            by_definition = all(
                weighted_norm(
                    C1Vector.from_stacked(
                        bp, c1.stacked() ^ _column(bp.d2, j)
                    ),
                    bp,
                )
                >= base
                for j in range(bp.n00)
            )
            assert is_locally_minimal(c1, bp)[0] == by_definition


class TestGreedyFlip:
    def test_single_boundary_one_step(self):
        bp = left_right_cayley(make_cyclic(6), [1, 2], [1, 3])
        c1 = C1Vector.from_stacked(bp, _column(bp.d2, 4))
        res = greedy_flip(c1, bp)
        assert res.final.stacked().bits == 0
        assert res.flips.support() == [4]
        assert res.steps == 1

    def test_already_minimal_zero_steps(self):
        bp = left_right_cayley(make_cyclic(6), [1, 2], [1, 3])
        res = greedy_flip(C1Vector.from_supports(bp, [], []), bp)
        assert res.steps == 0

    def test_random_inputs_postconditions(self):
        bp = left_right_cayley(make_cyclic(7), [1, 2], [1, 3])
        rng = random.Random(3)
        for _ in range(100):
            c1 = C1Vector(
                BitVector(bp.n10, rng.getrandbits(bp.n10)),
                BitVector(bp.n01, rng.getrandbits(bp.n01)),
            )
            res = greedy_flip(c1, bp)
            assert is_locally_minimal(res.final, bp)[0]
            # syndrome preserved
            assert boundary_1(bp, res.final).bits == boundary_1(bp, c1).bits
            # final = input + boundary of the accumulated flips
            assert (
                res.final.stacked().bits
                == c1.stacked().bits ^ bp.d2.mul_vec(res.flips).bits
            )
            assert res.steps <= weighted_norm(c1, bp) * max(bp.w_down, bp.w_right)


class TestLocallyMinimalDistance:
    def test_absent_signal(self):
        # trivial-group product of single-edge graphs: the only kernel vector
        # (1, 1) is removable by flipping the lone bit, so nothing qualifies
        g = make_cyclic(1)
        e = BipartiteGraph(1, 1, [(0, 0)])
        act = GraphAction(trivial_action(g, 1), trivial_action(g, 1))
        bp = balanced_product(e, e, act, act)
        res = locally_minimal_distance(bp)
        assert res.d_lm is None
        assert res.witness is None

    def test_matches_independent_brute_force(self):
        bp = left_right_cayley(make_cyclic(5), [1], [1, 2])
        res = locally_minimal_distance(bp)
        # oracle: enumerate the whole middle space, filter kernel + minimality
        best = None
        for bits in range(1, 1 << (bp.n10 + bp.n01)):
            v = BitVector(bp.n10 + bp.n01, bits)
            if bp.d1.mul_vec(v).bits:
                continue
            c1 = C1Vector.from_stacked(bp, v)
            if is_locally_minimal(c1, bp)[0]:
                w = v.weight()
                if best is None or w < best:
                    best = w
        assert res.d_lm == best


class TestLTProfile:
    def test_single_column_preimage_weight_one(self):
        bp = left_right_cayley(make_cyclic(5), [1], [1, 2])
        cols = [column_bits(bp.d2, j) for j in range(bp.n00)]
        assert len(set(cols)) == len(cols) and all(cols)  # distinct, nonzero
        ltp = lt_profile(bp, max_c1_weight=bp.n10 + bp.n01)
        w_col = cols[0].bit_count()
        assert all(c.bit_count() == w_col for c in cols)
        assert ltp.table[w_col] >= 1
        # a single-column image has min preimage exactly 1
        img = BitVector(bp.n10 + bp.n01, cols[0])
        # recompute: no lighter preimage than the single bit exists
        found = min(
            c2.bit_count()
            for c2 in range(1 << bp.n00)
            if bp.d2.mul_vec(BitVector(bp.n00, c2)).bits == cols[0]
        )
        assert found == 1

    def test_witnesses_realize_entries(self):
        bp = left_right_cayley(make_cyclic(5), [1], [1, 2])
        ltp = lt_profile(bp, max_c1_weight=4)
        for w, (img, pre) in ltp.witnesses.items():
            assert img.weight() == w
            assert bp.d2.mul_vec(pre).bits == img.bits
            assert pre.weight() == ltp.table[w]

    def test_flip_count_bounds_preimage_weight(self):
        bp = left_right_cayley(make_cyclic(5), [1], [1, 2])
        rng = random.Random(6)
        minpre = {}
        for c2 in range(1 << bp.n00):
            img = bp.d2.mul_vec(BitVector(bp.n00, c2)).bits
            w = bin(c2).count("1")
            if img not in minpre or w < minpre[img]:
                minpre[img] = w
        for _ in range(200):
            c2 = rng.getrandbits(bp.n00)
            c1 = C1Vector.from_stacked(bp, bp.d2.mul_vec(BitVector(bp.n00, c2)))
            res = greedy_flip(c1, bp)
            if res.final.stacked().bits == 0:
                assert minpre[c1.stacked().bits] <= res.flips.weight()


class TestSoundnessFromLT:
    def test_formula_with_kappa_one(self):
        from expander_ltc.analysis import CodeInstance, LTProfile

        identity = BitMatrix(4, 4, [1 << i for i in range(4)])
        code = CodeInstance(h=identity, n=4, m=4, k=0, locality=1)
        ltp = LTProfile(
            table={1: 1},
            witnesses={},
            kappa=Fraction(1),
            d_lt=2,
        )
        assert soundness_from_lt(code, ltp) == min(
            Fraction(4, 4), Fraction(2, 4)
        )

    def test_bound_below_exact(self):
        bp = left_right_cayley(make_cyclic(5), [1], [1, 2])
        code = code_from_complex(bp)
        ltp = lt_profile(bp, max_c1_weight=code.m)
        assert soundness_from_lt(code, ltp) <= soundness_exhaustive(code, ltp).s


class TestSquareCount:
    """The oracle's square counts: ``reference_square_count`` raises when the
    count by degrees and the count by faces disagree."""

    def test_zero(self):
        bp = left_right_cayley(make_cyclic(6), [1, 2], [1, 3])
        zero = C1Vector.from_supports(bp, [], [])
        assert reference_square_count(bp, zero) == 0

    def test_sharp_example_count(self):
        bp = left_right_cayley(make_cyclic(8), [1, 2], [1, 3])
        c1 = sharp_example(bp, 0)
        # |n10| * |n01| wedges at x00
        assert reference_square_count(bp, c1) == 1

    def test_methods_agree_on_random_inputs(self):
        # both counts, and the sum over (v10, v01) pairs of their common V00
        # neighbours that the suite's per-complex identity check reads
        bp = left_right_cayley(make_cyclic(7), [1, 2], [1, 3])
        masks = column_masks(bp)
        right10, right01 = bp.g_s0.right_masks, bp.g_0s.right_masks
        rng = random.Random(9)
        for _ in range(300):
            c1 = C1Vector(
                BitVector(bp.n10, rng.getrandbits(bp.n10)),
                BitVector(bp.n01, rng.getrandbits(bp.n01)),
            )
            by_pairs = sum(
                (right10[a] & right01[b]).bit_count()
                for a in c1.v10.support() for b in c1.v01.support()
            )
            assert reference_square_count(bp, c1, masks) == by_pairs


class TestSmallSetCheck:
    def _instance(self):
        bp = left_right_cayley(make_cyclic(8), [1, 2], [1, 3])
        cert_x = certify_expansion(bp.x, Fraction(1, 2))
        cert_y = certify_expansion(bp.y, Fraction(1, 2))
        return bp, cert_x, cert_y

    def test_zero_vector(self):
        # the zero vector is locally minimal, and the suite leaves it out
        bp, cx, cy = self._instance()
        assert is_locally_minimal(C1Vector.from_supports(bp, [], []), bp) == (True, None)
        orbits = analysis._small_set_orbits(bp, cx, cy)
        assert all(v10 or v01 for _, _, v10, v01 in orbits)

    def test_requires_local_minimality(self, monkeypatch):
        # with the weight bounds lifted and no translations, the suite scans
        # every nonzero c1 and keeps exactly the locally minimal ones; the
        # boundary of one bit is removed by flipping that bit, so it is not
        bp, cx, cy = self._instance()
        lifted = (Fraction(bp.n10 + 1), Fraction(bp.n01 + 1))
        monkeypatch.setattr(analysis, "small_set_smallness_bounds", lambda *args: lifted)
        monkeypatch.setattr(analysis, "_translations", lambda bp: [tuple(range(max(bp.sizes)))])
        scanned = {(v10, v01) for _, _, v10, v01 in analysis._small_set_orbits(bp, cx, cy)}
        expected = set()
        for v10 in range(1 << bp.n10):
            for v01 in range(1 << bp.n01):
                c1 = C1Vector(BitVector(bp.n10, v10), BitVector(bp.n01, v01))
                if (v10 or v01) and is_locally_minimal(c1, bp)[0]:
                    expected.add((v10, v01))
        assert scanned == expected
        c1 = C1Vector.from_stacked(bp, _column(bp.d2, 0))
        assert is_locally_minimal(c1, bp) == (False, 0)
        assert (c1.v10.bits, c1.v01.bits) not in scanned

    def test_suite_all_hold(self):
        bp, cx, cy = self._instance()
        summary = small_set_suite(bp, cx, cy)
        assert summary.count  # the enumeration is nonempty
        assert summary.all_hold

    def test_sharp_ratio(self):
        bp, cx, cy = self._instance()
        c1 = sharp_example(bp, 0)
        norm1 = weighted_norm(c1, bp)
        norm0 = c0_weighted_norm(boundary_1(bp, c1), bp)
        assert norm0 / norm1 == Fraction(1, 2)


class TestSharpExample:
    def test_exact_norms(self):
        bp = left_right_cayley(make_cyclic(8), [1, 2], [1, 3])
        c1 = sharp_example(bp, 3)
        assert weighted_norm(c1, bp) == 1
        assert c0_weighted_norm(boundary_1(bp, c1), bp) == Fraction(1, 2)
        assert is_locally_minimal(c1, bp)[0]

    def test_boundary_weight(self):
        bp = left_right_cayley(make_cyclic(8), [1, 2], [1, 3])
        c1 = sharp_example(bp, 0)
        assert boundary_1(bp, c1).weight() == bp.w_down * bp.w_right // 2

    def test_odd_degree_rejected(self):
        bp = left_right_cayley(make_cyclic(7), [1, 2, 4], [1, 3])
        with pytest.raises(PreconditionViolationError):
            sharp_example(bp, 0)


class TestDistanceCertificate:
    def test_exact_at_least_bound(self):
        bp = left_right_cayley(make_cyclic(7), [1, 2], [1, 3])
        code = code_from_complex(bp)
        cert = certify_expansion(bp.x, Fraction(2, 7))
        sub_cert = inherited_expansion(bp, cert, "*0")
        rep = distance_certificate(code, bp, sub_cert)
        assert rep.exact is not None
        assert Fraction(rep.exact) >= rep.bound

    def test_eps_one_rejected(self):
        from expander_ltc.graphs import ExpansionCertificate

        bp = left_right_cayley(make_cyclic(7), [1, 2], [1, 3])
        code = code_from_complex(bp)
        vacuous = ExpansionCertificate(
            c=Fraction(1, 4),
            epsilon=Fraction(1),
            w0=2,
            max_checked_size=1,
        )
        with pytest.raises(PreconditionViolationError):
            distance_certificate(code, bp, vacuous)

    def test_bound_scales_linearly(self):
        bounds = {}
        for order in (6, 12):
            bp = left_right_cayley(make_cyclic(order), [1, 2], [1, 3])
            code = code_from_complex(bp)
            cert = certify_expansion(bp.x, Fraction(1, 6))
            rep = distance_certificate(
                code, bp, inherited_expansion(bp, cert, "*0")
            )
            bounds[order] = rep.bound
        assert bounds[12] == 2 * bounds[6]


class TestVerificationErrors:
    """Each theorem check raises ``VerificationError`` when fed a broken input."""

    def test_rate_bound(self, monkeypatch):
        rng = random.Random(1)
        g = make_cyclic(5)
        x, ax, _ = draw_layered(g, 3, 1, rng)
        y, ay, _ = draw_layered(g, 3, 1, rng)
        bp = balanced_product(x, y, ax, ay)  # rate bound 1 - 1/3 - 1/3 > 0
        monkeypatch.setattr(analysis, "rank", lambda h: h.cols)  # forces k = 0
        with pytest.raises(VerificationError, match="rate"):
            code_from_complex(bp)

    def test_square_count_agreement(self):
        # one face dropped, one listed twice, one off the V10 side: the
        # square identity, checked where the complex is built, sees each
        bp = left_right_cayley(make_cyclic(8), [1, 2], [1, 3])
        products._check_structure(bp)
        for faces, message in (
            (bp.faces[1:], "1 by degrees, 0 by faces"),
            (bp.faces[:1] * 2 + bp.faces[1:], "1 by degrees, 2 by faces"),
            (bp.faces + ((0, bp.n10, 0, 0),), r"faces at \[\(8, 0\)\] outside"),
        ):
            with pytest.raises(VerificationError, match=message):
                products._check_structure(bp._replace(faces=faces))

    def _sharp_instance(self):
        return left_right_cayley(make_cyclic(8), [1, 2], [1, 3])

    def test_sharp_unit_norm(self, monkeypatch):
        bp = self._sharp_instance()
        monkeypatch.setattr(analysis, "weighted_norm", lambda c1, bp: Fraction(2))
        with pytest.raises(VerificationError, match="norm != 1"):
            sharp_example(bp, 0)

    def test_sharp_local_minimality(self, monkeypatch):
        bp = self._sharp_instance()
        monkeypatch.setattr(analysis, "is_locally_minimal", lambda c1, bp: (False, 0))
        with pytest.raises(VerificationError, match="locally minimal"):
            sharp_example(bp, 0)

    def test_sharp_boundary_weight(self, monkeypatch):
        class Heavier(BitVector):
            def weight(self):
                return super().weight() + 1

        bp = self._sharp_instance()
        real = analysis.boundary_1

        def heavier_boundary(bp, c1):
            c0 = real(bp, c1)
            return Heavier(c0.length, c0.bits)

        monkeypatch.setattr(analysis, "boundary_1", heavier_boundary)
        with pytest.raises(VerificationError, match="boundary has weight"):
            sharp_example(bp, 0)

    def test_sharp_boundary_norm(self, monkeypatch):
        bp = self._sharp_instance()
        monkeypatch.setattr(analysis, "c0_weighted_norm", lambda c0, bp: Fraction(1))
        with pytest.raises(VerificationError, match="norm != 1/2"):
            sharp_example(bp, 0)

    def test_distance_below_bound(self, monkeypatch):
        bp = left_right_cayley(make_cyclic(7), [1, 2], [1, 3])
        code = code_from_complex(bp)
        sub_cert = inherited_expansion(
            bp, certify_expansion(bp.x, Fraction(2, 7)), "*0"
        )
        assert sub_cert.c * bp.n00 > 0
        # the weight-first kernel reports the zero vector as a codeword of weight 0
        monkeypatch.setattr(
            analysis, "_weight_first", lambda columns, basis, budget, least: (0, 0)
        )
        with pytest.raises(VerificationError, match="below the expansion bound"):
            distance_certificate(code, bp, sub_cert)


@st.composite
def cayley_instances(draw):
    n = draw(st.integers(5, 12))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    cutoff = st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1)])
    return n, draw(pair), draw(pair), draw(cutoff), draw(cutoff)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(cayley_instances())
def test_reported_bounds_hold_on_random_cayley_complexes(instance):
    """No valid left/right Cayley build fails a theorem check, and every bound
    the report carries is at most the exact value it bounds."""
    n, a_set, b_set, c_x, c_y = instance
    report = build_report(left_right_cayley(make_cyclic(n), a_set, b_set), c_x, c_y)
    d = report["d"]
    if d["bound"] is not None and d["exact"] is not None:
        assert Fraction(d["bound"]) <= d["exact"]
    assert Fraction(report["lt_profile"]["soundness_bound"]) <= Fraction(
        report["soundness"]["s"]
    )


@st.composite
def small_cayley_factors(draw):
    n = draw(st.integers(6, 20))

    def generators():
        k = draw(st.sampled_from([2, 3]))
        return draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))

    cutoffs = st.integers(1, 6).map(lambda k: Fraction(k, n))
    return n, generators(), generators(), draw(cutoffs), draw(cutoffs)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(small_cayley_factors())
def test_small_set_epsilon_lower_bounds(instance):
    """Two vertices g and g*b*b'^-1 of a degree-w Cayley factor share a
    neighbour, so a cutoff that admits pairs forces eps >= 1/(2w); when both
    cutoffs admit pairs, the suite's epsilon is at least
    max(1/(2|A|), |A|/(2|B|))."""
    n, a_set, b_set, c_x, c_y = instance
    bp = left_right_cayley(make_cyclic(n), a_set, b_set)
    cert_x = certify_expansion(bp.x, c_x, action=bp.ax)
    cert_y = certify_expansion(bp.y, c_y, action=bp.ay)
    for cert in (cert_x, cert_y):
        if cert.max_checked_size >= 2:
            assert cert.epsilon >= Fraction(1, 2 * cert.w0)
    if min(cert_x.max_checked_size, cert_y.max_checked_size) >= 2:
        a, b = len(a_set), len(b_set)
        assert small_set_epsilon(bp.w_up, cert_x, cert_y) >= max(
            Fraction(1, 2 * a), Fraction(a, 2 * b)
        )
