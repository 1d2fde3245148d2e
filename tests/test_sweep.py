"""The Gray-sweep kernel and the LT profile's breadth-first search against
the references."""

import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from expander_ltc import analysis
from expander_ltc.analysis import (
    CodeInstance,
    code_from_complex,
    distance_certificate,
    locally_minimal_distance,
    lt_profile,
    soundness_exhaustive,
)
from expander_ltc.cli import build_report
from expander_ltc.errors import BudgetExceededError
from expander_ltc.f2 import (
    BitMatrix,
    BitVector,
    gray_sweep,
    kernel_basis,
    min_weight_nonzero,
    rank,
)
from expander_ltc.graphs import ExpansionCertificate
from expander_ltc.groups import make_cyclic
from expander_ltc.products import balanced_product, left_right_cayley

from search_reference import draw_layered
from small_set_reference import reference_locally_minimal_distance
from sweep_reference import (
    column_bits,
    reference_lt_profile,
    reference_min_preimages,
    reference_min_weight_nonzero,
    reference_soundness_exhaustive,
)


def _random_code(rng) -> CodeInstance:
    """A random check matrix, with duplicate rows and zero columns mixed in."""
    n = rng.randint(1, 8)
    rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.4:
        rows += rng.sample(rows, rng.randint(1, len(rows)))
    if rng.random() < 0.4:
        zero = ~(1 << rng.randrange(n))
        rows = [r & zero for r in rows]
    h = BitMatrix(len(rows), n, rows)
    return CodeInstance(
        h=h, n=n, m=len(rows), k=n - rank(h),
        locality=max(r.bit_count() for r in rows),
    )


def _random_layered(rng):
    """A seeded layered Cayley product on a cyclic group, with at most 12 bits."""
    order = rng.randint(2, 12)
    g = make_cyclic(order)
    layers_x = rng.randint(1, 12 // order)
    layers_y = rng.randint(1, 12 // (order * layers_x))
    x, ax, _ = draw_layered(g, layers_x, rng.randint(1, order), rng)
    y, ay, _ = draw_layered(g, layers_y, rng.randint(1, order), rng)
    return balanced_product(x, y, ax, ay)


def _layered():
    rng = random.Random(0)
    g = make_cyclic(6)
    x, ax, _ = draw_layered(g, 2, 2, rng)  # w_down = 2, w_up = 4
    y, ay, _ = draw_layered(g, 1, 2, rng)
    return balanced_product(x, y, ax, ay)


def _layered_kernel_dim_3():
    """The first seeded ``_random_layered`` draw whose ``d2`` has a kernel of
    dimension 3 or more."""
    rng = random.Random(5)
    while len(kernel_basis((bp := _random_layered(rng)).d2)) < 3:
        pass
    return bp


# the LT search takes each witness's least preimage over the 2^k elements of
# its coset of ker d2, so these cover k = 0 (Z5, Z8-125-137), k = 1 (the
# [1,2]/[1,3] ladder) and k >= 2 (the layered products)
COMPLEXES = {
    "Z5": lambda: left_right_cayley(make_cyclic(5), [1], [1, 2]),
    "Z8-125-137": lambda: left_right_cayley(make_cyclic(8), [1, 2, 5], [1, 3, 7]),
    "Z12": lambda: left_right_cayley(make_cyclic(12), [1, 2], [1, 3]),
    "layered-random": _layered_kernel_dim_3,
    "Z6": lambda: left_right_cayley(make_cyclic(6), [1, 2], [1, 3]),
    "Z7": lambda: left_right_cayley(make_cyclic(7), [1, 2], [1, 3]),
    "Z8": lambda: left_right_cayley(make_cyclic(8), [1, 2], [1, 3]),
    "Z9": lambda: left_right_cayley(make_cyclic(9), [1, 2], [2, 3]),
    "Z10": lambda: left_right_cayley(make_cyclic(10), [1, 2], [1, 3]),
    "Z6-layered": _layered,
}


def _layered_product(order, layers_x, layers_y, degree_x, degree_y, seed):
    rng = random.Random(seed)
    g = make_cyclic(order)
    x, ax, _ = draw_layered(g, layers_x, degree_x, rng)
    y, ay, _ = draw_layered(g, layers_y, degree_y, rng)
    return balanced_product(x, y, ax, ay)


@st.composite
def layered_products(draw, max_bits=18):
    """Layered Cayley products on Z_2 .. Z_4 with at most ``max_bits`` bits;
    their ``d2`` kernels have every dimension from 0 to 8, and 10."""
    order = draw(st.integers(2, 4))
    layers_x = draw(st.integers(1, min(3, max_bits // order)))
    layers_y = draw(st.integers(1, min(3, max_bits // (order * layers_x))))
    degree = st.integers(1, min(2, order - 1))
    return _layered_product(
        order, layers_x, layers_y, draw(degree), draw(degree), draw(st.integers(0, 3))
    )


# the two largest kernels the draws reach, run on every test run
HIGH_KERNEL = [_layered_product(2, 3, 3, 1, 1, 0), _layered_product(3, 2, 3, 2, 2, 0)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(layered_products())
@example(HIGH_KERNEL[0])
@example(HIGH_KERNEL[1])
def test_lt_profile_matches_the_oracle_on_layered_draws(bp):
    event(f"k = {len(kernel_basis(bp.d2))}")
    m = bp.n10 + bp.n01
    assert lt_profile(bp, m) == reference_lt_profile(bp, m)


def test_layered_draws_reach_kernel_dimension_8():
    assert [len(kernel_basis(bp.d2)) for bp in HIGH_KERNEL] == [8, 10]


def _certificate(epsilon):
    """A subgraph certificate that gives no distance bound at epsilon 1/2,
    and the bound c·|V00| = 0 at epsilon 0."""
    return ExpansionCertificate(c=Fraction(0), epsilon=epsilon, w0=1, max_checked_size=0)


def _distance(bp, budget=analysis.DEFAULT_ENUM_BUDGET):
    code = code_from_complex(bp)
    rep = distance_certificate(code, bp, _certificate(Fraction(1, 2)), budget)
    return rep.exact, rep.witness


@settings(max_examples=100, deadline=None, derandomize=True)
@given(layered_products())
@example(HIGH_KERNEL[0])
@example(HIGH_KERNEL[1])
@example(_layered_product(8, 2, 2, 2, 2, 0))  # n = 32, k = 11, d = 4
@example(_layered_product(9, 2, 2, 2, 2, 0))  # n = 36, k = 12, d = 9
def test_distance_matches_the_gray_sweep_on_layered_draws(bp):
    basis = kernel_basis(bp.d2)
    event(f"k = {len(basis)}")
    expected = reference_min_weight_nonzero(basis) or (None, None)
    assert _distance(bp) == expected
    # weight first to the last subset, then the sweep from the start.  Weight
    # first takes C(n, 0) + ... + C(n, d - 1) subsets: 5,489 on Z8 but
    # 40,999,516 on Z9, and every subset of the bits with k = 0
    d = expected[0]
    weight_first = bool(basis) and sum(comb(bp.n00, w) for w in range(d)) <= 1 << 20
    for steps in ([Fraction(1, 1 << 40)] if weight_first else []) + [1 << 40]:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(analysis, "_SUBSET_STEPS", steps)
            assert _distance(bp) == expected


def _spy_on_gray_sweep(monkeypatch):
    calls = []

    def spy(vectors, budget):
        calls.append(len(vectors))
        return gray_sweep(vectors, budget)

    monkeypatch.setattr(analysis, "gray_sweep", spy)
    return calls


class TestWeightFirstDistance:
    """Layered products named as in the ROADMAP: Z6 3x2/3x2 is three layers of
    degree 2 on each side, drawn x's layers first from ``random.Random(seed)``."""

    def test_z6_3x2_seed_1_gets_its_distance(self, monkeypatch):
        # k = 29: the 2^29 sweep is over the default budget, weight 3 is not
        bp = _layered_product(6, 3, 3, 2, 2, 1)
        assert (bp.n00, len(kernel_basis(bp.d2))) == (54, 29)
        calls = _spy_on_gray_sweep(monkeypatch)
        exact, witness = _distance(bp)
        assert exact == 3 and witness.weight() == 3 and calls == []
        assert bp.d2.mul_vec(witness).bits == 0

    def test_z5_3x3_matches_the_sweep_without_running_it(self, monkeypatch):
        bp = _layered_product(5, 3, 3, 3, 3, 0)
        basis = kernel_basis(bp.d2)
        assert len(basis) == 20
        expected = min_weight_nonzero(basis)
        calls = _spy_on_gray_sweep(monkeypatch)
        assert _distance(bp) == expected and expected[0] == 4
        assert calls == []

    def test_the_budget_counts_the_subsets(self):
        # d = 4 on Z5 3x3/3x3 takes C(45, 0) + ... + C(45, 3) = 15,226 subsets
        bp = _layered_product(5, 3, 3, 3, 3, 0)
        assert _distance(bp, budget=15_226)[0] == 4
        rep = distance_certificate(
            code_from_complex(bp), bp, _certificate(Fraction(0)), budget=15_225
        )
        assert (rep.exact, rep.witness) == (None, None)
        assert rep.reason == (
            "exact distance: 2^20 combinations exceed budget (needs 1048576, "
            "budget 15225); raise --budget"
        )
        # with no bound, its reason comes first
        bounded = distance_certificate(
            code_from_complex(bp), bp, _certificate(Fraction(1, 2)), budget=15_225
        )
        assert bounded.reason.startswith("subgraph epsilon 1/2 >= 1/2")
        assert bounded.reason.endswith(f"; {rep.reason}")

    def test_no_kernel_has_no_distance_and_no_reason(self):
        bp = COMPLEXES["Z8-125-137"]()
        rep = distance_certificate(code_from_complex(bp), bp, _certificate(Fraction(0)))
        assert (rep.exact, rep.witness, rep.reason) == (None, None, None)


class TestGraySweep:
    def test_selected_set_is_the_gray_code(self):
        rng = random.Random(1)
        vectors = [rng.getrandbits(9) for _ in range(5)]
        seen = []
        for i, cur in enumerate(gray_sweep(vectors, 1 << 5), start=1):
            gray = i ^ (i >> 1)
            expected = 0
            for j, v in enumerate(vectors):
                if gray >> j & 1:
                    expected ^= v
            assert cur == expected
            seen.append(i)
        assert seen == list(range(1, 1 << 5))

    def test_budget_checked_before_the_first_step(self):
        sweep = gray_sweep([1, 2, 4], budget=7)
        with pytest.raises(BudgetExceededError) as exc:
            next(sweep)
        assert (exc.value.required, exc.value.budget) == (8, 7)

    def test_min_preimages_matches_brute_force(self):
        rng = random.Random(2)
        for _ in range(20):
            columns = [rng.getrandbits(4) for _ in range(rng.randint(1, 7))]
            expected = {}
            for bits in range(1 << len(columns)):
                image = 0
                for j, c in enumerate(columns):
                    if bits >> j & 1:
                        image ^= c
                pre = (bits.bit_count(), bits)
                expected[image] = min(expected.get(image, pre), pre)
            assert reference_min_preimages(columns) == expected


class TestRandomCodes:
    """Values and witnesses equal the references on random small codes."""

    def test_soundness_exhaustive(self):
        # soundness reads the LT profile, so the codes come from random complexes
        rng = random.Random(3)
        for _ in range(60):
            bp = _random_layered(rng)
            assert bp.n00 <= 12
            code = code_from_complex(bp)
            ltp = lt_profile(bp, code.m)
            assert ltp == reference_lt_profile(bp, code.m)
            assert soundness_exhaustive(code, ltp) == reference_soundness_exhaustive(code)

    def test_min_weight_and_coset_leader(self):
        rng = random.Random(4)
        for _ in range(200):
            code = _random_code(rng)
            basis = kernel_basis(code.h)
            assert min_weight_nonzero(basis) == reference_min_weight_nonzero(basis)
            # the least preimage of a syndrome is the coset leader of x + C(h)
            x = rng.getrandbits(code.n)
            syndrome = code.h.mul_vec(BitVector(code.n, x)).bits
            coset = [
                x ^ c for c in range(1 << code.n)
                if code.h.mul_vec(BitVector(code.n, c)).bits == 0
            ]
            leader = min((v.bit_count(), v) for v in coset)
            columns = [column_bits(code.h, j) for j in range(code.n)]
            assert reference_min_preimages(columns)[syndrome] == leader


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_complex_matches_references(name):
    bp = COMPLEXES[name]()
    code = code_from_complex(bp)
    for max_w in (2, code.m):
        assert lt_profile(bp, max_w) == reference_lt_profile(bp, max_w)
    snd = soundness_exhaustive(code, lt_profile(bp, code.m))
    assert snd == reference_soundness_exhaustive(code)
    assert locally_minimal_distance(bp) == reference_locally_minimal_distance(bp)


def test_complexes_cover_each_kernel_dimension():
    dims = {name: len(kernel_basis(make().d2)) for name, make in COMPLEXES.items()}
    assert dims["Z5"] == dims["Z8-125-137"] == 0
    assert dims["Z8"] == dims["Z12"] == 1
    assert dims["Z6-layered"] == 2 and dims["layered-random"] >= 3


class TestBudgets:
    def _bp(self):
        return left_right_cayley(make_cyclic(7), [1, 2], [1, 3])

    def test_lt_profile(self):
        bp = self._bp()
        with pytest.raises(BudgetExceededError) as exc:
            lt_profile(bp, 4, budget=(1 << bp.n00) - 1)
        assert (exc.value.required, exc.value.budget) == (1 << bp.n00, (1 << bp.n00) - 1)

    def test_locally_minimal_distance(self):
        # the budget counts the loop that runs: d_lm = 3 takes the subsets
        # of weight 0, 1 and 2 (106 of them on Z7), fewer than 2^(dim-1);
        # below that count the Gray sweep takes over and needs 2^dim
        bp = self._bp()
        dim = len(kernel_basis(bp.d1))
        length = bp.n10 + bp.n01
        steps = 1 + length + length * (length - 1) // 2
        assert steps < 1 << (dim - 1)
        lmd = locally_minimal_distance(bp, budget=1 << (dim - 1))
        assert lmd == locally_minimal_distance(bp) and lmd.d_lm == 3
        assert locally_minimal_distance(bp, budget=steps) == lmd
        with pytest.raises(BudgetExceededError) as exc:
            locally_minimal_distance(bp, budget=steps - 1)
        assert (exc.value.required, exc.value.budget) == (1 << dim, steps - 1)


def test_build_report_sweeps_once(monkeypatch):
    calls = []
    profile = analysis._preimage_profile

    def counting(bp, budget):
        calls.append(bp.n00)
        return profile(bp, budget)

    monkeypatch.setattr(analysis, "_preimage_profile", counting)
    bp = left_right_cayley(make_cyclic(8), [1, 2], [1, 3])
    report = build_report(bp, Fraction(1, 2), Fraction(1, 2), run_small_set=False)
    assert report["soundness"]["method"] == "exhaustive"
    assert calls == [bp.n00]


def test_lt_sweep_keeps_no_table():
    # a table of least preimages would hold 2^rank = 2^15 images here, one
    # Python int each, over 1 MB; the BFS keeps packed 2^15-bit sets instead
    bp = left_right_cayley(make_cyclic(16), [1, 2], [1, 3])
    tracemalloc.start()
    try:
        lt_profile(bp, bp.n10 + bp.n01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024
