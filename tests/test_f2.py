"""Tests for GF(2) linear algebra: rank, kernels, weight search, least preimages."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expander_ltc.errors import BudgetExceededError, InvalidParameterError
from expander_ltc.f2 import (
    BitMatrix,
    BitVector,
    kernel_basis,
    min_weight_nonzero,
    rank,
)

from sweep_reference import column_bits, reference_min_preimages


def vector(entries):
    """The vector with these 0/1 entries."""
    return BitVector.from_support(len(entries), [i for i, e in enumerate(entries) if e])


def matrix(rows):
    """The matrix with these rows of 0/1 entries."""
    return BitMatrix(len(rows), len(rows[0]), [vector(row).bits for row in rows])


def random_matrix(rows, cols, rng):
    return BitMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


class TestBitVector:
    def test_support_round_trip(self):
        v = BitVector.from_support(10, [0, 3, 7])
        assert v.support() == [0, 3, 7]
        assert v.weight() == 3

    def test_entries_round_trip(self):
        v = vector([1, 0, 1, 1])
        assert v.entries() == [1, 0, 1, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            BitVector.from_support(4, [4])

    @pytest.mark.parametrize(
        "make",
        [lambda: BitVector(-1), lambda: BitVector.from_support(-1, [])],
        ids=["init", "from_support"],
    )
    def test_negative_length_rejected(self, make):
        message = "vector length must be an integer >= 0, got -1"
        with pytest.raises(InvalidParameterError, match=message):
            make()

    @pytest.mark.parametrize("bits", [8, -1])
    def test_bits_outside_length_rejected(self, bits):
        with pytest.raises(InvalidParameterError):
            BitVector(3, bits)

    def test_xor(self):
        a = vector([1, 1, 0])
        b = vector([0, 1, 1])
        assert (a ^ b).entries() == [1, 0, 1]


class TestBitMatrix:
    def test_identity_rank_and_kernel(self):
        m = BitMatrix(4, 4, [1 << i for i in range(4)])
        assert rank(m) == 4
        assert kernel_basis(m) == []

    def test_single_row_kernel(self):
        m = matrix([[1, 1]])
        basis = kernel_basis(m)
        assert len(basis) == 1
        assert basis[0].entries() == [1, 1]

    def test_mul_vec(self):
        m = matrix([[1, 1, 0], [0, 1, 1]])
        assert m.mul_vec(vector([1, 0, 0])).entries() == [1, 0]
        assert m.mul_vec(vector([1, 1, 1])).entries() == [0, 0]

    def test_transpose_involution(self):
        rng = random.Random(0)
        m = random_matrix(5, 8, rng)
        assert m.transpose().transpose() == m

    def test_matmul_against_entrywise(self):
        rng = random.Random(1)
        a = random_matrix(4, 6, rng)
        b = random_matrix(6, 5, rng)
        c = a.matmul(b)
        for i in range(4):
            for j in range(5):
                expected = sum(
                    (a.row_bits[i] >> t & 1) * (b.row_bits[t] >> j & 1) for t in range(6)
                ) % 2
                assert c.row_bits[i] >> j & 1 == expected


class TestRankNullity:
    def test_twenty_random_12x18(self):
        rng = random.Random(42)
        for _ in range(20):
            m = random_matrix(12, 18, rng)
            basis = kernel_basis(m)
            assert rank(m) + len(basis) == 18
            for v in basis:
                assert m.mul_vec(v).bits == 0

    def test_rank_invariant_under_row_swap(self):
        rng = random.Random(7)
        m = random_matrix(6, 9, rng)
        swapped = BitMatrix(6, 9, [m.row_bits[i] for i in (5, 4, 3, 2, 1, 0)])
        assert rank(m) == rank(swapped)


class TestMinWeight:
    def test_repetition_code_length_5(self):
        # parity checks x_i + x_{i+1}
        h = matrix(
            [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1]]
        )
        w, witness = min_weight_nonzero(kernel_basis(h))
        assert w == 5
        assert witness.weight() == 5

    def test_hamming_7_4_distance_3(self):
        # standard check matrix: column j is the binary expansion of j+1
        h = BitMatrix(3, 7)
        for j in range(7):
            for bit in range(3):
                h.set(bit, j, ((j + 1) >> bit) & 1)
        assert rank(h) == 3
        w, witness = min_weight_nonzero(kernel_basis(h))
        assert w == 3
        assert h.mul_vec(witness).bits == 0

    def test_zero_dimensional_signal(self):
        assert min_weight_nonzero([]) is None

    def test_budget(self):
        basis = [BitVector(30, 1 << i) for i in range(30)]
        with pytest.raises(BudgetExceededError):
            min_weight_nonzero(basis, budget=1 << 10)

    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(9)
        for _ in range(10):
            m = random_matrix(5, 10, rng)
            basis = kernel_basis(m)
            if not basis:
                continue
            got_w, _ = min_weight_nonzero(basis)
            best = None
            for mask in range(1, 1 << len(basis)):
                v = 0
                for i in range(len(basis)):
                    if (mask >> i) & 1:
                        v ^= basis[i].bits
                if v and (best is None or v.bit_count() < best):
                    best = v.bit_count()
            assert got_w == best


class TestNearestCodeword:
    """The least preimage of ``h x`` weighs the distance from ``x`` to the code."""

    @staticmethod
    def _distance(h, x):
        least = reference_min_preimages([column_bits(h, j) for j in range(h.cols)])
        return least[h.mul_vec(x).bits][0]

    def test_codeword_distance_zero(self):
        h = matrix([[1, 1, 0], [0, 1, 1]])
        x = vector([1, 1, 1])
        assert self._distance(h, x) == 0

    def test_codeword_plus_one_bit(self):
        h = matrix([[1, 1, 0], [0, 1, 1]])
        x = vector([0, 1, 1])
        assert self._distance(h, x) == 1

    def test_repetition_length_4_half_flipped(self):
        h = matrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
        x = vector([1, 1, 0, 0])
        assert self._distance(h, x) == 2


bitrows = st.integers(min_value=1, max_value=6)


@settings(max_examples=60, deadline=None)
@given(
    rows=bitrows,
    cols=bitrows,
    inner=bitrows,
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_associativity_property(rows, cols, inner, seed):
    rng = random.Random(seed)
    a = random_matrix(rows, inner, rng)
    b = random_matrix(inner, cols, rng)
    v = BitVector(cols, rng.getrandbits(cols))
    assert a.matmul(b).mul_vec(v).bits == a.mul_vec(b.mul_vec(v)).bits
