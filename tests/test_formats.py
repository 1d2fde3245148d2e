"""Round-trip tests for the matrix text formats."""

import random

import pytest

from expander_ltc.errors import InvalidParameterError
from expander_ltc.f2 import BitMatrix
from expander_ltc.formats import (
    matrix_from_alist,
    matrix_from_dense_text,
    matrix_to_alist,
    matrix_to_dense_text,
)

from test_f2 import matrix


# a 3x3 matrix: line 4 + j of its alist lists column j, line 7 + i row i
ALIST_3X3 = matrix_to_alist(matrix([[1, 0, 1], [0, 1, 1], [1, 1, 0]]))


def _alist_with(index, line):
    lines = ALIST_3X3.splitlines()
    lines[index] = line
    return "\n".join(lines) + "\n"


def random_matrix(rows, cols, seed):
    rng = random.Random(seed)
    return BitMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


class TestAlist:
    def test_round_trip_random(self):
        for seed in range(10):
            m = random_matrix(6, 9, seed)
            assert matrix_from_alist(matrix_to_alist(m)) == m

    def test_header(self):
        m = matrix([[1, 0, 1], [0, 1, 1]])
        lines = matrix_to_alist(m).splitlines()
        assert lines[0] == "3 2"  # cols (variables) first, then rows (checks)

    def test_one_based_indices(self):
        m = matrix([[1, 0], [0, 1]])
        lines = matrix_to_alist(m).splitlines()
        # supports of the identity are the 1-based diagonal entries
        assert lines[4:] == ["1", "2", "1", "2"]

    def test_truncated_input_rejected(self):
        with pytest.raises(InvalidParameterError):
            matrix_from_alist("3 2")

    def test_truncated_column_section_rejected(self):
        text = "\n".join(ALIST_3X3.splitlines()[:5])
        with pytest.raises(InvalidParameterError, match="ends in the columns"):
            matrix_from_alist(text)

    def test_negative_index_rejected(self):
        # -2 would wrap to the last row, where column 0 already has an entry
        with pytest.raises(InvalidParameterError, match="outside"):
            matrix_from_alist(_alist_with(4, "-2 1"))

    def test_index_above_rows_rejected(self):
        with pytest.raises(InvalidParameterError, match="outside"):
            matrix_from_alist(_alist_with(4, "1 4"))

    def test_missing_row_section_rejected(self):
        text = "\n".join(ALIST_3X3.splitlines()[:7])
        with pytest.raises(InvalidParameterError, match="ends in the rows"):
            matrix_from_alist(text)

    def test_row_section_disagreeing_with_columns_rejected(self):
        assert matrix_from_alist(ALIST_3X3).row_bits[0] >> 1 & 1 == 0
        with pytest.raises(InvalidParameterError, match="row 0 disagrees"):
            matrix_from_alist(_alist_with(7, "1 2"))

    def test_trailing_tokens_rejected(self):
        with pytest.raises(InvalidParameterError, match="trailing"):
            matrix_from_alist(ALIST_3X3 + "1\n")


class TestDenseText:
    def test_round_trip_random(self):
        for seed in range(10):
            m = random_matrix(5, 12, seed)
            assert matrix_from_dense_text(matrix_to_dense_text(m)) == m

    def test_layout(self):
        m = matrix([[1, 0, 1]])
        assert matrix_to_dense_text(m) == "1 3\n101\n"

    def test_bad_row_rejected(self):
        with pytest.raises(InvalidParameterError):
            matrix_from_dense_text("1 3\n10")

    def test_bad_characters_rejected(self):
        with pytest.raises(InvalidParameterError):
            matrix_from_dense_text("1 3\n1x1")

    @pytest.mark.parametrize("header", ["1 3 4", "one 3", "3"])
    def test_header_not_two_integers_rejected(self, header):
        with pytest.raises(InvalidParameterError, match="header"):
            matrix_from_dense_text(f"{header}\n101")
