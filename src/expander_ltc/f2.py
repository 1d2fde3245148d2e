"""Dense linear algebra over GF(2) on bit-packed Python integers.

A row or vector is a single ``int`` used as a bitset (bit ``i`` = entry
``i``).  Desk-scale matrices (a few thousand columns) never need anything
sparser, and ``int.bit_count`` keeps weight computations cheap.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import (
    DEFAULT_ENUM_BUDGET, BudgetExceededError, InvalidParameterError, _at_least, _index,
    _mask_to_list, _record,
)


class BitVector(_record("BitVector", [
    "length",  # int
    "bits",  # int: bit i is entry i
], defaults=(0,))):
    """A vector in GF(2)^length, packed into one integer."""

    __slots__ = ()

    def __new__(cls, length: int, bits: int = 0) -> "BitVector":
        _at_least(length, 0, "vector length")
        if type(bits) is not int or bits < 0 or bits >> length:
            raise InvalidParameterError(f"bits {bits!r} are no int of {length} bits")
        return super().__new__(cls, length, bits)

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "BitVector":
        bits = 0
        for i in support:
            bits |= 1 << _index(i, length, "support index")
        return cls(length, bits)

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> list[int]:
        return _mask_to_list(self.bits)

    def __getitem__(self, i: int) -> int:
        return (self.bits >> _index(i, self.length, "index")) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise InvalidParameterError("length mismatch in xor")
        return BitVector(self.length, self.bits ^ other.bits)

    def entries(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.length)]

    def __repr__(self) -> str:
        return "BitVector(%s)" % "".join(str(b) for b in self.entries())


class BitMatrix:
    """A rows x cols matrix over GF(2); each row is a packed integer."""

    __slots__ = ("rows", "cols", "row_bits")

    def __init__(self, rows: int, cols: int, row_bits: Sequence[int] | None = None):
        _at_least(rows, 0, "rows")
        _at_least(cols, 0, "cols")
        self.rows = rows
        self.cols = cols
        if row_bits is None:
            self.row_bits = [0] * rows
        else:
            if len(row_bits) != rows:
                raise InvalidParameterError("row count mismatch")
            for r in row_bits:
                if type(r) is not int or r < 0 or cols < r.bit_length():
                    raise InvalidParameterError(f"row {r!r} is no int of {cols} bits")
            self.row_bits = list(row_bits)

    def set(self, i: int, j: int, value: int) -> None:
        """Entry (i, j) := value, for ints i, j in range and value 0 or 1."""
        _index(i, self.rows, "row")
        _index(j, self.cols, "column")
        if _index(value, 2, "entry value"):
            self.row_bits[i] |= 1 << j
        else:
            self.row_bits[i] &= ~(1 << j)

    def mul_vec(self, v: BitVector) -> BitVector:
        """Matrix-vector product over GF(2)."""
        if v.length != self.cols:
            raise InvalidParameterError(
                f"dimension mismatch: {self.rows}x{self.cols} times {v.length}"
            )
        bits = 0
        vb = v.bits
        for i, r in enumerate(self.row_bits):
            if (r & vb).bit_count() & 1:
                bits |= 1 << i
        return BitVector(self.rows, bits)

    def matmul(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise InvalidParameterError("inner dimension mismatch")
        # (self @ other)[i] = xor of other rows selected by self row i
        out = []
        for r in self.row_bits:
            acc = 0
            for j in _mask_to_list(r):
                acc ^= other.row_bits[j]
            out.append(acc)
        return BitMatrix(self.rows, other.cols, out)

    def transpose(self) -> "BitMatrix":
        out = [0] * self.cols
        for i, r in enumerate(self.row_bits):
            for j in _mask_to_list(r):
                out[j] |= 1 << i
        return BitMatrix(self.cols, self.rows, out)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.row_bits)

    def nonzero_entries(self) -> list[tuple[int, int]]:
        return [(i, j) for i, r in enumerate(self.row_bits) for j in _mask_to_list(r)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_bits == other.row_bits
        )

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _row_echelon(row_bits: list[int], cols: int) -> tuple[list[int], list[int]]:
    """Return echelon rows and their pivot columns (lowest column first)."""
    rows = list(row_bits)
    pivots: list[int] = []
    echelon: list[int] = []
    for col in range(cols):
        mask = 1 << col
        pivot_row = None
        for idx, r in enumerate(rows):
            if r & mask:
                pivot_row = idx
                break
        if pivot_row is None:
            continue
        pr = rows.pop(pivot_row)
        rows = [r ^ pr if r & mask else r for r in rows]
        echelon.append(pr)
        pivots.append(col)
    return echelon, pivots


def rank(m: BitMatrix) -> int:
    return len(_row_echelon(m.row_bits, m.cols)[1])


def kernel_basis(m: BitMatrix) -> list[BitVector]:
    """A basis of ``{v : m v = 0}``; ``rank + len(basis) == cols``.

    Vector ``j`` is 1 at the ``j``-th free (non-pivot) column, which is its
    highest bit, and 0 at every other free column.
    """
    echelon, pivots = _row_echelon(m.row_bits, m.cols)
    pivot_set = set(pivots)
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for fc in free_cols:
        v = 1 << fc
        # back-substitute from the highest pivot down
        for r, p in zip(reversed(echelon), reversed(pivots)):
            if (r & v).bit_count() & 1:
                v ^= 1 << p
        basis.append(BitVector(m.cols, v))
    return basis


def gray_sweep(vectors: Sequence[int], budget: int) -> Iterator[int]:
    """The xor of every nonempty subset of ``vectors``, one toggle per step.

    The ``i``-th value yielded, for ``i = 1 .. 2^k - 1``, is the xor of the
    subset in the Gray code ``i ^ (i >> 1)`` (bit ``j`` selects
    ``vectors[j]``).  The ``2^k <= budget`` check runs once, before the
    first step.
    """
    count = 1 << len(vectors)
    if count > _at_least(budget, 1, "budget"):
        raise BudgetExceededError(
            f"2^{len(vectors)} combinations exceed budget", count, budget
        )
    cur = 0
    for i in range(1, count):
        cur ^= vectors[(i & -i).bit_length() - 1]
        yield cur


def min_weight_nonzero(
    basis: Sequence[BitVector], budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[int, BitVector] | None:
    """Exact minimum weight over all nonzero combinations of ``basis``.

    Returns ``None`` when the basis is empty (zero-dimensional code).  Ties
    break toward the lexicographically smallest packed representation so the
    witness is deterministic.
    """
    if not basis:
        return None
    sweep = gray_sweep([v.bits for v in basis], budget)
    w, bits = min((cur.bit_count(), cur) for cur in sweep)
    return w, BitVector(basis[0].length, bits)

