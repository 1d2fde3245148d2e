"""Text serializations for parity-check matrices.

Two formats: the alist sparse format common in coding tools, and a plain
dense 0/1 grid with a "rows cols" header.  Both round-trip exactly.
"""

from __future__ import annotations

import itertools

from .errors import InvalidParameterError
from .f2 import BitMatrix


def matrix_to_alist(m: BitMatrix) -> str:
    """Serialize in alist order: cols rows, max degrees, degree lists, supports.

    Columns are treated as variable nodes and rows as check nodes; indices in
    the neighbor lists are 1-based per the format's convention.
    """
    col_supports: list[list[int]] = [[] for _ in range(m.cols)]
    row_supports: list[list[int]] = [[] for _ in range(m.rows)]
    for i, j in m.nonzero_entries():  # row by row, each row's columns ascending
        col_supports[j].append(i + 1)
        row_supports[i].append(j + 1)
    max_col = max((len(s) for s in col_supports), default=0)
    max_row = max((len(s) for s in row_supports), default=0)
    lines = [
        f"{m.cols} {m.rows}",
        f"{max_col} {max_row}",
        " ".join(str(len(s)) for s in col_supports),
        " ".join(str(len(s)) for s in row_supports),
    ]
    # pad with zeros to the max degree, as consumers of the format expect
    for s in col_supports:
        lines.append(" ".join(str(v) for v in s + [0] * (max_col - len(s))))
    for s in row_supports:
        lines.append(" ".join(str(v) for v in s + [0] * (max_row - len(s))))
    return "\n".join(lines) + "\n"


def matrix_from_alist(text: str) -> BitMatrix:
    """Parse ``matrix_to_alist`` output; ``InvalidParameterError`` on anything
    malformed, including a row section that disagrees with the columns."""
    try:
        values = [int(t) for t in text.split()]
    except ValueError:
        raise InvalidParameterError("alist input holds a non-integer token") from None
    it = iter(values)

    def take(count: int, what: str) -> list[int]:
        got = list(itertools.islice(it, count))
        if len(got) != count:
            raise InvalidParameterError(f"alist input ends in the {what}")
        return got

    cols, rows, max_col, max_row = take(4, "header")
    if min(cols, rows, max_col, max_row) < 0:
        raise InvalidParameterError("negative size in alist header")
    col_degs = take(cols, "column degrees")
    row_degs = take(rows, "row degrees")
    col_supports = [
        _alist_support(take(max_col, "columns"), col_degs[j], rows, f"column {j}")
        for j in range(cols)
    ]
    row_supports = [
        _alist_support(take(max_row, "rows"), row_degs[i], cols, f"row {i}")
        for i in range(rows)
    ]
    if next(it, None) is not None:
        raise InvalidParameterError("alist input has trailing tokens")
    m = BitMatrix(rows, cols)
    for j, support in enumerate(col_supports):
        for i in support:
            m.set(i, j, 1)
    for i, support in enumerate(row_supports):
        if m.row_bits[i] != sum(1 << j for j in support):
            raise InvalidParameterError(f"row {i} disagrees with the columns in alist")
    return m


def _alist_support(entries: list[int], degree: int, size: int, what: str) -> list[int]:
    """The 0-based indices of one padded 1-based neighbour list."""
    support = [e - 1 for e in entries if e]
    if len(support) != degree or len(set(support)) != degree:
        raise InvalidParameterError(f"{what} degree mismatch in alist")
    if not all(0 <= i < size for i in support):
        raise InvalidParameterError(f"{what} has an index outside 1..{size} in alist")
    return support


def matrix_to_dense_text(m: BitMatrix) -> str:
    """A "rows cols" header followed by one unpadded 0/1 string per row."""
    lines = [f"{m.rows} {m.cols}"]
    # a 1 set above the last column pads bin() to cols digits; reversed, and
    # cut before its "0b1", they read column 0 first
    lines += [bin(r | 1 << m.cols)[:2:-1] for r in m.row_bits]
    return "\n".join(lines) + "\n"


def matrix_from_dense_text(text: str) -> BitMatrix:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidParameterError("empty dense matrix input")
    try:
        rows, cols = (int(t) for t in lines[0].split())
    except ValueError:
        raise InvalidParameterError(f"bad dense header: {lines[0]!r}") from None
    if len(lines) != rows + 1:
        raise InvalidParameterError(f"expected {rows} rows, got {len(lines) - 1}")
    bits = []
    for ln in lines[1:]:
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise InvalidParameterError(f"bad dense row: {ln!r}")
        bits.append(int(ln[::-1], 2) if cols else 0)
    return BitMatrix(rows, cols, bits)
