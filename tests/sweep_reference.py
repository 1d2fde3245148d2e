"""Reference sweeps: one hand-written Gray loop per analysis.

These are the straightforward versions of what ``f2.gray_sweep`` and the
LT profile's breadth-first search replace.  Exact soundness and the LT profile each sweep
the whole space and keep their own table, so they serve as an independent
oracle; ``reference_min_preimages`` is that table for any list of columns.
The reference for the locally minimal distance is
``small_set_reference.reference_locally_minimal_distance``.
"""

from fractions import Fraction

from expander_ltc.analysis import LTProfile, SoundnessReport
from expander_ltc.errors import DegenerateCodeError
from expander_ltc.f2 import BitVector, rank


def column_bits(m, j):
    """Column ``j`` of a ``BitMatrix``, packed like a row: bit ``i`` is row ``i``."""
    return sum(((r >> j) & 1) << i for i, r in enumerate(m.row_bits))


def _gray(basis_bits):
    """``(i, cur)`` for every nonempty combination, in Gray order."""
    cur = 0
    for i in range(1, 1 << len(basis_bits)):
        cur ^= basis_bits[(i & -i).bit_length() - 1]
        yield i, cur


def reference_min_weight_nonzero(basis):
    """Least ``(weight, vector)`` over nonzero combinations, or ``None``."""
    if not basis:
        return None
    best_w = best = None
    for _, cur in _gray([v.bits for v in basis]):
        w = cur.bit_count()
        if best_w is None or w < best_w or (w == best_w and cur < best):
            best_w, best = w, cur
    return best_w, BitVector(basis[0].length, best)


def reference_min_preimages(columns):
    """Every image of the map with these columns, to its least ``(weight, bits)``
    preimage; ties go to the smaller bits."""
    least = {0: (0, 0)}
    for i, image in _gray(columns):
        bits = i ^ (i >> 1)
        pre = (bits.bit_count(), bits)
        cur = least.get(image)
        if cur is None or pre < cur:
            least[image] = pre
    return least


def reference_soundness_exhaustive(code) -> SoundnessReport:
    """Coset-leader table over the full space, then the least ratio by syndrome."""
    n, m = code.n, code.m
    if m == 0 or rank(code.h) == 0:
        raise DegenerateCodeError("code equals the full space")
    columns = [column_bits(code.h, j) for j in range(n)]
    leader = {}  # syndrome -> (weight, x bits)
    x = syn = 0
    for i in range(1, 1 << n):
        j = (i & -i).bit_length() - 1
        x ^= 1 << j
        syn ^= columns[j]
        if syn == 0:
            continue
        w = x.bit_count()
        cur = leader.get(syn)
        if cur is None or w < cur[0] or (w == cur[0] and x < cur[1]):
            leader[syn] = (w, x)
    best = best_x = None
    for syn, (w, xbits) in sorted(leader.items()):
        ratio = Fraction(syn.bit_count() * n, m * w)
        if best is None or ratio < best:
            best, best_x = ratio, xbits
    return SoundnessReport(s=best, witness=BitVector(n, best_x))


def reference_lt_profile(bp, max_c1_weight) -> LTProfile:
    """Least preimage of every image of ``d2``, then the worst one per weight."""
    n, m = bp.n00, bp.n10 + bp.n01
    columns = [column_bits(bp.d2, j) for j in range(n)]
    minpre = {0: (0, 0)}  # image -> (weight, preimage bits)
    c2 = img = 0
    for i in range(1, 1 << n):
        j = (i & -i).bit_length() - 1
        c2 ^= 1 << j
        img ^= columns[j]
        w = c2.bit_count()
        cur = minpre.get(img)
        if cur is None or w < cur[0] or (w == cur[0] and c2 < cur[1]):
            minpre[img] = (w, c2)
    table = {}
    witnesses = {}
    for img, (w, c2bits) in sorted(minpre.items()):
        iw = img.bit_count()
        if iw and (iw not in table or w > table[iw]):
            table[iw] = w
            witnesses[iw] = (BitVector(m, img), BitVector(n, c2bits))
    profiled = [w for w in table if w <= max_c1_weight]
    kappa = max((Fraction(table[w], w) for w in profiled), default=Fraction(0))
    d_lt = (max(table) if table else 0) + 1
    for w in sorted(table):
        if kappa == 0 or Fraction(table[w], w) > kappa:
            d_lt = w
            break
    return LTProfile(
        table=table,
        witnesses=witnesses,
        kappa=kappa,
        d_lt=d_lt,
    )
