"""Reference flip test and small-set suite: the plain ``Fraction`` versions.

These are the straightforward implementations that ``analysis`` replaces with
one integer flip test on per-complex masks and a small-set suite that
precomputes everything independent of the vector and checks one vector per
translation orbit.  Here every flip is scored as a ``Fraction``, and the suite
checks every vector on its own: its weighted norms as ``Fraction``s and its
boundary by a matrix product.  ``reference_square_count`` counts a vector's
squares by degrees and by faces.  Only the ``d2`` transpose and the flip
scores per overlap pair are shared between vectors, so they serve as an
independent oracle.
"""

import functools
from fractions import Fraction

from expander_ltc.analysis import (
    C1Vector,
    FlipResult,
    LocallyMinimalDistance,
    SmallSetCheck,
    boundary_1,
    c0_weighted_norm,
    enumerate_small_c1,
    small_set_epsilon,
    small_set_smallness_bounds,
    weighted_norm,
)
from expander_ltc.errors import PreconditionViolationError, VerificationError
from expander_ltc.f2 import BitVector, kernel_basis


def column_masks(bp):
    """Per-bit boundary supports of ``d2``, split into the V10 and V01 parts."""
    mask10 = (1 << bp.n10) - 1
    rows = bp.d2.transpose().row_bits
    return [b & mask10 for b in rows], [b >> bp.n10 for b in rows]


def flip_delta(bp, c1, col10, col01) -> Fraction:
    """Change of the weighted norm of ``c1`` when one boundary is added."""
    o10 = (col10 & c1.v10.bits).bit_count()
    o01 = (col01 & c1.v01.bits).bit_count()
    return _norm_change(bp.w_down, bp.w_right, o10, o01)


# Both depend only on the degrees and the two overlaps: a few dozen distinct
# arguments per complex, so the caches stay small.
@functools.cache
def _norm_change(w_down, w_right, o10, o01) -> Fraction:
    return Fraction(w_down - 2 * o10, w_down) + Fraction(w_right - 2 * o01, w_right)


@functools.cache
def _improves(w_down, w_right, o10, o01) -> bool:
    return _norm_change(w_down, w_right, o10, o01) < 0


def reference_is_locally_minimal(c1, bp, masks=None):
    """``(True, None)``, or ``(False, j)`` with ``j`` the first improving bit."""
    lo, hi = masks or column_masks(bp)
    v10, v01 = c1.v10.bits, c1.v01.bits
    for j in range(bp.n00):
        o10 = (lo[j] & v10).bit_count()
        o01 = (hi[j] & v01).bit_count()
        if _improves(bp.w_down, bp.w_right, o10, o01):
            return False, j
    return True, None


def reference_greedy_flip(c1, bp) -> FlipResult:
    """Flip the most improving bit (lowest index on ties) until none improves."""
    lo, hi = column_masks(bp)
    cur = c1
    flips = 0
    steps = 0
    while True:
        best_j = None
        best_delta = Fraction(0)
        for j in range(bp.n00):
            delta = flip_delta(bp, cur, lo[j], hi[j])
            if delta < best_delta:
                best_delta = delta
                best_j = j
        if best_j is None:
            break
        cur = C1Vector(
            BitVector(bp.n10, cur.v10.bits ^ lo[best_j]),
            BitVector(bp.n01, cur.v01.bits ^ hi[best_j]),
        )
        flips ^= 1 << best_j
        steps += 1
    return FlipResult(final=cur, flips=BitVector(bp.n00, flips), steps=steps)


def reference_locally_minimal_distance(bp) -> LocallyMinimalDistance:
    """The least ``(weight, weighted norm, stacked bits)`` over the nonzero
    locally minimal kernel vectors, each of which it visits.

    The weighted norm is a ``Fraction`` and each vector of the Gray sweep of
    ``kernel_basis`` is tested, heavy ones too.
    """
    basis = kernel_basis(bp.d1)
    best = None
    cur = 0
    length = bp.n10 + bp.n01
    for i in range(1, 1 << len(basis)):
        cur ^= basis[(i & -i).bit_length() - 1].bits
        c1 = C1Vector.from_stacked(bp, BitVector(length, cur))
        if not reference_is_locally_minimal(c1, bp)[0]:
            continue
        key = (cur.bit_count(), weighted_norm(c1, bp), cur)
        if best is None or key < best[0]:
            best = (key, c1)
    if best is None:
        return LocallyMinimalDistance(d_lm=None, witness=None)
    return LocallyMinimalDistance(d_lm=best[0][0], witness=best[1])


def reference_square_count(bp, c1, masks=None) -> int:
    lo, hi = masks or column_masks(bp)
    by_degrees = sum(
        (l & c1.v10.bits).bit_count() * (h & c1.v01.bits).bit_count()
        for l, h in zip(lo, hi)
    )
    by_faces = sum(1 for (_, i10, i01, _) in bp.faces if c1.v10[i10] and c1.v01[i01])
    if by_degrees != by_faces:
        raise VerificationError("square counting methods disagree")
    return by_faces


class _Reference:
    """What one evaluation reads that does not depend on c1, derived afresh
    for each ``reference_small_set_ltc_check`` and once per reference suite."""

    def __init__(self, bp, cert_x, cert_y):
        self.bp = bp
        self.bounds = small_set_smallness_bounds(bp, cert_x, cert_y)
        self.eps = small_set_epsilon(bp.w_up, cert_x, cert_y)
        self.masks = column_masks(bp)

    def check(self, c1) -> SmallSetCheck:
        """The inequality for a ``c1`` already known to be locally minimal."""
        bp = self.bp
        bound10, bound01 = self.bounds
        if not (c1.v10.weight() < bound10 and c1.v01.weight() < bound01):
            raise PreconditionViolationError("c1 is not small")
        lhs = (Fraction(1, 2) - 8 * self.eps) * weighted_norm(c1, bp)
        rhs = c0_weighted_norm(boundary_1(bp, c1), bp)
        return SmallSetCheck(
            lhs=lhs,
            rhs=rhs,
            holds=lhs <= rhs,
            c1_weight=c1.stacked().weight(),
        )


def reference_small_set_ltc_check(bp, cert_x, cert_y, c1) -> SmallSetCheck:
    """One evaluation of ``(1/2 - 8 eps) |c1|_w <= |d1 c1|_w``, from scratch."""
    ref = _Reference(bp, cert_x, cert_y)
    if not reference_is_locally_minimal(c1, bp, ref.masks)[0]:
        raise PreconditionViolationError("c1 is not locally minimal")
    return ref.check(c1)


def reference_small_set_suite(bp, cert_x, cert_y):
    """The inequality on every small locally minimal nonzero c1, one vector at
    a time, in the order of ``enumerate_small_c1``."""
    ref = _Reference(bp, cert_x, cert_y)
    out = []
    for c1 in enumerate_small_c1(bp, *ref.bounds):
        if c1.stacked().bits == 0:
            continue
        if not reference_is_locally_minimal(c1, bp, ref.masks)[0]:
            continue
        out.append(ref.check(c1))
    return out


def reference_translations(bp):
    """The maps ``h -> h t`` for every ``t``, each checked on every face and
    every edge of the four subgraphs; the identity alone if one fails."""
    g = bp.group
    size = max(bp.sizes)
    maps = [
        tuple(i - i % g.order + g.mul(i % g.order, t) for i in range(size))
        for t in g.elements()
    ]
    cell_sets = (
        set(bp.faces), bp.g_s0.edges, bp.g_s1.edges, bp.g_0s.edges, bp.g_1s.edges
    )
    if all(
        tuple(tau[v] for v in cell) in cells
        for tau in maps
        for cells in cell_sets
        for cell in cells
    ):
        return maps
    return [tuple(range(size))]
