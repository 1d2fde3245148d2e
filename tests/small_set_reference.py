"""Reference flip test and small-set suite: the plain ``Fraction`` versions.

These are the straightforward implementations that ``analysis`` replaces with
one integer flip test on per-complex masks and a small-set suite that
precomputes everything independent of the vector.  Here every call rebuilds
the ``d2`` transpose, every flip is scored as a ``Fraction``, and every vector
of the suite rebuilds both 1-d subgraphs, so they serve as an independent
oracle.
"""

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
from expander_ltc.graphs import unique_neighbors
from expander_ltc.products import one_d_subgraph


def column_masks(bp):
    """Per-bit boundary supports of ``d2``, split into the V10 and V01 parts."""
    mask10 = (1 << bp.n10) - 1
    rows = bp.d2.transpose().row_bits
    return [b & mask10 for b in rows], [b >> bp.n10 for b in rows]


def flip_delta(bp, c1, col10, col01) -> Fraction:
    """Change of the weighted norm of ``c1`` when one boundary is added."""
    o10 = (col10 & c1.v10.bits).bit_count()
    o01 = (col01 & c1.v01.bits).bit_count()
    return Fraction(bp.w_down - 2 * o10, bp.w_down) + Fraction(
        bp.w_right - 2 * o01, bp.w_right
    )


def reference_is_locally_minimal(c1, bp):
    """``(True, None)``, or ``(False, j)`` with ``j`` the first improving bit."""
    lo, hi = column_masks(bp)
    for j in range(bp.n00):
        if flip_delta(bp, c1, lo[j], hi[j]) < 0:
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
    """Least weight, then least weighted norm, of a nonzero minimal kernel vector.

    Visits the kernel vectors in the same Gray order as the library, without
    skipping heavy ones, so ties resolve to the same witness.
    """
    basis = kernel_basis(bp.d1)
    best_w = best = best_norm = None
    cur = 0
    length = bp.n10 + bp.n01
    for i in range(1, 1 << len(basis)):
        cur ^= basis[(i & -i).bit_length() - 1].bits
        c1 = C1Vector.from_stacked(bp, BitVector(length, cur))
        if not reference_is_locally_minimal(c1, bp)[0]:
            continue
        w = cur.bit_count()
        norm = weighted_norm(c1, bp)
        if best_w is None or w < best_w or (w == best_w and norm < best_norm):
            best_w, best, best_norm = w, c1, norm
    return LocallyMinimalDistance(d_lm=best_w, witness=best, weighted_min=best_norm)


def reference_square_count(bp, c1) -> int:
    lo, hi = column_masks(bp)
    by_degrees = sum(
        (l & c1.v10.bits).bit_count() * (h & c1.v01.bits).bit_count()
        for l, h in zip(lo, hi)
    )
    by_faces = sum(1 for (_, i10, i01, _) in bp.faces if c1.v10[i10] and c1.v01[i01])
    if by_degrees != by_faces:
        raise VerificationError("square counting methods disagree")
    return by_faces


def reference_small_set_ltc_check(bp, cert_x, cert_y, c1) -> SmallSetCheck:
    """One evaluation of ``(1/2 - 8 eps) |c1|_w <= |d1 c1|_w``, from scratch."""
    if not (cert_x.certifies and cert_y.certifies):
        raise PreconditionViolationError("both certificates must be exhaustive")
    if not reference_is_locally_minimal(c1, bp)[0]:
        raise PreconditionViolationError("c1 is not locally minimal")
    bound10, bound01 = small_set_smallness_bounds(bp, cert_x, cert_y)
    if not (c1.v10.weight() < bound10 and c1.v01.weight() < bound01):
        raise PreconditionViolationError("c1 is not small")
    eps = small_set_epsilon(bp, cert_x, cert_y)
    lhs = (Fraction(1, 2) - 8 * eps) * weighted_norm(c1, bp)
    rhs = c0_weighted_norm(boundary_1(bp, c1), bp)
    sub_1s = one_d_subgraph(bp, "1*")
    sub_s1 = one_d_subgraph(bp, "*1")
    return SmallSetCheck(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        epsilon=eps,
        c1_weight=c1.weight(),
        unique_to_v10=len(unique_neighbors(sub_1s.graph, c1.v10.support())),
        unique_to_v01=len(unique_neighbors(sub_s1.graph, c1.v01.support())),
        squares=reference_square_count(bp, c1),
    )


def reference_small_set_suite(bp, cert_x, cert_y, include_zero=False):
    """The inequality on every small locally minimal c1, one vector at a time."""
    bound10, bound01 = small_set_smallness_bounds(bp, cert_x, cert_y)
    out = []
    for c1 in enumerate_small_c1(bp, bound10, bound01):
        if c1.is_zero() and not include_zero:
            continue
        if not reference_is_locally_minimal(c1, bp)[0]:
            continue
        out.append(reference_small_set_ltc_check(bp, cert_x, cert_y, c1))
    return out
