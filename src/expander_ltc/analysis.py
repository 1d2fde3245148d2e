"""Code-level analyses of a balanced-product chain complex.

Everything here is a pure function of an immutable complex: code parameters,
weighted local minimality and greedy flipping, the two distance notions they
induce, the LT profile and the exact soundness read off it, square counting,
and the small-set testability inequality with its sharp example.  No record
caches anything: ``lt_profile`` runs the one min-preimage search of ``d2``, and
``soundness_exhaustive`` takes the profile it returns.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    DegenerateCodeError,
    InvalidParameterError,
    PreconditionViolationError,
    VerificationError,
    _at_least,
    _index,
    _record,
)
from .f2 import (
    DEFAULT_ENUM_BUDGET,
    BitMatrix,
    BitVector,
    gray_sweep,
    kernel_basis,
    rank,
)
from .graphs import (
    ExpansionCertificate,
    _mask_to_list,
    _preserves,
    _strict_floor,
    small_set_epsilon,
)
from .groups import block_action, right_regular_action_as_left
from .products import BalancedProductComplex


# ---------------------------------------------------------------------------
# code instances


class CodeInstance(_record("CodeInstance", [
    "h",  # BitMatrix
    "n",  # int
    "m",  # int
    "k",  # int
    "locality",  # int
])):
    """The classical code with the complex's lower boundary map as checks."""

    __slots__ = ()

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)


def code_from_complex(bp: BalancedProductComplex) -> CodeInstance:
    """Assemble ``C(H = d2)``: bits on V00, checks on V10 and V01, of weight
    ``w_up`` and ``w_left`` (``balanced_product`` checked them).  Checks the
    structural rate bound ``k/n >= 1 - w_down/w_up - w_right/w_left``.
    """
    h = bp.d2
    n = bp.n00
    m = bp.n10 + bp.n01
    k = n - rank(h)
    locality = max(bp.w_up, bp.w_left)
    rate_bound = 1 - Fraction(bp.w_down, bp.w_up) - Fraction(bp.w_right, bp.w_left)
    if Fraction(k, n) < rate_bound:
        raise VerificationError(f"rate {k}/{n} is below the bound {rate_bound}")
    return CodeInstance(h=h, n=n, m=m, k=k, locality=locality)


# ---------------------------------------------------------------------------
# C1 vectors and weighted norms


class C1Vector(_record("C1Vector", [
    "v10",  # BitVector
    "v01",  # BitVector
])):
    """An element of the middle chain space, split by check corner."""

    __slots__ = ()

    @classmethod
    def from_supports(
        cls, bp: BalancedProductComplex, s10: Iterable[int], s01: Iterable[int]
    ) -> "C1Vector":
        return cls(
            BitVector.from_support(bp.n10, s10),
            BitVector.from_support(bp.n01, s01),
        )

    @classmethod
    def from_stacked(cls, bp: BalancedProductComplex, v: BitVector) -> "C1Vector":
        if v.length != bp.n10 + bp.n01:
            raise InvalidParameterError("stacked vector has wrong length")
        mask10 = (1 << bp.n10) - 1
        return cls(
            BitVector(bp.n10, v.bits & mask10),
            BitVector(bp.n01, v.bits >> bp.n10),
        )

    def stacked(self) -> BitVector:
        return BitVector(
            self.v10.length + self.v01.length,
            self.v10.bits | (self.v01.bits << self.v10.length),
        )


def weighted_norm(c1: C1Vector, bp: BalancedProductComplex) -> Fraction:
    """``|v10| / w_down + |v01| / w_right`` as an exact rational."""
    return Fraction(c1.v10.weight(), bp.w_down) + Fraction(c1.v01.weight(), bp.w_right)


def c0_weighted_norm(c0: BitVector, bp: BalancedProductComplex) -> Fraction:
    """``|c0| / (w_down * w_right)``."""
    return Fraction(c0.weight(), bp.w_down * bp.w_right)


def boundary_1(bp: BalancedProductComplex, c1: C1Vector) -> BitVector:
    return bp.d1.mul_vec(c1.stacked())


def _overlaps(masks: Sequence[int], bits: int) -> list[int]:
    """``|masks[j] & bits|`` for every bit ``j`` of C2.

    With ``bp.g_s0.left_masks`` or ``bp.g_0s.left_masks`` as ``masks`` these
    are the overlaps of each ``d2`` column's V10 or V01 part with ``bits``.
    """
    return [(m & bits).bit_count() for m in masks]


def _best_flip(
    bp: BalancedProductComplex, o10: Sequence[int], o01: Sequence[int]
) -> int | None:
    """The exact flip test: the bit of C2 whose boundary lowers ``|c1|_w`` most.

    Adding the boundary of bit ``j`` changes ``|c1|_w`` by
    ``(w_down - 2 o10) / w_down + (w_right - 2 o01) / w_right``, where ``o10``
    and ``o01`` are the overlaps of that boundary with ``v10`` and ``v01``.
    Times ``w_down * w_right`` this is the integer compared below, so bit
    ``j`` improves ``c1`` iff it is negative.  Ties go to the lowest bit;
    ``None`` means ``c1`` is weighted locally minimal.
    """
    wd, wr = bp.w_down, bp.w_right
    changes = [wr * (wd - 2 * a) + wd * (wr - 2 * b) for a, b in zip(o10, o01)]
    best = min(changes, default=0)
    return changes.index(best) if best < 0 else None


def is_locally_minimal(
    c1: C1Vector, bp: BalancedProductComplex
) -> tuple[bool, int | None]:
    """Weighted local minimality; if not, also the bit ``greedy_flip`` would flip."""
    lo, hi = bp.g_s0.left_masks, bp.g_0s.left_masks
    j = _best_flip(bp, _overlaps(lo, c1.v10.bits), _overlaps(hi, c1.v01.bits))
    return j is None, j


FlipResult = _record("FlipResult", [
    "final",  # C1Vector
    "flips",  # BitVector: accumulated toggles over V00
    "steps",  # int
])


def greedy_flip(c1: C1Vector, bp: BalancedProductComplex) -> FlipResult:
    """Apply weight-reducing boundary flips until weighted locally minimal.

    Among improving flips the one with the largest weighted decrease wins,
    ties broken by lowest bit index, so runs are deterministic.  The syndrome
    ``d1 c1`` is invariant throughout.
    """
    lo, hi = bp.g_s0.left_masks, bp.g_0s.left_masks
    v10, v01 = c1.v10.bits, c1.v01.bits
    flips = 0
    steps = 0
    while (j := _best_flip(bp, _overlaps(lo, v10), _overlaps(hi, v01))) is not None:
        v10 ^= lo[j]
        v01 ^= hi[j]
        flips ^= 1 << j
        steps += 1
    final = C1Vector(BitVector(bp.n10, v10), BitVector(bp.n01, v01))
    return FlipResult(final=final, flips=BitVector(bp.n00, flips), steps=steps)


# ---------------------------------------------------------------------------
# soundness


class SoundnessReport(_record("SoundnessReport", [
    "s",  # Fraction
    "witness",  # BitVector
])):
    """Exact minimum of ``(|Hx| / m) * (n / d(x, C))`` over non-codewords ``x``."""

    __slots__ = ()


def _by_weight(
    part: int, counter: Sequence[int], i: int = 0, key: int = 0
) -> Iterator[tuple[int, int]]:
    """``(iw, images)`` for each image weight ``iw`` met by the index set
    ``part``: its indices whose image has that weight.  ``counter[i]`` holds
    the indices whose image weight has bit ``i``; depth first, so no more
    than one path of subsets is alive at a time."""
    if i == len(counter):
        yield key, part
        return
    hit = part & counter[i]
    if hit:
        yield from _by_weight(hit, counter, i + 1, key | 1 << i)
    if hit != part:
        yield from _by_weight(part ^ hit, counter, i + 1, key)


def _preimage_profile(
    bp: BalancedProductComplex, budget: int
) -> dict[int, tuple[int, int, int]]:
    """Per image weight ``iw`` of ``d2``: the worst least-preimage weight, the
    smallest image of weight ``iw`` that has it, and that image's least preimage.

    Column ``j`` of ``d2`` joins the left masks ``g_s0.left_masks[j]`` (its
    V10 part) and ``g_0s.left_masks[j]`` (its V01 part).  Each kernel vector
    of ``kernel_basis(bp.d2)`` is the only one that is 1 at its free column,
    so the other ``rank`` (pivot) columns are independent, and each image is
    indexed by the pivot columns that sum to it: index bit ``t`` is pivot
    ``t``.  A set of images is one ``2^rank``-bit int, bit ``i`` for index
    ``i``.

    An image's least preimage weight is its distance from 0 when each step
    adds one column, so a breadth-first search finds it: layer ``w + 1`` is
    layer ``w`` translated by every column's index vector, minus the images
    seen.  A pivot's index vector is one bit, a free column's the pivot part
    of its kernel vector, and translating a set by one bit is a masked block
    swap.  A bit-sliced counter of the image bits splits each layer by image
    weight; the deepest layer that meets a weight holds its worst images, and
    a greedy from the top image bit picks the smallest of them.  Its least
    ``(weight, bits)`` preimage is the least of the ``2^k`` elements of its
    coset of ker d2.  No table is kept.  The ``2^n00`` preimages bound the
    work and are checked against the budget before it starts.
    """
    n = bp.n00
    if (1 << n) > budget:
        raise BudgetExceededError(f"2^{n} preimages exceed budget", 1 << n, budget)
    m = bp.n10 + bp.n01
    columns = [a | b << bp.n10 for a, b in zip(bp.g_s0.left_masks, bp.g_0s.left_masks)]
    kernel = [v.bits for v in kernel_basis(bp.d2)]
    free = 0
    for z in kernel:
        free |= 1 << (z.bit_length() - 1)
    pivots = [j for j in range(n) if not free >> j & 1]
    r = len(pivots)
    full = (1 << (1 << r)) - 1  # every index
    # low[t]: the indices with bit t clear, each mask made from the next one;
    # low[r - 1] is the lower half of the indices
    low = [(1 << (1 << r >> 1)) - 1] * r
    for t in reversed(range(r - 1)):
        low[t] = low[t + 1] ^ low[t + 1] << (1 << t)
    # per column, the masked block swaps that translate a set by its index vector
    moves = [[(1 << t, low[t])] for t in range(r)]
    for z in kernel:
        moves.append([(1 << t, low[t]) for t, j in enumerate(pivots) if z >> j & 1])
    rows = [0] * m  # rows[e]: the index bits whose pivot column has image bit e
    for t, j in enumerate(pivots):
        for e in _mask_to_list(columns[j]):
            rows[e] |= 1 << t

    def plane(e: int) -> int:
        """The indices whose image has bit ``e``: the xor of the complements
        of ``low[t]`` over the pivots ``t`` that have it."""
        p = full if rows[e].bit_count() & 1 else 0
        for t in _mask_to_list(rows[e]):
            p ^= low[t]
        return p

    counter: list[int] = []  # ripple-carry sum of the planes, one int per bit
    for e in range(m):
        carry = plane(e)
        for i, part in enumerate(counter):
            counter[i] = part ^ carry
            carry &= part
            if not carry:
                break
        if carry:
            counter.append(carry)
    depth: dict[int, int] = {}  # iw -> the deepest layer w that meets it
    candidates: dict[int, int] = {}  # iw -> its images in layer depth[iw]
    w, layer, seen = 0, 1, 1  # layer 0 is index 0, the zero image
    while layer:
        for iw, part in _by_weight(layer, counter):
            depth[iw], candidates[iw] = w, part
        grown = 0
        for swaps in moves:
            moved = layer
            for s, mask in swaps:
                moved = (moved & mask) << s | (moved >> s) & mask
            grown |= moved
        layer = (grown | seen) ^ seen
        seen |= layer
        w += 1
    del depth[0], candidates[0]
    for e in reversed(range(m)):  # keep the images without bit e, if any
        clear = full ^ plane(e)
        for iw, part in candidates.items():
            if rest := part & clear:
                candidates[iw] = rest
    profile = {}
    for iw, w in depth.items():
        i = candidates[iw].bit_length() - 1  # the one index left
        image = x = 0
        for t in _mask_to_list(i):
            image ^= columns[pivots[t]]
            x |= 1 << pivots[t]
        coset = itertools.chain((x,), (x ^ z for z in gray_sweep(kernel, budget)))
        profile[iw] = (w, image, min((y.bit_count(), y) for y in coset)[1])
    return profile


def soundness_exhaustive(code: CodeInstance, ltp: LTProfile) -> SoundnessReport:
    """Exact soundness from the LT profile of the complex ``code`` comes from.

    A syndrome's least preimage is its coset leader, whose weight is exactly
    ``d(x, C)`` for any ``x`` in the coset.  For a syndrome weight the ratio
    is least at the worst coset leader, which ``ltp.table`` holds and
    ``ltp.witnesses`` realizes, so the minimum is taken over that per-weight
    profile; ties go to the smallest syndrome.  The witness is its coset
    leader, and it must reproduce its syndrome under ``code.h``: a profile of
    another complex raises ``VerificationError``.
    """
    n, m = code.n, code.m
    if m == 0 or code.k == n:
        raise DegenerateCodeError("code equals the full space; soundness undefined")
    s, image, pre = min(
        (Fraction(iw * n, m * ltp.table[iw]), image, pre)
        for iw, (image, pre) in ltp.witnesses.items()
    )
    if pre.length != n or code.h.mul_vec(pre) != image:
        raise VerificationError(
            f"soundness witness {pre.support()} does not map to its syndrome: "
            f"the LT profile is not of this code's complex"
        )
    return SoundnessReport(s=s, witness=pre)


# ---------------------------------------------------------------------------
# locally minimal / locally testable distances


class LocallyMinimalDistance(_record("LocallyMinimalDistance", [
    "d_lm",  # int | None
    "witness",  # C1Vector | None
])):
    """Minimum plain weight over nonzero weighted-locally-minimal kernel vectors.

    ``d_lm is None`` signals that no such vector exists.  ``witness`` is the
    vector of weight ``d_lm`` with the least weighted norm, then the least
    stacked bits, whichever loop of ``locally_minimal_distance`` ran.
    """

    __slots__ = ()


# a support of the weight-first search costs about this many Gray steps of
# the sweep: 2 to 5 on cyclic complexes with kernel dimension 13 to 20, each
# loop timed whole, kernel vectors found and all
_SUBSET_STEPS = 3


def _weight_first(
    columns: Sequence[int], basis: Sequence[int], budget: int, least: Callable
) -> tuple | None:
    """``least`` of the nonzero kernel vectors of weight ``w`` of the map with
    these ``columns``, at the first ``w`` where it is not ``None``: each is a
    ``(w-1)``-subset ``S`` of the positions, in ``combinations`` order,
    completed by a position above ``max S`` whose column is the syndrome of
    ``S``.  One subset is one step of the budget.  A weight whose subsets
    would take the count past ``budget``, or past ``2^dim / _SUBSET_STEPS``
    when the sweep fits it, hands off to ``least`` of the Gray sweep of the
    span of ``basis``, which checks ``2^dim <= budget`` itself; so the budget
    counts the loop that runs."""
    sweep = 1 << len(basis)
    limit = budget if sweep > budget else sweep // _SUBSET_STEPS
    positions: dict[int, list[int]] = {}
    for j, column in enumerate(columns):
        positions.setdefault(column, []).append(j)

    def completions(w: int) -> Iterator[int]:
        for prefix in itertools.combinations(range(len(columns)), w - 1):
            syndrome = bits = 0
            for i in prefix:
                syndrome ^= columns[i]
                bits |= 1 << i
            for j in positions.get(syndrome, ()):
                if not bits >> j:  # j lies above max S
                    yield bits | 1 << j

    steps = 0
    for w in range(1, len(columns) + 1):
        steps += math.comb(len(columns), w - 1)
        if steps > limit:
            break
        if (found := least(completions(w))) is not None:
            return found
    return least(gray_sweep(basis, budget))


def locally_minimal_distance(
    bp: BalancedProductComplex, budget: int = DEFAULT_ENUM_BUDGET
) -> LocallyMinimalDistance:
    """The least weight of a nonzero weighted-locally-minimal vector of ker d1:
    ``_weight_first`` over ``d1``'s columns by stacked position, folded by
    ``_least_minimal``."""
    _at_least(budget, 1, "budget")
    columns = bp.g_1s.left_masks + bp.g_s1.left_masks
    basis = [v.bits for v in kernel_basis(bp.d1)]
    found = _weight_first(columns, basis, budget, lambda vs: _least_minimal(bp, vs))
    return found or LocallyMinimalDistance(d_lm=None, witness=None)


def _least_minimal(
    bp: BalancedProductComplex, candidates: Iterable[int]
) -> LocallyMinimalDistance | None:
    """The record of the least ``(weight, w_right |v10| + w_down |v01|,
    bits)`` over the locally minimal stacked vectors ``cur`` of
    ``candidates``, or ``None`` if there is none.

    The middle term is the weighted norm times ``w_down * w_right``.  Only a
    candidate below the least so far is tested.
    """
    n10, wd, wr = bp.n10, bp.w_down, bp.w_right
    length, mask10 = n10 + bp.n01, (1 << n10) - 1
    best = None
    bound = length  # the weight of best, once there is one
    for cur in candidates:
        w = cur.bit_count()
        if w > bound:
            continue
        key = (w, (cur & mask10).bit_count() * wr + (cur >> n10).bit_count() * wd, cur)
        if best is not None and key > best:
            continue
        if is_locally_minimal(C1Vector.from_stacked(bp, BitVector(length, cur)), bp)[0]:
            best, bound = key, w
    if best is not None:
        witness = C1Vector.from_stacked(bp, BitVector(length, best[2]))
        return LocallyMinimalDistance(d_lm=best[0], witness=witness)


class LTProfile(_record("LTProfile", [
    "table",  # dict[int, int]
    "witnesses",  # dict[int, tuple[BitVector, BitVector]]: w -> (image, preimage)
    "kappa",  # Fraction
    "d_lt",  # int
])):
    """Worst minimal-preimage weight per weight of an image vector.

    ``table[w]`` is the maximum over image vectors of weight ``w`` of the
    minimum weight of a preimage under the upper boundary map.  ``kappa`` is
    the largest ratio ``table[w] / w`` over the profiled range, materializing
    the otherwise-unquantified linearity constant.  ``d_lt`` is the largest
    weight threshold below which every image vector admits a preimage of
    weight at most ``kappa`` times its own.
    """

    __slots__ = ()


def lt_profile(
    bp: BalancedProductComplex,
    max_c1_weight: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> LTProfile:
    """Profile minimum preimage weights over the full image of ``d2``."""
    _at_least(max_c1_weight, 0, "max_c1_weight")
    profile = sorted(_preimage_profile(bp, _at_least(budget, 1, "budget")).items())
    table = {iw: w for iw, (w, _, _) in profile}
    witnesses = {
        iw: (BitVector(bp.n10 + bp.n01, image), BitVector(bp.n00, pre))
        for iw, (_, image, pre) in profile
    }
    profiled = [w for w in table if w <= max_c1_weight]
    kappa = max(
        (Fraction(table[w], w) for w in profiled), default=Fraction(0)
    )
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


def soundness_from_lt(code: CodeInstance, ltp: LTProfile) -> Fraction:
    """Lower bound ``min(n / (m * kappa), d_lt / m)`` on exact soundness."""
    terms = [Fraction(ltp.d_lt, code.m)]
    if ltp.kappa > 0:
        terms.append(Fraction(code.n, code.m) / ltp.kappa)
    return min(terms)


# ---------------------------------------------------------------------------
# squares and the small-set inequality


class SmallSetCheck(_record("SmallSetCheck", [
    "lhs",  # Fraction
    "rhs",  # Fraction
    "holds",  # bool
    "c1_weight",  # int
])):
    """One evaluation of the small-set testability inequality."""

    __slots__ = ()

    @property
    def margin(self) -> Fraction:
        return self.rhs - self.lhs


def small_set_smallness_bounds(
    bp: BalancedProductComplex,
    cert_x: ExpansionCertificate,
    cert_y: ExpansionCertificate,
) -> tuple[Fraction, Fraction]:
    """Strict upper bounds on ``|v10|`` and ``|v01|`` for the lemma to apply."""
    c_down, c_right = cert_x.c, cert_y.c
    v0x = bp.x.v0_size
    v0y = bp.y.v0_size
    bound10 = min(c_down * v0x / bp.w_up, Fraction(c_right * v0y))
    bound01 = min(c_right * v0y / bp.w_left, Fraction(c_down * v0x))
    return bound10, bound01


class _Part(_record("_Part", [
    "bits",  # int
    "weight",  # int
    # list[int]: levels[a] holds the d2 columns whose part in this corner
    # meets ``bits`` in at least ``a`` vertices, for a = 0 .. the largest
    # column part
    "levels",
    "syndrome",  # int: d1 of this part
])):
    """One corner's part of a c1 (``v10`` or ``v01``): its level masks for
    the flip test and its syndrome for the margin."""

    __slots__ = ()


def _flip_levels(w_down: int, w_right: int) -> list[tuple[int, int]]:
    """The level pairs of the flip test on level masks.

    A bit of C2 whose boundary meets ``v10`` in ``a`` and ``v01`` in ``b``
    vertices improves ``c1`` iff ``w_right·a + w_down·b > w_down·w_right``
    (``_best_flip``).  Levels only shrink as ``a`` or ``b`` grows, so it is
    enough to pair each ``a`` with its least such ``b``, and to drop a pair
    whose ``b`` an earlier (smaller) ``a`` already reaches.  A d2 column
    has ``w_down`` bits in V10 and ``w_right`` in V01, so ``a`` and ``b`` stop there.
    """
    pairs: list[tuple[int, int]] = []
    for a in range(w_down + 1):
        for b in range(w_right + 1):
            if w_right * a + w_down * b > w_down * w_right:
                if not pairs or b < pairs[-1][1]:
                    pairs.append((a, b))
                break
    return pairs


class _SmallSet:
    """Everything the small-set inequality reads that does not depend on c1."""

    def __init__(
        self,
        bp: BalancedProductComplex,
        cert_x: ExpansionCertificate,
        cert_y: ExpansionCertificate,
    ):
        self.bounds = small_set_smallness_bounds(bp, cert_x, cert_y)
        self.max_weights = tuple(_strict_floor(b) for b in self.bounds)
        # the margin's integer coefficients, for factor = 1/2 - 8 eps = p/q
        factor = Fraction(1, 2) - 8 * small_set_epsilon(bp.w_up, cert_x, cert_y)
        self.q = factor.denominator
        self.p_right = factor.numerator * bp.w_right
        self.p_down = factor.numerator * bp.w_down
        # by corner (v10, v01): each vertex's part of the d2 columns, and its
        # d1 column
        self.d2_masks = (bp.g_s0.left_masks, bp.g_0s.left_masks)
        self.d1_columns = (bp.g_1s.left_masks, bp.g_s1.left_masks)
        self.tops = (bp.w_down, bp.w_right)
        self.flip_levels = _flip_levels(*self.tops)

    def part(self, corner: int, support: Sequence[int]) -> _Part:
        """Corner 0 is ``v10``, corner 1 is ``v01``; its weight must lie
        strictly below the corner's bound."""
        weight = len(support)
        if weight > self.max_weights[corner]:
            raise PreconditionViolationError(
                f"|{('v10', 'v01')[corner]}|={weight} not below bound "
                f"{self.bounds[corner]}"
            )
        columns = self.d1_columns[corner]
        bits = syndrome = 0
        for i in support:
            bits |= 1 << i
            syndrome ^= columns[i]
        levels = [0] * (self.tops[corner] + 1)
        for j, o in enumerate(_overlaps(self.d2_masks[corner], bits)):
            levels[o] |= 1 << j
        for a in range(len(levels) - 2, -1, -1):
            levels[a] |= levels[a + 1]
        return _Part(bits=bits, weight=weight, levels=levels, syndrome=syndrome)

    def minimal(self, p10: _Part, p01: _Part) -> bool:
        """Exact weighted local minimality: no bit of C2 lies in
        ``levels[a]`` of ``v10`` and ``levels[b]`` of ``v01`` for an
        improving pair ``(a, b)``; equal to ``_best_flip(...) is None``."""
        l10, l01 = p10.levels, p01.levels
        for a, b in self.flip_levels:
            if l10[a] & l01[b]:
                return False
        return True

    def margin(self, p10: _Part, p01: _Part) -> int:
        """The inequality's margin for the locally minimal ``c1 = (p10,
        p01)``, times ``q·w_down·w_right`` for ``factor = p/q``: the integer
        ``q·|d1 c1| − p·w_right·|v10| − p·w_down·|v01|``."""
        return (
            self.q * (p10.syndrome ^ p01.syndrome).bit_count()
            - self.p_right * p10.weight
            - self.p_down * p01.weight
        )


def enumerate_small_c1(
    bp: BalancedProductComplex, bound10: Fraction, bound01: Fraction
) -> Iterator[C1Vector]:
    """All c1 with component weights strictly below the given bounds."""
    for s10 in _small_supports(bp.n10, _strict_floor(bound10)):
        for s01 in _small_supports(bp.n01, _strict_floor(bound01)):
            yield C1Vector.from_supports(bp, s10, s01)


def _small_supports(n: int, max_weight: int) -> Iterator[tuple[int, ...]]:
    """Subsets of ``range(n)`` of size at most ``max_weight``, by size, then lex."""
    for k in range(max_weight + 1):
        yield from itertools.combinations(range(n), k)


def _translations(bp: BalancedProductComplex) -> list[tuple[int, ...]]:
    """The vertex maps ``h -> h t`` in ``t`` order, if ``graphs._preserves``
    proves them automorphisms of the complex; otherwise the identity alone.

    Every corner indexes its vertex ``(h, i_r, i_s)`` as ``(i_r, i_s)·|G| + h``,
    so one map, row ``t^-1`` of the right regular action on each block of
    ``|G|`` indices, serves all four corners.  It must take the faces and the
    edges of the four subgraphs onto themselves, as it does for abelian G.
    """
    g, size = bp.group, max(bp.sizes)
    a = block_action(right_regular_action_as_left(g), size // g.order)
    subgraphs = (bp.g_s0, bp.g_s1, bp.g_0s, bp.g_1s)
    cell_sets = [(set(bp.faces), (a,) * 4)] + [(x.edges, (a, a)) for x in subgraphs]
    if _preserves(g, cell_sets):
        return [a.table[t_inv] for t_inv in g.inverse]
    return [tuple(range(size))]


def _fixing(support: Sequence[int], images: list[list[int]]) -> list[list[int]] | None:
    """The maps in ``images`` (each the image bit of every vertex) that fix
    ``support``, or ``None`` if one maps it to an earlier support.

    Images keep their size, and of two supports of one size the first in
    lex order is the one holding the least vertex of their symmetric
    difference: this is the order of ``_small_supports``.
    """
    bits = 0
    for i in support:
        bits |= 1 << i
    fixing = []
    for image_bits in images:
        image = 0
        for i in support:
            image |= image_bits[i]
        if image == bits:
            fixing.append(image_bits)
        else:
            moved = image ^ bits
            if image & moved & -moved:
                return None
    return fixing


def small_set_vacuous(epsilon: Fraction) -> bool:
    """Whether the small-set inequality holds for every c1 by its sign alone.

    The inequality reads ``(1/2 - 8 eps)·|c1|_w <= |d1 c1|_w``.  Both weighted
    norms are sums of nonnegative terms, so when ``1/2 - 8 eps <= 0`` the left
    side is at most 0 and the right side at least 0: every check holds,
    whatever c1 is, small, locally minimal or not.  ``eps`` is
    ``small_set_epsilon`` of the two certificates, known before any c1 is
    enumerated.
    """
    return Fraction(1, 2) - 8 * epsilon <= 0


class SmallSetSummary(_record("SmallSetSummary", [
    "count",  # int | None
    "orbits",  # int | None
    "all_hold",  # bool
    "epsilon",  # Fraction
    "least",  # SmallSetCheck | None
    "witness",  # C1Vector | None
    "by",  # str: "scan" or "sign"
])):
    """The small-set suite folded over its translation orbits, or settled by
    its sign.

    By ``"scan"`` (``small_set_suite``), ``count`` is the number of locally
    minimal vectors checked (the sum of the orbit sizes) and ``orbits`` the
    number of orbits.  ``least`` is the check of the first orbit with the
    least margin and ``witness`` that orbit's representative; both are
    ``None`` when ``count`` is 0.  By ``"sign"`` (``settle_small_set`` on a
    vacuous instance, see ``small_set_vacuous``) nothing is enumerated:
    ``all_hold`` is true and ``count``, ``orbits``, ``least`` and
    ``witness`` are ``None``.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        least = self.least
        return {
            "count": self.count,
            "orbits": self.orbits,
            "all_hold": self.all_hold,
            "by": self.by,
            "epsilon": str(self.epsilon),
            "vacuous": small_set_vacuous(self.epsilon),
            "least_margin": None if least is None else {
                "margin": str(least.margin),
                "lhs": str(least.lhs),
                "rhs": str(least.rhs),
                "c1_weight": least.c1_weight,
                "witness": {
                    "v10": self.witness.v10.support(),
                    "v01": self.witness.v01.support(),
                },
            },
        }


def _small_set_orbits(
    bp: BalancedProductComplex,
    cert_x: ExpansionCertificate,
    cert_y: ExpansionCertificate,
) -> Iterator[tuple[int, int, _Part, _Part]]:
    """``(margin, size, v10 part, v01 part)`` per translation orbit of
    locally minimal small c1: every vector of the orbit has the integer
    ``margin`` of ``_SmallSet.margin``, and ``size`` is ``|G| / |stabiliser
    of the (v10, v01) pair|``.

    The translations ``h -> h t`` are used only if ``_translations`` proves
    each to be an automorphism of this complex; otherwise every orbit is a
    single vector.  A ``v10`` is taken when it is the first of its orbit in
    the order of ``enumerate_small_c1``, and a ``v01`` when it is the first
    of its orbit under the stabiliser of that ``v10``.  So each
    representative is the first vector of its orbit in that order, and the
    orbits come in the order of their representatives.  Each ``v10`` and each
    ``v01`` part is evaluated once, with its weight bound, and every pair only
    combines the two.  Local minimality is checked on every representative;
    the zero vector is left out.  The orbit and stabiliser tests compare
    image bitmasks (see ``_fixing``).

    Every mask a part reads is a left mask of a subgraph the complex stores:
    ``g_s0`` and ``g_0s`` give the ``d2`` columns of the flip test, ``g_1s``
    and ``g_s1`` the ``d1`` columns the syndromes read.
    """
    ss = _SmallSet(bp, cert_x, cert_y)
    max10, max01 = ss.max_weights
    maps = _translations(bp)
    identity = tuple(range(max(bp.sizes)))
    # the maps that may move a support, as image bits; the rest fix every one
    moving = [[1 << v for v in tau] for tau in maps if tau != identity]
    fixed = len(maps) - len(moving)
    parts01 = [(s, ss.part(1, s)) for s in _small_supports(bp.n01, max01)]
    minimal, margin = ss.minimal, ss.margin
    for s10 in _small_supports(bp.n10, max10):
        fixing10 = _fixing(s10, moving)
        if fixing10 is None:
            continue
        p10 = ss.part(0, s10)
        for s01, p01 in parts01:
            if not (p10.bits or p01.bits) or not minimal(p10, p01):
                continue
            fixing = _fixing(s01, fixing10) if fixing10 else []
            if fixing is None:
                continue
            yield margin(p10, p01), len(maps) // (fixed + len(fixing)), p10, p01


def small_set_suite(
    bp: BalancedProductComplex,
    cert_x: ExpansionCertificate,
    cert_y: ExpansionCertificate,
) -> SmallSetSummary:
    """Run the inequality once per translation orbit of locally minimal small
    c1 (see ``_small_set_orbits``), folding the integer margins as they come:
    the first orbit with the least margin is kept, and its check, built once
    at the end, holds exactly when every orbit's does."""
    epsilon = small_set_epsilon(bp.w_up, cert_x, cert_y)
    count = orbits = 0
    least_margin = least_parts = None
    for margin, size, p10, p01 in _small_set_orbits(bp, cert_x, cert_y):
        count += size
        orbits += 1
        if least_parts is None or margin < least_margin:
            least_margin, least_parts = margin, (p10, p01)
    least = witness = None
    if least_parts is not None:
        p10, p01 = least_parts
        witness = C1Vector(BitVector(bp.n10, p10.bits), BitVector(bp.n01, p01.bits))
        lhs = (Fraction(1, 2) - 8 * epsilon) * weighted_norm(witness, bp)
        rhs = c0_weighted_norm(boundary_1(bp, witness), bp)
        least = SmallSetCheck(
            lhs=lhs, rhs=rhs, holds=lhs <= rhs, c1_weight=p10.weight + p01.weight
        )
    return SmallSetSummary(
        count=count,
        orbits=orbits,
        all_hold=least is None or least.holds,
        epsilon=epsilon,
        least=least,
        witness=witness,
        by="scan",
    )


def settle_small_set(
    bp: BalancedProductComplex,
    cert_x: ExpansionCertificate,
    cert_y: ExpansionCertificate,
) -> SmallSetSummary:
    """The small-set summary of a build: by its sign when the certificates
    make the inequality vacuous (``small_set_vacuous``), with nothing
    enumerated, else by ``small_set_suite``'s scan.  Both are exact."""
    epsilon = small_set_epsilon(bp.w_up, cert_x, cert_y)
    if small_set_vacuous(epsilon):
        return SmallSetSummary(
            count=None,
            orbits=None,
            all_hold=True,
            epsilon=epsilon,
            least=None,
            witness=None,
            by="sign",
        )
    return small_set_suite(bp, cert_x, cert_y)


# ---------------------------------------------------------------------------
# the sharp example


def sharp_example(bp: BalancedProductComplex, x00: int) -> C1Vector:
    """Half-neighborhood vector at ``x00`` attaining the 1 : 1/2 norm ratio.

    Requires both degrees even.  Checks the three defining facts: unit
    weighted norm, local minimality, and a boundary matching the explicit
    half-neighborhood square pattern of size ``w_down * w_right / 2``.
    """
    if bp.w_down % 2 or bp.w_right % 2:
        raise PreconditionViolationError(
            f"degrees (w_down={bp.w_down}, w_right={bp.w_right}) must both be even"
        )
    _index(x00, bp.n00, "V00 vertex")
    n10_all = bp.g_s0.left_neighbors(x00)
    n01_all = bp.g_0s.left_neighbors(x00)
    n10 = n10_all[: bp.w_down // 2]
    n01 = n01_all[: bp.w_right // 2]
    c1 = C1Vector.from_supports(bp, n10, n01)

    if weighted_norm(c1, bp) != 1:
        raise VerificationError("half-neighborhood vector has weighted norm != 1")
    if not is_locally_minimal(c1, bp)[0]:
        raise VerificationError("half-neighborhood vector is not locally minimal")

    # boundary by the explicit square-completion formula
    expected = set()
    for a in n10:
        for b in n01_all[bp.w_right // 2:]:
            expected.add(bp.complete_square(x00, a, b))
    for a in n10_all[bp.w_down // 2:]:
        for b in n01:
            expected.add(bp.complete_square(x00, a, b))
    c0 = boundary_1(bp, c1)
    if set(c0.support()) != expected:
        raise PreconditionViolationError(
            "instance is not generic enough: boundary collides outside the "
            "half-neighborhood square pattern"
        )
    if c0.weight() != bp.w_down * bp.w_right // 2:
        raise VerificationError(
            f"boundary has weight {c0.weight()}, expected "
            f"{bp.w_down * bp.w_right // 2}"
        )
    if c0_weighted_norm(c0, bp) != Fraction(1, 2):
        raise VerificationError("boundary has weighted norm != 1/2")
    return c1


# ---------------------------------------------------------------------------
# distance certificate


class DistanceReport(_record("DistanceReport", [
    "bound",  # Fraction | None
    "exact",  # int | None
    "witness",  # BitVector | None
    "reason",  # str | None
], defaults=(None,))):
    """``bound`` is ``None`` when the certificate's epsilon does not give one,
    and ``exact`` when k = 0 or when its search passes the budget; ``reason``
    says why, for a missing bound and for a skipped search."""

    __slots__ = ()


def distance_certificate(
    code: CodeInstance,
    bp: BalancedProductComplex,
    subgraph_cert: ExpansionCertificate,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> DistanceReport:
    """Expansion-implied lower bound on distance, with its exact value.

    ``subgraph_cert`` certifies the downward subgraph on (V00, V10).  Its
    cutoff times ``|V00|`` lower-bounds the distance when epsilon < 1/2: a set
    S of bits with ``|N(S)| >= (1 - eps) w |S|`` then has ``(1 - 2 eps) w |S|
    > 0`` unique neighbors, so no nonzero codeword is that small (Sipser and
    Spielman's expander-code argument).
    For 1/2 <= epsilon < 1 the bound is ``None``, and ``reason`` says why.
    ``exact`` and ``witness`` are the least ``(weight, bits)`` nonzero
    codeword, by ``_weight_first`` over the columns of ``d2``; ``None`` when
    ``k = 0``, or when its sweep exceeds ``budget``, and ``reason`` says so.
    """
    _at_least(budget, 1, "budget")
    if subgraph_cert.epsilon >= 1:
        raise PreconditionViolationError("epsilon >= 1 vacates the bound")
    bound = reason = exact = witness = None
    if subgraph_cert.epsilon < Fraction(1, 2):
        bound = subgraph_cert.c * bp.n00
    else:
        reason = (
            f"subgraph epsilon {subgraph_cert.epsilon} >= 1/2: the unique-neighbor "
            f"bound d >= c*|V00| needs epsilon < 1/2"
        )
    columns = [a | b << bp.n10 for a, b in zip(bp.g_s0.left_masks, bp.g_0s.left_masks)]
    basis = [v.bits for v in kernel_basis(code.h)]
    try:
        found = _weight_first(
            columns, basis, budget,
            lambda vs: min(((v.bit_count(), v) for v in vs), default=None),
        )
    except BudgetExceededError as exc:
        found = None
        skipped = (f"exact distance: {exc} (needs {exc.required}, budget "
                   f"{exc.budget}); raise --budget")
        reason = f"{reason}; {skipped}" if reason else skipped
    if found is not None:
        exact, witness = found[0], BitVector(code.n, found[1])
        if bound is not None and exact < bound:
            raise VerificationError(
                f"distance {exact} is below the expansion bound {bound}"
            )
    return DistanceReport(bound=bound, exact=exact, witness=witness, reason=reason)
