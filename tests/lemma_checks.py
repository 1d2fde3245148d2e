"""Checks of the paper's expansion lemmas that no command runs.

The edge-count lemma ``|E(v0, v1)| <= eps w0 |v0| + |v1|`` and the degree
split behind the small-set argument, with the majorization it is checked
by.  They read a certified factor and its ``ExpansionCertificate``; the
tests call them on small Cayley graphs.
"""

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from expander_ltc.errors import PreconditionViolationError, VerificationError
from expander_ltc.graphs import BipartiteGraph, ExpansionCertificate, check_regularity


class DegreeSplit(NamedTuple):
    """Split of ``deg_{v1}`` into a heavy part d1 and an ``eps*w0``-capped d2."""

    d1: tuple[Fraction, ...]
    d2: tuple[Fraction, ...]


def check_edge_count_lemma(
    x: BipartiteGraph,
    cert: ExpansionCertificate,
    v0: Iterable[int],
    v1: Iterable[int],
) -> bool:
    """``|E(v0, v1)| <= eps w0 |v0| + |v1|`` for a certified small ``v0``."""
    v0s, v1s = set(v0), set(v1)
    if len(v0s) > cert.max_checked_size:
        raise PreconditionViolationError(
            f"|v0|={len(v0s)} exceeds certified size {cert.max_checked_size}"
        )
    v1_mask = 0
    for v in v1s:
        v1_mask |= 1 << v
    n_edges = sum((x.left_masks[u] & v1_mask).bit_count() for u in v0s)
    return Fraction(n_edges) <= cert.epsilon * cert.w0 * len(v0s) + len(v1s)


def degree_split(
    x: BipartiteGraph, cert: ExpansionCertificate, v1: Iterable[int]
) -> DegreeSplit:
    """Split ``deg_{v1}`` into d1 (total <= |v1|) and d2 (capped at eps*w0).

    Exact rational arithmetic throughout; ``d1 = max(deg - eps*w0, 0)`` and
    ``d2`` is the remainder.
    """
    if cert.epsilon >= 1:
        raise PreconditionViolationError("epsilon must be < 1")
    reg = check_regularity(x)
    v1s = set(v1)
    limit = Fraction(cert.c) * x.v0_size / reg.w1
    if not Fraction(len(v1s)) < limit:
        raise PreconditionViolationError(
            f"|v1|={len(v1s)} not below the smallness bound {limit}"
        )
    v1_mask = 0
    for v in v1s:
        v1_mask |= 1 << v
    cap = cert.epsilon * reg.w0
    d1 = []
    d2 = []
    for u in range(x.v0_size):
        deg = (x.left_masks[u] & v1_mask).bit_count()
        heavy = max(Fraction(deg) - cap, Fraction(0))
        d1.append(heavy)
        d2.append(Fraction(deg) - heavy)
    split = DegreeSplit(tuple(d1), tuple(d2))
    _check_split(split, cap, reg.w1, len(v1s))
    return split


def _check_split(split: DegreeSplit, cap: Fraction, w1: int, v1_size: int) -> None:
    if sum(split.d1) > v1_size:
        raise VerificationError(f"heavy part sums above |v1| = {v1_size}")
    if cap == 0:
        target: list[Fraction] = []
    else:
        count = -((-w1 * v1_size) // cap)  # ceil(w1 |v1| / (eps w0))
        target = [cap] * int(count)
    if not all(d <= cap for d in split.d2):
        raise VerificationError(f"capped part exceeds eps*w0 = {cap}")
    if not majorizes(target, list(split.d2)):
        raise VerificationError("capped part is not majorized by the cap vector")


def majorizes(a: Sequence, b: Sequence) -> bool:
    """Prefix-sum dominance of descending sorts, zero-padded to equal length."""
    aa = sorted((Fraction(v) for v in a), reverse=True)
    bb = sorted((Fraction(v) for v in b), reverse=True)
    n = max(len(aa), len(bb))
    aa += [Fraction(0)] * (n - len(aa))
    bb += [Fraction(0)] * (n - len(bb))
    pa = pb = Fraction(0)
    for va, vb in zip(aa, bb):
        pa += va
        pb += vb
        if pa < pb:
            return False
    return True
