"""Reference subset scans: the plain ``itertools.combinations`` versions.

These are the straightforward scans that ``graphs.certify_expansion`` and
``graphs.check_unique_neighbor_lemma`` replace with one depth-first kernel.
They visit every subset in (size, lexicographic) order and recompute each
neighborhood from scratch, so they serve as an independent oracle.
"""

import itertools
from fractions import Fraction

from expander_ltc.graphs import ExpansionCertificate, check_regularity


def reference_certificate(x, c) -> ExpansionCertificate:
    """Exhaustive certificate by scanning every subset with ``|S| < c |V0|``."""
    w0 = check_regularity(x).w0
    kmax = max(k for k in range(x.v0_size + 1) if k < Fraction(c) * x.v0_size)
    worst_eps = Fraction(0)
    witness = None
    for k in range(1, kmax + 1):
        for subset in itertools.combinations(range(x.v0_size), k):
            union = 0
            for u in subset:
                union |= x.left_masks[u]
            ratio = Fraction(union.bit_count(), k)
            eps = 1 - ratio / w0
            if eps > worst_eps or witness is None:
                worst_eps = max(eps, Fraction(0))
                witness = (frozenset(subset), ratio)
    return ExpansionCertificate(
        c=Fraction(c),
        epsilon=worst_eps,
        w0=w0,
        max_checked_size=kmax,
        worst_witness=witness,
    )


def reference_unique_lemma(x, cert):
    """``check_unique_neighbor_lemma`` by recounting unique neighbors per subset."""
    bound_coeff = (1 - 2 * cert.epsilon) * cert.w0
    worst = None
    for k in range(1, cert.max_checked_size + 1):
        for subset in itertools.combinations(range(x.v0_size), k):
            un = len(unique_neighbors(x, subset))
            if Fraction(un) < bound_coeff * k:
                return False, (frozenset(subset), un)
            if worst is None or Fraction(un, k) < Fraction(worst[1], len(worst[0])):
                worst = (frozenset(subset), un)
    return True, worst


def unique_neighbors(x, v0) -> frozenset[int]:
    """Right vertices adjacent to exactly one member of ``v0``."""
    counts: dict[int, int] = {}
    for u in set(v0):
        for w in x.left_neighbors(u):
            counts[w] = counts.get(w, 0) + 1
    return frozenset(w for w, c in counts.items() if c == 1)
