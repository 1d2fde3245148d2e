"""Bipartite graphs, Cayley constructions, and expansion certification.

Graphs are simple (edge sets, no multi-edges).  Neighborhoods are kept as
integer bitmasks so that subset-expansion scans reduce to OR + popcount.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence, Set
from fractions import Fraction
from math import ceil, comb

from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    IrregularGraphError,
    _at_least,
    _cutoff,
    _index,
    _mask_to_list,
    _record,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    block_action,
    check_action_axioms,
    left_regular_action,
)

#: Default cap on exhaustive subset evaluations in ``certify_expansion``.
DEFAULT_SUBSET_BUDGET = 20_000_000


class BipartiteGraph:
    """A simple bipartite graph on vertex sets ``0..v0_size-1`` / ``0..v1_size-1``."""

    __slots__ = ("v0_size", "v1_size", "edges", "left_masks", "right_masks")

    def __init__(self, v0_size: int, v1_size: int, edges: Iterable[tuple[int, int]]):
        _at_least(v0_size, 1, "v0_size")
        _at_least(v1_size, 1, "v1_size")
        pairs = [(u, v) for u, v in edges]
        # the neighborhood of each vertex as a bitmask over the other side
        left, right = [0] * v0_size, [0] * v1_size
        for u, v in pairs:
            _index(u, v0_size, "edge left end")
            _index(v, v1_size, "edge right end")
            left[u] |= 1 << v
            right[v] |= 1 << u
        self.v0_size = v0_size
        self.v1_size = v1_size
        self.edges = frozenset(pairs)
        self.left_masks = left
        self.right_masks = right

    def left_neighbors(self, u: int) -> list[int]:
        return _mask_to_list(self.left_masks[u])

    def left_degree(self, u: int) -> int:
        return self.left_masks[u].bit_count()

    def right_degree(self, v: int) -> int:
        return self.right_masks[v].bit_count()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BipartiteGraph)
            and self.v0_size == other.v0_size
            and self.v1_size == other.v1_size
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"BipartiteGraph({self.v0_size}+{self.v1_size}, {len(self.edges)} edges)"


class GraphAction(_record("GraphAction", [
    "on_v0",  # GroupAction
    "on_v1",  # GroupAction
])):
    """A group action on a bipartite graph: one action per side."""

    __slots__ = ()

    @property
    def group(self) -> FiniteGroup:
        return self.on_v0.group


Regularity = _record("Regularity", [
    "w0",  # int: the degree of every left vertex
    "w1",  # int: the degree of every right vertex
])


class ExpansionCertificate(_record("ExpansionCertificate", [
    "c",  # Fraction
    "epsilon",  # Fraction
    "w0",  # int
    "max_checked_size",  # int
    "worst_witness",  # tuple[frozenset, Fraction] | None
], defaults=(None,))):
    """Result of an exhaustive small-set vertex-expansion scan.

    Every left subset of size < ``c * v0_size`` was checked, so ``epsilon`` is
    tight.  ``mode`` is a constant, not a field; ``to_json`` keeps the
    ``"mode"``, ``"samples"`` and ``"seed"`` keys of the report schema.
    """

    __slots__ = ()

    mode = "exhaustive"

    def to_json(self) -> dict:
        return {
            "c": str(self.c),
            "epsilon": str(self.epsilon),
            "w0": self.w0,
            "mode": self.mode,
            "max_checked_size": self.max_checked_size,
            "worst_witness": (
                {
                    "subset": sorted(self.worst_witness[0]),
                    "ratio": str(self.worst_witness[1]),
                }
                if self.worst_witness
                else None
            ),
            "samples": 0,
            "seed": None,
        }


def small_set_epsilon(
    w_up: int,
    cert_x: ExpansionCertificate,
    cert_y: ExpansionCertificate,
) -> Fraction:
    """``max(w_up * eps_right, eps_right, eps_down)`` from the two certificates.

    ``w_up`` is the right degree of the first factor, so a search can score a
    pair of factors before their product is built.
    """
    return max(w_up * cert_y.epsilon, cert_y.epsilon, cert_x.epsilon)


def layered_cayley(
    g: FiniteGroup, gen_sets: Sequence[Sequence[int]]
) -> tuple[BipartiteGraph, GraphAction]:
    """Right Cayley graphs from copies of ``G`` to one ``G``: left vertex
    ``i*|G| + x`` joins ``x*b`` for ``b`` in ``gen_sets[i]``.  Left
    multiplication acts freely on both sides and preserves the edges."""
    sets = [_check_generators(g, s) for s in _nonempty_list(gen_sets, "gen_sets")]
    n, table = g.order, g.table
    edges = [
        (i * n + x, table[x][b])
        for i, gens in enumerate(sets)
        for x in range(n)
        for b in gens
    ]
    regular = left_regular_action(g)
    action = GraphAction(block_action(regular, len(sets)), regular)
    return BipartiteGraph(len(sets) * n, n, edges), action


def _nonempty_list(values, what: str) -> list:
    """``values`` as a list, or ``InvalidParameterError`` if it is empty or no
    iterable."""
    try:
        out = list(values)
    except TypeError:
        out = []
    if not out:
        raise InvalidParameterError(f"{what} must be a nonempty list, got {values!r}")
    return out


def _check_generators(g: FiniteGroup, gens: Sequence[int]) -> list[int]:
    """``gens`` as a list of distinct ``int`` elements of ``g``, or
    ``InvalidParameterError``."""
    out = _nonempty_list(gens, "a generating set")
    for a in out:
        _index(a, g.order, "generator")
    if len(set(out)) != len(out):
        raise InvalidParameterError("generating set contains duplicates")
    return out


def check_regularity(x: BipartiteGraph) -> Regularity:
    """The (w0, w1) degree pair; raises with the offending vertex otherwise."""
    w0 = x.left_degree(0)
    for u in range(x.v0_size):
        if x.left_degree(u) != w0:
            raise IrregularGraphError(
                f"left vertex {u} has degree {x.left_degree(u)} != {w0}"
            )
    w1 = x.right_degree(0)
    for v in range(x.v1_size):
        if x.right_degree(v) != w1:
            raise IrregularGraphError(
                f"right vertex {v} has degree {x.right_degree(v)} != {w1}"
            )
    return Regularity(w0, w1)


def maps_onto(cells: Iterable[tuple], target: Set, maps: Sequence) -> bool:
    """Whether moving coordinate ``i`` of every cell by ``maps[i]`` gives
    exactly the cells of ``target``."""
    columns = zip(*cells)  # coordinate i of every cell, in one order
    moved = (map(m.__getitem__, column) for m, column in zip(maps, columns))
    return set(zip(*moved)) == target


def _preserves(g: FiniteGroup, cell_sets: Sequence[tuple]) -> bool:
    """Whether every element of ``g`` maps each cell set onto itself, given
    as ``(cells, actions)`` with coordinate ``i`` moved by ``actions[i]``.

    Each distinct action is proved once (``check_action_axioms``), then each
    generator on each cell set: every element is a product of generators.
    """
    for a in {id(a): a for _, actions in cell_sets for a in actions}.values():
        check_action_axioms(a)
    return all(
        maps_onto(cells, cells, [a.table[s] for a in actions])
        for s in g.generating_set()
        for cells, actions in cell_sets
    )


def check_invariance(x: BipartiteGraph, a0: GroupAction, a1: GroupAction) -> bool:
    """Whether every group element maps edges to edges, proved by
    ``_preserves``; ``InvalidParameterError`` if ``a0`` or ``a1`` is no action."""
    if a0.set_size != x.v0_size or a1.set_size != x.v1_size:
        raise InvalidParameterError("action set sizes do not match the graph")
    if a0.group.order != a1.group.order or a0.group.table != a1.group.table:
        raise InvalidParameterError("the two actions use different groups")
    return _preserves(a0.group, [(x.edges, (a0, a1))])


def _strict_floor(bound: Fraction) -> int:
    """The largest integer strictly below ``bound``."""
    return ceil(bound) - 1


def _scan_starts(x: BipartiteGraph, action: GraphAction | None) -> range | list[int]:
    """Left vertices a subset scan must start from.

    Without an action every vertex.  With one, ``check_invariance`` proves it
    acts by graph automorphisms (or raises), and only vertices that no group
    element moves to a smaller vertex are kept.  Scores that automorphisms
    preserve (``|N(S)|``, unique-neighbor counts) then lose nothing: if ``S``
    is the first subset in lexicographic order with some score and ``g`` maps
    ``min(S)`` below itself, ``g.S`` has the same score and comes earlier.
    """
    if action is None:
        return range(x.v0_size)
    if not check_invariance(x, action.on_v0, action.on_v1):
        raise InvalidParameterError("the action does not preserve the graph's edges")
    rows = action.on_v0.table
    return [u for u in range(x.v0_size) if all(row[u] >= u for row in rows)]


def _least_union(
    masks: Sequence[int], kmax: int, starts: Iterable[int]
) -> tuple[list[int], list[tuple[int, ...] | None]]:
    """Exact depth-first scan of ``|N(S)|`` over the left subsets of sizes
    ``1..kmax`` whose smallest vertex is in ``starts``.

    Returns two lists indexed by size ``k`` (index 0 unused): the least
    ``|N(S)|`` and the first subset reaching it.  Each subset extends its
    prefix by one vertex and reads one mask: the walk carries ``union =
    N(prefix)`` and scores ``|union | masks[j]|``.  Depth-first order visits
    the subsets of each size in lexicographic order.

    The walk is a branch-and-bound: with ``cap[k]`` the largest of
    ``least[k+1..kmax]`` (0 at ``kmax``), a size-``k`` subset ``P`` scoring at
    least ``cap[k]`` is not extended.  The result is still that of the full
    scan:

    - ``S`` containing ``P`` has ``N(S)`` containing ``N(P)``, so every
      extension of ``P`` scores at least ``|N(P)|``, hence at least
      ``least[k']`` at each larger size ``k'``.
    - A subset changes ``least[k']`` only by scoring strictly below it.
    - Depth-first order visits each size in lexicographic order, so every
      subset below ``P`` comes after ``least_at[k']``; an equal score would
      not replace it.

    Until every larger size has a score, ``least`` holds a sentinel above
    any score and nothing is skipped.
    """
    n = len(masks)
    sentinel = max(masks, default=0).bit_length() + 1  # above any score
    least = [sentinel] * (kmax + 1)
    least_at: list[tuple[int, ...] | None] = [None] * (kmax + 1)
    cap = [sentinel] * kmax + [0]  # cap[k] = max(least[k+1..kmax])
    prefix: list[int] = []

    def widen(candidates: Iterable[int], union: int, k: int) -> None:
        for j in candidates:
            union_j = union | masks[j]
            score = union_j.bit_count()
            if score < least[k]:
                least[k] = score
                least_at[k] = (*prefix, j)
                for i in range(k - 1, 0, -1):
                    cap[i] = max(cap[i + 1], least[i + 1])
            if score < cap[k]:
                prefix.append(j)
                widen(range(j + 1, n), union_j, k + 1)
                prefix.pop()

    if kmax > 0:
        widen(starts, 0, 1)
    return least, least_at


def _least_unique(
    masks: Sequence[int], kmax: int, starts: Iterable[int], below: Sequence[int]
) -> tuple[
    list[int],
    list[tuple[int, ...] | None],
    list[tuple[tuple[int, ...], int] | None],
]:
    """Depth-first scan of the unique-neighbor counts, as ``_least_union``
    but with no bound: the counts are not monotone in ``S``.

    The walk carries ``once``, the right vertices with exactly one neighbor in
    the subset, and ``more``, those with two or more, and scores ``|once|``.
    Besides the least count and the first subset reaching it, a third list
    holds the first subset scoring below ``below[k]`` with its score.  Every
    subset is visited, so all three lists are those of the full scan.
    """
    n = len(masks)
    least = [max(masks, default=0).bit_length() + 1] * (kmax + 1)  # above any count
    least_at: list[tuple[int, ...] | None] = [None] * (kmax + 1)
    hit: list[tuple[tuple[int, ...], int] | None] = [None] * (kmax + 1)
    prefix: list[int] = []

    def extend(candidates: Iterable[int], once: int, more: int, k: int) -> None:
        for j in candidates:
            m = masks[j]
            more_j = more | (once & m)
            once_j = (once | m) & ~more_j
            score = once_j.bit_count()
            if score < least[k]:
                least[k] = score
                least_at[k] = (*prefix, j)
            if score < below[k] and hit[k] is None:
                hit[k] = ((*prefix, j), score)
            if k < kmax:
                prefix.append(j)
                extend(range(j + 1, n), once_j, more_j, k + 1)
                prefix.pop()

    if kmax > 0:
        extend(starts, 0, 0, 1)
    return least, least_at, hit


def certify_expansion(
    x: BipartiteGraph,
    c: Fraction,
    max_evals: int = DEFAULT_SUBSET_BUDGET,
    action: GraphAction | None = None,
) -> ExpansionCertificate:
    """Tightest epsilon with ``|N(v0)| >= (1-eps) w0 |v0|`` for small subsets.

    Every left subset with ``|v0| < c * |V0|`` is covered, so the returned
    epsilon is a true certificate: the scan skips only extensions of a prefix
    that provably cannot lower a least ``|N(S)|`` (see ``_least_union``), and
    the certificate and witness are those of the full scan.  ``max_evals``
    bounds the number of subsets of those sizes, checked before the scan,
    whether or not they are visited.  An ``action``, once ``check_invariance``
    proves it acts by graph automorphisms, lets the scan start at one vertex
    per orbit; the certificate is the same as without it.  A cutoff that is
    not an ``int`` or a ``Fraction`` in (0, 1] (a bool is not one), or a
    ``max_evals`` that is not an ``int >= 1``, raises ``InvalidParameterError``.
    """
    _cutoff(c, "c")
    _at_least(max_evals, 1, "max_evals")
    w0 = check_regularity(x).w0
    kmax = _strict_floor(Fraction(c) * x.v0_size)
    starts = _scan_starts(x, action)
    total = sum(comb(x.v0_size, k) for k in range(1, kmax + 1))
    if total > max_evals:
        raise BudgetExceededError("exhaustive subset scan too large", total, max_evals)
    least, least_at = _least_union(x.left_masks, kmax, starts)
    # the worst size has the least |N(S)| / k; ties go to the smaller size
    witness: tuple[frozenset, Fraction] | None = None
    for k in range(1, kmax + 1):
        ratio = Fraction(least[k], k)
        if witness is None or ratio < witness[1]:
            witness = (frozenset(least_at[k]), ratio)
    return ExpansionCertificate(
        c=Fraction(c),
        epsilon=1 - witness[1] / w0 if witness else Fraction(0),
        w0=w0,
        max_checked_size=kmax,
        worst_witness=witness,
    )


def check_unique_neighbor_lemma(
    x: BipartiteGraph,
    cert: ExpansionCertificate,
    action: GraphAction | None = None,
) -> tuple[bool, tuple[frozenset, int] | None]:
    """Verify ``|unique(v0)| >= (1-2 eps) w0 |v0|`` over all certified subsets.

    A ``False`` result signals an implementation bug (the bound is a theorem
    for certified expanders) and returns the first counterexample in order of
    size, then lexicographic order.  Otherwise the result carries the first
    subset in that order with the least ``|unique(v0)| / |v0|``.  An
    ``action`` is checked and used as in ``certify_expansion``.  A
    certificate whose ``w0`` is not the graph's left degree, or whose
    ``max_checked_size`` is not that of ``cert.c`` on this graph, was made
    for another graph and raises ``InvalidParameterError``.
    """
    w0 = check_regularity(x).w0
    if cert.w0 != w0:
        raise InvalidParameterError(
            f"certificate has left degree {cert.w0}, the graph {w0}"
        )
    kmax = _strict_floor(Fraction(cert.c) * x.v0_size)
    if cert.max_checked_size != kmax:
        raise InvalidParameterError(
            f"certificate checked sizes up to {cert.max_checked_size}, but c = "
            f"{cert.c} on {x.v0_size} left vertices covers sizes up to {kmax}"
        )
    bound_coeff = (1 - 2 * cert.epsilon) * w0
    # an integer count u has u < bound_coeff * k exactly when u < ceil(...)
    below = [ceil(bound_coeff * k) for k in range(kmax + 1)]
    least, least_at, hit = _least_unique(
        x.left_masks, kmax, _scan_starts(x, action), below
    )
    for found in hit:
        if found is not None:
            return False, (frozenset(found[0]), found[1])
    worst: tuple[frozenset, int] | None = None
    for k in range(1, kmax + 1):
        if worst is None or Fraction(least[k], k) < Fraction(worst[1], len(worst[0])):
            worst = (frozenset(least_at[k]), least[k])
    return True, worst


def graph_to_edge_list(x: BipartiteGraph) -> str:
    """One "u v" pair per line, sorted, 0-indexed, left vertex first."""
    lines = [f"{x.v0_size} {x.v1_size}"]
    lines += [f"{u} {v}" for u, v in sorted(x.edges)]
    return "\n".join(lines) + "\n"


def graph_from_edge_list(text: str) -> BipartiteGraph:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidParameterError("empty edge list")
    try:
        (n0, n1), *edges = [(int(a), int(b)) for a, b in lines]
    except ValueError:
        raise InvalidParameterError("edge list lines must be two integers each") from None
    return BipartiteGraph(n0, n1, edges)
