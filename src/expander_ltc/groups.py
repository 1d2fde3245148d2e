"""Finite groups as explicit multiplication tables, plus free actions.

Elements are indices ``0..order-1``.  Tables keep everything exhaustively
checkable at desk scale (orders up to a few hundred), which is exactly the
regime the rest of the library operates in.
"""

from __future__ import annotations


from .errors import (
    FreenessViolationError,
    InvalidParameterError,
    SizeLimitError,
    _at_least,
    _index,
    _record,
)

#: Hard cap on group orders; groups beyond this raise ``SizeLimitError``.
MAX_GROUP_ORDER = 4096

#: Orders up to this bound get a full associativity/identity/inverse audit
#: at construction time.
AXIOM_CHECK_ORDER = 256


class FiniteGroup(_record("FiniteGroup", [
    "order",  # int
    "table",  # tuple[tuple[int, ...], ...]: table[a][b] = ab
    "identity",  # int
    "inverse",  # tuple[int, ...]
    "name",  # str
], defaults=("",))):
    """A finite group given by its full multiplication table."""

    __slots__ = ()

    def mul(self, a: int, b: int) -> int:
        n = self.order
        return self.table[_index(a, n, "element")][_index(b, n, "element")]

    def inv(self, a: int) -> int:
        return self.inverse[_index(a, self.order, "element")]

    def elements(self) -> range:
        return range(self.order)

    def generating_set(self) -> list[int]:
        """Generators ``s_1, s_2, ...``: each is the first element not yet
        reached from the identity by right multiplication by the earlier ones.

        Every element is therefore ``identity · s_i · s_j ⋯`` through this
        table, a product reached step by step.
        """
        gens: list[int] = []
        reached = {self.identity}
        for t in self.elements():
            if t in reached:
                continue
            gens.append(t)
            frontier = list(reached)
            while frontier:
                h = frontier.pop()
                for s in gens:
                    k = self.table[h][s]
                    if k not in reached:
                        reached.add(k)
                        frontier.append(k)
        return gens

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name or 'order=%d' % self.order})"


class GroupAction(_record("GroupAction", [
    "group",  # FiniteGroup
    "set_size",  # int
    "table",  # tuple[tuple[int, ...], ...]: table[g][x] = g.x
])):
    """A left action of ``group`` on the point set ``0..set_size-1``."""

    __slots__ = ()

    def act(self, g: int, x: int) -> int:
        row = self.table[_index(g, self.group.order, "element")]
        return row[_index(x, self.set_size, "point")]


class OrbitLabeling(_record("OrbitLabeling", [
    "action",  # GroupAction
    "representatives",  # tuple[int, ...]
    "label",  # tuple[tuple[int, int], ...]
])):
    """Bijective ``(g, r)`` labels for the points of a free action.

    ``label[x] = (g, i)`` where ``representatives[i]`` is the orbit
    representative and ``x = g . representatives[i]``.
    """

    __slots__ = ()

    @property
    def num_orbits(self) -> int:
        return len(self.representatives)


def check_group_axioms(g: FiniteGroup) -> None:
    """Exhaustively verify identity, inverses and associativity.

    Associativity is proved by Light's test over ``S = g.generating_set()``:
    ``(a·s)·c = a·(s·c)`` for every ``a``, ``c`` and every ``s`` in ``S``.  The
    ``s`` passing for all ``a`` and ``c`` include the identity and are closed
    under products, and every element is ``identity·s₁⋯s_k``, so every element
    passes.  Cost is ``|S|`` times the order squared; intended for orders up to
    ``AXIOM_CHECK_ORDER``.  A failure names the first ``(a, s, c)``, in order
    of ``a``, then ``s`` in ``S``, then ``c``.
    """
    n = g.order
    if len(g.table) != n or any(len(row) != n for row in g.table):
        raise InvalidParameterError("multiplication table has wrong shape")
    t, inv, e = g.table, g.inverse, g.identity
    for a in range(n):
        if t[e][a] != a or t[a][e] != a:
            raise InvalidParameterError(f"identity axiom fails at element {a}")
        if t[a][inv[a]] != e or t[inv[a]][a] != e:
            raise InvalidParameterError(f"inverse axiom fails at element {a}")
    # (as)c = a(sc) for all c: row as of the table equals row s mapped by row a
    gens = g.generating_set()
    for a, ta in enumerate(t):
        times_a = ta.__getitem__
        for s in gens:
            ts = t[s]
            tas = t[ta[s]]
            if tuple(tas) != tuple(map(times_a, ts)):
                c = next(c for c in range(n) if tas[c] != ta[ts[c]])
                raise InvalidParameterError(
                    f"associativity fails on triple ({a}, {s}, {c})"
                )


def _maybe_check(g: FiniteGroup) -> FiniteGroup:
    if g.order <= AXIOM_CHECK_ORDER:
        check_group_axioms(g)
    return g


def make_cyclic(n: int) -> FiniteGroup:
    """The cyclic group of order ``n`` with addition mod ``n``."""
    _at_least(n, 1, "cyclic group order")
    if n > MAX_GROUP_ORDER:
        raise SizeLimitError(f"cyclic group order {n} exceeds cap {MAX_GROUP_ORDER}")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    inverse = tuple((-a) % n for a in range(n))
    return _maybe_check(FiniteGroup(n, table, 0, inverse, name=f"Z{n}"))


def make_direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product under the pairing ``(a, b) -> a*|h| + b``."""
    order = g.order * h.order
    if order > MAX_GROUP_ORDER:
        raise SizeLimitError(f"product order {order} exceeds cap {MAX_GROUP_ORDER}")
    m = h.order
    table = tuple(
        tuple(a * m + b for a in row_a for b in row_b)
        for row_a in g.table
        for row_b in h.table
    )
    inverse = tuple(a * m + b for a in g.inverse for b in h.inverse)
    identity = g.identity * m + h.identity
    name = f"({g.name or g.order}x{h.name or h.order})"
    return _maybe_check(FiniteGroup(order, table, identity, inverse, name=name))


# the keys a group spec of each kind may hold
_GROUP_SPEC_KEYS = {"cyclic": {"kind", "n"}, "product": {"kind", "factors"}}


def group_from_spec(spec: dict) -> FiniteGroup:
    """Build a group from its config-file description.

    Supported kinds: ``{"kind": "cyclic", "n": 12}`` and
    ``{"kind": "product", "factors": [...]}`` with recursive factors.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidParameterError(f"bad group spec: {spec!r}")
    kind = spec["kind"]
    keys = _GROUP_SPEC_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise InvalidParameterError(f"unknown group kind: {kind!r}")
    extra = set(spec) - keys
    if extra:
        raise InvalidParameterError(f"unknown group spec keys: {sorted(extra)}")
    if kind == "cyclic":
        return make_cyclic(_at_least(spec.get("n"), 1, "group spec key 'n'"))
    if not isinstance(spec.get("factors"), list):
        raise InvalidParameterError(
            f"group spec key 'factors' must be a list, got {spec.get('factors')!r}"
        )
    factors = [group_from_spec(f) for f in spec["factors"]]
    if not factors:
        raise InvalidParameterError("product group needs at least one factor")
    g = factors[0]
    for f in factors[1:]:
        g = make_direct_product(g, f)
    return g


def check_action_axioms(a: GroupAction) -> None:
    """Prove from generators that ``a`` is an action by permutations.

    With ``S = g.generating_set()``: the identity row is the identity, each
    row of ``S`` is a permutation, and ``table[t·s] = table[t] ∘ table[s]``
    for every ``t`` and ``s`` in ``S``.  Every element is ``identity·s_1⋯s_k``,
    so by induction on ``k`` (in an associative table) every row is a
    permutation and the action law holds for all pairs.
    """
    g, n, table = a.group, a.set_size, a.table
    if len(table) != g.order or any(len(row) != n for row in table):
        raise InvalidParameterError("action table has wrong shape")
    if tuple(table[g.identity]) != tuple(range(n)):
        raise InvalidParameterError("the identity does not fix every point")
    for s in g.generating_set():
        row_s = table[s]
        if sorted(row_s) != list(range(n)):
            raise InvalidParameterError(f"element {s} does not act as a permutation")
        for t, row_t in enumerate(table):
            if tuple(map(row_t.__getitem__, row_s)) != tuple(table[g.table[t][s]]):
                raise InvalidParameterError(f"action not compatible on ({t}, {s})")


def left_regular_action(g: FiniteGroup) -> GroupAction:
    """G acting on itself by left multiplication; always free."""
    return GroupAction(g, g.order, g.table)


def right_regular_action_as_left(g: FiniteGroup) -> GroupAction:
    """The right regular action encoded as a left action, ``a.x = x a^-1``."""
    table = tuple(tuple(row[b] for row in g.table) for b in g.inverse)
    return GroupAction(g, g.order, table)


def block_action(a: GroupAction, blocks: int) -> GroupAction:
    """Extend an action to ``blocks`` disjoint copies of the point set.

    Point ``i*set_size + x`` lives in copy ``i``; the group fixes the copy
    index.  Used for layered graphs with several orbits per side.  With one
    copy the result is ``a`` itself, so an action shared by both sides of a
    graph is proved once.
    """
    if _at_least(blocks, 1, "block count") == 1:
        return a
    n = a.set_size
    table = tuple(
        tuple(i * n + y for i in range(blocks) for y in row) for row in a.table
    )
    return GroupAction(a.group, n * blocks, table)


def orbit_labeling(a: GroupAction) -> OrbitLabeling:
    """Label each point uniquely as ``g . r`` with ``r`` a minimal orbit rep.

    Raises ``FreenessViolationError`` (with a witness pair) for non-free
    actions, where no such bijective labeling exists.
    """
    for g in a.group.elements():
        if g != a.group.identity:
            row = a.table[g]
            for x in range(a.set_size):
                if row[x] == x:
                    raise FreenessViolationError(
                        f"action is not free: g={g} fixes x={x}", (g, x)
                    )
    label: list[tuple[int, int] | None] = [None] * a.set_size
    reps: list[int] = []
    for x in range(a.set_size):
        if label[x] is not None:
            continue
        rep_index = len(reps)
        reps.append(x)  # x is minimal in its orbit by scan order
        for g, row in enumerate(a.table):
            y = row[x]
            if label[y] is None:
                label[y] = (g, rep_index)
    return OrbitLabeling(a, tuple(reps), tuple(label))
