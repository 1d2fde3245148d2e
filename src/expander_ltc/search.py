"""Randomized search for pairs of small expanding Cayley-type factors.

The search draws random generating sets, builds the two factor graphs from
them with ``graphs.layered_cayley`` (several layers when a degree skew is
requested), certifies their expansion exhaustively (once per translation
class of generating sets), and scores each trial by the combined loss
parameter the testability inequality depends on.  No balanced
product is built: the result reports the best trial's generating sets, from
which the factors and their product can be rebuilt.  Nothing is ever reported
as certified unless the exhaustive scan said so.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InvalidParameterError, _at_least, _cutoff, _index, _record
from .graphs import (
    BipartiteGraph,
    ExpansionCertificate,
    GraphAction,
    certify_expansion,
    layered_cayley,
    maps_onto,
    small_set_epsilon,
)
from .groups import FiniteGroup

#: Cap on the exhaustive subset evaluations of each factor certification.
SUBSET_BUDGET = 2_000_000


def random_generating_set(g: FiniteGroup, size: int, rng: random.Random) -> list[int]:
    """A duplicate-free random subset of group elements of the given size."""
    _index(size, g.order + 1, "generator count")
    return sorted(rng.sample(range(g.order), size))


def _check_field(key: str, value, spec: dict):
    """``value`` if it lies in the domain of the ``SearchSpec`` field ``key``
    (any field but ``group``) given the fields before it in ``spec``, else
    ``InvalidParameterError``: a base degree is at most the group's order, and
    a skewed degree is a multiple of its base degree."""
    if key in ("c_x", "c_y"):
        return _cutoff(value, key)
    if key == "eps_target":
        if value is not None and not (isinstance(value, Fraction) and 0 < value < 1):
            raise InvalidParameterError(f"eps_target must lie in (0, 1), got {value!r}")
        return value
    if key == "seed":
        if type(value) is not int:
            raise InvalidParameterError(f"seed must be an integer, got {value!r}")
        return value
    value = _at_least(value, 1, key)
    order = spec["group"].order
    if key in ("w_down", "w_right") and value > order:
        raise InvalidParameterError(
            f"base degree {key}={value} exceeds the group order {order}"
        )
    base = {"w_up": "w_down", "w_left": "w_right"}.get(key)
    if base and value % spec[base]:
        raise InvalidParameterError(
            "skewed degrees must be integer multiples of the base degrees"
        )
    return value


class SearchSpec(_record("SearchSpec", [
    "group",  # FiniteGroup
    "w_down",  # int
    "w_up",  # int
    "w_right",  # int
    "w_left",  # int
    "c_x",  # Fraction
    "c_y",  # Fraction
    "trials",  # int
    "seed",  # int
    "eps_target",  # Fraction | None
], defaults=(50, 0, None))):
    """Target shape for one random expander-pair search."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SearchSpec":
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.group, FiniteGroup):
            raise InvalidParameterError(f"group is not a FiniteGroup: {self.group!r}")
        fields = dict(zip(self._fields, self))
        for key in self._fields[1:]:
            _check_field(key, fields[key], fields)
        return self


class SearchResult(_record("SearchResult", [
    "cert_x",  # ExpansionCertificate
    "cert_y",  # ExpansionCertificate
    "epsilon",  # Fraction
    "trial",  # int
    "seed",  # int
    "gen_sets_x",  # tuple[tuple[int, ...], ...]
    "gen_sets_y",  # tuple[tuple[int, ...], ...]
    "log",  # tuple[dict, ...]
    "inequalities",  # dict | None: measured conditions vs the eps target
], defaults=(None,))):
    """Best trial of a search, with the full monotone trial log."""

    __slots__ = ()


def _least_translate(
    g: FiniteGroup, gen_sets: list[list[int]]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The lexicographically least right translate ``(S_i * t)_i`` and its ``t``;
    its ``S_0 * t`` holds element 0, so only ``t = s^-1 * 0`` for ``s`` in ``S_0``
    can win."""
    table = g.table
    return min(
        (tuple(tuple(sorted(table[b][t] for b in gens)) for gens in gen_sets), t)
        for t in [table[g.inverse[s]][0] for s in gen_sets[0]]
    )


def _relabels_onto(
    graph: BipartiteGraph, target: BipartiteGraph, g: FiniteGroup, t: int
) -> bool:
    """Whether relabeling the right side by ``v -> v * t`` maps ``graph`` onto
    ``target``."""
    return graph.v0_size == target.v0_size and maps_onto(
        graph.edges, target.edges, (range(graph.v0_size), [row[t] for row in g.table])
    )


def _certify_layered(
    graph: BipartiteGraph,
    action: GraphAction,
    gen_sets: list[list[int]],
    c: Fraction,
    memo: dict,
) -> ExpansionCertificate:
    """``certify_expansion`` of a ``layered_cayley`` graph, once per translation class.

    Right-multiplying every generator set by one ``t`` relabels the right side
    by ``v -> v * t`` and leaves ``|N(S)|`` of every left subset unchanged, so
    the exhaustive certificate, witness included, is the same.  A memo hit is
    used only after ``_relabels_onto`` finds that the relabeling maps this
    graph onto the cached one; otherwise the graph is certified from scratch.
    """
    g = action.group
    key, t = _least_translate(g, gen_sets)
    cached = memo.get((c, key))
    if cached is not None:
        cached_graph, cached_t, cert = cached
        # S * t = S' * t' = key, so v -> v * t * t'^-1 takes this graph onto S'
        if _relabels_onto(graph, cached_graph, g, g.mul(t, g.inv(cached_t))):
            return cert
    cert = certify_expansion(graph, c, max_evals=SUBSET_BUDGET, action=action)
    memo.setdefault((c, key), (graph, t, cert))
    return cert


def search_pair(spec: SearchSpec) -> SearchResult:
    """Random search over generating sets; returns the best certified trial.

    Every trial gets its own derived seed, so runs are reproducible and
    individual trials can be replayed.  Trials are scored from their two
    certificates alone, and no balanced product is built.  A missed
    ``eps_target`` is recorded in ``inequalities`` rather than hidden.
    """
    g = spec.group
    layers_x = spec.w_up // spec.w_down
    layers_y = spec.w_left // spec.w_right
    log: list[dict] = []
    memo: dict = {}  # shared by both factors: (c, least translate) -> certificate
    best = None

    for trial in range(spec.trials):
        trial_seed = spec.seed * 1_000_003 + trial
        rng = random.Random(trial_seed)
        gens_x = [random_generating_set(g, spec.w_down, rng) for _ in range(layers_x)]
        gens_y = [random_generating_set(g, spec.w_right, rng) for _ in range(layers_y)]
        x, ax = layered_cayley(g, gens_x)
        y, ay = layered_cayley(g, gens_y)
        cert_x = _certify_layered(x, ax, gens_x, spec.c_x, memo)
        cert_y = _certify_layered(y, ay, gens_y, spec.c_y, memo)
        eps = small_set_epsilon(spec.w_up, cert_x, cert_y)
        log.append({
            "trial": trial,
            "seed": trial_seed,
            "status": "certified",
            "eps_x": str(cert_x.epsilon),
            "eps_y": str(cert_y.epsilon),
            "eps": str(eps),
        })
        if best is None or eps < best[0]:
            best = (eps, trial, trial_seed, gens_x, cert_x, gens_y, cert_y)

    eps, trial, trial_seed, gens_x, cert_x, gens_y, cert_y = best
    inequalities = None
    if spec.eps_target is not None:
        t = spec.eps_target
        inequalities = {
            "w_up_eps_y_le_eps": spec.w_up * cert_y.epsilon <= t,
            "eps_y_le_eps": cert_y.epsilon <= t,
            "eps_x_le_eps": cert_x.epsilon <= t,
        }
    return SearchResult(
        cert_x=cert_x,
        cert_y=cert_y,
        epsilon=eps,
        trial=trial,
        seed=trial_seed,
        gen_sets_x=tuple(tuple(s) for s in gens_x),
        gen_sets_y=tuple(tuple(s) for s in gens_y),
        log=tuple(log),
        inequalities=inequalities,
    )
