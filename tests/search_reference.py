"""Reference search loop and graph helpers for the search tests.

``reference_search_pair`` is the straightforward loop that
``search.search_pair`` replaces: every trial builds its balanced product and
certifies both factors from scratch, and the best result is rebuilt at every
improvement.  It shares only the trial draw (``draw_layered`` on the derived
seed) with the optimized search, so it serves as an oracle for a search that
builds no product and reuses certificates across translates.

``draw_layered`` draws a factor's generator sets in the order the search
draws them and builds its ``graphs.layered_cayley`` graph.
``reference_least_translate`` scans every right translate of a list of
generator sets, as an oracle for the search's memo key.
"""

import random
from collections.abc import Sequence

from expander_ltc.analysis import small_set_epsilon
from expander_ltc.errors import MultiplicityViolationError
from expander_ltc.graphs import (
    BipartiteGraph,
    GraphAction,
    certify_expansion,
    layered_cayley,
)
from expander_ltc.groups import FiniteGroup
from expander_ltc.products import balanced_product
from expander_ltc.search import (
    SUBSET_BUDGET,
    SearchResult,
    SearchSpec,
    random_generating_set,
)


def draw_layered(
    g: FiniteGroup, layers: int, degree: int, rng: random.Random
) -> tuple[BipartiteGraph, GraphAction, list[list[int]]]:
    """``layers`` random generating sets of ``degree`` elements, drawn one
    after another from ``rng``, with their ``layered_cayley`` graph and action."""
    gen_sets = [random_generating_set(g, degree, rng) for _ in range(layers)]
    return (*layered_cayley(g, gen_sets), gen_sets)


def random_cayley(g: FiniteGroup, degree: int, seed: int) -> BipartiteGraph:
    """A right-multiplication Cayley graph on a seeded random generating set."""
    return draw_layered(g, 1, degree, random.Random(seed))[0]


def reference_least_translate(
    g: FiniteGroup, gen_sets: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The least right translate ``(S_i * t)_i`` and its ``t``, over every ``t``."""
    return min(
        (tuple(tuple(sorted(g.mul(b, t) for b in gens)) for gens in gen_sets), t)
        for t in g.elements()
    )


def reference_search_pair(spec: SearchSpec) -> SearchResult:
    """The search with a product and two fresh certificates per trial."""
    g = spec.group
    layers_x = spec.w_up // spec.w_down
    layers_y = spec.w_left // spec.w_right
    log: list[dict] = []
    best = None
    for trial in range(spec.trials):
        trial_seed = spec.seed * 1_000_003 + trial
        rng = random.Random(trial_seed)
        entry: dict = {"trial": trial, "seed": trial_seed}
        try:
            x, ax, gens_x = draw_layered(g, layers_x, spec.w_down, rng)
            y, ay, gens_y = draw_layered(g, layers_y, spec.w_right, rng)
            bp = balanced_product(x, y, ax, ay)
            cert_x = certify_expansion(x, spec.c_x, max_evals=SUBSET_BUDGET, action=ax)
            cert_y = certify_expansion(y, spec.c_y, max_evals=SUBSET_BUDGET, action=ay)
        except MultiplicityViolationError as exc:
            entry["status"] = "degenerate"
            entry["detail"] = str(exc)
            log.append(entry)
            continue
        eps = small_set_epsilon(bp.w_up, cert_x, cert_y)
        entry.update(
            status="certified",
            eps_x=str(cert_x.epsilon),
            eps_y=str(cert_y.epsilon),
            eps=str(eps),
        )
        log.append(entry)
        if best is None or eps < best.epsilon:
            best = SearchResult(
                cert_x=cert_x,
                cert_y=cert_y,
                epsilon=eps,
                trial=trial,
                seed=trial_seed,
                gen_sets_x=tuple(tuple(s) for s in gens_x),
                gen_sets_y=tuple(tuple(s) for s in gens_y),
                log=tuple(log),
            )
    assert best is not None, "no trial produced a certifiable pair"
    inequalities = None
    if spec.eps_target is not None:
        t = spec.eps_target
        inequalities = {
            "w_up_eps_y_le_eps": spec.w_up * best.cert_y.epsilon <= t,
            "eps_y_le_eps": best.cert_y.epsilon <= t,
            "eps_x_le_eps": best.cert_x.epsilon <= t,
        }
    return SearchResult(
        cert_x=best.cert_x,
        cert_y=best.cert_y,
        epsilon=best.epsilon,
        trial=best.trial,
        seed=best.seed,
        gen_sets_x=best.gen_sets_x,
        gen_sets_y=best.gen_sets_y,
        log=tuple(log),
        inequalities=inequalities,
    )
