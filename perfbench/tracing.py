"""Spans around the calls into each layer of expander_ltc, and the per-layer metrics.

The tracer replaces each instrumented function under every name a caller
looks it up by (``expander_ltc.analysis.one_d_subgraph``,
``expander_ltc.search.balanced_product``, ``BitMatrix.transpose``, ...), runs
``expander_ltc.cli.main`` in this process, and puts the originals back.
Nothing under ``src/`` is modified.  A span records its name, start, end,
enclosing span and run id; spans stay in memory until the run ends.  The
hottest functions are counted without timing.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from math import comb
from statistics import median
from time import perf_counter
from typing import NamedTuple

LAYERS = ("cli", "analysis", "products", "graphs", "f2", "search")


def _subsets(v0_size: int, max_size: int) -> int:
    return sum(comb(v0_size, k) for k in range(1, max_size + 1))


def _certify_counts(a, cert):
    if cert.mode != "exhaustive":
        return {"graphs.subsets": cert.samples}
    return {"graphs.subsets": _subsets(a["x"].v0_size, cert.max_checked_size)}


def _unique_counts(a, _):
    return {
        "graphs.unique_lemma.subsets":
            _subsets(a["x"].v0_size, a["cert"].max_checked_size)
    }


def _d_lm_counts(a, _):
    from expander_ltc import f2

    d1 = a["bp"].d1
    rank = inspect.unwrap(f2.rank)  # the original, not the traced wrapper
    return {"analysis.d_lm.kernel_vectors": (1 << (d1.cols - rank(d1))) - 1}


def _search_counts(_, result):
    return {
        "search.trials": len(result.log),
        "search.certified": sum(e.get("status") == "certified" for e in result.log),
    }


# Each timed function: defining module, attribute, span name and an optional
# count hook taking (bound arguments, result) -> {counter: amount}.
TIMED = [
    ("cli", "cmd_build", "cli.cmd_build", None),
    ("cli", "cmd_verify", "cli.cmd_verify", None),
    ("cli", "cmd_search", "cli.cmd_search", None),
    ("cli", "build_report", "cli.build_report", None),
    ("cli", "_write_outputs", "cli.write_outputs", None),
    ("products", "left_right_cayley", "products.left_right_cayley", None),
    ("products", "balanced_product", "products.balanced_product", None),
    ("products", "one_d_subgraph", "products.one_d_subgraph", None),
    ("products", "verify_copy_decomposition", "products.verify_copy_decomposition",
     None),
    ("products", "verify_chain_identity", "products.verify_chain_identity", None),
    ("products", "inherited_expansion", "products.inherited_expansion", None),
    ("graphs", "certify_expansion", "graphs.certify_expansion", _certify_counts),
    ("graphs", "check_unique_neighbor_lemma", "graphs.check_unique_neighbor_lemma",
     _unique_counts),
    ("analysis", "code_from_complex", "analysis.code_from_complex", None),
    ("analysis", "distance_certificate", "analysis.distance_certificate", None),
    ("analysis", "locally_minimal_distance", "analysis.locally_minimal_distance",
     _d_lm_counts),
    ("analysis", "lt_profile", "analysis.lt_profile",
     lambda a, _: {"analysis.lt_profile.steps": (1 << a["bp"].n00) - 1}),
    ("analysis", "soundness_exhaustive", "analysis.soundness_exhaustive",
     lambda a, _: {"analysis.soundness.steps": (1 << a["code"].n) - 1}),
    ("analysis", "small_set_suite", "analysis.small_set_suite",
     lambda _, r: {"analysis.small_set.checked": len(r)}),
    ("f2", "rank", "f2.rank", None),
    ("f2", "kernel_basis", "f2.kernel_basis", None),
    ("f2", "min_weight_nonzero", "f2.min_weight_nonzero",
     lambda a, _: {"f2.min_weight_nonzero.steps":
                   (1 << len(a["basis"])) - 1 if a["basis"] else 0}),
    ("search", "search_pair", "search.search_pair", _search_counts),
]

# Functions called too often to time: a call counter and no span.
COUNTED = [
    ("analysis", "is_locally_minimal", "analysis.is_locally_minimal.calls"),
]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the tracer's list
    run: int


class Tracer:
    """Records spans and counts for one traced run of the CLI."""

    def __init__(self, run: int):
        self.run = run
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: list[str] = []  # names of the spans on the stack
        self._undo: list[tuple[object, str, object]] = []

    def timed(self, name, fn, count=None):
        spans, stack, counts, run = self.spans, self._stack, self.counts, self.run
        open_names = self._open
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            open_names.append(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_names.pop()
                spans[index] = Span(name, start, end, parent, run)
            counts[name + ".calls"] += 1
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.update(count(bound.arguments, result))
            return result

        return wrapper

    def counted(self, name, fn):
        """Count calls, in total and per innermost open span (``name@span``)."""
        counts, open_names = self.counts, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if open_names:
                counts[f"{name}@{open_names[-1]}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_items(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def _replace(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every instrumented function under all names that refer to it."""
        import expander_ltc
        from expander_ltc import analysis, cli, f2, graphs, products, search

        modules = [expander_ltc, cli, analysis, products, graphs, search, f2]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
        for mod, attr, name, count in TIMED:
            original = getattr(by_name[mod], attr)
            self._replace(modules, original, self.timed(name, original, count))
        for mod, attr, name in COUNTED:
            original = getattr(by_name[mod], attr)
            self._replace(modules, original, self.counted(name, original))
        original = analysis.enumerate_small_c1
        self._replace(
            modules, original,
            self.counted_items("analysis.small_set.enumerated", original),
        )
        transpose = f2.BitMatrix.transpose
        self._undo.append((f2.BitMatrix, "transpose", transpose))
        f2.BitMatrix.transpose = self.counted("f2.transpose.calls", transpose)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
        """Total and self time per span name, and layer time (outermost spans)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        total: Counter = Counter()
        self_time: Counter = Counter()
        layer: Counter = Counter()
        for i, s in enumerate(spans):
            d = s.end - s.start
            total[s.name] += d
            self_time[s.name] += d - child_time[i]
            name_layer = s.name.split(".", 1)[0]
            p = s.parent
            while p is not None and spans[p].name.split(".", 1)[0] != name_layer:
                p = spans[p].parent
            if p is None:  # no enclosing span of the same layer
                layer[name_layer] += d
        return total, self_time, layer


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, wall: float, report_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced run of ``wall`` seconds."""
    t, self_t, layer = tracer.totals()
    c = tracer.counts
    layer_self = Counter()
    for name, v in self_t.items():
        layer_self[name.split(".", 1)[0]] += v
    m = {
        "analysis.small_set_s": t["analysis.small_set_suite"],
        "analysis.small_set_self_s": self_t["analysis.small_set_suite"],
        "analysis.small_set.enumerated": c["analysis.small_set.enumerated"],
        "analysis.small_set.checked": c["analysis.small_set.checked"],
        "analysis.small_set.useful_ratio": (
            c["analysis.small_set.checked"] / c["analysis.small_set.enumerated"]
            if c["analysis.small_set.enumerated"] else 0.0
        ),
        "analysis.is_locally_minimal.calls": c["analysis.is_locally_minimal.calls"],
        "analysis.small_set.transposes":
            c["f2.transpose.calls@analysis.small_set_suite"],
        "analysis.soundness_s": t["analysis.soundness_exhaustive"],
        "analysis.soundness.steps": c["analysis.soundness.steps"],
        "analysis.soundness.steps_per_s": _rate(
            c["analysis.soundness.steps"], t["analysis.soundness_exhaustive"]),
        "analysis.lt_profile_s": t["analysis.lt_profile"],
        "analysis.lt_profile.steps": c["analysis.lt_profile.steps"],
        "analysis.lt_profile.steps_per_s": _rate(
            c["analysis.lt_profile.steps"], t["analysis.lt_profile"]),
        "analysis.d_lm_s": t["analysis.locally_minimal_distance"],
        "analysis.d_lm_self_s": self_t["analysis.locally_minimal_distance"],
        "analysis.d_lm.kernel_vectors": c["analysis.d_lm.kernel_vectors"],
        "analysis.distance_s": t["analysis.distance_certificate"],
        "f2.rank_s": t["f2.rank"],
        "f2.rank.calls": c["f2.rank.calls"],
        "f2.kernel_basis_s": t["f2.kernel_basis"],
        "f2.kernel_basis.calls": c["f2.kernel_basis.calls"],
        "f2.min_weight_nonzero_s": t["f2.min_weight_nonzero"],
        "f2.min_weight_nonzero.steps": c["f2.min_weight_nonzero.steps"],
        "f2.transpose.calls": c["f2.transpose.calls"],
        "graphs.certify_expansion_s": t["graphs.certify_expansion"],
        "graphs.certify_expansion.calls": c["graphs.certify_expansion.calls"],
        "graphs.subsets": c["graphs.subsets"],
        "graphs.subsets_per_s": _rate(
            c["graphs.subsets"], t["graphs.certify_expansion"]),
        "graphs.unique_lemma_s": t["graphs.check_unique_neighbor_lemma"],
        "graphs.unique_lemma.subsets": c["graphs.unique_lemma.subsets"],
        "products.balanced_product_s": t["products.balanced_product"],
        "products.balanced_product.calls": c["products.balanced_product.calls"],
        "products.one_d_subgraph_s": t["products.one_d_subgraph"],
        "products.one_d_subgraph.calls": c["products.one_d_subgraph.calls"],
        "products.verify_copy_decomposition_s":
            t["products.verify_copy_decomposition"],
        "search.search_pair_s": t["search.search_pair"],
        "search.search_pair_self_s": self_t["search.search_pair"],
        "search.trials": c["search.trials"],
        "search.certified_ratio": (
            c["search.certified"] / c["search.trials"] if c["search.trials"] else 0.0
        ),
        "search.trials_per_s": _rate(c["search.trials"], t["search.search_pair"]),
        "cli.build_report_s": t["cli.build_report"],
        "cli.build_report_self_s": self_t["cli.build_report"],
        # time in cmd_build outside build_report and product construction
        "cli.write_s": (
            t["cli.cmd_build"] - t["cli.build_report"]
            - t["products.left_right_cayley"]
            if c["cli.cmd_build.calls"] else 0.0
        ),
        "cli.report_bytes": report_bytes,
    }
    for name in LAYERS:
        m[f"layer.{name}_s"] = layer[name]
        m[f"layer.{name}_self_s"] = layer_self[name]
        m[f"layer.{name}.share"] = layer[name] / wall
    return m


# Counts that must repeat exactly between runs of one seed.
WORK_COUNTS = (
    "analysis.soundness.steps",
    "analysis.lt_profile.steps",
    "analysis.small_set.enumerated",
    "analysis.small_set.checked",
    "analysis.small_set.transposes",
    "analysis.is_locally_minimal.calls",
    "analysis.d_lm.kernel_vectors",
    "f2.min_weight_nonzero.steps",
    "f2.transpose.calls",
    "graphs.subsets",
    "graphs.unique_lemma.subsets",
    "graphs.certify_expansion.calls",
    "products.one_d_subgraph.calls",
    "products.balanced_product.calls",
    "search.trials",
)

# locally_minimal_distance skips kernel vectors heavier than the best one
# found so far, in the Gray order of a kernel basis that depends on the
# labeling.  Its local-minimality tests, and the d2 transposes each of them
# makes, therefore vary between isomorphic instances.  All other work counts
# must repeat exactly between seeds.
ORDER_DEPENDENT = ("f2.transpose.calls", "analysis.is_locally_minimal.calls")
SEED_COUNTS = tuple(k for k in WORK_COUNTS if k not in ORDER_DEPENDENT)


# ---------------------------------------------------------------------------
# f2 micro-benchmarks on the build-sweep complex


def _per_call(fn, arg, min_batch_s: float = 0.02, batches: int = 5) -> float:
    """Median time of one call, over batches each lasting at least min_batch_s."""
    n = 1
    while True:
        start = perf_counter()
        for _ in range(n):
            fn(arg)
        elapsed = perf_counter() - start
        if elapsed >= min_batch_s:
            break
        n *= 2
    times = [elapsed / n]
    for _ in range(batches - 1):
        start = perf_counter()
        for _ in range(n):
            fn(arg)
        times.append((perf_counter() - start) / n)
    return median(times)


def f2_micro(a_set: list[int], b_set: list[int], order: int) -> dict[str, float]:
    """Rank and kernel of d1 and d2, and Gray-sweep speed on d1's kernel."""
    from expander_ltc.f2 import kernel_basis, min_weight_nonzero, rank
    from expander_ltc.groups import make_cyclic
    from expander_ltc.products import left_right_cayley

    bp = left_right_cayley(make_cyclic(order), a_set, b_set)
    basis = kernel_basis(bp.d1)
    steps = (1 << len(basis)) - 1
    start = perf_counter()
    min_weight_nonzero(basis, budget=steps + 1)
    gray_s = perf_counter() - start
    return {
        "f2.micro.rank_d1_s": _per_call(rank, bp.d1),
        "f2.micro.rank_d2_s": _per_call(rank, bp.d2),
        "f2.micro.kernel_d1_s": _per_call(kernel_basis, bp.d1),
        "f2.micro.kernel_d2_s": _per_call(kernel_basis, bp.d2),
        "f2.micro.gray.steps": steps,
        "f2.micro.gray.steps_per_s": steps / gray_s,
    }
