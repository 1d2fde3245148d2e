"""The locally minimal distance against the reference that visits every vector.

``reference_locally_minimal_distance`` tests every kernel vector of ``d1``
and keeps the least ``(weight, weighted norm, stacked bits)``, so equal
records mean the same ``d_lm`` and the same witness.  The library's two
loops, weight first and the Gray sweep it hands off to, must each give that
record.
"""

import functools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import test_acceptance
import test_products
import test_small_set
import test_sweep
from expander_ltc import analysis
from expander_ltc.analysis import locally_minimal_distance
from expander_ltc.f2 import gray_sweep, kernel_basis
from expander_ltc.groups import make_cyclic
from expander_ltc.products import left_right_cayley

from small_set_reference import reference_locally_minimal_distance

# every instance table of the suite, by "table:name"
TABLES = {
    "sweep": test_sweep.COMPLEXES,
    "small_set": test_small_set.INSTANCES,
    "small_set_larger": test_small_set.LARGER,
    "small_set_kernel": test_small_set.KERNEL_INSTANCES,
    "boundary": test_products.BOUNDARY_INSTANCES,
    "acceptance": {
        **{name: (lambda bp=bp: bp) for name, bp in test_acceptance._cyclic_corpus()},
        "Z6-skew": test_acceptance._skewed_instance,
    },
}
# the reference sweeps 2^dim kernel vectors with exact rationals: these
# kernels have dimension 20 to 26, too many to sweep in a test
TOO_LARGE = {
    "boundary:Z20",
    *(f"boundary:Z5-layered-{seed}" for seed in range(4)),
    "acceptance:Z6-skew",
}
INSTANCES = {}
for table, instances in TABLES.items():
    for name, make in instances.items():
        if make not in INSTANCES.values():  # a table may share another's entries
            INSTANCES[f"{table}:{name}"] = make


@functools.cache
def _reference(name):
    return reference_locally_minimal_distance(INSTANCES[name]())


@pytest.mark.parametrize("name", sorted(INSTANCES.keys() - TOO_LARGE))
def test_instance_tables_match_reference(name):
    bp = INSTANCES[name]()
    assert len(kernel_basis(bp.d1)) <= 16
    assert locally_minimal_distance(bp) == _reference(name)


@pytest.mark.parametrize("name", sorted(INSTANCES.keys() - TOO_LARGE))
def test_forced_sweep_gives_the_same_record(name, monkeypatch):
    # with no subset within 2^dim / _SUBSET_STEPS the sweep runs from the start
    bp = INSTANCES[name]()
    default = locally_minimal_distance(bp)
    monkeypatch.setattr(analysis, "_SUBSET_STEPS", 1 << 40)
    calls = _spy_on_gray_sweep(monkeypatch)
    assert locally_minimal_distance(bp) == default == _reference(name)
    assert calls == [(len(kernel_basis(bp.d1)), analysis.DEFAULT_ENUM_BUDGET)]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.data())
def test_cyclic_pairs_match_reference(data):
    n = data.draw(st.integers(5, 14))
    elements = st.integers(0, n - 1)
    a_set = data.draw(st.lists(elements, min_size=1, max_size=2, unique=True))
    b_set = data.draw(st.lists(elements, min_size=1, max_size=3, unique=True))
    bp = left_right_cayley(make_cyclic(n), a_set, b_set)
    assume(len(kernel_basis(bp.d1)) <= 15)
    assert locally_minimal_distance(bp) == reference_locally_minimal_distance(bp)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_layered_products_match_reference(seed):
    bp = test_sweep._random_layered(random.Random(seed))
    assert locally_minimal_distance(bp) == reference_locally_minimal_distance(bp)


def _spy_on_gray_sweep(monkeypatch):
    calls = []

    def spy(vectors, budget):
        calls.append((len(vectors), budget))
        return gray_sweep(vectors, budget)

    monkeypatch.setattr(analysis, "gray_sweep", spy)
    return calls


def test_sweep_runs_when_weight_first_would_cost_more(monkeypatch):
    # Z5, a = [1], b = [1, 2]: dim 5 and d_lm 5; the 1 + 10 subsets of
    # weight 1 and 2 already pass 2^5 / 3, so the sweep takes over
    bp = test_sweep.COMPLEXES["Z5"]()
    dim = len(kernel_basis(bp.d1))
    calls = _spy_on_gray_sweep(monkeypatch)
    lmd = locally_minimal_distance(bp)
    assert calls == [(dim, analysis.DEFAULT_ENUM_BUDGET)]
    assert lmd == reference_locally_minimal_distance(bp)
    assert lmd.d_lm == 5


def test_weight_first_stops_at_the_answer(monkeypatch):
    # Z12 [1,2]/[1,3]: d_lm 3 is found in 1 + 24 + 276 subsets, below 2^13
    bp = test_small_set.LARGER["Z12-unit1"]()
    calls = _spy_on_gray_sweep(monkeypatch)
    assert locally_minimal_distance(bp).d_lm == 3
    assert calls == []


def test_a_subset_weighs_three_sweep_steps(monkeypatch):
    # Z7 [1,2]/[1,3]: d_lm 3 takes 1 + 14 + 91 = 106 subsets, fewer than the
    # 2^8 kernel vectors but more than 2^8 / 3, so the sweep runs; under a
    # budget of 2^7 the sweep may not run, and the subsets fit
    bp = left_right_cayley(make_cyclic(7), [1, 2], [1, 3])
    dim = len(kernel_basis(bp.d1))
    assert (dim, analysis._SUBSET_STEPS) == (8, 3)
    calls = _spy_on_gray_sweep(monkeypatch)
    lmd = locally_minimal_distance(bp)
    assert calls == [(dim, analysis.DEFAULT_ENUM_BUDGET)]
    assert locally_minimal_distance(bp, budget=1 << (dim - 1)) == lmd
    assert len(calls) == 1
    assert lmd.d_lm == 3
