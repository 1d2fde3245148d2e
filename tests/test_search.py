"""Tests for the randomized expander-pair search."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expander_ltc import search
from expander_ltc.errors import InvalidParameterError, SearchExhaustedError
from expander_ltc.graphs import BipartiteGraph, check_invariance, check_regularity
from expander_ltc.groups import (
    make_cyclic,
    make_direct_product,
    orbit_labeling,
)
from expander_ltc.products import balanced_product, verify_chain_identity
from expander_ltc.search import (
    SearchSpec,
    layered_cayley,
    search_pair,
)
from search_reference import random_cayley, reference_search_pair


class TestRandomCayley:
    def test_full_degree_complete_bipartite(self):
        g = make_cyclic(5)
        x = random_cayley(g, 5, seed=0)
        assert len(x.edges) == 25

    def test_deterministic_under_seed(self):
        g = make_cyclic(13)
        assert random_cayley(g, 4, seed=7).edges == random_cayley(g, 4, seed=7).edges

    def test_samples_regular_and_invariant(self):
        from expander_ltc.groups import left_regular_action

        g = make_cyclic(13)
        act = left_regular_action(g)
        for seed in range(100):
            x = random_cayley(g, 4, seed=seed)
            reg = check_regularity(x)
            assert (reg.w0, reg.w1) == (4, 4)
            assert check_invariance(x, act, act)

    def test_degree_too_large(self):
        with pytest.raises(InvalidParameterError):
            random_cayley(make_cyclic(3), 4, seed=0)

    @pytest.mark.parametrize("size", [-1, -5])
    def test_negative_size_rejected(self, size):
        with pytest.raises(InvalidParameterError, match=f"cannot draw {size} "):
            search.random_generating_set(make_cyclic(5), size, random.Random(0))


class TestLayeredCayley:
    def test_degree_profile(self):
        g = make_cyclic(6)
        x, action, gens = layered_cayley(g, 3, 2, random.Random(1))
        reg = check_regularity(x)
        assert (reg.w0, reg.w1) == (2, 6)
        assert len(gens) == 3
        assert check_invariance(x, action.on_v0, action.on_v1)
        assert orbit_labeling(action.on_v0).num_orbits == 3  # free: no error

    def test_one_layer_shares_one_action(self):
        # both sides carry the same action object, so certification proves it once
        x, action, _ = layered_cayley(make_cyclic(6), 1, 2, random.Random(1))
        assert action.on_v0 is action.on_v1
        assert check_invariance(x, action.on_v0, action.on_v1)


class TestSearchSpec:
    def test_bad_skew_rejected(self):
        with pytest.raises(InvalidParameterError):
            SearchSpec(
                group=make_cyclic(6),
                w_down=2,
                w_up=3,
                w_right=1,
                w_left=2,
                c_x=Fraction(1, 2),
                c_y=Fraction(1, 2),
            )

    @pytest.mark.parametrize("key", ["w_down", "w_right"])
    def test_base_degree_above_group_order_rejected(self, key):
        degrees = dict(w_down=1, w_up=5, w_right=1, w_left=5)
        degrees[key] = 5
        with pytest.raises(InvalidParameterError, match=key):
            SearchSpec(
                group=make_cyclic(4), c_x=Fraction(1, 2), c_y=Fraction(1, 2), **degrees
            )

    def test_ratio_interval_enforced(self):
        with pytest.raises(InvalidParameterError):
            SearchSpec(
                group=make_cyclic(6),
                w_down=1,
                w_up=2,
                w_right=1,
                w_left=2,
                c_x=Fraction(1, 2),
                c_y=Fraction(1, 2),
                ratio_x_interval=(Fraction(2, 3), Fraction(3, 4)),
            )


class TestSearchPair:
    def _spec(self, **kw):
        base = dict(
            group=make_cyclic(6),
            w_down=2,
            w_up=2,
            w_right=2,
            w_left=2,
            c_x=Fraction(1, 3),
            c_y=Fraction(1, 3),
            trials=6,
            seed=1,
        )
        base.update(kw)
        return SearchSpec(**base)

    def test_zero_trials_exhausts(self):
        with pytest.raises(SearchExhaustedError) as exc_info:
            search_pair(self._spec(trials=0))
        assert exc_info.value.trial_log == ()

    def test_reproducible(self):
        a = search_pair(self._spec())
        b = search_pair(self._spec())
        assert a.epsilon == b.epsilon
        assert a.gen_sets_x == b.gen_sets_x
        assert a.log == b.log

    def test_result_certificates_reverify(self):
        from expander_ltc.graphs import certify_expansion

        res = search_pair(self._spec())
        redo_x = certify_expansion(res.complex.x, res.cert_x.c)
        redo_y = certify_expansion(res.complex.y, res.cert_y.c)
        assert redo_x.epsilon == res.cert_x.epsilon
        assert redo_y.epsilon == res.cert_y.epsilon
        ok, _ = verify_chain_identity(res.complex.d1, res.complex.d2)
        assert ok

    def test_best_so_far_monotone(self):
        res = search_pair(self._spec(trials=10))
        best = None
        for entry in res.log:
            if entry["status"] != "certified":
                continue
            eps = Fraction(entry["eps"])
            if best is None or eps < best:
                best = eps
        assert best == res.epsilon

    def test_vacuous_target_records_inequalities(self):
        res = search_pair(self._spec(eps_target=Fraction(99, 100)))
        assert res.inequalities is not None
        assert res.inequalities["eps_x_le_eps"] == (
            res.cert_x.epsilon <= Fraction(99, 100)
        )

    def test_missed_target_reported_not_raised(self):
        res = search_pair(self._spec(eps_target=Fraction(1, 10**6)))
        assert res.inequalities is not None
        # with such a tiny target at this scale at least one condition fails
        # unless the factors are perfectly lossless; either way the result
        # reports honestly instead of raising
        for key, value in res.inequalities.items():
            assert isinstance(value, bool)

    def test_skewed_search_builds_skewed_complex(self):
        res = search_pair(
            self._spec(w_down=1, w_up=2, w_right=1, w_left=2, trials=4)
        )
        bp = res.complex
        assert (bp.w_down, bp.w_up, bp.w_right, bp.w_left) == (1, 2, 1, 2)
        ok, _ = verify_chain_identity(bp.d1, bp.d2)
        assert ok


def _product_group(*orders):
    g = make_cyclic(orders[0])
    for n in orders[1:]:
        g = make_direct_product(g, make_cyclic(n))
    return g


GROUPS = [make_cyclic(n) for n in range(2, 13)] + [
    _product_group(2, 4),
    _product_group(3, 3),
    _product_group(2, 2, 2),
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    group=st.sampled_from(GROUPS),
    layers=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    degrees=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_layered_balanced_product_never_raises(group, layers, degrees, seed):
    """Duplicate-free generator sets and free left-regular actions never
    double an incidence, so the search needs no per-trial fallback."""
    rng = random.Random(seed)
    w_down, w_right = (min(d, group.order) for d in degrees)
    x, ax, _ = layered_cayley(group, layers[0], w_down, rng)
    y, ay, _ = layered_cayley(group, layers[1], w_right, rng)
    bp = balanced_product(x, y, ax, ay)
    assert (bp.w_up, bp.w_left) == (layers[0] * w_down, layers[1] * w_right)


def _search_spec(group, w_down=2, w_up=2, w_right=2, w_left=2, c_x="1/2",
                 c_y="1/2", **kw):
    return SearchSpec(
        group=group, w_down=w_down, w_up=w_up, w_right=w_right, w_left=w_left,
        c_x=Fraction(c_x), c_y=Fraction(c_y), **kw,
    )


# the search-trials benchmark workload at seed 0: Z16, ten trials of degree 2
SEARCH_TRIALS = dict(group=make_cyclic(16), trials=10, seed=0)


class TestSearchMatchesReference:
    """One product per search and certificates shared across translates give
    the result of the loop that builds and certifies every trial afresh."""

    @staticmethod
    def _assert_same(res, ref):
        assert res.log == ref.log
        assert (res.trial, res.seed, res.epsilon) == (ref.trial, ref.seed, ref.epsilon)
        # certificates compare field by field, worst_witness included
        assert res.cert_x == ref.cert_x
        assert res.cert_y == ref.cert_y
        assert (res.gen_sets_x, res.gen_sets_y) == (ref.gen_sets_x, ref.gen_sets_y)
        assert res.inequalities == ref.inequalities
        assert res.complex.d1 == ref.complex.d1
        assert res.complex.d2 == ref.complex.d2

    @pytest.mark.parametrize(
        "spec",
        [
            _search_spec(make_cyclic(6), c_x="1/3", c_y="1/3", trials=8, seed=1),
            _search_spec(make_cyclic(8), trials=10, seed=2),
            _search_spec(**SEARCH_TRIALS),
            _search_spec(_product_group(2, 4), trials=10, seed=3),
            _search_spec(
                make_cyclic(8), w_down=1, w_up=2, w_right=2, w_left=4,
                c_y="1/3", trials=10, seed=0, eps_target=Fraction(1, 4),
            ),
        ],
        ids=["Z6", "Z8", "Z16", "Z2xZ4", "Z8-skew"],
    )
    def test_equals_reference(self, spec):
        self._assert_same(search_pair(spec), reference_search_pair(spec))

    @staticmethod
    def _counting(monkeypatch, name):
        calls = []
        original = getattr(search, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(search, name, counted)
        return calls

    def test_one_product_and_one_certificate_per_translation_class(
        self, monkeypatch
    ):
        products = self._counting(monkeypatch, "balanced_product")
        certs = self._counting(monkeypatch, "certify_expansion")
        search_pair(_search_spec(**SEARCH_TRIALS))
        assert (len(products), len(certs)) == (1, 7)

    def test_failed_relabeling_check_certifies_afresh(self, monkeypatch):
        certs = self._counting(monkeypatch, "certify_expansion")
        monkeypatch.setattr(search, "_relabels_onto", lambda *args: False)
        spec = _search_spec(**SEARCH_TRIALS)
        res = search_pair(spec)
        assert len(certs) == 20
        self._assert_same(res, reference_search_pair(spec))


def _layered_graph(g, gen_sets):
    """The ``layered_cayley`` graph on given generator sets."""
    return BipartiteGraph(
        len(gen_sets) * g.order,
        g.order,
        [
            (i * g.order + u, g.mul(u, b))
            for i, gens in enumerate(gen_sets)
            for u in g.elements()
            for b in gens
        ],
    )


class TestRelabelsOnto:
    def test_only_the_translating_element_maps_onto_the_translate(self):
        g = make_cyclic(8)
        gen_sets = [[0, 1], [0, 3]]  # no nonzero translate fixes both sets
        x = _layered_graph(g, gen_sets)
        for t in g.elements():
            target = _layered_graph(g, [[g.mul(b, t) for b in s] for s in gen_sets])
            assert [search._relabels_onto(x, target, g, s) for s in g.elements()] == [
                s == t for s in g.elements()
            ]

    def test_other_class_never_maps(self):
        g = make_cyclic(8)
        x = _layered_graph(g, [[0, 1], [0, 3]])
        other = _layered_graph(g, [[0, 1], [0, 2]])
        assert not any(search._relabels_onto(x, other, g, t) for t in g.elements())
