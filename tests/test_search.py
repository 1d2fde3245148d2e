"""Tests for the randomized expander-pair search."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expander_ltc import search
from expander_ltc.errors import InvalidParameterError
from expander_ltc import cli, products
from expander_ltc.graphs import (
    certify_expansion,
    check_invariance,
    check_regularity,
    layered_cayley,
)
from expander_ltc.groups import (
    FiniteGroup,
    check_group_axioms,
    make_cyclic,
    make_direct_product,
    orbit_labeling,
)
from expander_ltc.products import balanced_product, verify_chain_identity
from expander_ltc.search import SearchSpec, search_pair
from products_reference import s3
from search_reference import (
    draw_layered,
    random_cayley,
    reference_least_translate,
    reference_search_pair,
)


def assert_round_trip(spec, gen_sets_x, gen_sets_y, cert_x, cert_y):
    """The product built by ``layered_cayley`` and ``balanced_product`` from a
    search's reported generator sets is a chain complex of the spec's degrees,
    and re-certifying its factors gives the reported certificates (compared
    as ``to_json`` records, which a written ``search_result.json`` holds too)."""
    x, ax = layered_cayley(spec.group, gen_sets_x)
    y, ay = layered_cayley(spec.group, gen_sets_y)
    bp = balanced_product(x, y, ax, ay)
    ok, _ = verify_chain_identity(bp.d1, bp.d2)
    assert ok
    assert (bp.w_down, bp.w_up, bp.w_right, bp.w_left) == (
        spec.w_down, spec.w_up, spec.w_right, spec.w_left
    )
    certs = (
        certify_expansion(bp.x, spec.c_x, action=bp.ax),
        certify_expansion(bp.y, spec.c_y, action=bp.ay),
    )
    assert [c.to_json() for c in certs] == [cert_x, cert_y]
    return certs


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
        message = rf"generator count {size} is not an int in 0\.\.5"
        with pytest.raises(InvalidParameterError, match=message):
            search.random_generating_set(make_cyclic(5), size, random.Random(0))


class TestLayeredCayley:
    def test_degree_profile(self):
        g = make_cyclic(6)
        x, action, gens = draw_layered(g, 3, 2, random.Random(1))
        reg = check_regularity(x)
        assert (reg.w0, reg.w1) == (2, 6)
        assert len(gens) == 3
        assert check_invariance(x, action.on_v0, action.on_v1)
        assert orbit_labeling(action.on_v0).num_orbits == 3  # free: no error

    def test_one_layer_shares_one_action(self):
        # both sides carry the same action object, so certification proves it once
        x, action, _ = draw_layered(make_cyclic(6), 1, 2, random.Random(1))
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

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidParameterError, match="trials"):
            self._spec(trials=0)

    def test_reproducible(self):
        a = search_pair(self._spec())
        b = search_pair(self._spec())
        assert a.epsilon == b.epsilon
        assert a.gen_sets_x == b.gen_sets_x
        assert a.log == b.log

    def test_result_certificates_reverify(self):
        spec = self._spec()
        res = search_pair(spec)
        assert_round_trip(
            spec, res.gen_sets_x, res.gen_sets_y,
            res.cert_x.to_json(), res.cert_y.to_json(),
        )

    @staticmethod
    def _assert_written_result_rebuilds(tmp_path, spec, degrees):
        """``search_result.json`` of a CLI search, with its certificates
        replaced by those of the factors rebuilt from its generator sets, is
        the same file byte for byte."""
        cfg = tmp_path / "search.json"
        cfg.write_text(json.dumps({
            "group": {"kind": "cyclic", "n": spec.group.order}, **degrees,
            "c_x": str(spec.c_x), "c_y": str(spec.c_y), "trials": spec.trials,
        }))
        out = tmp_path / "out"
        argv = ["search", "--config", str(cfg), "--out", str(out), "--seed", "1"]
        assert cli.main(argv) == 0
        text = (out / "search_result.json").read_text()
        written = json.loads(text)
        cert_x, cert_y = assert_round_trip(
            spec, written["gen_sets_x"], written["gen_sets_y"],
            written["cert_x"], written["cert_y"],
        )
        rebuilt = {**written, "cert_x": cert_x.to_json(), "cert_y": cert_y.to_json()}
        assert json.dumps(rebuilt, indent=2, sort_keys=True) + "\n" == text

    def test_written_result_rebuilds_and_reverifies(self, tmp_path):
        degrees = dict(w_down=2, w_up=2, w_right=2, w_left=2)
        self._assert_written_result_rebuilds(tmp_path, self._spec(), degrees)

    def test_written_layered_result_rebuilds_and_reverifies(self, tmp_path):
        # two layers on each side: w_up = 2 w_down and w_left = 2 w_right
        degrees = dict(w_down=1, w_up=2, w_right=1, w_left=2)
        spec = self._spec(group=make_cyclic(8), c_x=Fraction(1, 2), **degrees)
        self._assert_written_result_rebuilds(tmp_path, spec, degrees)

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
        spec = self._spec(w_down=1, w_up=2, w_right=1, w_left=2, trials=4)
        res = search_pair(spec)
        assert [len(s) for s in res.gen_sets_x] == [1, 1]
        assert [len(s) for s in res.gen_sets_y] == [1, 1]
        # the rebuilt complex has degrees (1, 2, 1, 2)
        assert_round_trip(
            spec, res.gen_sets_x, res.gen_sets_y,
            res.cert_x.to_json(), res.cert_y.to_json(),
        )


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
    x, ax, _ = draw_layered(group, layers[0], w_down, rng)
    y, ay, _ = draw_layered(group, layers[1], w_right, rng)
    bp = balanced_product(x, y, ax, ay)
    assert (bp.w_up, bp.w_left) == (layers[0] * w_down, layers[1] * w_right)


def _renamed(g, shift):
    """``g`` with element ``a`` renamed ``a + shift`` mod its order, so that
    its identity is not element 0."""
    n = g.order

    def new(a):
        return (a + shift) % n

    old = [(a - shift) % n for a in range(n)]
    table = tuple(tuple(new(g.mul(old[a], old[b])) for b in range(n)) for a in range(n))
    inverse = tuple(new(g.inv(old[a])) for a in range(n))
    renamed = FiniteGroup(n, table, new(g.identity), inverse, f"{g.name}+{shift}")
    check_group_axioms(renamed)
    return renamed


TRANSLATE_GROUPS = GROUPS + [s3(), _renamed(make_cyclic(5), 2), _renamed(s3(), 4)]


@st.composite
def translate_draws(draw):
    """A group and one to three nonempty generator sets of it."""
    g = draw(st.sampled_from(TRANSLATE_GROUPS))
    gens = st.lists(st.integers(0, g.order - 1), min_size=1, max_size=4, unique=True)
    return g, draw(st.lists(gens, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(translate_draws())
def test_least_translate_matches_the_full_scan(draw):
    g, gen_sets = draw
    expected = reference_least_translate(g, gen_sets)
    assert search._least_translate(g, gen_sets) == expected


def _search_spec(group, w_down=2, w_up=2, w_right=2, w_left=2, c_x="1/2",
                 c_y="1/2", **kw):
    return SearchSpec(
        group=group, w_down=w_down, w_up=w_up, w_right=w_right, w_left=w_left,
        c_x=Fraction(c_x), c_y=Fraction(c_y), **kw,
    )


# the search-trials benchmark workload at seed 0: Z16, ten trials of degree 2
SEARCH_TRIALS = dict(group=make_cyclic(16), trials=10, seed=0)


class TestSearchMatchesReference:
    """No product and certificates shared across translates give the result of
    the loop that builds and certifies every trial afresh."""

    @staticmethod
    def _assert_same(spec, res, ref):
        assert res.log == ref.log
        assert (res.trial, res.seed, res.epsilon) == (ref.trial, ref.seed, ref.epsilon)
        # certificates compare field by field, worst_witness included
        assert res.cert_x == ref.cert_x
        assert res.cert_y == ref.cert_y
        assert (res.gen_sets_x, res.gen_sets_y) == (ref.gen_sets_x, ref.gen_sets_y)
        assert res.inequalities == ref.inequalities
        assert_round_trip(
            spec, res.gen_sets_x, res.gen_sets_y,
            res.cert_x.to_json(), res.cert_y.to_json(),
        )

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
        self._assert_same(spec, search_pair(spec), reference_search_pair(spec))

    @staticmethod
    def _counting(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_product_and_one_certificate_per_translation_class(
        self, monkeypatch
    ):
        # no balanced product at all, and one certificate per translation class
        made = self._counting(monkeypatch, products, "balanced_product")
        certs = self._counting(monkeypatch, search, "certify_expansion")
        search_pair(_search_spec(**SEARCH_TRIALS))
        assert (len(made), len(certs)) == (0, 7)

    def test_failed_relabeling_check_certifies_afresh(self, monkeypatch):
        certs = self._counting(monkeypatch, search, "certify_expansion")
        monkeypatch.setattr(search, "_relabels_onto", lambda *args: False)
        spec = _search_spec(**SEARCH_TRIALS)
        res = search_pair(spec)
        assert len(certs) == 20
        self._assert_same(spec, res, reference_search_pair(spec))


class TestRelabelsOnto:
    def test_only_the_translating_element_maps_onto_the_translate(self):
        g = make_cyclic(8)
        gen_sets = [[0, 1], [0, 3]]  # no nonzero translate fixes both sets
        x = layered_cayley(g, gen_sets)[0]
        for t in g.elements():
            target = layered_cayley(g, [[g.mul(b, t) for b in s] for s in gen_sets])[0]
            assert [search._relabels_onto(x, target, g, s) for s in g.elements()] == [
                s == t for s in g.elements()
            ]

    def test_other_class_never_maps(self):
        g = make_cyclic(8)
        x = layered_cayley(g, [[0, 1], [0, 3]])[0]
        other = layered_cayley(g, [[0, 1], [0, 2]])[0]
        assert not any(search._relabels_onto(x, other, g, t) for t in g.elements())
