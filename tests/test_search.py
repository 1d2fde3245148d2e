"""Tests for the randomized expander-pair search and graph surgery."""

import random
from fractions import Fraction

import pytest

from expander_ltc.errors import (
    InvalidParameterError,
    MultiplicityViolationError,
    SearchExhaustedError,
)
from expander_ltc.graphs import check_invariance, check_regularity
from expander_ltc.groups import is_free_action, make_cyclic, orbit_labeling
from expander_ltc.products import verify_chain_identity
from expander_ltc.search import (
    SearchSpec,
    layered_cayley,
    random_cayley,
    search_pair,
    unbalance,
)


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


class TestLayeredCayley:
    def test_degree_profile(self):
        g = make_cyclic(6)
        x, action, gens = layered_cayley(g, 3, 2, random.Random(1))
        reg = check_regularity(x)
        assert (reg.w0, reg.w1) == (2, 6)
        assert len(gens) == 3
        assert check_invariance(x, action.on_v0, action.on_v1)
        assert is_free_action(action.on_v0)


class TestUnbalance:
    def _layered(self, seed, layers=4, degree=1):
        g = make_cyclic(6)
        x, action, _ = layered_cayley(g, layers, degree, random.Random(seed))
        return x, orbit_labeling(action.on_v0)

    def test_identity_when_t_one(self):
        x, lab = self._layered(5)
        merged, act = unbalance(x, lab, 1)
        assert merged == x
        assert is_free_action(act)

    def test_degree_doubles_without_collisions(self):
        # find a seed whose layers use disjoint generators pairwise
        for seed in range(50):
            x, lab = self._layered(seed)
            try:
                merged, act = unbalance(x, lab, 2)
            except MultiplicityViolationError:
                continue
            reg = check_regularity(merged)
            assert (reg.w0, reg.w1) == (2, 4)
            assert is_free_action(act)
            return
        pytest.fail("no collision-free seed found")

    def test_collision_rejected(self):
        # two layers with identical generating sets always collide on merge
        g = make_cyclic(6)
        edges = [(i * 6 + x, (x + 1) % 6) for i in range(2) for x in range(6)]
        from expander_ltc.graphs import BipartiteGraph
        from expander_ltc.groups import block_action, left_regular_action

        x = BipartiteGraph(12, 6, edges)
        lab = orbit_labeling(block_action(left_regular_action(g), 2))
        with pytest.raises(MultiplicityViolationError):
            unbalance(x, lab, 2)

    def test_indivisible_orbits_rejected(self):
        x, lab = self._layered(5, layers=3)
        with pytest.raises(InvalidParameterError):
            unbalance(x, lab, 2)


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
