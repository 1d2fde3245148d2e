"""Tests for finite groups, actions, and orbit labelings."""

import pytest

from expander_ltc.errors import FreenessViolationError, InvalidParameterError, SizeLimitError
from expander_ltc.groups import (
    MAX_GROUP_ORDER,
    block_action,
    check_action_axioms,
    check_group_axioms,
    group_from_spec,
    left_regular_action,
    make_cyclic,
    make_direct_product,
    orbit_labeling,
    right_regular_action_as_left,
)

from products_reference import s3
from symmetry_reference import subgroup, trivial_action


class TestCyclic:
    def test_order_and_identity(self):
        g = make_cyclic(12)
        assert g.order == 12
        assert g.identity == 0
        assert g.mul(5, 9) == 2
        assert g.inv(5) == 7

    def test_trivial_group(self):
        g = make_cyclic(1)
        assert g.order == 1
        assert g.mul(0, 0) == 0

    def test_size_cap(self):
        # raised before the 4097 x 4097 table is built
        with pytest.raises(SizeLimitError):
            make_cyclic(MAX_GROUP_ORDER + 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            make_cyclic(0)

    def test_axioms_pass(self):
        check_group_axioms(make_cyclic(7))

    def test_axioms_catch_broken_table(self):
        g = make_cyclic(3)
        bad = g.__class__(3, ((0, 1, 2), (1, 2, 0), (2, 0, 0)), 0, g.inverse)
        with pytest.raises(InvalidParameterError):
            check_group_axioms(bad)

    def test_axioms_name_first_non_associative_triple(self):
        # a loop of order 5: 0 is the identity and every element is its own
        # inverse, which no element of Z5 but 0 is, so associativity fails
        table = (
            (0, 1, 2, 3, 4),
            (1, 0, 3, 4, 2),
            (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1),
            (4, 3, 1, 2, 0),
        )
        loop = make_cyclic(5)._replace(table=table, inverse=(0, 1, 2, 3, 4))
        with pytest.raises(InvalidParameterError, match=r"triple \(1, 1, 2\)$"):
            check_group_axioms(loop)


class TestDirectProduct:
    def test_orders_multiply(self):
        g = make_direct_product(make_cyclic(3), make_cyclic(4))
        assert g.order == 12
        check_group_axioms(g)

    def test_pairing_convention(self):
        # (a, b) -> a*|h| + b: element (1, 2) of Z3 x Z4 is index 6
        g = make_direct_product(make_cyclic(3), make_cyclic(4))
        assert g.mul(1 * 4 + 2, 1 * 4 + 3) == 2 * 4 + 1

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            make_direct_product(make_cyclic(100), make_cyclic(100))


class TestGeneratingSet:
    @staticmethod
    def _closure(g, gens):
        reached, frontier = {g.identity}, [g.identity]
        while frontier:
            h = frontier.pop()
            for s in gens:
                if g.mul(h, s) not in reached:
                    reached.add(g.mul(h, s))
                    frontier.append(g.mul(h, s))
        return reached

    @pytest.mark.parametrize("g, expected", [
        (make_cyclic(1), []),
        (make_cyclic(12), [1]),
        (make_direct_product(make_cyclic(2), make_cyclic(4)), [1, 4]),
        (make_direct_product(make_cyclic(2), make_cyclic(2)), [1, 2]),
    ])
    def test_first_unreached_elements(self, g, expected):
        assert g.generating_set() == expected
        assert self._closure(g, expected) == set(g.elements())

    def test_non_abelian(self):
        g = s3()
        gens = g.generating_set()
        assert len(gens) == 2
        assert self._closure(g, gens) == set(g.elements())


class TestGroupFromSpec:
    def test_cyclic(self):
        assert group_from_spec({"kind": "cyclic", "n": 5}).order == 5

    def test_product(self):
        g = group_from_spec(
            {
                "kind": "product",
                "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}],
            }
        )
        assert g.order == 6

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            group_from_spec({"kind": "dihedral", "n": 5})

    @pytest.mark.parametrize("kind", [["cyclic"], None, 1, {}])
    def test_rejects_a_kind_that_is_no_name(self, kind):
        with pytest.raises(InvalidParameterError, match="unknown group kind"):
            group_from_spec({"kind": kind, "n": 5})

    def test_rejects_unknown_keys(self):
        with pytest.raises(InvalidParameterError):
            group_from_spec({"kind": "cyclic", "n": 5, "extra": 1})

    @pytest.mark.parametrize("spec, extra", [
        ({"kind": "cyclic", "n": 5, "factors": [], "x": 1}, ["factors", "x"]),
        ({"kind": "product", "factors": [{"kind": "cyclic", "n": 2}], "n": 2}, ["n"]),
    ])
    def test_unknown_keys_are_named_for_each_kind(self, spec, extra):
        with pytest.raises(InvalidParameterError) as exc:
            group_from_spec(spec)
        assert str(exc.value) == f"unknown group spec keys: {extra}"

    def test_rejects_empty_product(self):
        with pytest.raises(InvalidParameterError):
            group_from_spec({"kind": "product", "factors": []})


class TestActions:
    def test_left_regular_is_free(self):
        assert orbit_labeling(left_regular_action(make_cyclic(9))).num_orbits == 1

    def test_right_regular_is_free_left_action(self):
        a = right_regular_action_as_left(make_cyclic(8))
        check_action_axioms(a)
        assert orbit_labeling(a).num_orbits == 1

    def test_trivial_action_not_free(self):
        a = trivial_action(make_cyclic(3), 4)
        check_action_axioms(a)
        with pytest.raises(FreenessViolationError) as exc_info:
            orbit_labeling(a)
        g_bad, x_bad = exc_info.value.witness
        assert g_bad != 0 and a.act(g_bad, x_bad) == x_bad

    def test_block_action_keeps_freeness(self):
        a = block_action(left_regular_action(make_cyclic(5)), 3)
        check_action_axioms(a)
        assert orbit_labeling(a).num_orbits == 3
        # copy index is preserved, points move inside their copy
        assert a.act(2, 1 * 5 + 3) == 1 * 5 + ((2 + 3) % 5)

    def test_one_block_is_the_action_itself(self):
        a = left_regular_action(make_cyclic(5))
        assert block_action(a, 1) is a

    @pytest.mark.parametrize("blocks", [0, -2])
    def test_block_action_needs_a_copy(self, blocks):
        message = f"block count must be an integer >= 1, got {blocks}"
        with pytest.raises(InvalidParameterError, match=message):
            block_action(left_regular_action(make_cyclic(5)), blocks)


class TestSubgroup:
    def test_even_elements_of_z6(self):
        g = make_cyclic(6)
        sub, act = subgroup(g, [0, 2, 4])
        assert sub.order == 3
        check_group_axioms(sub)
        check_action_axioms(act)
        assert orbit_labeling(act).num_orbits == 2

    def test_rejects_non_closed(self):
        with pytest.raises(InvalidParameterError):
            subgroup(make_cyclic(6), [0, 2, 3])

    def test_rejects_missing_identity(self):
        with pytest.raises(InvalidParameterError):
            subgroup(make_cyclic(6), [2, 4])


class TestOrbitLabeling:
    def test_regular_action_single_orbit(self):
        lab = orbit_labeling(left_regular_action(make_cyclic(7)))
        assert lab.num_orbits == 1
        assert lab.representatives == (0,)

    def test_labels_bijective(self):
        a = block_action(left_regular_action(make_cyclic(4)), 3)
        lab = orbit_labeling(a)
        assert lab.num_orbits == 3
        seen = set()
        for x in range(a.set_size):
            g, i = lab.label[x]
            assert a.act(g, lab.representatives[i]) == x
            seen.add((g, i))
        assert len(seen) == a.set_size

    def test_subgroup_action_orbits(self):
        # Z3 inside Z6 acting on Z6 has two orbits
        g = make_cyclic(6)
        _, act = subgroup(g, [0, 2, 4])
        lab = orbit_labeling(act)
        assert lab.num_orbits == 2

    def test_non_free_raises_with_witness(self):
        a = trivial_action(make_cyclic(3), 2)
        with pytest.raises(FreenessViolationError) as exc_info:
            orbit_labeling(a)
        g_bad, x_bad = exc_info.value.witness
        assert g_bad != 0
        assert a.act(g_bad, x_bad) == x_bad


class TestSpecTypes:
    @pytest.mark.parametrize("n", ["seven", 7.0, True, None])
    def test_cyclic_order_must_be_integer(self, n):
        with pytest.raises(InvalidParameterError, match="'n'"):
            group_from_spec({"kind": "cyclic", "n": n})

    def test_product_factors_must_be_a_list(self):
        with pytest.raises(InvalidParameterError, match="factors"):
            group_from_spec({"kind": "product", "factors": 3})
