"""The integer flip test and the small-set suite against the ``Fraction`` references."""

import random
from fractions import Fraction

import pytest

from expander_ltc import analysis
from expander_ltc.analysis import (
    C1Vector,
    greedy_flip,
    is_locally_minimal,
    locally_minimal_distance,
    small_set_ltc_check,
    small_set_suite,
)
from expander_ltc.errors import PreconditionViolationError, VerificationError
from expander_ltc.f2 import BitVector
from expander_ltc.graphs import certify_expansion
from expander_ltc.groups import group_from_spec, make_cyclic
from expander_ltc.products import balanced_product, left_right_cayley
from expander_ltc.search import layered_cayley

from small_set_reference import (
    column_masks,
    flip_delta,
    reference_greedy_flip,
    reference_is_locally_minimal,
    reference_locally_minimal_distance,
    reference_small_set_ltc_check,
    reference_small_set_suite,
)


def _cayley(order, a_set, b_set):
    return left_right_cayley(make_cyclic(order), a_set, b_set)


def _product_group():
    spec = {"kind": "product", "factors": [
        {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 4}]}
    return left_right_cayley(group_from_spec(spec), [1, 2], [1, 3])


def _layered(order, layers_y, seed):
    rng = random.Random(seed)
    g = make_cyclic(order)
    x, ax, _ = layered_cayley(g, 2, 2, rng)  # w_down = 2, w_up = 4
    y, ay, _ = layered_cayley(g, layers_y, 2, rng)
    return balanced_product(x, y, ax, ay)


INSTANCES = {
    "Z6": lambda: _cayley(6, [1, 2], [1, 3]),
    "Z8": lambda: _cayley(8, [1, 2], [1, 3]),
    "Z10": lambda: _cayley(10, [1, 2], [1, 3]),
    "Z8-unit3": lambda: _cayley(8, [3, 6], [3, 1]),
    "Z2xZ4": _product_group,
    "Z6-layered": lambda: _layered(6, 1, 0),
    "Z5-layered-both": lambda: _layered(5, 2, 1),
}


def _certified(bp, c=Fraction(1, 2)):
    return (
        certify_expansion(bp.x, c, action=bp.ax),
        certify_expansion(bp.y, c, action=bp.ay),
    )


def _random_c1(bp, rng):
    return C1Vector(
        BitVector(bp.n10, rng.getrandbits(bp.n10)),
        BitVector(bp.n01, rng.getrandbits(bp.n01)),
    )


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("include_zero", [False, True])
def test_suite_matches_reference(name, include_zero):
    bp = INSTANCES[name]()
    cert_x, cert_y = _certified(bp)
    checks = small_set_suite(bp, cert_x, cert_y, include_zero=include_zero)
    expected = reference_small_set_suite(bp, cert_x, cert_y, include_zero=include_zero)
    assert expected  # the instance exercises the suite
    assert checks == expected


def test_layered_instance_is_skewed():
    bp = INSTANCES["Z6-layered"]()
    assert bp.w_up == 2 * bp.w_down
    assert bp.n10 != bp.n00


@pytest.mark.parametrize("name", ["Z8", "Z6-layered", "Z2xZ4"])
def test_minimality_greedy_and_d_lm_match_reference(name):
    bp = INSTANCES[name]()
    rng = random.Random(7)
    for _ in range(150):
        c1 = _random_c1(bp, rng)
        assert is_locally_minimal(c1, bp)[0] == reference_is_locally_minimal(c1, bp)[0]
        assert greedy_flip(c1, bp) == reference_greedy_flip(c1, bp)
    assert locally_minimal_distance(bp) == reference_locally_minimal_distance(bp)


def test_reported_bit_is_the_greedy_choice():
    # the first bit among those whose flip lowers the weighted norm most
    bp = INSTANCES["Z6-layered"]()
    lo, hi = column_masks(bp)
    rng = random.Random(11)
    seen = 0
    for _ in range(100):
        c1 = _random_c1(bp, rng)
        minimal, bit = is_locally_minimal(c1, bp)
        if minimal:
            assert bit is None
            continue
        seen += 1
        deltas = [flip_delta(bp, c1, lo[j], hi[j]) for j in range(bp.n00)]
        assert deltas[bit] < 0
        assert bit == deltas.index(min(deltas))
    assert seen


def test_single_check_matches_reference():
    bp = INSTANCES["Z8"]()
    cert_x, cert_y = _certified(bp)
    for c1 in (
        C1Vector.zero(bp),
        C1Vector.from_supports(bp, [0], []),
        C1Vector.from_supports(bp, [], [5]),
        C1Vector.from_supports(bp, [3], [1]),
    ):
        assert small_set_ltc_check(bp, cert_x, cert_y, c1) == (
            reference_small_set_ltc_check(bp, cert_x, cert_y, c1)
        )


def test_single_check_rejects_heavy_vector():
    bp = INSTANCES["Z8"]()
    cert_x, cert_y = _certified(bp)
    c1 = C1Vector.from_supports(bp, [0, 1], [])  # |v10| = 2, bound is 2
    assert is_locally_minimal(c1, bp)[0]
    with pytest.raises(PreconditionViolationError, match="v10"):
        small_set_ltc_check(bp, cert_x, cert_y, c1)


def test_suite_requires_exhaustive_certificates():
    bp = INSTANCES["Z8"]()
    cert_x, cert_y = _certified(bp)
    sampled = certify_expansion(bp.x, Fraction(1, 2), mode="sampled")
    with pytest.raises(PreconditionViolationError, match="exhaustive"):
        small_set_suite(bp, sampled, cert_y)


def test_square_count_error_through_suite(monkeypatch):
    bp = INSTANCES["Z8"]()
    cert_x, cert_y = _certified(bp)
    monkeypatch.setattr(
        analysis, "_d2_column_masks", lambda bp: ([0] * bp.n00, [0] * bp.n00)
    )
    with pytest.raises(VerificationError, match="disagree"):
        small_set_suite(bp, cert_x, cert_y)


def test_column_masks_derived_once_per_complex(monkeypatch):
    bp = INSTANCES["Z8"]()
    cert_x, cert_y = _certified(bp)
    calls = []
    transpose = type(bp.d2).transpose

    def counted(m):
        calls.append(m is bp.d2)
        return transpose(m)

    monkeypatch.setattr(type(bp.d2), "transpose", counted)
    small_set_suite(bp, cert_x, cert_y)
    greedy_flip(C1Vector.from_stacked(bp, bp.d2.column(0)), bp)
    locally_minimal_distance(bp)
    assert calls.count(True) == 1
