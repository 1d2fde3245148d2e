"""The integer flip test and the small-set suite against the ``Fraction`` references."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

from expander_ltc import analysis, products
from expander_ltc.analysis import (
    C1Vector,
    greedy_flip,
    is_locally_minimal,
    locally_minimal_distance,
    small_set_suite,
)
from expander_ltc.errors import PreconditionViolationError, VerificationError
from expander_ltc.f2 import BitVector
from expander_ltc.graphs import certify_expansion, small_set_epsilon
from expander_ltc.groups import group_from_spec, make_cyclic
from expander_ltc.products import balanced_product, left_right_cayley

import small_set_reference
from products_reference import s3
from search_reference import draw_layered
from small_set_reference import (
    column_masks,
    flip_delta,
    reference_greedy_flip,
    reference_is_locally_minimal,
    reference_locally_minimal_distance,
    reference_small_set_ltc_check,
    reference_small_set_suite,
    reference_square_count,
    reference_translations,
)
from sweep_reference import column_bits


def _cayley(order, a_set, b_set):
    return left_right_cayley(make_cyclic(order), a_set, b_set)


def _product_group():
    spec = {"kind": "product", "factors": [
        {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 4}]}
    return left_right_cayley(group_from_spec(spec), [1, 2], [1, 3])


def _layered(order, layers_y, seed):
    rng = random.Random(seed)
    g = make_cyclic(order)
    x, ax, _ = draw_layered(g, 2, 2, rng)  # w_down = 2, w_up = 4
    y, ay, _ = draw_layered(g, layers_y, 2, rng)
    return balanced_product(x, y, ax, ay)


INSTANCES = {
    "Z6": lambda: _cayley(6, [1, 2], [1, 3]),
    "Z8": lambda: _cayley(8, [1, 2], [1, 3]),
    "Z10": lambda: _cayley(10, [1, 2], [1, 3]),
    "Z8-unit3": lambda: _cayley(8, [3, 6], [3, 1]),
    # w_down = 3 against w_right = 2: the margin weighs the corners apart
    "Z8-3x2": lambda: _cayley(8, [1, 2, 5], [1, 3]),
    "Z2xZ4": _product_group,
    "Z6-layered": lambda: _layered(6, 1, 0),
    "Z5-layered-both": lambda: _layered(5, 2, 1),
    # right translation by t is an automorphism only if b_set is closed under
    # conjugation by t: it fails for [1, 3] and holds for the 3-cycles [3, 4]
    "S3": lambda: left_right_cayley(s3(), [1, 2], [1, 3]),
    "S3-3-cycles": lambda: left_right_cayley(s3(), [1, 2], [3, 4]),
}

# the reference checks Z14's 164,157 vectors one at a time, which takes the
# longest of the tier-1 tests
LARGER = {
    **{f"Z12-unit{u}": (lambda u=u: _cayley(12, [u, 2 * u % 12], [u, 3 * u % 12]))
       for u in (1, 5, 7, 11)},
    "Z14": lambda: _cayley(14, [1, 2], [1, 3]),
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


def _scale(bp, cert_x, cert_y):
    """What ``_SmallSet.margin`` multiplies a check's margin by."""
    factor = Fraction(1, 2) - 8 * small_set_epsilon(bp.w_up, cert_x, cert_y)
    return factor.denominator * bp.w_down * bp.w_right


def _keys(orbits):
    """The c1 weight and integer margin of each orbit."""
    return [(p10.weight + p01.weight, margin) for margin, _, p10, p01 in orbits]


def _expanded(orbits):
    """The multiset of keys the orbits stand for, each counted by its size."""
    counts = Counter()
    for margin, size, p10, p01 in orbits:
        counts[p10.weight + p01.weight, margin] += size
    return counts


def _no_translations(bp):
    return [tuple(range(max(bp.sizes)))]


@pytest.mark.parametrize(
    "fallback, name",
    [(f, n) for f in (False, True) for n in sorted(INSTANCES)]
    + [(False, n) for n in LARGER],
)
def test_suite_matches_reference(name, fallback, monkeypatch):
    # with ``fallback`` the suite runs without translations: one orbit per
    # vector, in the reference's order
    bp = {**INSTANCES, **LARGER}[name]()
    cert_x, cert_y = _certified(bp)
    if fallback:
        monkeypatch.setattr(analysis, "_translations", _no_translations)
    orbits = list(analysis._small_set_orbits(bp, cert_x, cert_y))
    expected = reference_small_set_suite(bp, cert_x, cert_y)
    assert expected  # the instance exercises the suite
    assert all(size >= 1 for _, size, _, _ in orbits)
    scale = _scale(bp, cert_x, cert_y)
    keys = [(c.c1_weight, c.margin * scale) for c in expected]
    assert _expanded(orbits) == Counter(keys)
    assert not fallback or _keys(orbits) == keys


@pytest.mark.parametrize(
    "fallback, name", [(f, n) for f in (False, True) for n in sorted(INSTANCES)]
)
def test_summary_is_the_reference_folded(name, fallback, monkeypatch):
    bp = INSTANCES[name]()
    cert_x, cert_y = _certified(bp)
    if fallback:
        monkeypatch.setattr(analysis, "_translations", _no_translations)
    summary = small_set_suite(bp, cert_x, cert_y)
    expected = reference_small_set_suite(bp, cert_x, cert_y)
    assert summary.count == len(expected)
    assert summary.all_hold == all(c.holds for c in expected)
    assert summary.least.margin == min(c.margin for c in expected)
    assert summary.least == reference_small_set_ltc_check(
        bp, cert_x, cert_y, summary.witness
    )


def test_suite_keeps_no_per_orbit_records():
    # Z14 has 164,157 vectors in 11,730 orbits; the folded suite holds
    # one summary, so its peak stays far below what one record per orbit takes
    bp = LARGER["Z14"]()
    cert_x, cert_y = _certified(bp)
    tracemalloc.start()
    try:
        summary = small_set_suite(bp, cert_x, cert_y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert summary.count == 164_157


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_each_representative_matches_its_reference_check(name):
    bp = INSTANCES[name]()
    cert_x, cert_y = _certified(bp)
    scale = _scale(bp, cert_x, cert_y)
    for margin, size, p10, p01 in analysis._small_set_orbits(bp, cert_x, cert_y):
        c1 = C1Vector(BitVector(bp.n10, p10.bits), BitVector(bp.n01, p01.bits))
        check = reference_small_set_ltc_check(bp, cert_x, cert_y, c1)
        assert (p10.weight + p01.weight, margin) == (check.c1_weight, check.margin * scale)
        assert bp.group.order % size == 0


@pytest.mark.parametrize("name", sorted(INSTANCES) + sorted(LARGER))
def test_translations_match_the_all_t_oracle(name):
    # proved from a generating set, the maps are those of checking every t;
    # with one face dropped, both find a translation that fails
    bp = {**INSTANCES, **LARGER}[name]()
    assert analysis._translations(bp) == reference_translations(bp)
    broken = bp._replace(faces=bp.faces[1:])
    identity = [tuple(range(max(bp.sizes)))]
    assert analysis._translations(broken) == reference_translations(broken) == identity


def test_translations_reduce_the_cyclic_suite():
    bp = LARGER["Z12-unit1"]()
    summary = small_set_suite(bp, *_certified(bp))
    assert summary.orbits == 479
    assert summary.count == 5700


@pytest.mark.parametrize("name, reduced", [("S3", False), ("S3-3-cycles", True)])
def test_translations_checked_on_a_non_abelian_group(name, reduced):
    bp = INSTANCES[name]()
    assert len(analysis._translations(bp)) == (6 if reduced else 1)
    summary = small_set_suite(bp, *_certified(bp))
    # sizes are at least 1, so equal totals mean every orbit is one vector
    assert (summary.orbits < summary.count) == reduced


@pytest.mark.parametrize("name", ["Z8", "Z10", "Z2xZ4", "S3-3-cycles"])
def test_least_margin_matches_reference_and_reproduces(name):
    bp = INSTANCES[name]()
    cert_x, cert_y = _certified(bp)
    summary = small_set_suite(bp, cert_x, cert_y).to_json()
    expected = reference_small_set_suite(bp, cert_x, cert_y)
    least = summary["least_margin"]
    assert summary["count"] == len(expected)
    assert summary["all_hold"] == all(c.holds for c in expected)
    assert Fraction(least["margin"]) == min(c.margin for c in expected)
    witness = least["witness"]
    c1 = C1Vector.from_supports(bp, witness["v10"], witness["v01"])
    check = reference_small_set_ltc_check(bp, cert_x, cert_y, c1)
    assert (str(check.lhs), str(check.rhs)) == (least["lhs"], least["rhs"])
    assert check.c1_weight == least["c1_weight"]


@pytest.mark.parametrize("name", ["Z10", "Z12-unit1"])
def test_failing_inequality_is_reported(name, monkeypatch):
    # with epsilon read as 0 the factor is 1/2 and the inequality fails on
    # c1 = ([0], [0, 1]), whose boundary is 0
    for module in (analysis, small_set_reference):
        monkeypatch.setattr(module, "small_set_epsilon", lambda *args: Fraction(0))
    bp = {**INSTANCES, **LARGER}[name]()
    cert_x, cert_y = _certified(bp)
    summary = small_set_suite(bp, cert_x, cert_y)
    expected = reference_small_set_suite(bp, cert_x, cert_y)
    assert not summary.all_hold and not all(c.holds for c in expected)
    assert summary.count == len(expected)
    assert summary.least == analysis.SmallSetCheck(
        lhs=Fraction(3, 4), rhs=Fraction(0), holds=False, c1_weight=3
    )
    assert summary.least.margin == min(c.margin for c in expected)
    assert (summary.witness.v10.support(), summary.witness.v01.support()) == ([0], [0, 1])


@pytest.mark.parametrize("name", ["Z8", "Z2xZ4", "Z6-layered"])
def test_fallback_gives_the_same_summary(name, monkeypatch):
    bp = INSTANCES[name]()
    cert_x, cert_y = _certified(bp)
    reduced = small_set_suite(bp, cert_x, cert_y).to_json()
    monkeypatch.setattr(analysis, "_translations", _no_translations)
    full = small_set_suite(bp, cert_x, cert_y).to_json()
    assert full["orbits"] == full["count"] > reduced["orbits"]
    assert {**full, "orbits": None} == {**reduced, "orbits": None}


# the flip test's pair table on degree 2 and 3, square and skewed degrees
KERNEL_INSTANCES = {
    "Z8": INSTANCES["Z8"],
    "Z10-degree-3": lambda: _cayley(10, [1, 2, 5], [1, 3, 7]),
    "Z6-layered": INSTANCES["Z6-layered"],
    "Z5-layered-both": INSTANCES["Z5-layered-both"],
}


@pytest.mark.parametrize("name", sorted(KERNEL_INSTANCES))
def test_mask_kernel_matches_best_flip(name):
    bp = KERNEL_INSTANCES[name]()
    ss = analysis._SmallSet(bp, *_certified(bp))
    ss.max_weights = (bp.n10, bp.n01)  # the kernel holds for any support
    lo, hi = ss.d2_masks
    rng = random.Random(5)
    seen = Counter()
    for _ in range(400):
        s10 = sorted(rng.sample(range(bp.n10), rng.randint(0, bp.n10 // 2)))
        s01 = sorted(rng.sample(range(bp.n01), rng.randint(0, bp.n01 // 2)))
        p10, p01 = ss.part(0, s10), ss.part(1, s01)
        o10 = analysis._overlaps(lo, p10.bits)
        o01 = analysis._overlaps(hi, p01.bits)
        minimal = ss.minimal(p10, p01)
        assert minimal == (analysis._best_flip(bp, o10, o01) is None)
        squares = reference_square_count(bp, C1Vector.from_supports(bp, s10, s01))
        assert sum(map(mul, o10, o01)) == squares
        seen[minimal] += 1
    assert seen[True] and seen[False]


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
    ss = analysis._SmallSet(bp, cert_x, cert_y)
    for c1 in (
        C1Vector.from_supports(bp, [], []),
        C1Vector.from_supports(bp, [0], []),
        C1Vector.from_supports(bp, [], [5]),
        C1Vector.from_supports(bp, [3], [1]),
    ):
        p10, p01 = ss.part(0, c1.v10.support()), ss.part(1, c1.v01.support())
        assert ss.minimal(p10, p01)
        check = reference_small_set_ltc_check(bp, cert_x, cert_y, c1)
        assert ss.margin(p10, p01) == check.margin * _scale(bp, cert_x, cert_y)


def test_single_check_rejects_heavy_vector():
    # the suite's weight guard: a part at or above its corner's bound
    bp = INSTANCES["Z8"]()
    ss = analysis._SmallSet(bp, *_certified(bp))
    assert ss.bounds == (2, 2)
    c1 = C1Vector.from_supports(bp, [0, 1], [])  # |v10| = 2, bound is 2
    assert is_locally_minimal(c1, bp)[0]
    with pytest.raises(PreconditionViolationError, match=r"\|v10\|=2 not below bound 2"):
        ss.part(0, [0, 1])
    with pytest.raises(PreconditionViolationError, match=r"\|v01\|=2 not below bound 2"):
        ss.part(1, [0, 1])


def test_square_count_error_at_construction():
    bp = INSTANCES["Z8"]()
    cert_x, cert_y = _certified(bp)
    assert small_set_suite(bp, cert_x, cert_y).count == 80
    # one face dropped, or listed twice: the complex's structure check, run
    # once where every complex is built, tests the square identity on every
    # (v10, v01) pair, so the suite never meets a complex that breaks it
    for faces in (bp.faces[1:], bp.faces[:1] * 2 + bp.faces[1:]):
        with pytest.raises(VerificationError, match="square counting methods disagree"):
            products._check_structure(bp._replace(faces=faces))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_reference_square_counts_agree(name):
    # the oracle counts by degrees and by faces, and raises on disagreement,
    # on c1 of any weight; the full vector meets every face
    bp = INSTANCES[name]()
    masks = column_masks(bp)
    rng = random.Random(3)
    for _ in range(100):
        reference_square_count(bp, _random_c1(bp, rng), masks)
    full = C1Vector.from_supports(bp, range(bp.n10), range(bp.n01))
    assert reference_square_count(bp, full, masks) == len(bp.faces)


def test_column_masks_derived_once_per_complex(monkeypatch):
    # the column masks of d1 and d2 are the left masks of the stored
    # subgraphs, derived once when the complex is built: nothing transposes
    bp = INSTANCES["Z8"]()
    cert_x, cert_y = _certified(bp)
    c1 = C1Vector.from_stacked(bp, BitVector(bp.d2.rows, column_bits(bp.d2, 0)))
    calls = []
    transpose = type(bp.d2).transpose

    def counted(m):
        calls.append(m)
        return transpose(m)

    monkeypatch.setattr(type(bp.d2), "transpose", counted)
    small_set_suite(bp, cert_x, cert_y)
    greedy_flip(c1, bp)
    locally_minimal_distance(bp)
    assert calls == []
