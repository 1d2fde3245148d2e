"""Acceptance suite: one test per release criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with ``-s`` or on
failure) in addition to its pytest verdict.  The whole suite is sized to run
well under five minutes.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from expander_ltc.analysis import (
    C1Vector,
    boundary_1,
    c0_weighted_norm,
    code_from_complex,
    distance_certificate,
    greedy_flip,
    is_locally_minimal,
    locally_minimal_distance,
    lt_profile,
    sharp_example,
    small_set_epsilon,
    small_set_suite,
    soundness_exhaustive,
    soundness_from_lt,
    weighted_norm,
)
from expander_ltc.cli import main
from expander_ltc.f2 import BitVector
from expander_ltc.graphs import (
    certify_expansion,
    check_unique_neighbor_lemma,
)
from expander_ltc.groups import make_cyclic
from expander_ltc.products import (
    balanced_product,
    inherited_expansion,
    left_right_cayley,
    one_d_subgraph,
    verify_chain_identity,
    verify_copy_decomposition,
)

from search_reference import draw_layered


def _report(ok: bool, number: int, message: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {message}")
    assert ok, f"criterion {number}: {message}"


def _cyclic_corpus():
    return [
        ("Z5", left_right_cayley(make_cyclic(5), [1], [2])),
        ("Z6", left_right_cayley(make_cyclic(6), [1, 2], [1, 5])),
        ("Z7", left_right_cayley(make_cyclic(7), [1, 3], [1, 2])),
        ("Z8", left_right_cayley(make_cyclic(8), [1, 2], [1, 3])),
    ]


def _skewed_instance():
    rng = random.Random(13)
    g = make_cyclic(6)
    x, ax, _ = draw_layered(g, 2, 2, rng)
    y, ay, _ = draw_layered(g, 3, 1, rng)
    return balanced_product(x, y, ax, ay)


@pytest.fixture(scope="module")
def corpus():
    items = _cyclic_corpus()
    items.append(("Z6-skew", _skewed_instance()))
    return items


@pytest.fixture(scope="module")
def certified_corpus():
    """Corpus instances with exhaustive expansion certificates on both factors."""
    out = []
    for name, bp in _cyclic_corpus():
        cert_x = certify_expansion(bp.x, Fraction(1, 2))
        cert_y = certify_expansion(bp.y, Fraction(1, 2))
        out.append((name, bp, cert_x, cert_y))
    skew = _skewed_instance()
    out.append(
        (
            "Z6-skew",
            skew,
            certify_expansion(skew.x, Fraction(1, 3)),
            certify_expansion(skew.y, Fraction(1, 6)),
        )
    )
    return out


def test_criterion_01_chain_identity_random(corpus):
    rng = random.Random(2026)
    start = time.monotonic()
    checked = 0
    for _ in range(100):
        n = rng.randint(4, 64)
        g = make_cyclic(n)
        a = rng.sample(range(1, n), rng.randint(1, min(3, n - 1)))
        b = rng.sample(range(1, n), rng.randint(1, min(3, n - 1)))
        bp = left_right_cayley(g, a, b)
        ok, witness = verify_chain_identity(bp.d1, bp.d2)
        assert ok and witness is None, f"chain identity failed for Z{n}, {a}, {b}"
        checked += 1
    elapsed = time.monotonic() - start
    _report(
        checked == 100 and elapsed < 10,
        1,
        f"lower-boundary composed with upper-boundary vanishes on {checked} "
        f"random instances in {elapsed:.1f}s",
    )


def test_criterion_02_square_completion_exhaustive(corpus):
    extra = [
        ("Z12", left_right_cayley(make_cyclic(12), [1, 2, 3], [1, 5])),
        ("Z16", left_right_cayley(make_cyclic(16), [1, 2, 5], [1, 3])),
    ]
    wedges = 0
    for name, bp in corpus + extra:
        if bp.group.order > 32:
            continue
        faces_by_wedge = {}
        for (i00, i10, i01, i11) in bp.faces:
            key = (i00, i10, i01)
            assert key not in faces_by_wedge, f"{name}: wedge {key} in two faces"
            faces_by_wedge[key] = i11
        g = bp.group
        for i00 in range(bp.n00):
            h00, _, _ = bp.label(0, i00)
            for i10 in bp.g_s0.left_neighbors(i00):
                for i01 in bp.g_0s.left_neighbors(i00):
                    i11 = bp.complete_square(i00, i10, i01)
                    assert i11 == faces_by_wedge[(i00, i10, i01)]
                    h10, r1, _ = bp.label(1, i10)
                    h01, _, s1 = bp.label(2, i01)
                    expected = g.mul(h10, g.mul(g.inv(h00), h01))
                    assert bp.label(3, i11) == (expected, r1, s1), (
                        f"{name}: label formula failed at wedge "
                        f"({i00}, {i10}, {i01})"
                    )
                    wedges += 1
    _report(
        wedges > 0,
        2,
        f"every wedge closes to a unique face with the expected label "
        f"({wedges} wedges over instances with group order <= 32)",
    )


def test_criterion_03_copy_decomposition(corpus):
    checked = 0
    for name, bp in corpus:
        for which in ("*0", "*1", "0*", "1*"):
            sub = one_d_subgraph(bp, which)
            assert verify_copy_decomposition(sub), f"{name} {which}"
            assert sub.num_copies * sub.factor.v0_size == sub.graph.v0_size
            assert sub.num_copies * sub.factor.v1_size == sub.graph.v1_size
            checked += 1
    _report(
        True,
        3,
        f"all {checked} corner subgraphs decompose into factor copies",
    )


def test_criterion_04_expansion_inheritance(certified_corpus):
    checked = 0
    for name, bp, cert_x, cert_y in certified_corpus:
        for which, cert in (
            ("*0", cert_x),
            ("*1", cert_x),
            ("0*", cert_y),
            ("1*", cert_y),
        ):
            inherited = inherited_expansion(bp, cert, which)
            sub = one_d_subgraph(bp, which)
            direct = certify_expansion(sub.graph, inherited.c)
            assert inherited.epsilon == direct.epsilon, f"{name} {which}"
            assert inherited.c * sub.graph.v0_size == cert.c * sub.factor.v0_size
            checked += 1
    _report(
        True,
        4,
        f"inherited certificates match direct certification on {checked} "
        f"subgraphs (same epsilon, rescaled cutoff)",
    )


def test_criterion_05_unique_neighbor_lemma(certified_corpus):
    checked = 0
    for name, bp, cert_x, cert_y in certified_corpus:
        for graph, cert in ((bp.x, cert_x), (bp.y, cert_y)):
            ok, worst = check_unique_neighbor_lemma(graph, cert)
            assert ok, f"{name}: counterexample {worst}"
            checked += 1
    _report(
        True,
        5,
        f"unique-neighbor lower bound holds for all certified subsets of "
        f"{checked} factor graphs",
    )


def test_criterion_06_sharp_example():
    bp = left_right_cayley(make_cyclic(8), [1, 2], [1, 3])
    c1 = sharp_example(bp, 0)
    norm1 = weighted_norm(c1, bp)
    norm0 = c0_weighted_norm(boundary_1(bp, c1), bp)
    minimal, _ = is_locally_minimal(c1, bp)
    ok = norm1 == 1 and norm0 == Fraction(1, 2) and minimal
    _report(
        ok,
        6,
        f"half-neighborhood vector attains |c1|_w = {norm1}, "
        f"|boundary|_w = {norm0}, locally minimal = {minimal}",
    )


def test_criterion_07_greedy_flipping(corpus):
    rng = random.Random(7)
    total = 0
    for name, bp in corpus:
        length = bp.n10 + bp.n01
        for _ in range(500):
            c1 = C1Vector.from_stacked(
                bp, BitVector(length, rng.getrandbits(length))
            )
            res = greedy_flip(c1, bp)
            # syndrome is invariant
            assert boundary_1(bp, res.final) == boundary_1(bp, c1), name
            # the accumulated flips reconstruct the endpoint
            delta = bp.d2.mul_vec(res.flips)
            assert (c1.stacked().bits ^ delta.bits) == res.final.stacked().bits
            # endpoint is locally minimal, reached within the step budget
            assert is_locally_minimal(res.final, bp)[0], name
            bound = weighted_norm(c1, bp) * max(bp.w_down, bp.w_right)
            assert res.steps <= bound, name
            assert weighted_norm(res.final, bp) <= weighted_norm(c1, bp)
            total += 1
    _report(
        True,
        7,
        f"{total} random flip runs: syndrome preserved, locally minimal "
        f"endpoint, step count within the weighted budget",
    )


def test_criterion_08_distance_rate_locality(certified_corpus):
    checked = 0
    for name, bp, cert_x, cert_y in certified_corpus:
        if bp.n00 > 12:
            continue
        code = code_from_complex(bp)
        if code.k == 0:
            continue  # trivial code: no nonzero codeword, distance undefined
        sub = one_d_subgraph(bp, "*0")
        sub_cert = certify_expansion(sub.graph, Fraction(1, 2))
        if sub_cert.epsilon >= 1:
            continue
        report = distance_certificate(code, bp, sub_cert)
        assert report.exact is not None, name
        assert Fraction(report.exact) >= report.bound, name
        rate_bound = (
            1
            - Fraction(bp.w_down, bp.w_up)
            - Fraction(bp.w_right, bp.w_left)
        )
        assert code.rate >= rate_bound, name
        row_scan = max(row.bit_count() for row in code.h.row_bits)
        assert code.locality == row_scan == max(bp.w_up, bp.w_left), name
        checked += 1
    _report(
        checked > 0,
        8,
        f"exact distance >= expansion bound, rate bound and locality row-scan "
        f"exact on {checked} enumerable instances",
    )


def test_criterion_09_lt_distance_dominates_lm_distance(corpus):
    compared = 0
    for name, bp in corpus:
        if bp.n00 > 12:
            continue
        lm = locally_minimal_distance(bp)
        if lm.d_lm is None:
            continue
        profile = lt_profile(bp, max_c1_weight=bp.n10 + bp.n01)
        assert profile.d_lt >= lm.d_lm, (
            f"{name}: d_lt={profile.d_lt} < d_lm={lm.d_lm}"
        )
        compared += 1
    _report(
        compared > 0,
        9,
        f"testability distance dominates locally minimal distance on "
        f"{compared} instances where both are exact",
    )


def test_criterion_10_soundness_consistency(corpus):
    checked = 0
    for name, bp in corpus:
        if bp.n00 > 20:
            continue
        code = code_from_complex(bp)
        profile = lt_profile(bp, max_c1_weight=bp.n10 + bp.n01)
        exact = soundness_exhaustive(code, profile)
        syndrome = code.h.mul_vec(exact.witness)
        ratio = Fraction(syndrome.weight() * code.n, code.m * exact.witness.weight())
        assert ratio == exact.s, f"{name}: witness mismatch"
        bound = soundness_from_lt(code, profile)
        assert bound <= exact.s, f"{name}: {bound} > {exact.s}"
        checked += 1
    _report(
        checked > 0,
        10,
        f"profile-derived soundness bound <= exhaustive soundness, and each "
        f"witness reproduces its ratio exactly, on {checked} instances",
    )


def test_criterion_11_small_set_inequality(certified_corpus):
    lines = []
    ok = True
    total = 0
    for name, bp, cert_x, cert_y in certified_corpus:
        if bp.n00 > 12:
            continue
        eps = small_set_epsilon(bp.w_up, cert_x, cert_y)
        summary = small_set_suite(bp, cert_x, cert_y)
        count = summary.count
        total += count
        if eps < Fraction(1, 16):
            ok = ok and summary.all_hold
            lines.append(f"{name}: eps={eps}, {count} checks, all hold")
        else:
            worst = summary.least.margin if summary.least else None
            lines.append(
                f"{name}: eps={eps} >= 1/16, {count} checks recorded, "
                f"worst margin {worst}"
            )
    _report(
        ok and total > 0,
        11,
        f"small-set inequality evaluated on {total} locally minimal vectors "
        f"({'; '.join(lines)})",
    )


def test_criterion_12_build_determinism(tmp_path):
    config = {
        "group": {"kind": "cyclic", "n": 7},
        "a_set": [1],
        "b_set": [1, 3],
        "c_x": "1/2",
        "c_y": "1/2",
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        code = main(
            [
                "build",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--deterministic",
            ]
        )
        assert code == 0
        files = {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }
        outputs.append(files)
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(
        ok,
        12,
        f"two builds produced byte-identical outputs "
        f"({len(outputs[0])} files)",
    )
