"""The projective-plane configs in ``configs/``: A = B = a Singer perfect
difference set in Z_n, n = q² + q + 1, so that the complex is the incidence
structure of a projective plane of order q.

Each config is built as the command line builds it, and its report is pinned.
k and d are those of the classical (7, 3, 4) and (21, 11, 6) difference-set
codes.  ``d.bound`` is the Sipser–Spielman bound c·|V00|, a theorem, so it may
not pass the exact distance.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from expander_ltc import products
from expander_ltc.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# config file -> the pinned report values
PINNED = {
    "singer_z7.json": {
        "n": 7, "k": 3, "rate": "3/7", "d": 4, "d.bound": "7/2", "d_lm": 2,
        "kappa": "1/4", "s": "2", "eps_x": "1/3",
    },
    "singer_z21.json": {
        "n": 21, "k": 11, "rate": "11/21", "d": 6, "d.bound": "21/4", "d_lm": 2,
        "kappa": "1/6", "s": "3", "eps_x": "2/5",
    },
}


def _is_perfect_difference_set(n: int, elements: list[int]) -> bool:
    """Whether every nonzero residue mod n is exactly one difference a - b."""
    differences = sorted((a - b) % n for a in elements for b in elements if a != b)
    return differences == list(range(1, n))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_singer_config_builds_with_its_pinned_parameters(name, tmp_path, monkeypatch):
    cfg = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    n = cfg["group"]["n"]
    assert cfg["a_set"] == cfg["b_set"]
    assert _is_perfect_difference_set(n, cfg["a_set"])

    check, degrees = products._check_structure, []
    monkeypatch.setattr(
        products, "_check_structure", lambda bp: degrees.append(bp.w_up) or check(bp)
    )
    out = tmp_path / "out"
    assert main(["build", "--config", str(CONFIGS / name), "--out", str(out)]) == 0
    assert degrees == [len(cfg["a_set"])]

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    got = {
        "n": report["n"],
        "k": report["k"],
        "rate": report["rate"],
        "d": report["d"]["exact"],
        "d.bound": report["d"]["bound"],
        "d_lm": report["d_lm"],
        "kappa": report["lt_profile"]["kappa"],
        "s": report["soundness"]["s"],
        "eps_x": report["expansion"]["x"]["epsilon"],
    }
    assert got == PINNED[name]
    assert Fraction(report["d"]["bound"]) <= report["d"]["exact"]
