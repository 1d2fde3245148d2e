"""The four benchmark workloads: configs from a seed, CLI argv, correctness gates.

Each build or verify workload is a left/right Cayley complex over Z_n.  The
seed picks a unit u of Z_n and both generator sets are multiplied by u.  The
map x -> u*x is an automorphism of Z_n, so every seed gives an isomorphic
complex: the invariants in ``expected.json`` and the work counts are the same
for every seed, while the bits the program pushes around differ.  The search
workload passes the seed to ``search --seed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

VERIFY_SUITES = "chain,copies,unique"
VERIFY_LINES = [
    "[PASS] chain identity d1.d2 = 0",
    "[PASS] copy decomposition of subgraph *0",
    "[PASS] copy decomposition of subgraph *1",
    "[PASS] copy decomposition of subgraph 0*",
    "[PASS] copy decomposition of subgraph 1*",
    "[PASS] unique-neighbor bound on factor x",
    "[PASS] unique-neighbor bound on factor y",
]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand: build, verify or search
    order: int  # n of the cyclic group Z_n
    config: dict = field(default_factory=dict)  # keys beside group and generators
    a_set: tuple[int, ...] = ()
    b_set: tuple[int, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        # small-set suite and report serialisation dominate; 2^12 sweeps are cheap
        Workload(
            "build-smallset", "build", 12,
            {"c_x": "1/2", "c_y": "1/2"}, (1, 2), (1, 3),
        ),
        # two 2^20 Gray sweeps (soundness, LT profile) dominate; no small-set suite
        Workload(
            "build-sweep", "build", 20,
            {"c_x": "1/4", "c_y": "1/4", "small_set": False}, (1, 2, 5), (1, 3, 7),
        ),
        # subset enumeration in graphs: certification and the unique-neighbor lemma
        Workload(
            "verify-expand", "verify", 18,
            {"c_x": "1/2", "c_y": "1/2"}, (1, 2), (1, 3),
        ),
        # the search layer: ten random trials, each a product and two certificates
        Workload(
            "search-trials", "search", 16,
            {
                "w_down": 2, "w_up": 2, "w_right": 2, "w_left": 2,
                "c_x": "1/2", "c_y": "1/2", "trials": 10,
            },
        ),
    )
}


def unit_for_seed(order: int, seed: int) -> int:
    units = [u for u in range(1, order) if gcd(u, order) == 1]
    return units[seed % len(units)]


def make_config(w: Workload, seed: int) -> dict:
    """The config file contents of workload ``w`` for ``seed``."""
    cfg = {"group": {"kind": "cyclic", "n": w.order}}
    if w.a_set:
        u = unit_for_seed(w.order, seed)
        cfg["a_set"] = [a * u % w.order for a in w.a_set]
        cfg["b_set"] = [b * u % w.order for b in w.b_set]
    cfg.update(w.config)
    return cfg


def make_argv(w: Workload, config_path: Path, out_dir: Path, seed: int) -> list[str]:
    """CLI arguments of one invocation; ``--dry-run`` appended gives set-up."""
    if w.command == "build":
        return ["build", "--config", str(config_path), "--out", str(out_dir),
                "--deterministic"]
    if w.command == "verify":
        return ["verify", "--config", str(config_path), "--suites", VERIFY_SUITES]
    return ["search", "--config", str(config_path), "--out", str(out_dir),
            "--seed", str(seed)]


# ---------------------------------------------------------------------------
# correctness gates; each returns a list of problems, empty when correct


def build_invariants(report: dict) -> dict:
    """The seed-independent values of a build report that the gate compares."""
    ltp = report["lt_profile"]
    snd = report["soundness"]
    return {
        "n": report["n"],
        "k": report["k"],
        "d_exact": report["d"]["exact"],
        "d_lm": report["d_lm"],
        "lt_table": ltp["table"],
        "kappa": ltp["kappa"],
        "d_lt": ltp["d_lt"],
        "soundness_s": snd["s"] if snd else None,
        "eps_x": report["expansion"]["x"]["epsilon"],
        "eps_y": report["expansion"]["y"]["epsilon"],
    }


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def check_build(exit_code: int, report: dict | None, expected: dict) -> list[str]:
    # The small-set result is gated by the exit code: build exits 1 when any
    # vector fails the inequality.  The per-vector list is not read.
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if report is None:
        return problems + ["no report.json"]
    try:
        got = build_invariants(report)
    except (KeyError, TypeError) as exc:
        return problems + [f"report lacks {exc}"]
    for key, want in expected.items():
        if got.get(key) != want:
            problems.append(f"{key}: got {got.get(key)!r}, expected {want!r}")
    return problems


def check_verify(exit_code: int, stdout: str) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    lines = stdout.splitlines()
    if lines != VERIFY_LINES:
        problems.append(f"verify printed {lines!r}")
    return problems


class SearchChecker:
    """Re-certifies the reported generator sets of a search result.

    The factor graphs are rebuilt here from the generator sets, independently
    of the search code, and certified again with ``certify_expansion``.
    Results already checked are remembered by content, so an unchanged result
    is certified once per run.
    """

    def __init__(self, w: Workload):
        from expander_ltc.graphs import BipartiteGraph, certify_expansion

        self._graph = BipartiteGraph
        self._certify = certify_expansion
        self.w = w
        self._checked: dict[str, list[str]] = {}

    def _layered(self, gen_sets: list[list[int]]):
        n = self.w.order  # Z_n: the group product is addition mod n
        edges = [
            (i * n + x, (x + b) % n)
            for i, gens in enumerate(gen_sets)
            for x in range(n)
            for b in gens
        ]
        return self._graph(len(gen_sets) * n, n, edges)

    def __call__(self, exit_code: int, result: dict | None) -> list[str]:
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        if result is None:
            return problems + ["no search_result.json"]
        key = json.dumps(result, sort_keys=True)
        if key not in self._checked:
            self._checked[key] = self._recertify(result)
        return problems + self._checked[key]

    def _recertify(self, result: dict) -> list[str]:
        cfg = self.w.config
        try:
            log = result["log"]
            if len(log) != cfg["trials"]:
                return [f"log has {len(log)} trials, expected {cfg['trials']}"]
            cert_x = self._certify(self._layered(result["gen_sets_x"]),
                                   Fraction(cfg["c_x"]))
            cert_y = self._certify(self._layered(result["gen_sets_y"]),
                                   Fraction(cfg["c_y"]))
            eps = max(cfg["w_up"] * cert_y.epsilon, cert_y.epsilon, cert_x.epsilon)
            entry = log[result["trial"]]
            reported = {
                "eps_x": result["cert_x"]["epsilon"],
                "eps_y": result["cert_y"]["epsilon"],
                "epsilon": result["epsilon"],
                "log eps_x": entry["eps_x"],
                "log eps_y": entry["eps_y"],
                "log eps": entry["eps"],
            }
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"malformed search result: {exc!r}"]
        recomputed = {
            "eps_x": cert_x.epsilon, "eps_y": cert_y.epsilon, "epsilon": eps,
            "log eps_x": cert_x.epsilon, "log eps_y": cert_y.epsilon, "log eps": eps,
        }
        return [
            f"{key}: reported {reported[key]}, recertified {recomputed[key]}"
            for key in reported
            if str(reported[key]) != str(recomputed[key])
        ]


def read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class Gate:
    """Checks one invocation of a workload from its exit code and outputs."""

    def __init__(self, w: Workload):
        self.w = w
        if w.command == "build":
            self._expected = load_expected()[w.name]
        if w.command == "search":
            self._search = SearchChecker(w)

    def __call__(self, exit_code: int, stdout: str, out_dir: Path) -> list[str]:
        if self.w.command == "build":
            return check_build(exit_code, read_json(out_dir / "report.json"),
                               self._expected)
        if self.w.command == "verify":
            return check_verify(exit_code, stdout)
        return self._search(exit_code, read_json(out_dir / "search_result.json"))


def check_dry_run(exit_code: int, stdout: str) -> list[str]:
    if exit_code != 0 or stdout.strip() != "config ok":
        return [f"dry run: exit code {exit_code}, output {stdout.strip()!r}"]
    return []
