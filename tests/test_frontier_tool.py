"""``tools/frontier.py``: its stage column, read from real refusals, and its
walk over each family.

``BENCH_frontier.json`` records, for each build that did not exit 0, the
stage its first stderr line names.  The tool is loaded by path; it puts
``perfbench/`` on ``sys.path`` and imports ``run`` from there, so the load
writes no bytecode and ``sys.path`` and ``sys.modules`` are restored after.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from expander_ltc.cli import EXIT_BUDGET, main

FRONTIER = Path(__file__).resolve().parent.parent / "tools" / "frontier.py"


def _load(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    had_run = "run" in sys.modules
    spec = importlib.util.spec_from_file_location("frontier_tool", FRONTIER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not had_run:
        del sys.modules["run"]  # perfbench's run.py, under its bare name
    return module


@pytest.fixture
def frontier(monkeypatch):
    return _load(monkeypatch)


def _refusal(tmp_path, capsys, n, *flags):
    """The exit code and first stderr line of a ladder build of Z_n."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "group": {"kind": "cyclic", "n": n}, "a_set": [1, 2], "b_set": [1, 3],
        "c_x": "1/2", "c_y": "1/2",
    }))
    code = main(["build", "--config", str(config), "--out", str(tmp_path / "out"),
                 "--deterministic", *flags])
    return code, capsys.readouterr().err.splitlines()[0]


@pytest.mark.parametrize("n, flags, stage", [
    (26, (), "certification of factor x"),
    (8, ("--budget", "1"), "d_lm"),
])
def test_stage_of_a_refused_build(frontier, tmp_path, capsys, n, flags, stage):
    code, line = _refusal(tmp_path, capsys, n, *flags)
    assert code == EXIT_BUDGET
    assert line.startswith(f"budget exceeded: {stage}: ")
    assert frontier._stage(code, line) == stage


def test_stage_of_a_pass_and_a_kill(frontier):
    assert frontier._stage(0, "") is None
    assert frontier._stage(-9, "") == f"killed at the {frontier.LIMIT_S} s limit"


def test_load_writes_nothing_under_perfbench(monkeypatch):
    perfbench = FRONTIER.parent.parent / "perfbench"
    before = sorted(perfbench.rglob("*"))
    _load(monkeypatch)
    assert sorted(perfbench.rglob("*")) == before


def test_plane_sets_are_perfect_difference_sets(frontier):
    for q, elements in frontier.PLANES.items():
        n = q * q + q + 1
        differences = sorted((a - b) % n for a in elements for b in elements if a != b)
        assert differences == list(range(1, n)), q


@pytest.mark.parametrize("refused, frontier_q, miss", [
    (21, 3, {"q": 4, "n": 21, "exit": 3}),
    (None, 5, None),
])
def test_walk_stops_at_the_first_miss(frontier, monkeypatch, refused, frontier_q, miss):
    # the planes in q order, each built once, none after the first miss
    built = []

    def build(config, work):
        n = config["group"]["n"]
        built.append(n)
        assert config["a_set"] == config["b_set"] and config["c_x"] == "1/4"
        return {"exit": 3 if n == refused else 0}

    monkeypatch.setattr(frontier, "_build", build)
    monkeypatch.setattr(frontier, "reference_s", lambda: 0.0)
    result = frontier.walk(frontier._planes(), "q")
    assert built == [7, 13, 21, 31][: 3 if refused else 4]
    assert result["frontier"] == frontier_q
    assert result["first_miss"] == (None if miss is None else {
        **miss, "reference_s_before": 0.0, "reference_s_after": 0.0,
    })
    assert [row["q"] for row in result["rows"]] == [2, 3, 4, 5][: len(built)]
