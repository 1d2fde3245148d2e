"""The stage column of ``tools/frontier.py``, read from real refusals.

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
