"""The benchmark tracer still installs on the library, runs and comes off.

``perfbench/tracing.py`` wraps library functions and members by name
(``min_weight_nonzero``, ``enumerate_small_c1``, ``BitMatrix.transpose``) and
reads ``ExpansionCertificate.mode``; the library keeps some of them only for
it.  Dropping or renaming one breaks ``perfbench/run.py --trace 1`` and
nothing else, so this test loads the tracer as a file, traces a tiny
``build`` and a one-trial ``search`` through ``cli.main``, and checks that
uninstalling puts every original back.
"""

import importlib.util
import json
import sys
from pathlib import Path

import expander_ltc
from expander_ltc import analysis, cli, f2, graphs, products, search

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    # no bytecode cache lands next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_tracer_runs_build_and_search_and_restores(tmp_path, monkeypatch, capsys):
    tracing = _load_tracing(monkeypatch)
    modules = (expander_ltc, cli, analysis, products, graphs, search, f2)
    before = [dict(vars(m)) for m in modules]
    transpose = f2.BitMatrix.transpose
    build = _config(tmp_path, "build.json", {
        "group": {"kind": "cyclic", "n": 6}, "a_set": [1, 2], "b_set": [1, 3],
        "c_x": "1/2", "c_y": "1/2",
    })
    search_cfg = _config(tmp_path, "search.json", {
        "group": {"kind": "cyclic", "n": 6}, "w_down": 2, "w_up": 2, "w_right": 2,
        "w_left": 2, "c_x": "1/2", "c_y": "1/2", "trials": 1,
    })
    tracer = tracing.Tracer(0)
    tracer.install()
    try:
        assert cli.main(["build", "--config", build, "--out", str(tmp_path / "b"),
                         "--deterministic"]) == 0
        assert cli.main(["search", "--config", search_cfg, "--out",
                         str(tmp_path / "s"), "--seed", "0"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    report_bytes = (tmp_path / "b" / "report.json").stat().st_size
    m = tracing.layer_metrics(tracer, 1.0, report_bytes)
    assert m["cli.report_bytes"] == report_bytes
    assert m["search.trials"] == 1
    assert m["graphs.certify_expansion.calls"] >= 3
    assert m["graphs.subsets"] > 0
    assert m["cli.build_report_s"] > 0
    # every name the tracer replaced holds its original again
    for module, names in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in names.items()), module.__name__
    assert f2.BitMatrix.transpose is transpose
