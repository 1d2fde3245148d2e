"""End-to-end tests of the command-line interface."""

import gc
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import expander_ltc
from expander_ltc import analysis, cli, products
from expander_ltc.cli import _write_outputs, build_report, main, parse_args
from expander_ltc.errors import BudgetExceededError
from expander_ltc.f2 import DEFAULT_ENUM_BUDGET, BitMatrix
from expander_ltc.graphs import graph_to_edge_list
from expander_ltc.groups import MAX_GROUP_ORDER, make_cyclic
from expander_ltc.products import left_right_cayley, one_d_subgraph


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


BASE_CONFIG = {
    "group": {"kind": "cyclic", "n": 7},
    "a_set": [1],
    "b_set": [1, 3],
    "c_x": "1/2",
    "c_y": "1/2",
}


class TestBuild:
    def test_minimal_pipeline(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["build", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n"] == 7
        assert (out / "summary.csv").exists()
        assert (out / "h_matrix.alist").exists()
        assert (out / "h_matrix.txt").exists()
        assert (out / "manifest.json").exists()
        assert (out / "graphs" / "factor_x.edges").exists()

    def test_build_reads_the_stored_subgraphs(self, tmp_path, monkeypatch):
        # the report and the edge files read the complex's four subgraphs:
        # none is rebuilt, and neither boundary map is transposed
        bp = left_right_cayley(make_cyclic(8), [1, 2], [1, 3])
        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)
            return wrapper

        monkeypatch.setattr(
            products, "one_d_subgraph",
            counted("one_d_subgraph", products.one_d_subgraph),
        )
        monkeypatch.setattr(
            BitMatrix, "transpose", counted("transpose", BitMatrix.transpose)
        )
        report = build_report(bp, Fraction(1, 2), Fraction(1, 2))
        _write_outputs(tmp_path / "out", report, bp, deterministic=True)
        assert calls == []
        edges = (tmp_path / "out" / "graphs" / "sub_down.edges").read_text()
        assert edges == graph_to_edge_list(one_d_subgraph(bp, "*0").graph)

    def test_report_schema(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        main(["build", "--config", cfg, "--out", str(out), "--deterministic"])
        report = json.loads((out / "report.json").read_text())
        for key in ("n", "k", "d", "locality", "soundness", "d_lm",
                    "lt_profile", "small_set_checks"):
            assert key in report
        assert set(report["d"]) == {"bound", "exact", "witness"}
        assert set(report["soundness"]) == {"s", "method", "witness"}

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "bogus": 1})
        assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"group": {"kind": "cyclic", "n": 7}})
        assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["build", "--config", str(path)]) == 2

    @pytest.mark.parametrize("content", [
        b"\xff\xfe",  # not UTF-8
        b"[" * 200_000 + b"]" * 200_000,  # deeper than the JSON decoder recurses
    ], ids=["not_utf8", "deep_nesting"])
    def test_unreadable_config_file(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        argv = ["build", "--config", str(path), "--out", str(tmp_path / "o")]
        for extra in ([], ["--dry-run"]):
            code = main(argv + extra)
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("config error:") and "Traceback" not in err

    def test_dry_run_writes_nothing(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["build", "--config", cfg, "--out", str(out), "--dry-run"]) == 0
        assert not out.exists()

    def test_budget_exit_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {**BASE_CONFIG, "group": {"kind": "cyclic", "n": 26}, "b_set": [1, 2]},
        )
        assert (
            main(["build", "--config", cfg, "--out", str(tmp_path / "o"),
                  "--budget", "1024"])
            == 3
        )

    def test_budget_error_names_stage_and_flag(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {**BASE_CONFIG, "group": {"kind": "cyclic", "n": 8},
                       "a_set": [1, 2]},
        )
        assert main(["build", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--budget", "1"]) == 3
        err = capsys.readouterr().err
        assert "d_lm" in err and "--budget" in err

    def test_certification_budget_names_factor_and_cutoff(
        self, tmp_path, capsys, monkeypatch
    ):
        def over_budget(*args, **kwargs):
            raise BudgetExceededError("exhaustive certification too large", 10, 1)

        monkeypatch.setattr("expander_ltc.cli.certify_expansion", over_budget)
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "certification of factor x" in err and "c_x" in err

    def test_certification_budget_real_config(self, tmp_path, capsys):
        # subsets of Z40 below size 20: far beyond the fixed subset budget
        cfg = write_config(tmp_path, {
            **BASE_CONFIG, "group": {"kind": "cyclic", "n": 40}, "a_set": [1, 2, 3],
        })
        assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "certification of factor x" in err
        assert "needs 480832549477" in err and "lower c_x" in err
        assert "sampled" not in err

    def test_distance_bound_needs_epsilon_below_half(self, tmp_path):
        # epsilon = 1/2 on the *0 subgraph: c*|V00| = 6 exceeds d = 4
        cfg = write_config(tmp_path, {
            "group": {"kind": "cyclic", "n": 12}, "a_set": [5, 8], "b_set": [7, 1],
            "c_x": "1/2", "c_y": "1/2",
        })
        out = tmp_path / "out"
        assert main(["build", "--config", cfg, "--out", str(out)]) == 0
        d = json.loads((out / "report.json").read_text())["d"]
        assert d["bound"] is None and d["exact"] == 4
        assert "1/2" in d["reason"]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[1].split(",")[2] == ""

    def test_small_set_summary(self, tmp_path, capsys):
        # epsilon is 1/3 here, so 1/2 - 8 eps < 0: build settles the suite by
        # its sign, and verify still scans it
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["build", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "report.json").read_text())["small_set_checks"]
        assert summary == {
            "all_hold": True, "by": "sign", "epsilon": "1/3", "vacuous": True,
            "count": None, "orbits": None, "least_margin": None,
        }
        assert main(["verify", "--config", cfg, "--suites", "small-set"]) == 0
        assert re.search(
            r"\n\[PASS\] small-set inequality on [1-9]\d* locally minimal vectors\n\Z",
            capsys.readouterr().out,
        )

    @pytest.mark.parametrize("config, count", [
        ({**BASE_CONFIG, "c_x": "1/4", "c_y": "1/4"}, 7),
        ({"group": {"kind": "cyclic", "n": 8}, "a_set": [1, 2], "b_set": [1, 3],
          "c_x": "1/4", "c_y": "1/4"}, 0),
    ])
    def test_small_set_summary_by_scan(self, tmp_path, capsys, config, count):
        # epsilon is 0: the inequality is not vacuous and build scans it
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["build", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "report.json").read_text())["small_set_checks"]
        assert set(summary) == {
            "count", "orbits", "all_hold", "by", "epsilon", "vacuous", "least_margin"
        }
        assert (summary["by"], summary["epsilon"], summary["vacuous"]) == (
            "scan", "0", False
        )
        assert summary["count"] == count
        if count:
            assert set(summary["least_margin"]) == {
                "margin", "lhs", "rhs", "c1_weight", "witness"
            }
        else:
            assert summary["least_margin"] is None
        assert main(["verify", "--config", cfg, "--suites", "small-set"]) == 0
        assert capsys.readouterr().out.endswith(
            f"[PASS] small-set inequality on {count} locally minimal vectors\n"
        )

    def test_vacuous_build_enumerates_nothing(self, tmp_path, monkeypatch, capsys):
        def scanned(*args):
            raise AssertionError("the small-set suite enumerated vectors")

        config = PINNED_OUTPUTS["Z8"][0]
        cfg = write_config(tmp_path, {**config, "c_x": "1/2", "c_y": "1/2"})
        out = tmp_path / "out"
        with monkeypatch.context() as m:
            m.setattr(analysis, "_small_set_orbits", scanned)
            assert main(["build", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "report.json").read_text())["small_set_checks"]
        assert (summary["by"], summary["all_hold"], summary["count"]) == (
            "sign", True, None
        )
        # verify keeps the full per-orbit scan
        orbits = analysis._small_set_orbits
        calls = []
        monkeypatch.setattr(
            analysis, "_small_set_orbits", lambda *args: calls.append(1) or orbits(*args)
        )
        assert main(["verify", "--config", cfg, "--suites", "small-set"]) == 0
        assert calls == [1]
        assert "[PASS] small-set inequality on" in capsys.readouterr().out

    def test_vacuous_build_checks_the_square_identity(self, tmp_path, monkeypatch):
        # the suite is settled by its sign and reads no face, but the complex
        # is checked where it is built
        check = products._check_structure
        checked = []
        monkeypatch.setattr(
            products, "_check_structure", lambda bp: checked.append(bp.sizes) or check(bp)
        )
        cfg = write_config(tmp_path, {
            "group": {"kind": "cyclic", "n": 12}, "a_set": [1, 2], "b_set": [1, 3],
            "c_x": "1/2", "c_y": "1/2",
        })
        out = tmp_path / "out"
        assert main(["build", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "report.json").read_text())["small_set_checks"]
        assert (summary["by"], summary["vacuous"]) == ("sign", True)
        assert checked == [(12, 12, 12, 12)]

    def test_deterministic_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            main(["build", "--config", cfg, "--out", str(out), "--deterministic"])
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]


# sha256 of every file that ``build --deterministic`` writes, pinned so that
# any change to the output bytes shows; an announced schema change updates them.
# Each config builds with c_x = c_y = 1/2 unless it sets them.
PINNED_OUTPUTS = {
    "Z8": (
        {"group": {"kind": "cyclic", "n": 8}, "a_set": [1, 2], "b_set": [1, 3]},
        {
            "d1_matrix.alist": "57a1d68dd06059f39f2eb2264c7d322870e502e223d418b38e24759846af9b72",
            "d1_matrix.txt": "991731366d9301ab0bf3b4820e4d05989177274477cd068be2142c0b5ca51182",
            "graphs/factor_x.edges": "4b85ddea3634039015e1b2a1d84c10924b64e1f153ff29d25939a58271c32c40",
            "graphs/factor_y.edges": "a613032e25293dc083cbcc25157473f66150e6d0b2713873120df8286f627945",
            "graphs/sub_down.edges": "907f4b5dc840065ef67eaa66bf0bb8fa19dc8b6e7ec6a11c1f51c3ac49459fb9",
            "graphs/sub_left.edges": "a613032e25293dc083cbcc25157473f66150e6d0b2713873120df8286f627945",
            "graphs/sub_right.edges": "a613032e25293dc083cbcc25157473f66150e6d0b2713873120df8286f627945",
            "graphs/sub_up.edges": "907f4b5dc840065ef67eaa66bf0bb8fa19dc8b6e7ec6a11c1f51c3ac49459fb9",
            "h_matrix.alist": "116f735580bddf2f12764b2e4661ce8a8a8503269914454fe03700cc623fe656",
            "h_matrix.txt": "dd7b44753dad0437b243793ff234830aaeacf8c6abfb34d191c7abf476c9bc21",
            "manifest.json": "ec8532008481fd6432b3a0721fe5ff424522cd2739536ba4e8c4261d895c00fa",
            "report.json": "39885e5b8490cc839a9ca39b771a827d9a8fa4f932490f5ddebf064c5068af9d",
            "summary.csv": "7ebead7393989421163fcc4ebe6a287638e017f955fba6bba077dad2068ed83c",
        },
    ),
    # the one ladder config whose subgraph epsilon is >= 1/2: ``d`` has a
    # reason and no bound
    "Z12-5-8": (
        {"group": {"kind": "cyclic", "n": 12}, "a_set": [5, 8], "b_set": [7, 1]},
        {
            "d1_matrix.alist": "814a8b1b8a5081dc406dcf777b6f10a186b8feb969e009c531dd5b4453aeed2e",
            "d1_matrix.txt": "df4d6c7b23a6a0d6b430f968ba2650583df65e32986b04959e887ed78dced756",
            "graphs/factor_x.edges": "eeae6ba9eb4452f1ff863a2a7a4ec24182d66ee65599a7d5f73bed519c746b41",
            "graphs/factor_y.edges": "28e64173136d8191ddae0e3eea4c2761d3efc1320920b3539f39cdfab5294588",
            "graphs/sub_down.edges": "d95951ca577e4eea6bcad12bcd3927f3b13e90cd464234c00d29f80490f86d0c",
            "graphs/sub_left.edges": "28e64173136d8191ddae0e3eea4c2761d3efc1320920b3539f39cdfab5294588",
            "graphs/sub_right.edges": "28e64173136d8191ddae0e3eea4c2761d3efc1320920b3539f39cdfab5294588",
            "graphs/sub_up.edges": "d95951ca577e4eea6bcad12bcd3927f3b13e90cd464234c00d29f80490f86d0c",
            "h_matrix.alist": "5c0c1d31053a8ac45ef68cf63c4ab114bd6480be042f577f6a441bbfeb5fb01f",
            "h_matrix.txt": "a51676b5e9a6b8dbe4cb6e7e69157a3ea9bfde0a4bcc5fec8db36d0b3a1112d0",
            "manifest.json": "e8417c18826408ca11bedb60339e22f90f1cbd9fc22be612f098ce75502bbf0f",
            "report.json": "7ab3cbd5018d8aa50ef695107e3a807bab72051ecdd10826e9776383da7ddd1d",
            "summary.csv": "9cbd49241bf8d20e232be857e792dd22052edd7ba9b422f9c53f6a38875915a0",
        },
    ),
    # the benchmark's ``build-sweep`` config: k = 0, so ``d`` has no exact value
    # and no reason, and d_lm hands off to the sweep of its 20-dimensional kernel
    "Z20-125-137": (
        {
            "group": {"kind": "cyclic", "n": 20},
            "a_set": [1, 2, 5],
            "b_set": [1, 3, 7],
            "c_x": "1/4",
            "c_y": "1/4",
            "small_set": False,
        },
        {
            "d1_matrix.alist": "714cc68b04ff51ece4cfe2262d4302ada1b665103ca608f9fa3d804bf4a1f055",
            "d1_matrix.txt": "b4cdb20ad74a500b1e7fd0124135197512076f006a0971da3fba739c13517cba",
            "graphs/factor_x.edges": "e91d5abd18f19ef49fe79d3e168cf16f2190f754540c7a48be5e72d2276c8021",
            "graphs/factor_y.edges": "c9baadf0ce5a7bed7f70b8b392604c3c342f93e6b21dbd44af284267ee589fd5",
            "graphs/sub_down.edges": "cfcf45cdd28e626d560308811f9c5e83787ce799667f4188943cdd53c28c87ea",
            "graphs/sub_left.edges": "c9baadf0ce5a7bed7f70b8b392604c3c342f93e6b21dbd44af284267ee589fd5",
            "graphs/sub_right.edges": "c9baadf0ce5a7bed7f70b8b392604c3c342f93e6b21dbd44af284267ee589fd5",
            "graphs/sub_up.edges": "cfcf45cdd28e626d560308811f9c5e83787ce799667f4188943cdd53c28c87ea",
            "h_matrix.alist": "a0df64bbd0577d4f3aa7f1d47ec0e4401d37482b83c89a53f8fd4ec0b4e61e94",
            "h_matrix.txt": "1df6f137e91182788d86f2b684097544c2336ddbb95050c81dbc186dcbedcac3",
            "manifest.json": "6ee5d8ec32016e6b01a21e60dfac7945d45d2fad37d46a1d28d6c39144ad5b9e",
            "report.json": "b7ecf3a131e1eeaab279b7bc3e171817a049288af57e8bb4c8bf37a98e714824",
            "summary.csv": "ff711113c30fefc930312dc25f8819d13fcbe95bfa648a3f2d6352e029e629a5",
        },
    ),
    "Z2xZ4": (
        {
            "group": {"kind": "product", "factors": [
                {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 4}]},
            "a_set": [1, 2],
            "b_set": [3, 5],
        },
        {
            "d1_matrix.alist": "c69c86e9208bcfadd94d65155daa0020213658250b162c1636d2bd2a1ed20800",
            "d1_matrix.txt": "5e27cf97dbd1da36c5a27283af48e9fdd70829b0c3ad5ac0687eeb02b75b214c",
            "graphs/factor_x.edges": "9c37d36c07f074f475af8f7cea5777536735be12016bac9e34c18426a671c0ef",
            "graphs/factor_y.edges": "77e910d8f8f21ca8fb0daddd5e3f902cba860d8ea16921afbc4074e51a5e3615",
            "graphs/sub_down.edges": "d022bc420bc9caff5d4d7552e3869cb101c9893caa72fdac9812de7792bfc53b",
            "graphs/sub_left.edges": "77e910d8f8f21ca8fb0daddd5e3f902cba860d8ea16921afbc4074e51a5e3615",
            "graphs/sub_right.edges": "77e910d8f8f21ca8fb0daddd5e3f902cba860d8ea16921afbc4074e51a5e3615",
            "graphs/sub_up.edges": "d022bc420bc9caff5d4d7552e3869cb101c9893caa72fdac9812de7792bfc53b",
            "h_matrix.alist": "5ffb0ccbc8d34f5ffaa8d93d2e7f774ab1559d1d3c697e92bf499e0697c30451",
            "h_matrix.txt": "351a5b60331f946083f29725ef6529593f007bfb964c7b625308c16495044049",
            "manifest.json": "265a58d49ff319d4733c57144d9b0019496aee3eb2f060b8d62bde66180e5c0c",
            "report.json": "8274421fa6dccda7545182d4d348598d5528b7c3891085c49a224362cf0539a4",
            "summary.csv": "d29ddc7d4cd60bd07d42997ef57aca2f4dc3c5729aed1c40385934ad9e9e4fb1",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_deterministic_output_bytes_are_pinned(name, tmp_path):
    config, expected = PINNED_OUTPUTS[name]
    cfg = write_config(tmp_path, {"c_x": "1/2", "c_y": "1/2", **config})
    out = tmp_path / "out"
    assert main(["build", "--config", cfg, "--out", str(out), "--deterministic"]) == 0
    got = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file()
    }
    changed = sorted(f for f in expected.keys() | got.keys() if expected.get(f) != got.get(f))
    assert not changed, f"{name}: output bytes changed in {changed}"


class TestProcessEntry:
    """``cli.entry`` flushes the standard streams and exits with ``main``'s
    code, skipping interpreter teardown; ``main`` only returns its code."""

    @staticmethod
    def _env(**extra):
        # without PYTHONUNBUFFERED a piped stdout is block-buffered, so output
        # still in the buffer when main returns must be flushed by entry
        src = str(Path(expander_ltc.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return {**env, "PYTHONPATH": src, **extra}

    def test_main_keeps_normal_collection(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        before = gc.get_freeze_count()
        assert main(["build", "--config", cfg, "--dry-run"]) == 0
        assert gc.get_freeze_count() == before

    def test_entry_exits_with_mains_code_and_complete_stdout(self):
        script = (
            "from expander_ltc import cli\n"
            "def main():\n"
            "    for i in range(20000):\n"
            "        print(i)\n"
            "    return 3\n"
            "cli.main = main\n"
            "cli.entry()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=self._env(), timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout.split() == [str(i) for i in range(20000)]
        assert proc.stderr == ""

    @pytest.mark.parametrize("argv", [
        ["build", "--dry-run"],
        ["build", "--no-such-flag"],
        ["verify", "--suites", "chain,nope"],
        ["build", "--help"],
    ], ids=["ok", "usage", "unknown-suite", "help"])
    def test_module_run_exits_as_main_returns(self, tmp_path, capsys, argv):
        argv = [*argv, "--config", write_config(tmp_path, BASE_CONFIG)]
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "expander_ltc.cli", *argv],
            capture_output=True, text=True, env=self._env(), timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, captured.out, captured.err
        )

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_2_with_one_line(self, tmp_path, unbuffered):
        # a pipe whose read end is closed before the run starts: unbuffered,
        # cmd_search's print fails; buffered, entry's final flush does
        cfg = write_config(tmp_path, SEARCH_CONFIG)
        out = tmp_path / "out"
        env = self._env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "expander_ltc.cli", "search",
                 "--config", cfg, "--out", str(out)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: cannot write to standard output: [Errno 32] Broken pipe\n"
        )
        assert (out / "search_result.json").is_file()

    def test_console_script_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts == {"expander-ltc": "expander_ltc.cli:entry"}

    def test_module_run_writes_the_in_process_bytes(self, tmp_path):
        config = PINNED_OUTPUTS["Z8"][0]
        cfg = write_config(tmp_path, {**config, "c_x": "1/2", "c_y": "1/2"})
        inproc, child = tmp_path / "inproc", tmp_path / "child"
        assert main(["build", "--config", cfg, "--out", str(inproc), "--deterministic"]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "expander_ltc.cli", "build", "--config", cfg,
             "--out", str(child), "--deterministic"],
            capture_output=True, text=True, env=self._env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

        def files(out):
            return {
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in out.rglob("*") if p.is_file()
            }

        got = files(child)
        assert "report.json" in got and got == files(inproc)


class TestVerify:
    def test_all_suites_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "[PASS] chain identity" in out
        assert "[FAIL]" not in out

    def test_suite_selection(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["verify", "--config", cfg, "--suites", "chain"]) == 0
        out = capsys.readouterr().out
        assert "chain identity" in out
        assert "copy decomposition" not in out

    def test_empty_suites_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["verify", "--config", cfg, "--suites", ""]) == 2

    def test_unknown_suite_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["verify", "--config", cfg, "--suites", "nope"]) == 2


class TestSearch:
    def test_search_writes_result(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "group": {"kind": "cyclic", "n": 6},
                "w_down": 2,
                "w_up": 2,
                "w_right": 2,
                "w_left": 2,
                "trials": 4,
                "c_x": "1/3",
                "c_y": "1/3",
            },
        )
        out = tmp_path / "s"
        assert main(["search", "--config", cfg, "--out", str(out)]) == 0
        result = json.loads((out / "search_result.json").read_text())
        assert len(result["log"]) == 4
        assert result["cert_x"]["mode"] == "exhaustive"

    def test_certification_budget_names_stage(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "group": {"kind": "cyclic", "n": 40},
            "w_down": 3, "w_up": 3, "w_right": 3, "w_left": 3,
            "c_x": "1/2", "c_y": "1/2", "trials": 1,
        })
        assert main(["search", "--config", cfg, "--out", str(tmp_path / "s")]) == 3
        err = capsys.readouterr().err
        assert "search certification" in err
        assert "needs 480832549477" in err and "lower c_x or c_y" in err
        assert "sampled" not in err


class TestDemoSharp:
    def test_default_instance(self, capsys):
        assert main(["demo-sharp"]) == 0
        out = capsys.readouterr().out
        assert "= 1" in out
        assert "1/2" in out

    def test_odd_degree_precondition(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {**BASE_CONFIG, "a_set": [1, 2, 4], "b_set": [1, 3],
             "group": {"kind": "cyclic", "n": 9}},
        )
        assert main(["demo-sharp", "--config", cfg]) == 1
        assert "even" in capsys.readouterr().err


class TestSoundnessKey:
    """Soundness is always computed; a ``soundness`` config key is unknown."""

    def test_report_has_exhaustive_soundness(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["build", "--config", cfg, "--out", str(out),
                     "--deterministic"]) == 0
        snd = json.loads((out / "report.json").read_text())["soundness"]
        assert snd["method"] == "exhaustive"
        assert snd["s"] == "1/2"

    @pytest.mark.parametrize(
        "value",
        ["fast", 1, 0, None, ["none"], "sampled", "exhaustive", "none", True, False],
    )
    def test_other_values_exit_2(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "soundness": value})
        out = ["--out", str(tmp_path / "o")]
        for argv in (
            ["build", "--config", cfg, *out],
            ["build", "--config", cfg, "--dry-run"],
            ["verify", "--config", cfg],
            ["verify", "--config", cfg, "--dry-run"],
            ["demo-sharp", "--config", cfg],
        ):
            assert main(argv) == 2
            assert "unknown config key 'soundness'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestVerificationFailure:
    def test_failed_theorem_check_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "weighted_norm", lambda c1, bp: Fraction(2))
        assert main(["demo-sharp"]) == 1
        assert "analysis failure" in capsys.readouterr().err

    # Z10 [1,2]/[1,3]: with epsilon read as 0 the small-set inequality fails
    _Z10 = {"group": {"kind": "cyclic", "n": 10}, "a_set": [1, 2], "b_set": [1, 3],
            "c_x": "1/2", "c_y": "1/2"}

    def test_failed_small_set_check_fails_verify(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "small_set_epsilon", lambda *args: Fraction(0))
        cfg = write_config(tmp_path, self._Z10)
        assert main(["verify", "--config", cfg, "--suites", "small-set"]) == 1
        assert capsys.readouterr().out == (
            "[FAIL] small-set inequality on 2765 locally minimal vectors\n"
        )

    def test_failed_small_set_check_fails_build(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "small_set_epsilon", lambda *args: Fraction(0))
        cfg = write_config(tmp_path, self._Z10)
        out = tmp_path / "out"
        assert main(["build", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "small-set inequality FAILED on at least one vector\n"
        )
        summary = json.loads((out / "report.json").read_text())["small_set_checks"]
        assert (summary["all_hold"], summary["count"]) == (False, 2765)
        assert summary["least_margin"] == {
            "margin": "-3/4", "lhs": "3/4", "rhs": "0", "c1_weight": 3,
            "witness": {"v10": [0], "v01": [0, 1]},
        }

    def test_understated_certificate_fails_unique(self, tmp_path, monkeypatch, capsys):
        certify = cli._certify_factors

        def understated(*args):
            cert_x, cert_y = certify(*args)
            return cert_x._replace(epsilon=Fraction(0)), cert_y

        monkeypatch.setattr(cli, "_certify_factors", understated)
        cfg = write_config(tmp_path, self._Z10)
        assert main(["verify", "--config", cfg, "--suites", "unique"]) == 1
        assert capsys.readouterr().out == (
            "[FAIL] unique-neighbor bound on factor x ((frozenset({0, 1}), 2))\n"
            "[PASS] unique-neighbor bound on factor y\n"
        )

    def test_demo_sharp_under_optimize(self):
        # the theorem checks are real errors, not asserts, so -O keeps them
        src = str(Path(expander_ltc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "expander_ltc.cli", "demo-sharp"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ratio = 1/2" in proc.stdout

    def test_input_checks_under_optimize(self, tmp_path):
        # a bad subgraph selector and an over-long rational are real errors too
        src = str(Path(expander_ltc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        cfg = write_config(tmp_path, {**BASE_CONFIG, "c_y": "0." + "3" * 5000})
        script = (
            "from expander_ltc.errors import InvalidParameterError\n"
            "from expander_ltc.graphs import certify_expansion\n"
            "from expander_ltc.groups import make_cyclic\n"
            "from expander_ltc.products import inherited_expansion, left_right_cayley\n"
            "bp = left_right_cayley(make_cyclic(6), [1, 2], [1, 3])\n"
            "cert = certify_expansion(bp.x, 1)\n"
            "try:\n"
            "    inherited_expansion(bp, cert, '2*')\n"
            "except InvalidParameterError as exc:\n"
            "    print(exc)\n"
            "from expander_ltc.cli import main\n"
            f"raise SystemExit(main(['build', '--config', {cfg!r}, '--dry-run']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == "unknown subgraph selector: '2*'\n"
        assert proc.stderr == (
            "config error: config key 'c_y' is longer than 4300 characters\n"
        )


class TestUsage:
    def test_bad_jobs(self, tmp_path):
        # --jobs did nothing and is gone; argparse rejects it with exit 2
        cfg = write_config(tmp_path, BASE_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["build", "--config", cfg, "--jobs", "1"])
        assert exc.value.code == 2


class TestSmallSetKey:
    """``small_set`` takes a JSON boolean only."""

    def test_false_skips(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "small_set": False})
        out = tmp_path / "out"
        assert main(["build", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["small_set_checks"] is None

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_other_values_exit_2(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "small_set": value})
        out = tmp_path / "o"
        assert main(["build", "--config", cfg, "--out", str(out)]) == 2
        assert "small_set" in capsys.readouterr().err
        assert not out.exists()
        assert main(["build", "--config", cfg, "--dry-run"]) == 2


class TestBuildInputs:
    """Mistyped build inputs exit 2 with an error naming the key."""

    def _exit(self, tmp_path, capsys, cfg_data, *extra):
        cfg = write_config(tmp_path, cfg_data)
        code = main(["build", "--config", cfg, "--out", str(tmp_path / "o"), *extra])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("value", ["a", True, -1, 1.5, None])
    def test_max_c1_weight(self, tmp_path, capsys, value):
        code, err = self._exit(tmp_path, capsys, {**BASE_CONFIG, "max_c1_weight": value})
        assert code == 2
        assert "max_c1_weight" in err
        assert "Traceback" not in err

    def test_max_c1_weight_integer_accepted(self, tmp_path, capsys):
        cfg = {**BASE_CONFIG, "max_c1_weight": 3}
        assert self._exit(tmp_path, capsys, cfg, "--dry-run")[0] == 0

    def test_group_order_not_integer(self, tmp_path, capsys):
        cfg = {**BASE_CONFIG, "group": {"kind": "cyclic", "n": "seven"}}
        code, err = self._exit(tmp_path, capsys, cfg)
        assert code == 2
        assert "'n'" in err
        assert self._exit(tmp_path, capsys, cfg, "--dry-run")[0] == 2

    @pytest.mark.parametrize("key, value", [
        ("a_set", [1, "x"]),
        ("b_set", [1, 7]),  # outside Z7
        ("a_set", 5),
        ("b_set", [True]),
        ("a_set", [1, 1]),
        ("b_set", [3, 1, 3]),
    ])
    def test_bad_generators(self, tmp_path, capsys, key, value):
        code, err = self._exit(tmp_path, capsys, {**BASE_CONFIG, key: value})
        assert code == 2
        assert key in err
        assert self._exit(tmp_path, capsys, {**BASE_CONFIG, key: value}, "--dry-run")[0] == 2

    def test_out_is_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_config(tmp_path, BASE_CONFIG)
        for out in (blocker, blocker / "sub"):
            assert main(["build", "--config", cfg, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "--out" in err and "Traceback" not in err


SEARCH_CONFIG = {
    "group": {"kind": "cyclic", "n": 6},
    "w_down": 2,
    "w_up": 2,
    "w_right": 2,
    "w_left": 2,
    "trials": 2,
    "c_x": "1/3",
    "c_y": "1/3",
}


class TestSearchInputs:
    """Mistyped search inputs exit 2 with an error naming the key."""

    @pytest.mark.parametrize("key", ["w_down", "w_up", "w_right", "w_left", "trials"])
    def test_non_integer(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, {**SEARCH_CONFIG, key: "x"})
        assert main(["search", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
        assert key in capsys.readouterr().err
        assert main(["search", "--config", cfg, "--dry-run"]) == 2

    # the degree ratios follow from the four degrees, so no ratio interval is
    # read: a config holding one, even one the degrees satisfy, is rejected
    @pytest.mark.parametrize("key, value", [
        ("ratio_x_interval", 5),
        ("ratio_y_interval", [1]),
        ("ratio_x_interval", ["a", 1]),
        ("ratio_x_interval", ["1/2", 1]),
    ])
    def test_bad_interval(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {**SEARCH_CONFIG, key: value})
        for extra in (["--out", str(tmp_path / "s")], ["--dry-run"]):
            assert main(["search", "--config", cfg, *extra]) == 2
            assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_out_is_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_config(tmp_path, SEARCH_CONFIG)
        assert main(["search", "--config", cfg, "--out", str(blocker)]) == 2
        assert "--out" in capsys.readouterr().err


class TestFlags:
    """Each subcommand takes exactly the flags it reads."""

    OPTIONS = {
        "build": {"--config", "--out", "--budget", "--deterministic", "--dry-run"},
        "verify": {"--config", "--suites", "--dry-run"},
        "search": {"--config", "--out", "--seed", "--dry-run"},
        "demo-sharp": {"--config"},
    }

    def test_option_sets(self):
        options = {name: set(flags) for name, (_, flags) in cli._COMMANDS.items()}
        assert options == self.OPTIONS
        assert sum(map(len, options.values())) == 13

    @pytest.mark.parametrize("argv", [
        ["verify", "--out", "o"],
        ["verify", "--seed", "3"],
        ["verify", "--budget", "1"],
        ["verify", "--deterministic"],
        ["search", "--budget", "1"],
        ["search", "--deterministic"],
        ["demo-sharp", "--dry-run"],
        ["demo-sharp", "--out", "o"],
        ["demo-sharp", "--seed", "1"],
        ["demo-sharp", "--budget", "1"],
        ["demo-sharp", "--deterministic"],
        ["build", "--seed", "3"],
    ])
    def test_removed_flags_rejected(self, tmp_path, argv):
        cfg = write_config(tmp_path, BASE_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", cfg, *argv[1:]])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-5", "x"])
    def test_budget_below_one_rejected(self, tmp_path, value):
        cfg = write_config(tmp_path, BASE_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["build", "--config", cfg, "--budget", value, "--dry-run"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["2^26", "-5"])
    def test_budget_error_quotes_the_value(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, BASE_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["build", "--config", cfg, "--budget", value, "--dry-run"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"must be an integer >= 1, got '{value}'" in err
        assert "_positive_int" not in err

    def test_budget_defaults(self):
        args = parse_args(["build", "--config", "c.json"])
        assert args.budget == DEFAULT_ENUM_BUDGET
        default = inspect.signature(build_report).parameters["budget"].default
        assert default == DEFAULT_ENUM_BUDGET


def _exit_and_err(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().err


class TestSharedBuildConfig:
    """build, verify and demo-sharp accept or reject a config alike."""

    @pytest.mark.parametrize("extra", [
        {"c_x": "abc"},
        {"c_y": 0},
        {"small_set": "bogus", "max_c1_weight": -1},
        {"soundness": True},
        {"small_set": 3},
        {"a_set": [1, 1]},
        {"group": {"kind": "cyclic", "n": MAX_GROUP_ORDER + 1}},
    ])
    def test_rejected_by_all_three(self, tmp_path, capsys, extra):
        cfg = write_config(tmp_path, {**BASE_CONFIG, **extra})
        build = _exit_and_err(capsys, ["build", "--config", cfg, "--dry-run"])
        assert build[0] == 2
        assert _exit_and_err(capsys, ["verify", "--config", cfg, "--dry-run"]) == build
        assert _exit_and_err(capsys, ["verify", "--config", cfg]) == build
        assert _exit_and_err(capsys, ["demo-sharp", "--config", cfg]) == build

    def test_verify_passes_nothing_before_a_bad_cutoff(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "c_y": "3/2"})
        assert main(["verify", "--config", cfg, "--suites", "chain,unique"]) == 2
        captured = capsys.readouterr()
        assert "[PASS]" not in captured.out
        assert "'c_y'" in captured.err


class TestDryRunMatchesRun:
    """Each config the real run rejects, --dry-run rejects too."""

    def _both(self, tmp_path, capsys, argv, *keys):
        out = [] if argv[0] == "verify" else ["--out", str(tmp_path / "o")]
        for extra in (["--dry-run"], out):
            code, err = _exit_and_err(capsys, [*argv, *extra])
            assert code == 2
            assert all(key in err for key in keys), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["build", "verify", "search"])
    @pytest.mark.parametrize("key", ["c_x", "c_y"])
    @pytest.mark.parametrize("value", [0, "3/2", "-1/2"])
    def test_cutoff_outside_unit_interval(self, tmp_path, capsys, command, key, value):
        base = SEARCH_CONFIG if command == "search" else BASE_CONFIG
        cfg = write_config(tmp_path, {**base, key: value})
        self._both(tmp_path, capsys, [command, "--config", cfg], repr(key))

    # one bad value for every key of both config kinds; the library's rule
    # rejects it, and the config layer names the key
    @pytest.mark.parametrize("command, key, value", [
        *[(command, key, value) for command in ("build", "verify") for key, value in [
            ("construction", "tanner"),
            ("group", {"kind": "cyclic", "n": 0}),
            ("a_set", [1, 7]),
            ("b_set", []),
            ("c_x", "3/2"),
            ("c_y", "0"),
            ("max_c1_weight", -1),
            ("small_set", "yes"),
        ]],
        ("search", "group", {"kind": "cyclic", "n": "6"}),
        ("search", "w_down", 0),
        ("search", "w_up", True),
        ("search", "w_right", "2"),
        ("search", "w_left", 1.5),
        ("search", "c_x", "0"),
        ("search", "c_y", "2"),
        ("search", "trials", 0),
        ("search", "eps_target", "3/2"),
    ])
    def test_every_key(self, tmp_path, capsys, command, key, value):
        base = SEARCH_CONFIG if command == "search" else BASE_CONFIG
        cfg = write_config(tmp_path, {**base, key: value})
        names = [f"config key {key!r}"]
        if key == "group":  # the group's bad order is named by the spec's key too
            names.append("group spec key 'n'")
        self._both(tmp_path, capsys, [command, "--config", cfg], *names)

    @pytest.mark.parametrize("key", ["w_down", "w_right"])
    def test_search_base_degree_above_group_order(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, {
            **SEARCH_CONFIG, "group": {"kind": "cyclic", "n": 4},
            "w_down": 1, "w_up": 5, "w_right": 1, "w_left": 5, key: 5,
        })
        self._both(
            tmp_path, capsys, ["search", "--config", cfg],
            f"config error: config key {key!r}: base degree {key}=5 exceeds the "
            "group order 4",
        )

    @pytest.mark.parametrize("key", ["w_up", "w_left"])
    def test_search_skewed_degree_not_a_multiple(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, {
            **SEARCH_CONFIG, "w_down": 2, "w_up": 4, "w_right": 2, "w_left": 4, key: 3,
        })
        self._both(
            tmp_path, capsys, ["search", "--config", cfg],
            f"config error: config key {key!r}: skewed degrees must be integer "
            "multiples of the base degrees",
        )

    @pytest.mark.parametrize("command, base", [
        ("build", BASE_CONFIG), ("search", SEARCH_CONFIG), ("verify", BASE_CONFIG),
    ])
    def test_cyclic_order_cap(self, tmp_path, capsys, command, base):
        cfg = write_config(
            tmp_path, {**base, "group": {"kind": "cyclic", "n": MAX_GROUP_ORDER + 1}}
        )
        self._both(
            tmp_path, capsys, [command, "--config", cfg],
            f"config error: config key 'group': cyclic group order "
            f"{MAX_GROUP_ORDER + 1} exceeds cap {MAX_GROUP_ORDER}",
        )


class TestParser:
    """``parse_args`` reads the subcommand table as argparse read its parsers."""

    @staticmethod
    def _flags(text):
        return set(re.findall(r"--[a-z][a-z-]*", text))

    def _exit(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        return exc.value.code, capsys.readouterr()

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_top_level_help(self, capsys, flag):
        code, captured = self._exit(capsys, [flag])
        assert code == 0
        assert captured.out.startswith("usage: expander-ltc")
        for name in TestFlags.OPTIONS:
            assert f"\n  {name} " in captured.out
        assert self._flags(captured.out) == {"--help"}

    @pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
    @pytest.mark.parametrize("command", sorted(TestFlags.OPTIONS))
    def test_subcommand_help_lists_its_flags(self, capsys, command, flag):
        code, captured = self._exit(capsys, [command, flag])
        assert code == 0 and captured.err == ""
        assert captured.out.startswith(f"usage: expander-ltc {command} ")
        assert self._flags(captured.out) == TestFlags.OPTIONS[command] | {"--help"}

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["--config", "c.json"], "argument command: invalid choice: '--config'"),
    ])
    def test_missing_or_unknown_subcommand(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        usage, error = err.splitlines()
        assert usage.startswith(
            "usage: expander-ltc [-h] {build,verify,search,demo-sharp}"
        )
        assert error.startswith(f"expander-ltc: error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["build"], "the following arguments are required: --config"),
        (["build", "--config", "c", "--jobs", "1"], "unrecognized arguments: --jobs 1"),
        (["build", "--config", "c", "--out", "--dry-run"],
         "argument --out: expected one argument"),
        (["build", "--config", "c", "--d"],
         "ambiguous option: --d could match --deterministic, --dry-run"),
        (["build", "--config", "c", "--dry-run=yes"],
         "argument --dry-run: ignored explicit argument 'yes'"),
        (["search", "--config", "c", "--seed", "x"],
         "argument --seed: invalid literal for int() with base 10: 'x'"),
        (["search", "--config", "c", "--seed"],
         "argument --seed: expected one argument"),
    ])
    def test_usage_errors(self, capsys, argv, message):
        code, captured = self._exit(capsys, argv)
        assert code == 2 and captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith(f"usage: expander-ltc {argv[0]} [-h] --config CONFIG")
        assert error == f"expander-ltc {argv[0]}: error: {message}"

    def test_flag_equals_value(self):
        args = parse_args(["build", "--config=c.json", "--out=o", "--budget=7"])
        assert (args.config, args.out, args.budget) == ("c.json", "o", 7)
        assert parse_args(["search", "--config", "c", "--out=a=b"]).out == "a=b"

    def test_unique_prefixes(self):
        args = parse_args(["build", "--conf", "c.json", "--det", "--dr", "--b", "9"])
        assert args.deterministic and args.dry_run
        assert (args.config, args.budget) == ("c.json", 9)

    def test_negative_number_is_a_value(self):
        assert parse_args(["search", "--config", "c", "--seed", "-5"]).seed == -5
        assert parse_args(["search", "--config", "c", "--out", "-1.5"]).out == "-1.5"

    def test_defaults(self):
        assert vars(parse_args(["search", "--config", "c"])) == {
            "command": "search", "config": "c", "out": "out", "seed": 0,
            "dry_run": False,
        }
        assert vars(parse_args(["demo-sharp"])) == {
            "command": "demo-sharp", "config": None
        }
        suites = parse_args(["verify", "--config", "c"]).suites
        assert suites == "chain,copies,unique,small-set"

    def test_last_value_wins(self):
        assert parse_args(["build", "--config", "a", "--config", "b"]).config == "b"

    def test_command_is_looked_up_at_call_time(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_demo_sharp", lambda args: seen.append(args) or 0)
        assert main(["demo-sharp"]) == 0
        assert [a.command for a in seen] == ["demo-sharp"]


def _config_text(base, key, literal):
    """A JSON config: ``base`` plus ``key`` spelled as the raw JSON ``literal``."""
    return json.dumps(base)[:-1] + f', "{key}": {literal}}}'


class TestConfigLimits:
    """Configs past Python's number limits exit 2 at once, never hang or trace back."""

    @pytest.mark.parametrize(
        "value", ["1e-20000000", "1E+1001", "1e-1_001", "2e99999999999"]
    )
    @pytest.mark.parametrize("command, key", [
        ("build", "c_x"),
        ("verify", "c_y"),
        ("demo-sharp", "c_x"),
        ("search", "c_y"),
        ("search", "eps_target"),
    ])
    def test_huge_decimal_exponent(self, tmp_path, capsys, command, key, value):
        base = SEARCH_CONFIG if command == "search" else BASE_CONFIG
        cfg = write_config(tmp_path, {**base, key: value})
        runs = [[], ["--dry-run"]] if command != "demo-sharp" else [[]]
        out = ["--out", str(tmp_path / "o")] if command in ("build", "search") else []
        for extra in runs:
            code, err = _exit_and_err(capsys, [command, "--config", cfg, *out, *extra])
            assert code == 2
            assert err == (
                f"config error: config key {key!r} has a decimal exponent "
                "beyond ±1000\n"
            )
        assert not (tmp_path / "o").exists()

    def test_exponent_at_the_bound_is_read(self, tmp_path):
        for value in ("1e-1000", "1e-0001000"):
            cfg = write_config(tmp_path, {**BASE_CONFIG, "c_x": value})
            assert main(["build", "--config", cfg, "--dry-run"]) == 0
        cfg = write_config(tmp_path, {**SEARCH_CONFIG, "eps_target": "1e-1000"})
        assert main(["search", "--config", cfg, "--dry-run"]) == 0

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(_config_text(BASE_CONFIG, "max_c1_weight", "7" * 5000))
        cfg = str(path)
        build = _exit_and_err(
            capsys, ["build", "--config", cfg, "--out", str(tmp_path / "o")]
        )
        assert build[0] == 2
        assert build[1].startswith("config error: config has a number too long to read")
        assert "Traceback" not in build[1]
        for argv in (
            ["build", "--config", cfg, "--dry-run"],
            ["verify", "--config", cfg],
            ["verify", "--config", cfg, "--dry-run"],
            ["demo-sharp", "--config", cfg],
        ):
            assert _exit_and_err(capsys, argv) == build
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [
        "0." + "1" * 4299,
        "1" * 4299 + ".5",
        "1" * 4301 + "/3",
        "1/" + "3" * 4299,
        "-1_0" + "0" * 4300 + ".5e-9",
    ])
    def test_rational_text_past_the_length_limit(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "c_x": value})
        assert _exit_and_err(capsys, ["build", "--config", cfg, "--dry-run"]) == (
            2, "config error: config key 'c_x' is longer than 4300 characters\n"
        )

    @pytest.mark.parametrize("value", [
        "0." + "1" * 3400 + "e-1000",
        "9" * 3400 + "e1000",
    ])
    def test_rational_value_past_the_digit_limit(self, tmp_path, capsys, value):
        # short enough to read, but str() of the result would raise
        cfg = write_config(tmp_path, {**BASE_CONFIG, "c_x": value})
        for argv in (["--dry-run"], ["--out", str(tmp_path / "o")]):
            assert _exit_and_err(capsys, ["build", "--config", cfg, *argv]) == (
                2,
                "config error: config key 'c_x' has a numerator or denominator "
                "of more than 4300 digits\n",
            )
        assert not (tmp_path / "o").exists()

    def test_rational_at_the_digit_limit_is_read(self, tmp_path):
        for value in ("0." + "1" * 4298, "1/" + "3" * 4298, "0." + "1_1" * 1432):
            cfg = write_config(tmp_path, {**BASE_CONFIG, "c_x": value})
            assert main(["build", "--config", cfg, "--dry-run"]) == 0

    def test_full_build_at_the_digit_limit(self, tmp_path):
        # the denominator, 10^4298, is written to report.json in full
        value = "0." + "1" * 4298
        cfg = write_config(tmp_path, {**BASE_CONFIG, "c_x": value})
        assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert Fraction(report["expansion"]["x"]["c"]) == Fraction(value)

    def test_out_of_range_at_the_digit_limit(self, tmp_path, capsys):
        # the message quotes the value, a 4300-digit integer
        cfg = write_config(tmp_path, {**BASE_CONFIG, "c_x": "1" * 4300})
        assert _exit_and_err(capsys, ["build", "--config", cfg, "--dry-run"]) == (
            2,
            "config error: config key 'c_x': c_x must be an int or a Fraction in "
            f"(0, 1], got Fraction({'1' * 4300}, 1)\n",
        )

    def test_search_trials_past_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        base = {k: v for k, v in SEARCH_CONFIG.items() if k != "trials"}
        path.write_text(_config_text(base, "trials", "1" * 5000))
        for extra in (["--dry-run"], ["--out", str(tmp_path / "s")]):
            code, err = _exit_and_err(capsys, ["search", "--config", str(path), *extra])
            assert code == 2
            assert err.startswith("config error: config has a number too long to read")
        assert not (tmp_path / "s").exists()
