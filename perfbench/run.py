"""Benchmark of the expander-ltc command line: four workloads, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload build-smallset --seed 3 --seconds 55 --trace 0
    python3 perfbench/run.py --self-test

With ``--trace 0`` the workload's command runs as a closed loop of fresh
``python3 -m expander_ltc.cli`` processes, one at a time, for ``--seconds``
seconds, after a set-up phase that times the same command with ``--dry-run``.
A fixed pure-Python reference kernel runs between invocations; ``wall_s`` and
``setup_s`` are wall times at reference speed (see ``at_reference_speed``).
Every invocation passes a correctness gate (``workloads.py``).  With
``--trace 1`` the command runs in this process, alternately untraced and
traced (``tracing.py``), and the f2 micro-benchmarks follow.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A record of the run (context, samples, spans) is written to
``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

SETUP_REPEATS = 15  # dry runs per run; setup_s is their median
INVOCATION_TIMEOUT_S = 120
CALIBRATION_LOOPS = 3_000_000
REFERENCE_S = 0.1  # time of reference_s() at reference speed

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def calibration_s() -> float:
    """Time of a fixed pure-Python loop, recorded to show host drift."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i
    return perf_counter() - start


def reference_s() -> float:
    """Time of a fixed pure-Python kernel, timed between invocations.

    It mixes the kinds of work the program does: an integer loop, then bit
    masks OR-ed over subsets with exact fractions, as in certify_expansion.
    """
    start = perf_counter()
    total = 0
    for i in range(750_000):
        total += i
    masks = [(i * 0x9E3779B1 ^ i << 7) & 0xFFFFF for i in range(22)]
    worst = Fraction(0)
    for k in range(1, 5):
        for subset in combinations(range(22), k):
            union = 0
            for u in subset:
                union |= masks[u]
            worst = max(worst, 1 - Fraction(union.bit_count(), k) / 4)
    return perf_counter() - start


def at_reference_speed(wall: float, ref_before: float, ref_after: float) -> float:
    """``wall`` scaled to a host on which reference_s() takes REFERENCE_S.

    The single-thread speed of a shared host drifts by up to 75% over tens of
    seconds, and both the program and the reference kernel slow down with it.
    The kernel is timed just before and just after each invocation, so the
    ratio of the two cancels most of the drift.
    """
    return wall * REFERENCE_S * 2 / (ref_before + ref_after)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(samples: list[float]) -> float | None:
    """Highest order statistic with at least 10 samples above it, if any."""
    if len(samples) < 11:
        return None
    return sorted(samples)[len(samples) - 11]


# ---------------------------------------------------------------------------
# end-to-end: fresh processes, tracing off


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def invoke(cmd: list[str], env: dict, log_dir: Path) -> tuple[float, int, float, str]:
    """Run one child to exit: (wall seconds, exit code, peak RSS in MB, stdout).

    The wall time runs from spawn to exit.  A child still running after
    INVOCATION_TIMEOUT_S is killed and reported with exit code -9.
    """
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        try:
            start = perf_counter()
            proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, cwd=ROOT)
            try:
                signal.setitimer(signal.ITIMER_REAL, INVOCATION_TIMEOUT_S)
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - start
        finally:
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024, out_path.read_text()


class Failures:
    """Counts attempted and failed operations and keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems)}")


def run_end_to_end(w, seed: int, seconds: float, work: Path, fails: Failures):
    from workloads import Gate, check_dry_run, make_argv

    gate = Gate(w)
    out_dir = work / "out"
    cmd = [sys.executable, "-m", "expander_ltc.cli",
           *make_argv(w, work / "config.json", out_dir, seed)]
    # Children use cached bytecode, as an installed package does, whatever
    # the caller's environment says; the cache lives under .work/.
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    refs = [reference_s()]

    def paced(c: list[str]) -> tuple[float, float, int, float, str]:
        """invoke(c), then the reference kernel.

        Returns (wall at reference speed, raw wall, exit code, peak RSS in
        MB, stdout).
        """
        wall, code, peak_mb, stdout = invoke(c, env, work)
        refs.append(reference_s())
        return at_reference_speed(wall, *refs[-2:]), wall, code, peak_mb, stdout

    # set-up: the first dry run fills the bytecode cache and is not counted
    paced(cmd + ["--dry-run"])
    setup, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        norm, wall, code, _, stdout = paced(cmd + ["--dry-run"])
        fails.record("dry run", check_dry_run(code, stdout))
        setup.append(norm)
        setup_raw.append(wall)

    walls, walls_raw, rss, laps = [], [], [], []
    start = perf_counter()
    while not laps or perf_counter() - start + median(laps) <= seconds:
        lap = perf_counter()
        shutil.rmtree(out_dir, ignore_errors=True)
        norm, wall, code, peak_mb, stdout = paced(cmd)
        fails.record(f"invocation {len(walls) + 1}", gate(code, stdout, out_dir))
        walls.append(norm)
        walls_raw.append(wall)
        rss.append(peak_mb)
        laps.append(perf_counter() - lap)

    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setup),
        "peak_rss_mb": median(rss),
    }
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss,
               "wall_raw_s": walls_raw, "setup_raw_s": setup_raw,
               "reference_s": refs}
    return metrics, samples


# ---------------------------------------------------------------------------
# traced: in-process runs of cli.main, alternately untraced and traced


def _call_cli(argv: list[str]) -> tuple[float, int, str]:
    """Run cli.main(argv) here: (wall seconds, exit code, captured stdout)."""
    from expander_ltc import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        wall = perf_counter() - start
    return wall, code, stdout.getvalue()


def trace_one(argv: list[str], run: int, out_dir: Path):
    """One traced run: (tracer, wall seconds, exit code, stdout, report bytes)."""
    from tracing import Tracer

    shutil.rmtree(out_dir, ignore_errors=True)
    tracer = Tracer(run)
    tracer.install()
    try:
        wall, code, stdout = _call_cli(argv)
    finally:
        tracer.uninstall()
    report = [p for p in (out_dir / "report.json", out_dir / "search_result.json")
              if p.is_file()]
    return tracer, wall, code, stdout, report[0].stat().st_size if report else 0


def run_traced(w, seed: int, seconds: float, work: Path, fails: Failures):
    from tracing import WORK_COUNTS, f2_micro, layer_metrics
    from workloads import WORKLOADS, Gate, make_argv, make_config

    gate = Gate(w)
    out_dir = work / "out"
    argv = make_argv(w, work / "config.json", out_dir, seed)
    runs: list[dict] = []
    spans: list[list] = []
    start = perf_counter()
    while not runs or perf_counter() - start + median(
        r["trace.untraced_s"] + r["trace.traced_s"] for r in runs
    ) <= seconds:
        shutil.rmtree(out_dir, ignore_errors=True)
        untraced, code, stdout = _call_cli(argv)
        fails.record(f"untraced run {len(runs) + 1}", gate(code, stdout, out_dir))

        tracer, traced, code, stdout, report_bytes = trace_one(argv, len(runs), out_dir)
        problems = gate(code, stdout, out_dir)
        m = layer_metrics(tracer, traced, report_bytes)
        m["trace.untraced_s"] = untraced
        m["trace.traced_s"] = traced
        m["trace.overhead_s"] = traced - untraced
        if runs:  # work counts repeat exactly from run to run
            problems += [f"{k} differs from the first run"
                         for k in WORK_COUNTS if m[k] != runs[0][k]]
        fails.record(f"traced run {len(runs) + 1}", problems)
        runs.append(m)
        spans.extend(list(s) for s in tracer.spans)

    metrics = {k: median(r[k] for r in runs) for k in runs[0]}
    sweep = WORKLOADS["build-sweep"]
    cfg = make_config(sweep, seed)
    metrics.update(f2_micro(cfg["a_set"], cfg["b_set"], sweep.order))
    return metrics, {"runs": runs, "spans": spans}


# ---------------------------------------------------------------------------


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".share")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def preflight() -> str | None:
    """Why the benchmark cannot run here, or None."""
    if not (SRC / "expander_ltc" / "cli.py").is_file():
        return f"{SRC / 'expander_ltc'} not found: run from a full checkout"
    return None


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, make_config

    w = WORKLOADS[workload]
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    context = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "calibration_start_s": calibration_s(),
    }
    fails = Failures()
    try:
        (work / "config.json").write_text(json.dumps(make_config(w, seed)))
        body = run_traced if trace else run_end_to_end
        metrics, samples = body(w, seed, seconds, work, fails)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context["calibration_end_s"] = calibration_s()
    record = {"context": context, "metrics": metrics, "samples": samples,
              "attempted": fails.attempted, "failed": fails.failed,
              "failures": fails.messages}
    name = f"{'trace' if trace else 'e2e'}-{workload}.json"
    (WORK / name).write_text(json.dumps(record))

    print("context " + json.dumps(context, sort_keys=True))
    for message in fails.messages:
        print("FAILED " + message)
    if not trace:
        walls = samples["wall_s"]
        t = tail(walls)
        print(f"{workload}: wall_s median {metrics['wall_s']:.4f} s, "
              f"wall_s.tail {'%.4f s' % t if t is not None else 'n/a'} "
              f"over {len(walls)} samples; setup_s {metrics['setup_s']:.4f} s; "
              f"peak_rss_mb {metrics['peak_rss_mb']:.1f}; "
              f"ops_failed {fails.failed}/{fails.attempted}")
        print(f"{workload}: unscaled wall_s median "
              f"{median(samples['wall_raw_s']):.4f} s, "
              f"setup_s median {median(samples['setup_raw_s']):.4f} s; "
              f"reference kernel median {median(samples['reference_s']):.4f} s "
              f"(REFERENCE_S {REFERENCE_S} s)")
    return {
        "correct": fails.failed == 0,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the gates and seed invariance, then exit")
    args = parser.parse_args(argv)
    problem = preflight()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
