"""The build frontier: the largest group order whose full build exits 0 within 60 s.

Run from the repository root:

    python3 tools/frontier.py            # writes BENCH_frontier.json

The ladder is ``left_right_cayley(Z_n, [1, 2], [1, 3])`` with c_x = c_y = 1/2,
for n = 6, 8, 10, ...  Each setting (the defaults, and
``"small_set": false``) walks up the ladder, one fresh
``python3 -m expander_ltc.cli build --deterministic`` process at a time,
until the first n that does not exit 0 within the limit; a build still running
at the limit is killed.  Every row records the wall time from spawn to exit,
the child's peak RSS (``os.wait4``), and the reference kernel of
``perfbench/run.py`` timed just before and just after the build, so a reader
can tell a slow host from a slow build.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # the import leaves no file under perfbench/

from run import REFERENCE_S, git_commit, reference_s  # noqa: E402

LIMIT_S = 60
N_START = 6
A_SET, B_SET = [1, 2], [1, 3]
SETTINGS = {"default": {}, "small_set_false": {"small_set": False}}


def _build(config: dict, work: Path) -> dict:
    """One build in a fresh process: its exit code, wall time and peak RSS.

    A build still running after ``LIMIT_S`` is killed; its exit code is then
    the negated signal number.
    """
    cfg = work / "config.json"
    cfg.write_text(json.dumps(config))
    cmd = [sys.executable, "-m", "expander_ltc.cli", "build", "--config", str(cfg),
           "--out", str(work / "out"), "--deterministic"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    err_path = work / "stderr.txt"
    with open(err_path, "w") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    code = proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    message = err_path.read_text().strip().splitlines()
    return {
        "exit": code,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "stage": _stage(code, message[0] if message else ""),
    }


def _stage(code: int, message: str) -> str | None:
    """Where a build that did not exit 0 stopped, read from its first stderr line."""
    if code == 0:
        return None
    if code < 0:
        return f"killed at the {LIMIT_S} s limit"
    prefix = "budget exceeded: "
    if message.startswith(prefix):  # "budget exceeded: <stage>: ..."
        return message[len(prefix):].split(":", 1)[0]
    return message


def walk(extra: dict) -> dict:
    """Build up the ladder from ``N_START`` until the first n that misses."""
    rows = []
    n = N_START
    while True:
        config = {"group": {"kind": "cyclic", "n": n}, "a_set": A_SET, "b_set": B_SET,
                  "c_x": "1/2", "c_y": "1/2", **extra}
        before = reference_s()
        with tempfile.TemporaryDirectory() as work:
            row = {"n": n, **_build(config, Path(work))}
        row["reference_s_before"] = round(before, 4)
        row["reference_s_after"] = round(reference_s(), 4)
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)
        if row["exit"] != 0:
            break
        n += 2
    passed = [r["n"] for r in rows if r["exit"] == 0]
    return {"frontier": passed[-1] if passed else None, "first_miss": rows[-1],
            "rows": rows}


def main() -> int:
    record = {
        "family": f"left_right_cayley(Z_n, {A_SET}, {B_SET}), c_x = c_y = 1/2, "
                  f"n = {N_START}, {N_START + 2}, ...",
        "limit_s": LIMIT_S,
        "context": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "reference_s_at_reference_speed": REFERENCE_S,
        },
        "settings": {name: walk(extra) for name, extra in SETTINGS.items()},
    }
    (ROOT / "BENCH_frontier.json").write_text(json.dumps(record, indent=2) + "\n")
    for name, result in record["settings"].items():
        miss = result["first_miss"]
        print(f"{name}: frontier |G| = {result['frontier']}; Z{miss['n']} exits "
              f"{miss['exit']} ({miss['stage']}) after {miss['wall_s']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
