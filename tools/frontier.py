"""The build frontier: the largest group order whose full build exits 0 within 60 s.

Run from the repository root:

    python3 tools/frontier.py            # writes BENCH_frontier.json

The ladder is ``left_right_cayley(Z_n, [1, 2], [1, 3])`` with c_x = c_y = 1/2,
for n = 6, 8, 10, ...  Each setting (the defaults, and
``"small_set": false``) walks up the ladder.  The projective planes of order
q = 2, 3, 4, 5 take A = B = a Singer perfect difference set in Z_n,
n = q² + q + 1, at c_x = c_y = 1/4, with the defaults.  Each family is built
one fresh ``python3 -m expander_ltc.cli build --deterministic`` process at a
time, until the first size that does not exit 0 within the limit; a build
still running at the limit is killed.  Every row records the wall time from
spawn to exit, the child's peak RSS (``os.wait4``), and the reference kernel
of ``perfbench/run.py`` timed just before and just after the build, so a
reader can tell a slow host from a slow build.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
from collections.abc import Iterable, Iterator
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
# q -> a perfect difference set of Z_{q^2 + q + 1} (Singer)
PLANES = {
    2: [1, 2, 4], 3: [0, 1, 3, 9], 4: [3, 6, 7, 12, 14], 5: [1, 5, 11, 24, 25, 27],
}
PLANE_C = "1/4"


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


def walk(sizes: Iterable[tuple[dict, dict]], key: str) -> dict:
    """Build each ``(label, config)`` of ``sizes`` in turn until the first that
    misses: the frontier (``key`` of the last size that passed), the first
    miss (``None`` if every size passed) and every row."""
    rows = []
    for label, config in sizes:
        before = reference_s()
        with tempfile.TemporaryDirectory() as work:
            row = {**label, **_build(config, Path(work))}
        row["reference_s_before"] = round(before, 4)
        row["reference_s_after"] = round(reference_s(), 4)
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)
        if row["exit"] != 0:
            break
    passed = [r[key] for r in rows if r["exit"] == 0]
    return {"frontier": passed[-1] if passed else None,
            "first_miss": rows[-1] if rows[-1]["exit"] != 0 else None, "rows": rows}


def _ladder(extra: dict) -> Iterator[tuple[dict, dict]]:
    for n in itertools.count(N_START, 2):
        yield {"n": n}, {"group": {"kind": "cyclic", "n": n}, "a_set": A_SET,
                         "b_set": B_SET, "c_x": "1/2", "c_y": "1/2", **extra}


def _planes() -> Iterator[tuple[dict, dict]]:
    for q, difference_set in PLANES.items():
        n = q * q + q + 1
        yield {"q": q, "n": n}, {"group": {"kind": "cyclic", "n": n},
                                 "a_set": difference_set, "b_set": difference_set,
                                 "c_x": PLANE_C, "c_y": PLANE_C}


def _line(name: str, result: dict, key: str) -> str:
    line = f"{name}: frontier {key} = {result['frontier']}"
    if (miss := result["first_miss"]) is not None:
        line += (f"; {key} = {miss[key]} exits {miss['exit']} ({miss['stage']}) "
                 f"after {miss['wall_s']} s")
    return line


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
        "settings": {
            name: walk(_ladder(extra), "n") for name, extra in SETTINGS.items()
        },
        "projective_planes": {
            "family": f"left_right_cayley(Z_n, D, D), D a Singer perfect difference "
                      f"set, n = q^2 + q + 1, c_x = c_y = {PLANE_C}, "
                      f"q = {', '.join(map(str, PLANES))}",
            **walk(_planes(), "q"),
        },
    }
    (ROOT / "BENCH_frontier.json").write_text(json.dumps(record, indent=2) + "\n")
    for name, result in record["settings"].items():
        print(_line(name, result, "n"))
    print(_line("projective planes", record["projective_planes"], "q"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
