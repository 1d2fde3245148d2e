"""Fuzzed build and search configs: ``--dry-run`` accepts exactly what runs.

Each config key is absent, valid, or drawn from a pool of wrong values, on
cyclic groups Z1..Z6.  ``--dry-run`` must end in exit 0 or 2; a config it
accepts must not fail the real run with a usage error; and ``build``,
``verify`` and ``demo-sharp`` must accept or reject a build config alike,
with the same message.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from expander_ltc.cli import main

WRONG = st.sampled_from(["x", "3/2", "", 1.5, -0.5, -1, None, [], [1, "a"], True, False])
CUTOFF = st.sampled_from(["1/6", "1/4", "1/3", "1/2", "2/3", "1", 1])


def build_keys(n: int) -> dict:
    generators = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    return {
        "construction": st.just("left_right_cayley"),
        "group": st.just({"kind": "cyclic", "n": n}),
        "a_set": generators,
        "b_set": generators,
        "c_x": CUTOFF,
        "c_y": CUTOFF,
        "max_c1_weight": st.integers(0, 8),
        "small_set": st.booleans(),
    }


def search_keys(n: int) -> dict:
    return {
        "group": st.just({"kind": "cyclic", "n": n}),
        "w_down": st.integers(1, 2),
        "w_up": st.integers(2, 3),
        "w_right": st.integers(1, 2),
        "w_left": st.integers(2, 3),
        "c_x": CUTOFF,
        "c_y": CUTOFF,
        "trials": st.integers(1, 2),
        "eps_target": st.sampled_from(["1/16", "1/4", "1/2", 0.75]),
    }


@st.composite
def config(draw, keys, required: set) -> dict:
    """A config on Z1..Z6 of valid values with optional keys left out at
    random, and then up to two keys either removed or set to a wrong value."""
    valid = keys(draw(st.integers(1, 6)))
    cfg = {
        key: draw(value)
        for key, value in valid.items()
        if key in required or draw(st.booleans())
    }
    for key in sorted(draw(st.sets(st.sampled_from(sorted(valid)), max_size=2))):
        cfg.pop(key, None)
        if draw(st.booleans()):
            cfg[key] = draw(WRONG)
    return cfg


BUILD = config(build_keys, {"group", "a_set", "b_set"})
SEARCH = config(search_keys, {"group", "w_down", "w_up", "w_right", "w_left"})


def run(*argv: str) -> tuple[int, str]:
    """Exit code and stderr of one CLI call."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def check_command(command: str, cfg: dict, tmp: str) -> None:
    path = os.path.join(tmp, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    dry = run(command, "--config", path, "--dry-run")
    assert dry[0] in (0, 2), dry
    real_runs = [[command, "--config", path, "--out", os.path.join(tmp, "out")]]
    if command == "build":
        # verify and demo-sharp read a build config through the same parse
        assert run("verify", "--config", path, "--dry-run") == dry
        demo = run("demo-sharp", "--config", path)
        assert (demo == dry) if dry[0] == 2 else demo[0] in (0, 1), demo
        real_runs.append(["verify", "--config", path])
    if dry[0] == 0:
        for argv in real_runs:
            code, err = run(*argv)
            assert code in (0, 1, 3), (argv[0], err)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(BUILD)
def test_build_config(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        check_command("build", cfg, tmp)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEARCH)
def test_search_config(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        check_command("search", cfg, tmp)
