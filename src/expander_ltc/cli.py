"""Command-line interface: build, verify, search, and the sharp-example demo.

Exit codes: 0 success, 1 a verification or analysis check failed, 2 bad usage
or configuration, or an output (``--out`` or standard output) that cannot be
written, 3 an enumeration exceeded its budget.

Start-up: each run is a fresh process, so the module loads only what its
subcommand runs.  The top imports the layers that read and check a config
(``errors``, which also holds ``DEFAULT_ENUM_BUDGET``, ``groups``,
``graphs``) and a few small stdlib modules.  ``products`` (which loads
``f2``), ``analysis`` and ``formats`` are imported inside the functions that
use them, after any ``--dry-run`` return, and ``search`` inside
``cmd_search``; so ``search`` and ``build --dry-run`` never load ``products``
or ``f2``.  The flags are read by ``parse_args`` from one table,
``_COMMANDS``, not by ``argparse``, whose import and parser set-up (with
``gettext`` and ``locale``) cost about 7 ms of every run; ``summary.csv`` is
written without ``csv``.  Calls go through the module
(``products.left_right_cayley(...)``, ``analysis.lt_profile(...)``) and
``main`` finds ``cmd_*`` by name at call time, so a wrapper installed on a
module attribute sees every call.  A process ends in ``entry``, which flushes
the standard streams and calls ``os._exit`` with ``main``'s code.  That skips
interpreter finalization (clearing every module, the final collections), on
which nothing the run writes depends: 7 to 14 ms of a Z16 ``search`` on a
2-CPU host (medians of 100 fresh processes against ``sys.exit``, two runs).
``main`` itself returns its code, so callers in the same process keep normal
teardown.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager, suppress
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from .errors import (
    DEFAULT_ENUM_BUDGET,
    BudgetExceededError,
    ConfigError,
    ExpanderLtcError,
    InvalidParameterError,
    PreconditionViolationError,
    SizeLimitError,
    VerificationError,
    _at_least,
    _cutoff,
)
from .graphs import (
    ExpansionCertificate,
    _check_generators,
    certify_expansion,
    check_unique_neighbor_lemma,
    graph_to_edge_list,
)
from .groups import FiniteGroup, group_from_spec, make_cyclic

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_BUILD_KEYS = {
    "construction",
    "group",
    "a_set",
    "b_set",
    "c_x",
    "c_y",
    "max_c1_weight",
    "small_set",
}
_SEARCH_KEYS = {
    "group",
    "w_down",
    "w_up",
    "w_right",
    "w_left",
    "c_x",
    "c_y",
    "trials",
    "eps_target",
}


def _load_config(path: str, allowed: set[str], required: set[str]) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    except ValueError as exc:  # an integer beyond Python's digit limit
        raise ConfigError(f"config has a number too long to read: {exc}")
    except RecursionError:
        raise ConfigError("config nests too deeply")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown config key {key!r}")
    missing = required - set(cfg)
    if missing:
        key = sorted(missing)[0]
        raise ConfigError(f"missing required config key {key!r}")
    return cfg


# ``Fraction`` builds ``10**exponent`` for a text such as "1e-5", so a huge
# exponent would hang the run; ``str()`` of a JSON float never passes 324
_MAX_EXPONENT = 1000
# and ``10**len(fraction)`` for a text such as "0.5", whose cost grows faster
# than the text; ``str()`` refuses an integer of more than 4300 digits, so
# neither the text nor the numerator or denominator it reads as may pass that
_MAX_DIGITS = 4300


def _rational(value, key: str) -> Fraction:
    text = str(value)
    if len(text) > _MAX_DIGITS:
        raise ConfigError(f"config key {key!r} is longer than {_MAX_DIGITS} characters")
    _, e, exponent = text.lower().rpartition("e")
    exponent = exponent.strip()
    digits = exponent[1:] if exponent[:1] in ("+", "-") else exponent
    digits = digits.replace("_", "").lstrip("0")
    # more than four digits is past 1000 (and may be past int()'s digit limit)
    if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > _MAX_EXPONENT):
        raise ConfigError(
            f"config key {key!r} has a decimal exponent beyond ±{_MAX_EXPONENT}"
        )
    try:
        r = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"config key {key!r} is not a rational number")
    # "0.<4000 digits>e-1000" passes both checks above, but its denominator
    # has 5001 digits
    if max(abs(r.numerator), r.denominator) >= 10**_MAX_DIGITS:
        raise ConfigError(
            f"config key {key!r} has a numerator or denominator of more than "
            f"{_MAX_DIGITS} digits"
        )
    return r


def _checked(key: str, rule, *args):
    """``rule(*args)``, the library's check of a value, with its
    ``InvalidParameterError`` or ``SizeLimitError`` as a ``ConfigError``."""
    try:
        return rule(*args)
    except (InvalidParameterError, SizeLimitError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


def _complex_inputs(cfg: dict) -> tuple[FiniteGroup, list[int], list[int]]:
    """The group and the two generator lists of a build config, checked."""
    construction = cfg.get("construction", "left_right_cayley")
    if construction != "left_right_cayley":
        raise ConfigError(
            f"config key 'construction' must be 'left_right_cayley', got "
            f"{construction!r}"
        )
    group = _checked("group", group_from_spec, cfg["group"])
    a_set, b_set = (
        _checked(key, _check_generators, group, cfg[key]) for key in ("a_set", "b_set")
    )
    return group, a_set, b_set


def _build_config(path: str) -> tuple[tuple[FiniteGroup, list[int], list[int]], dict]:
    """The complex inputs and the ``build_report`` settings of a build config.

    ``build``, ``verify`` and ``demo-sharp`` all read their config through
    this, so one file is accepted or rejected by all three alike.
    """
    cfg = _load_config(path, _BUILD_KEYS, {"group", "a_set", "b_set"})
    settings = {
        key: _checked(key, _cutoff, _rational(cfg.get(key, "1/2"), key), key)
        for key in ("c_x", "c_y")
    }
    settings["max_c1_weight"] = (
        _checked("max_c1_weight", _at_least, cfg["max_c1_weight"], 0, "max_c1_weight")
        if "max_c1_weight" in cfg
        else None
    )
    small_set = settings["run_small_set"] = cfg.get("small_set", True)
    if not isinstance(small_set, bool):
        raise ConfigError(
            f"config key 'small_set' must be true or false, got {small_set!r}"
        )
    return _complex_inputs(cfg), settings


@contextmanager
def _stage(name: str, setting: str = "raise --budget"):
    """Prefix a budget error with the stage it stopped and the setting to change."""
    try:
        yield
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"{name}: {exc} (needs {exc.required}, budget {exc.budget}); {setting}",
            exc.required,
            exc.budget,
        ) from None


def _certify_factors(
    bp: products.BalancedProductComplex, c_x: Fraction, c_y: Fraction
) -> tuple[ExpansionCertificate, ExpansionCertificate]:
    """Exhaustive certificates of both factors, under their graph actions.

    Their subset budget is fixed, so a budget error names the cutoff to lower.
    """
    certs = []
    for tag, graph, c, action in (("x", bp.x, c_x, bp.ax), ("y", bp.y, c_y, bp.ay)):
        with _stage(f"certification of factor {tag}", f"lower c_{tag}"):
            certs.append(certify_expansion(graph, c, action=action))
    return certs[0], certs[1]


def build_report(
    bp: products.BalancedProductComplex,
    c_x: Fraction,
    c_y: Fraction,
    max_c1_weight: int | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
    run_small_set: bool = True,
) -> dict:
    """The full analysis record of one complex, as a JSON-ready dict."""
    from . import analysis, products

    code = analysis.code_from_complex(bp)
    cert_x, cert_y = _certify_factors(bp, c_x, c_y)
    sub_cert = products.inherited_expansion(bp, cert_x, "*0")

    # the exact distance is skipped, with a reason, not failed, over the budget
    dist = analysis.distance_certificate(code, bp, sub_cert, budget=budget)
    with _stage("d_lm"):
        lmd = analysis.locally_minimal_distance(bp, budget=budget)
    max_w = max_c1_weight if max_c1_weight is not None else code.m
    with _stage("LT profile"):
        ltp = analysis.lt_profile(bp, max_w, budget=budget)

    report: dict = {
        "n": code.n,
        "k": code.k,
        "locality": code.locality,
        "rate": str(code.rate),
        "degrees": {
            "w_down": bp.w_down,
            "w_up": bp.w_up,
            "w_right": bp.w_right,
            "w_left": bp.w_left,
        },
        "d": {
            "bound": None if dist.bound is None else str(dist.bound),
            "exact": dist.exact,
            "witness": dist.witness.support() if dist.witness else None,
        },
        "d_lm": lmd.d_lm,
        "lt_profile": {
            "table": {str(k): v for k, v in sorted(ltp.table.items())},
            "kappa": str(ltp.kappa),
            "d_lt": ltp.d_lt,
            "soundness_bound": str(analysis.soundness_from_lt(code, ltp)),
        },
        "expansion": {"x": cert_x.to_json(), "y": cert_y.to_json()},
    }
    if dist.reason is not None:
        report["d"]["reason"] = dist.reason
    # read off the profile of the LT search above: one search per build
    snd = analysis.soundness_exhaustive(code, ltp)
    report["soundness"] = {
        "s": str(snd.s),
        "method": "exhaustive",
        "witness": snd.witness.support(),
    }
    report["small_set_checks"] = (
        analysis.settle_small_set(bp, cert_x, cert_y).to_json()
        if run_small_set
        else None
    )
    return report


def _write_outputs(
    out_dir: Path, report: dict, bp: products.BalancedProductComplex,
    deterministic: bool,
) -> None:
    from . import products
    from .formats import matrix_to_alist, matrix_to_dense_text

    out_dir.mkdir(parents=True, exist_ok=True)
    if not deterministic:
        report = dict(report)
        report["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    fields = ["n", "k", "d_bound", "d_exact", "locality", "s", "d_lm", "kappa", "d_lt"]
    values = [
        report["n"],
        report["k"],
        report["d"]["bound"],
        report["d"]["exact"],
        report["locality"],
        report["soundness"]["s"],
        report["d_lm"],
        report["lt_profile"]["kappa"],
        report["lt_profile"]["d_lt"],
    ]
    # every value is an int, an "a/b" string or None (an empty cell), so no
    # cell needs quoting; lines end in \r\n, as CSV's do
    row = ["" if v is None else str(v) for v in values]
    (out_dir / "summary.csv").write_text(
        ",".join(fields) + "\r\n" + ",".join(row) + "\r\n", newline=""
    )
    (out_dir / "h_matrix.alist").write_text(matrix_to_alist(bp.d2))
    (out_dir / "h_matrix.txt").write_text(matrix_to_dense_text(bp.d2))
    (out_dir / "d1_matrix.alist").write_text(matrix_to_alist(bp.d1))
    (out_dir / "d1_matrix.txt").write_text(matrix_to_dense_text(bp.d1))
    (out_dir / "manifest.json").write_text(
        json.dumps(products.complex_manifest(bp), indent=2, sort_keys=True) + "\n"
    )
    graphs_dir = out_dir / "graphs"
    graphs_dir.mkdir(exist_ok=True)
    (graphs_dir / "factor_x.edges").write_text(graph_to_edge_list(bp.x))
    (graphs_dir / "factor_y.edges").write_text(graph_to_edge_list(bp.y))
    for tag, graph in (
        ("down", bp.g_s0), ("up", bp.g_s1), ("right", bp.g_0s), ("left", bp.g_1s)
    ):
        (graphs_dir / f"sub_{tag}.edges").write_text(graph_to_edge_list(graph))


@contextmanager
def _writing_outputs(out: str):
    """Map a failure to write under ``--out`` to a usage error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to --out {out!r}: {exc}")


def cmd_build(args) -> int:
    inputs, settings = _build_config(args.config)
    if args.dry_run:
        print("config ok")
        return EXIT_OK
    from . import products

    bp = products.left_right_cayley(*inputs)
    report = build_report(bp, budget=args.budget, **settings)
    with _writing_outputs(args.out):
        _write_outputs(Path(args.out), report, bp, args.deterministic)
    print(f"built n={report['n']} k={report['k']} -> {args.out}")
    small_set = report["small_set_checks"]
    if small_set is not None and not small_set["all_hold"]:
        print("small-set inequality FAILED on at least one vector", file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


_VERIFY_SUITES = ("chain", "copies", "unique", "small-set")


def cmd_verify(args) -> int:
    inputs, settings = _build_config(args.config)
    suites = [s for s in args.suites.split(",") if s]
    if not suites:
        print("error: empty suite selection", file=sys.stderr)
        return EXIT_USAGE
    unknown = set(suites) - set(_VERIFY_SUITES)
    if unknown:
        print(f"error: unknown suite {sorted(unknown)[0]!r}", file=sys.stderr)
        return EXIT_USAGE
    if args.dry_run:
        print("config ok")
        return EXIT_OK
    from . import products

    bp = products.left_right_cayley(*inputs)
    failed = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failed
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail and not ok:
            line += f" ({detail})"
        print(line)
        if not ok:
            failed += 1

    if "chain" in suites:
        # left_right_cayley has checked d1 d2 = 0 (products._check_structure)
        check("chain identity d1.d2 = 0", True)
    if "copies" in suites:
        for name in ("*0", "*1", "0*", "1*"):
            sub = products.one_d_subgraph(bp, name)
            check(
                f"copy decomposition of subgraph {name}",
                products.verify_copy_decomposition(sub),
            )
    if "unique" in suites or "small-set" in suites:
        cert_x, cert_y = _certify_factors(bp, settings["c_x"], settings["c_y"])
    if "unique" in suites:
        for tag, graph, cert, act in (
            ("x", bp.x, cert_x, bp.ax),
            ("y", bp.y, cert_y, bp.ay),
        ):
            ok, worst = check_unique_neighbor_lemma(graph, cert, action=act)
            check(f"unique-neighbor bound on factor {tag}", ok, str(worst))
    if "small-set" in suites:
        from . import analysis

        summary = analysis.small_set_suite(bp, cert_x, cert_y)
        meaning = ""  # a pass that holds whatever the vectors are says so
        if analysis.small_set_vacuous(summary.epsilon):
            meaning = f" (vacuous: 1/2 - 8 eps <= 0 at eps = {summary.epsilon})"
        elif summary.count == 0:
            meaning = " (empty: no vector to check)"
        check(
            f"small-set inequality on {summary.count} locally minimal vectors{meaning}",
            summary.all_hold,
        )
    return EXIT_OK if failed == 0 else EXIT_ANALYSIS


def cmd_search(args) -> int:
    from . import search

    cfg = _load_config(
        args.config,
        _SEARCH_KEYS,
        {"group", "w_down", "w_up", "w_right", "w_left"},
    )
    values = {"c_x": "1/2", "c_y": "1/2", **cfg}
    fields = {"group": _checked("group", group_from_spec, cfg["group"])}
    # SearchSpec checks each field again; checked here, an error names its key
    for key in search.SearchSpec._fields[1:]:
        if key in values:
            value = values[key]
            if key in ("c_x", "c_y", "eps_target"):
                value = _rational(value, key)
            fields[key] = _checked(key, search._check_field, key, value, fields)
    spec = search.SearchSpec(seed=args.seed, **fields)
    if args.dry_run:
        print("config ok")
        return EXIT_OK
    with _stage("search certification", "lower c_x or c_y"):
        result = search.search_pair(spec)
    out = {
        "trial": result.trial,
        "seed": result.seed,
        "epsilon": str(result.epsilon),
        "gen_sets_x": [list(s) for s in result.gen_sets_x],
        "gen_sets_y": [list(s) for s in result.gen_sets_y],
        "cert_x": result.cert_x.to_json(),
        "cert_y": result.cert_y.to_json(),
        "inequalities": result.inequalities,
        "log": list(result.log),
    }
    out_dir = Path(args.out)
    with _writing_outputs(args.out):
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "search_result.json").write_text(
            json.dumps(out, indent=2, sort_keys=True) + "\n"
        )
    print(
        f"best trial {result.trial}: epsilon={result.epsilon} -> {out_dir}"
    )
    return EXIT_OK


def cmd_demo_sharp(args) -> int:
    from . import analysis, products

    if args.config:
        inputs = _build_config(args.config)[0]
    else:
        inputs = (make_cyclic(8), [1, 2], [1, 3])
    bp = products.left_right_cayley(*inputs)
    c1 = analysis.sharp_example(bp, 0)
    norm1 = analysis.weighted_norm(c1, bp)
    norm0 = analysis.c0_weighted_norm(analysis.boundary_1(bp, c1), bp)
    print(f"half-neighborhood vector on |G|={bp.group.order}:")
    print(f"  weighted norm of c1      = {norm1}")
    print(f"  weighted norm of its boundary = {norm0}")
    print(f"  ratio = {norm0 / norm1} (the inequality's constant is sharp at 1/2)")
    return EXIT_OK


def _positive_int(text: str) -> int:
    """``text`` read as an ``int`` and held to ``_at_least``'s rule; the usage
    error quotes ``text`` as given."""
    try:
        return _at_least(int(text), 1, "--budget")
    except (ValueError, InvalidParameterError):
        raise ValueError(f"must be an integer >= 1, got {text!r}") from None


_PROG = "expander-ltc"
_REQUIRED = object()  # the default of a flag that must be given
_CONFIG = (str, _REQUIRED, "the JSON config file")
_OUT = (str, "out", "the output directory")
_DRY_RUN = (None, False, "check the config, build nothing and exit")

# subcommand -> (help line, {flag: (converter, default, help)}); a converter
# of None marks a switch, which takes no value and is True when given
_COMMANDS = {
    "build": ("construct a code and write its report", {
        "--config": _CONFIG,
        "--out": _OUT,
        "--budget": (
            _positive_int, DEFAULT_ENUM_BUDGET,
            "the cap on the distance and d_lm searches (supports, then sweep "
            "steps) and the LT profile (2^n00 preimages); a distance over it "
            "is skipped",
        ),
        "--deterministic": (None, False, "leave the timestamp out of report.json"),
        "--dry-run": _DRY_RUN,
    }),
    "verify": ("run the structural check suite", {
        "--config": _CONFIG,
        "--suites": (str, ",".join(_VERIFY_SUITES), "comma-separated suites to run"),
        "--dry-run": _DRY_RUN,
    }),
    "search": ("random search for expanding factors", {
        "--config": _CONFIG,
        "--out": _OUT,
        "--seed": (int, 0, "the seed of the random generating sets"),
        "--dry-run": _DRY_RUN,
    }),
    "demo-sharp": ("show the half-neighborhood vector attaining ratio 1/2", {
        "--config": (str, None, "the JSON config file; Z8, a=[1,2], b=[1,3] if absent"),
    }),
}


def _spelled(flag: str, convert) -> str:
    return flag if convert is None else f"{flag} {flag[2:].upper().replace('-', '_')}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: {_PROG} [-h] {{{','.join(_COMMANDS)}}} ..."
    words = [f"usage: {_PROG} {command} [-h]"]
    for flag, (convert, default, _) in _COMMANDS[command][1].items():
        word = _spelled(flag, convert)
        words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words)


def _help(command: str | None) -> str:
    help_row = ("-h, --help", "show this help and exit")
    if command is None:
        intro = "Build and certify product codes from expanding Cayley factors."
        sections = {
            "commands": [(name, line) for name, (line, _) in _COMMANDS.items()],
            "options": [help_row],
        }
    else:
        intro, flags = _COMMANDS[command]
        rows = [help_row]
        for flag, (convert, default, text) in flags.items():
            if default is _REQUIRED:
                text += " (required)"
            elif convert is not None and default is not None:
                text += f" (default: {default})"
            rows.append((_spelled(flag, convert), text))
        sections = {"options": rows}
    width = max(len(name) for rows in sections.values() for name, _ in rows)
    lines = [_usage(command), "", intro]
    for title, rows in sections.items():
        lines += ["", f"{title}:"]
        lines += [f"  {name:<{width}}  {text}" for name, text in rows]
    return "\n".join(lines) + "\n"


def _usage_error(command: str | None, message: str):
    prog = _PROG if command is None else f"{_PROG} {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _is_value(token: str) -> bool:
    """Whether ``token`` can be a flag's value: it does not start with ``-``,
    or it is ``-`` itself or a negative number."""
    return (
        not token.startswith("-")
        or token == "-"
        or token[1:].replace(".", "", 1).isdecimal()
    )


def parse_args(argv=None) -> SimpleNamespace:
    """The subcommand and its flag values read from ``argv`` (default
    ``sys.argv[1:]``), as attributes ``command``, ``config``, ``dry_run``, ...

    A flag is given as ``--flag value`` or ``--flag=value``, or by any prefix
    that names one flag of the subcommand.  ``-h``/``--help`` prints help and
    exits 0; a usage error prints the usage line and the error to stderr and
    exits 2.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    command, rest = argv[0], argv[1:]
    if command in ("-h", "--help"):
        sys.stdout.write(_help(None))
        raise SystemExit(EXIT_OK)
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _usage_error(
            None,
            f"argument command: invalid choice: {command!r} (choose from {choices})",
        )
    flags = _COMMANDS[command][1]
    names = [*flags, "--help"]
    values = {flag: default for flag, (_, default, _) in flags.items()}
    extras = []
    i = 0
    while i < len(rest):
        token = rest[i]
        i += 1
        name, eq, value = token.partition("=")
        if token == "-h":
            name = "--help"
        if name in names:
            matches = [name]
        elif name.startswith("--") and len(name) > 2:
            matches = [f for f in names if f.startswith(name)]
        else:
            matches = []
        if not matches:
            extras.append(token)
            continue
        if len(matches) > 1:
            _usage_error(
                command, f"ambiguous option: {name} could match {', '.join(matches)}"
            )
        flag = matches[0]
        if flag == "--help":
            sys.stdout.write(_help(command))
            raise SystemExit(EXIT_OK)
        convert = flags[flag][0]
        if convert is None:
            if eq:
                _usage_error(
                    command, f"argument {flag}: ignored explicit argument {value!r}"
                )
            values[flag] = True
            continue
        if not eq:
            if i == len(rest) or not _is_value(rest[i]):
                _usage_error(command, f"argument {flag}: expected one argument")
            value = rest[i]
            i += 1
        try:
            values[flag] = convert(value)
        except ValueError as exc:
            _usage_error(command, f"argument {flag}: {exc}")
    missing = [flag for flag, value in values.items() if value is _REQUIRED]
    if missing:
        _usage_error(
            command, "the following arguments are required: " + ", ".join(missing)
        )
    if extras:
        _usage_error(command, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(
        command=command,
        **{flag[2:].replace("-", "_"): value for flag, value in values.items()},
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    # looked up at call time, so a wrapper installed on the module is called
    run = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PreconditionViolationError, VerificationError) as exc:
        print(f"analysis failure: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except ExpanderLtcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    """The process entry of ``python -m expander_ltc.cli`` and ``expander-ltc``.

    The exit status is ``main``'s code (or that of ``--help`` or a usage
    error).  Both standard streams are flushed, then ``os._exit`` ends the
    process without interpreter finalization.  An ``OSError`` on standard
    output, from a ``print`` or the final flush (a pipe whose reader has
    closed, a full disk), exits 2 with one line on stderr.  ``main`` maps
    every other file error to a config error, so one that reaches here came
    from a standard stream.
    """
    try:
        try:
            status = main()
        except SystemExit as exc:  # --help, or a usage error
            status = exc.code
        _flush(sys.stdout)
    except OSError as exc:
        status = EXIT_USAGE
        with suppress(OSError):
            print(f"error: cannot write to standard output: {exc}", file=sys.stderr)
    with suppress(OSError):
        _flush(sys.stderr)
    os._exit(status)


def _flush(stream) -> None:
    """Flush a standard stream; it is ``None`` if its descriptor was closed
    when the process started."""
    if stream is not None:
        stream.flush()


if __name__ == "__main__":
    entry()
