"""The library's records: read-only fields, equality by fields alone, cheap import."""

import copy
import inspect
import json
import pickle
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

import expander_ltc
from expander_ltc import analysis, f2, graphs, groups, products, search
from expander_ltc.errors import _record
from expander_ltc.groups import block_action, left_regular_action, make_cyclic, orbit_labeling
from lemma_checks import DegreeSplit

RECORDS = [
    cls
    for mod in (f2, groups, graphs, products, analysis, search)
    for name, cls in vars(mod).items()
    if inspect.isclass(cls)
    and cls.__module__ == mod.__name__
    and issubclass(cls, tuple)
    and not name.startswith("_")
]


def test_every_public_record_is_a_named_tuple():
    assert len(RECORDS) == 20
    assert all(cls._fields for cls in RECORDS)


# DegreeSplit, the record of the lemma checks beside the tests, keeps the contract
@pytest.mark.parametrize("cls", RECORDS + [DegreeSplit], ids=lambda cls: cls.__name__)
def test_fields_are_read_only(cls):
    record = cls._make(range(len(cls._fields)))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    # no instance dict: nothing but the fields can be stored on a record
    assert not hasattr(record, "__dict__")


# one record shape made both ways: the factory's class against namedtuple's
Point = _record("Point", ["x", "y", "z"], defaults=(0,))
NTPoint = namedtuple("NTPoint", ["x", "y", "z"], defaults=(0,))


class TestFactoryMatchesNamedtuple:
    @pytest.mark.parametrize("args, kwargs", [
        ((1, 2, 3), {}),
        ((1, 2), {}),
        ((), {"x": 1, "y": 2}),
        ((1,), {"z": 5, "y": 2}),
        ((), {"z": [], "y": None, "x": "a"}),
    ])
    def test_construction(self, args, kwargs):
        p, q = Point(*args, **kwargs), NTPoint(*args, **kwargs)
        assert tuple(p) == tuple(q)
        assert (p.x, p.y, p.z) == (q.x, q.y, q.z)
        assert repr(p).removeprefix("Point") == repr(q).removeprefix("NTPoint")

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),
        ((1,), {}),
        ((1, 2, 3, 4), {}),
        ((1, 2), {"x": 3}),
        ((1, 2), {"w": 3}),
    ])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            NTPoint(*args, **kwargs)
        with pytest.raises(TypeError):
            Point(*args, **kwargs)

    def test_class_attributes(self):
        for attr in ("_fields", "__match_args__"):
            assert getattr(Point, attr) == getattr(NTPoint, attr)
        assert Point.__module__ == NTPoint.__module__ == __name__
        assert Point.__mro__[1:] == (tuple, object)

    def test_make_and_replace(self):
        p, q = Point._make([1, 2, 3]), NTPoint._make([1, 2, 3])
        assert type(p) is Point and tuple(p) == tuple(q)
        assert tuple(p._replace(y=7)) == tuple(q._replace(y=7)) == (1, 7, 3)
        assert type(p._replace(y=7)) is Point
        with pytest.raises(TypeError):
            Point._make([1, 2])
        with pytest.raises(ValueError, match="'w'"):
            p._replace(w=1)

    def test_equality_and_hash_are_the_tuple_s(self):
        p = Point(1, 2)
        assert p == (1, 2, 0) == NTPoint(1, 2) and p != Point(1, 2, 1)
        assert hash(p) == hash((1, 2, 0)) == hash(NTPoint(1, 2))

    def test_fields_are_read_only(self):
        p = Point(1, 2)
        with pytest.raises(AttributeError):
            p.x = 5
        assert not hasattr(p, "__dict__")

    def test_copy_and_pickle_round_trip(self):
        p = Point(1, [2], {"z": 3})
        assert p.__getnewargs__() == NTPoint(*p).__getnewargs__() == (1, [2], {"z": 3})
        for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(clone) is Point and clone == p

    def test_match_statement_binds_by_position(self):
        match Point(1, 2):
            case Point(a, b, c):
                assert (a, b, c) == (1, 2, 0)


class TestMemo:
    """No record keeps a memo, so equal fields give equal, equally hashed records."""

    def test_orbit_labeling_equal_and_hashed_by_its_fields(self):
        action = block_action(left_regular_action(make_cyclic(4)), 3)
        a, b = orbit_labeling(action), orbit_labeling(action)
        assert a == b
        assert hash(a) == hash(b)


def test_cli_import_leaves_dataclasses_out():
    # -S: site hooks of the interpreter's installation do not count
    src = str(Path(expander_ltc.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import expander_ltc.cli; "
        "print(sorted(sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "'dataclasses'" not in proc.stdout
    assert "'expander_ltc.cli'" in proc.stdout


_PACKAGE = Path(expander_ltc.__file__).resolve().parent
_SUBMODULES = {f"expander_ltc.{p.stem}" for p in _PACKAGE.glob("*.py")} - {
    "expander_ltc.__init__"
}
_BUILD_Z8 = {"group": {"kind": "cyclic", "n": 8}, "a_set": [1, 2], "b_set": [1, 3]}
_SEARCH_Z6 = {
    "group": {"kind": "cyclic", "n": 6},
    "w_down": 2, "w_up": 2, "w_right": 2, "w_left": 2, "trials": 3,
}
_LATE = {"expander_ltc.analysis", "expander_ltc.formats"}
# a search, and a build that stops at --dry-run, builds no balanced product
# and sweeps nothing over GF(2)
_NO_PRODUCT = {"expander_ltc.products", "expander_ltc.f2", *_LATE}
# stdlib modules no run needs: the CLI reads its flags from a table, the
# records are tuples made by one factory and summary.csv is written as text
_NEVER = {"argparse", "gettext", "locale", "csv", "typing", "dataclasses"}


@pytest.mark.parametrize("argv, config, absent", [
    (None, None, _SUBMODULES),
    ([], None, {"expander_ltc.search", *_LATE}),
    (["build", "--dry-run"], _BUILD_Z8, {"expander_ltc.search", *_NO_PRODUCT}),
    (["build"], _BUILD_Z8, {"expander_ltc.search"}),
    (["search", "--dry-run"], _SEARCH_Z6, _NO_PRODUCT),
    (["search"], _SEARCH_Z6, _NO_PRODUCT),
], ids=["import", "cli-import", "build-dry-run", "build", "search-dry-run", "search"])
def test_each_run_loads_only_its_layers(tmp_path, argv, config, absent):
    # -S: site hooks of the interpreter's installation preload nothing
    listing = tmp_path / "modules.txt"
    if argv is None:
        run = "import expander_ltc; code = 0"
    elif not argv:
        run = "import expander_ltc.cli; code = 0"
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
        if "--dry-run" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        run = f"from expander_ltc.cli import main; code = main({argv!r})"
    code = (
        f"import sys; sys.path.insert(0, {str(_PACKAGE.parent)!r}); {run}; "
        f"open({str(listing)!r}, 'w').write(' '.join(sys.modules)); sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(listing.read_text().split())
    assert not loaded & (absent | _NEVER)


def test_no_library_record_is_made_by_namedtuple():
    # a namedtuple record compiles its __new__ in every fresh process; a child
    # whose namedtuple refuses the package's modules imports each of them
    code = "\n".join([
        f"import sys; sys.path.insert(0, {str(_PACKAGE.parent)!r})",
        "import collections, importlib",
        "original = collections.namedtuple",
        "def refuse(*args, **kwargs):",
        "    caller = sys._getframe(1).f_globals.get('__name__', '')",
        "    if caller.startswith('expander_ltc'):",
        "        raise RuntimeError(f'{caller} makes a record with namedtuple')",
        "    return original(*args, **kwargs)",
        "collections.namedtuple = refuse",
        f"for name in {sorted(_SUBMODULES)!r}:",
        "    importlib.import_module(name)",
    ])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
