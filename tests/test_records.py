"""The library's records: read-only fields, memos outside equality, cheap import."""

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import expander_ltc
from expander_ltc import analysis, f2, graphs, groups, products, search
from expander_ltc.analysis import CodeInstance, code_from_complex
from expander_ltc.groups import block_action, left_regular_action, make_cyclic, orbit_labeling
from expander_ltc.products import left_right_cayley

RECORDS = [
    cls
    for mod in (f2, groups, graphs, products, analysis, search)
    for name, cls in vars(mod).items()
    if inspect.isclass(cls)
    and cls.__module__ == mod.__name__
    and issubclass(cls, tuple)
    and not name.startswith("_")
]


def _complex():
    return left_right_cayley(make_cyclic(5), [1, 2], [1, 3])


def test_every_public_record_is_a_named_tuple():
    assert len(RECORDS) == 21
    assert all(cls._fields for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_are_read_only(cls):
    record = cls._make(range(len(cls._fields)))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


class TestMemo:
    def test_complex_memo_is_its_own_and_not_compared(self):
        a, b = _complex(), _complex()
        assert a.memo is not b.memo
        a.memo["key"] = 1
        assert b.memo == {}
        assert a == b

    def test_code_memo_is_its_own_unless_passed_and_not_compared(self):
        bp = _complex()
        code = code_from_complex(bp)
        code.memo["key"] = 1
        fields = (code.h, code.n, code.m, code.k, code.locality)
        a, b = CodeInstance(*fields), CodeInstance(*fields)
        assert a.memo is not b.memo
        assert a.memo == {}
        assert a == b == code

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
