"""Exception taxonomy shared across the library, its scalar rules, and its
record factory.

Every message names the offending key, side or vertex, so a caller can print
a useful diagnostic without re-running the computation.  Only a budget error
(its figures) and a freeness error (its witness) carry a payload.

``_at_least``, ``_index`` and ``_cutoff`` are the one statement of each
scalar rule: every library call, and the CLI's config layer, checks a size,
an index or a cutoff through them.  ``_record`` makes the library's record
classes.  Both live here because every module already imports this one.
"""

from __future__ import annotations

import sys
from collections import _tuplegetter
from fractions import Fraction

# the one default budget of every GF(2) sweep, here so that a search loads no f2
DEFAULT_ENUM_BUDGET = 1 << 24


class ExpanderLtcError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(ExpanderLtcError):
    """An argument is outside its documented domain."""


class SizeLimitError(ExpanderLtcError):
    """A construction would exceed the configured size cap."""


class FreenessViolationError(ExpanderLtcError):
    """A group action expected to be free has a fixed point.

    ``witness`` is a pair ``(g, x)`` with ``g`` non-identity and ``g.x == x``.
    """

    def __init__(self, message: str, witness: tuple[int, int]):
        super().__init__(message)
        self.witness = witness


class IrregularGraphError(ExpanderLtcError):
    """A graph expected to be biregular has a vertex of deviant degree."""


class BudgetExceededError(ExpanderLtcError):
    """An exhaustive enumeration would exceed its evaluation budget."""

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(message)
        self.required = required
        self.budget = budget


class MultiplicityViolationError(ExpanderLtcError):
    """Quotienting or merging created a doubled incidence.

    Doubled incidences would silently cancel in GF(2) adjacency matrices, so
    they are rejected with a diagnostic instead.
    """


class InvalidWedgeError(ExpanderLtcError):
    """The three vertices passed to square completion do not form a wedge."""


class PreconditionViolationError(ExpanderLtcError):
    """A lemma's smallness or parity precondition is not met."""


class DegenerateCodeError(ExpanderLtcError):
    """The code equals the full space, so distance-to-code is always zero."""


class ConfigError(ExpanderLtcError):
    """A pipeline configuration failed schema validation."""


class VerificationError(ExpanderLtcError):
    """A check that a theorem guarantees failed on the instance at hand.

    Raised instead of a bare ``assert`` so the check also runs under
    ``python -O``; it points at a bug, not at a bad input.
    """


def _at_least(value: int, minimum: int, what: str) -> int:
    """``value`` if it is an ``int`` (a bool is not one) of at least
    ``minimum``, else ``InvalidParameterError`` naming ``what``."""
    if type(value) is not int or value < minimum:
        raise InvalidParameterError(
            f"{what} must be an integer >= {minimum}, got {value!r}"
        )
    return value


def _index(i: int, size: int, what: str) -> int:
    """``i`` if it is an ``int`` (a bool is not one) in ``0..size-1``, else
    ``InvalidParameterError`` naming ``what``."""
    if type(i) is not int or not 0 <= i < size:
        raise InvalidParameterError(f"{what} {i!r} is not an int in 0..{size - 1}")
    return i


def _cutoff(c: int | Fraction, what: str) -> int | Fraction:
    """``c`` if it is an ``int`` (a bool is not one) or a ``Fraction`` in
    (0, 1], else ``InvalidParameterError`` naming ``what``."""
    if not ((type(c) is int or isinstance(c, Fraction)) and 0 < c <= 1):
        raise InvalidParameterError(
            f"{what} must be an int or a Fraction in (0, 1], got {c!r}"
        )
    return c


def _record(name: str, fields: list[str], defaults: tuple = ()) -> type:
    """A tuple subclass with named fields, as ``collections.namedtuple`` makes
    one, but built without compiling code.

    The class keeps the contract the library's records rely on: construction
    by position or keyword with ``defaults`` for the last fields, ``_fields``,
    ``_make`` and ``_replace``, read-only fields, no instance dict, a
    ``Name(field=value, ...)`` repr, equality and hash as a tuple,
    ``__getnewargs__`` and ``__match_args__``.  ``__module__`` is the
    caller's module, so records pickle.  Exactly ``len(fields)`` positional
    arguments go straight to ``tuple.__new__``.
    """
    fields = tuple(fields)
    n = len(fields)
    field_defaults = dict(zip(fields[n - len(defaults):], defaults))
    tuple_new = tuple.__new__
    repr_fmt = "(" + ", ".join(f"{f}=%r" for f in fields) + ")"

    def bind(args: tuple, kwargs: dict) -> list:
        if len(args) > n:
            raise TypeError(
                f"{name}() takes {n} positional arguments but {len(args)} were given"
            )
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in field_defaults:
                values.append(field_defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument: {field!r}")
        for key in kwargs:
            problem = "multiple values for" if key in fields else "an unexpected keyword"
            raise TypeError(f"{name}() got {problem} argument {key!r}")
        return values

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        return tuple_new(cls, args)

    def _make(cls, iterable):
        result = tuple_new(cls, iterable)
        if len(result) != n:
            raise TypeError(f"Expected {n} arguments, got {len(result)}")
        return result

    def _replace(self, /, **kwds):
        result = self._make(map(kwds.pop, fields, self))
        if kwds:
            raise ValueError(f"Got unexpected field names: {list(kwds)!r}")
        return result

    def __repr__(self):
        return self.__class__.__name__ + repr_fmt % self

    def __getnewargs__(self):
        return tuple(self)

    namespace = {
        "__doc__": f"{name}({', '.join(fields)})",
        "__slots__": (),
        "_fields": fields,
        "__new__": __new__,
        "_make": classmethod(_make),
        "_replace": _replace,
        "__repr__": __repr__,
        "__getnewargs__": __getnewargs__,
        "__match_args__": fields,
    }
    for index, field in enumerate(fields):
        namespace[field] = _tuplegetter(index, f"Alias for field number {index}")
    cls = type(name, (tuple,), namespace)
    cls.__module__ = sys._getframe(1).f_globals.get("__name__", "__main__")
    return cls
