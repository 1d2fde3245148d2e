"""Exception taxonomy shared across the library.

Every failure mode carries enough context (witnesses, offending keys) for a
caller to print a useful diagnostic without re-running the computation.
"""

from __future__ import annotations


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

    def __init__(self, message: str, side: int, vertex: int):
        super().__init__(message)
        self.side = side
        self.vertex = vertex


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


class SearchExhaustedError(ExpanderLtcError):
    """No trial of a randomized search produced a certifiable candidate."""

    def __init__(self, message: str, trial_log: list):
        super().__init__(message)
        self.trial_log = trial_log


class ConfigError(ExpanderLtcError):
    """A pipeline configuration failed schema validation."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class VerificationError(ExpanderLtcError):
    """A check that a theorem guarantees failed on the instance at hand.

    Raised instead of a bare ``assert`` so the check also runs under
    ``python -O``; it points at a bug, not at a bad input.
    """
