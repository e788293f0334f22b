"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything coming out of the simulators and checkers with one handler.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ModelError(ReproError):
    """An automaton or system model is ill-formed.

    Raised, for example, when two composed automata share an output action,
    when an input action is not enabled in some state (violating input
    enabling), or when a transition is requested for an action outside the
    automaton's signature.
    """


class ExecutionError(ReproError):
    """An execution or schedule is invalid for the model it runs against."""


class InvariantViolation(ReproError):
    """A safety property was violated during simulation or exploration.

    Carries the offending execution fragment when available so tests and
    examples can print a minimal counterexample.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class SearchBudgetExceeded(ReproError):
    """An exhaustive search exceeded its configured state/depth budget."""


class EncodingOverflow(SearchBudgetExceeded):
    """A configuration does not fit the fixed-width integer code of a
    search kernel (for example, more copies of one message in flight
    than its count field holds).

    The kernel raises this instead of letting a field carry into its
    neighbour, so an over-large model ends the search with a structured
    error, never a wrong answer.  ``field`` names the overflowing field,
    ``limit`` is the largest value it can hold.
    """

    def __init__(self, message: str, field=None, limit=None):
        super().__init__(message)
        self.field = field
        self.limit = limit


class CertificateError(ReproError):
    """A machine-checked certificate failed re-validation."""
