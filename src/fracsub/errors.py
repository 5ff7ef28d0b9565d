"""Exception hierarchy shared by every fracsub module.

The split mirrors the CLI exit codes: malformed input data (2),
violated operation preconditions (3), and broken internal
equivalences (4, apart from 1, a false verdict).  The last kind
should never fire on correct code; it exists so that paired
computations which must agree crash loudly instead of returning a
silently wrong verdict.
"""

from __future__ import annotations


class FracsubError(Exception):
    """Base class for all package errors."""


class ValidationError(FracsubError, ValueError):
    """Malformed or out-of-range input data (bad JSON, bad mask, bad pmf)."""


class PreconditionError(FracsubError):
    """Structurally valid input that violates an operation's precondition.

    Carries an optional ``witness`` (e.g. the subset pair breaking
    monotonicity) and a free-form ``note`` with extra computed context.
    """

    def __init__(self, message: str, *, witness=None, note: str | None = None):
        super().__init__(message)
        self.witness = witness
        self.note = note


class ConsistencyError(FracsubError):
    """Two independently computed sides of an asserted equivalence disagree.

    Indicates a bug in this package (or a genuinely adversarial
    floating-point borderline), never a user error.
    """

    def __init__(self, message: str, *, report=None):
        super().__init__(message)
        self.report = report
