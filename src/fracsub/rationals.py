"""Scalar conventions: exact rationals, binary64, and tolerances.

A set-function instance is either exact-rational (fractions.Fraction
throughout) or binary64 (Python float); the two are never mixed inside
one table.  Family weights are always rational.  Rational comparisons
are exact: any tolerance supplied for a rational instance is forced to
zero.  The default float tolerance is 2**-30 (the CLI reads FRACSUB_TOL
to override it).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import ValidationError

Scalar = Union[Fraction, float]

DEFAULT_TOL = 2.0 ** -30
PMF_SUM_TOL = 2.0 ** -40
GAUSS_TOL = 2.0 ** -25


def parse_rational(text: str) -> Fraction:
    """Parse the canonical "p/q" wire form (plain integers accepted)."""
    if not isinstance(text, str):
        raise ValidationError(f"expected rational string 'p/q', got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational {text!r}: {exc}") from None


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def coerce_scalar(value) -> Scalar:
    """Normalize a raw scalar: ints become Fractions, floats stay floats."""
    if isinstance(value, bool):
        raise ValidationError("bool is not a scalar value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, float)):
        return value
    raise ValidationError(f"unsupported scalar type {type(value).__name__}")


def require_finite(value, what: str):
    """Return value, or raise ValidationError if it is NaN or infinite."""
    if not isinstance(value, (int, Fraction)) and not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return value


def effective_tol(is_rational: bool, tol: float | None) -> Scalar:
    """Resolve a caller tolerance against the instance's scalar kind."""
    if tol is not None:
        require_finite(tol, "tolerance")
    if is_rational:
        return Fraction(0)
    if tol is None:
        return DEFAULT_TOL
    if tol < 0:
        raise ValidationError("tolerance must be nonnegative")
    return float(tol)
