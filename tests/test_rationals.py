from fractions import Fraction

import pytest

from fracsub.errors import ValidationError
from fracsub.rationals import (
    DEFAULT_TOL,
    coerce_scalar,
    effective_tol,
    format_rational,
    parse_rational,
    require_finite,
)


def test_parse_and_format_roundtrip():
    assert parse_rational("3/7") == Fraction(3, 7)
    assert parse_rational("-5") == Fraction(-5)
    assert format_rational(Fraction(3, 7)) == "3/7"
    assert format_rational(Fraction(4)) == "4"
    assert parse_rational(format_rational(Fraction(-22, 5))) == Fraction(-22, 5)


def test_parse_rational_decimal_strings_stay_exact():
    assert parse_rational("0.3") == Fraction(3, 10)
    assert parse_rational("5.3") == Fraction(53, 10)


def test_parse_rational_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_rational("three")
    with pytest.raises(ValidationError):
        parse_rational("1/0")
    with pytest.raises(ValidationError):
        parse_rational(7)  # type: ignore[arg-type]


def test_coerce_scalar():
    assert coerce_scalar(3) == Fraction(3)
    assert isinstance(coerce_scalar(3), Fraction)
    assert coerce_scalar(0.5) == 0.5
    assert isinstance(coerce_scalar(0.5), float)
    with pytest.raises(ValidationError):
        coerce_scalar(True)
    with pytest.raises(ValidationError):
        coerce_scalar("1/2")  # strings are a wire concern, not a scalar


def test_effective_tol_rational_is_exact_zero():
    t = effective_tol(True, 1e-3)
    assert t == 0 and isinstance(t, Fraction)


def test_effective_tol_float_defaults():
    assert effective_tol(False, None) == DEFAULT_TOL == 2.0**-30
    assert effective_tol(False, 1e-12) == 1e-12
    with pytest.raises(ValidationError):
        effective_tol(False, -1e-9)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_tolerances_are_rejected(bad):
    with pytest.raises(ValidationError, match="must be finite"):
        effective_tol(False, bad)
    with pytest.raises(ValidationError, match="must be finite"):
        effective_tol(True, bad)  # a bad argument, even where it is ignored
    with pytest.raises(ValidationError, match="epsilon must be finite"):
        require_finite(bad, "epsilon")


def test_require_finite_passes_finite_values_through():
    for value in (0, -3, Fraction(10**400, 3), 1e308, -0.0, 5e-324):
        assert require_finite(value, "x") is value
