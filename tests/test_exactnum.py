"""Exact Gaussian-rational arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multfiber.errors import UnitMultiplierError
from multfiber.exactnum import (
    GaussianRational,
    I,
    ONE,
    as_gaussian,
    multiplier_from_shift,
    reciprocal_shift,
)

fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
gaussians = st.builds(GaussianRational, fractions, fractions)


def test_basic_arithmetic_examples():
    half = as_gaussian("1/2")
    third = as_gaussian("1/3")
    assert half + third == as_gaussian("5/6")
    assert I * I == as_gaussian(-1)
    assert ONE / (ONE - as_gaussian(2)) == as_gaussian(-1)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / GaussianRational(0)


def test_mixed_int_fraction_operands():
    x = as_gaussian("1/2")
    assert 1 + x == as_gaussian("3/2")
    assert 2 * x == ONE
    assert 1 - x == x
    assert 1 / as_gaussian(2) == as_gaussian("1/2")


@given(gaussians, gaussians)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(gaussians, gaussians, gaussians)
def test_field_axioms_on_random_triples(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(gaussians)
def test_division_inverts_multiplication(a):
    b = GaussianRational(Fraction(3, 7), Fraction(-2, 5))
    assert (a * b) / b == a


@given(gaussians)
def test_parse_format_round_trip(a):
    assert GaussianRational.parse(str(a)) == a


def test_parse_forms():
    assert GaussianRational.parse("3") == as_gaussian(3)
    assert GaussianRational.parse("-1/2") == GaussianRational(Fraction(-1, 2))
    assert GaussianRational.parse("1/2+3i") == GaussianRational(
        Fraction(1, 2), Fraction(3)
    )
    assert GaussianRational.parse("-2-1/3i") == GaussianRational(
        Fraction(-2), Fraction(-1, 3)
    )
    assert GaussianRational.parse("0+1i") == I
    for bad in ["", "i", "1/0", "1 + 2i", "2x"]:
        with pytest.raises(ValueError):
            GaussianRational.parse(bad)


def test_format_is_compact():
    assert str(as_gaussian("1/2")) == "1/2"
    assert str(as_gaussian(-3)) == "-3"
    assert str(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert str(I) == "0+1i"


def test_reciprocal_shift_examples():
    assert reciprocal_shift(0) == ONE
    assert reciprocal_shift(2) == as_gaussian(-1)
    with pytest.raises(UnitMultiplierError, match="multiplier 1 has no reciprocal shift"):
        reciprocal_shift(1)


@given(gaussians)
def test_reciprocal_shift_round_trip(lam):
    if lam == ONE:
        return
    assert multiplier_from_shift(reciprocal_shift(lam)) == lam


def test_values_are_immutable_and_hashable():
    a = as_gaussian("1/2+3i")
    assert hash(a) == hash(GaussianRational(Fraction(1, 2), Fraction(3)))
    with pytest.raises(AttributeError):
        a.re = Fraction(1)
