"""The literal form of exact values, and the Fraction-based field it is checked against."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multfiber.errors import UnitMultiplierError
from multfiber.exactnum import format_literal, gaussian_parts, parse_literal
from reference import (
    ONE,
    GaussianRational,
    I,
    as_gaussian,
    multiplier_from_shift,
    reciprocal_shift,
)

fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
gaussians = st.builds(GaussianRational, fractions, fractions)
# (x, y, n) with n > 0, often not in lowest terms
triples = st.tuples(
    st.integers(-10**30, 10**30) | st.integers(-60, 60),
    st.integers(-10**30, 10**30) | st.integers(-60, 60),
    st.integers(1, 10**20) | st.integers(1, 60),
)


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


@given(triples)
def test_parse_format_round_trip(t):
    x, y, n = t
    value = GaussianRational(Fraction(x, n), Fraction(y, n))
    text = format_literal(*t)
    assert text == str(value)
    assert as_gaussian(parse_literal(text)) == value
    assert parse_literal(text) == value.parts()  # written in lowest terms


def test_parse_forms():
    assert parse_literal("3") == (3, 0, 1)
    assert parse_literal("-1/2") == (-1, 0, 2)
    assert parse_literal(" 2/4 ") == (2, 0, 4)  # read as written, not reduced
    assert parse_literal("1/2+3i") == (1, 6, 2)
    assert parse_literal("-2-1/3i") == (-6, -1, 3)
    assert parse_literal("0+1i") == parse_literal("1i") == (0, 1, 1)
    assert parse_literal("12i") == (0, 12, 1)
    assert parse_literal("1/6+5/6i") == (1, 5, 6)  # one shared denominator
    assert parse_literal("1/2+1/3i") == (3, 2, 6)
    assert parse_literal("٣/٤") == (3, 0, 4)  # Unicode decimal digits
    for bad in ["", "i", "1/0", "1 + 2i", "2x"]:
        with pytest.raises(ValueError):
            parse_literal(bad)
    # the syntax of both terms is checked before either denominator
    for text, message in [
        ("1/0+1/i", "not a Gaussian rational literal: '1/0+1/i'"),
        ("1/0+xi", "not a Gaussian rational literal: '1/0+xi'"),
        ("1/0+2/0i", "zero denominator in literal: '1/0+2/0i'"),
    ]:
        with pytest.raises(ValueError) as fault:
            parse_literal(text)
        assert str(fault.value) == message


def test_format_is_compact():
    assert format_literal(1, 0, 2) == "1/2"
    assert format_literal(-6, 0, 2) == "-3"
    assert format_literal(0, 0, 7) == "0"
    assert format_literal(2, -3, 4) == "1/2-3/4i"
    assert format_literal(0, 1, 1) == "0+1i"
    assert format_literal(4, 6, 2) == "2+3i"


def test_gaussian_parts_takes_literals_triples_and_real_numbers():
    assert gaussian_parts("1/2+3i") == (1, 6, 2)
    assert gaussian_parts((2, -4, 6)) == (2, -4, 6)
    assert gaussian_parts(3) == (3, 0, 1)
    assert gaussian_parts(-0.75) == (-3, 0, 4)
    assert gaussian_parts(Fraction(4, 6)) == (2, 0, 3)
    assert gaussian_parts(np.int64(-5)) == (-5, 0, 1)
    for bad in [(1, 2, 0), (1, 2, -3), (1, 2), (1, 2, 3, 4), (1.0, 0, 1), (True, 0, 1)]:
        with pytest.raises(ValueError, match="not a Gaussian rational triple"):
            gaussian_parts(bad)
    with pytest.raises(ValueError):
        gaussian_parts(float("nan"))
    with pytest.raises(OverflowError):
        gaussian_parts(float("inf"))
    with pytest.raises(TypeError):
        gaussian_parts(None)


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
