"""Expression parser: grammar coverage, precedence, exact positions in
error messages, and the printer round trip."""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings

from adaptcoord import BiPoly, parse
from adaptcoord.errors import (
    NonIntegerExponent,
    PolySyntaxError,
    UnknownVariable,
)
from adaptcoord.parsing import MAX_NESTING
from conftest import bipolys


def test_monomials_and_aliases():
    assert parse("x1") == BiPoly.monomial(1, 0)
    assert parse("x") == BiPoly.monomial(1, 0)
    assert parse("x2") == BiPoly.monomial(0, 1)
    assert parse("y") == BiPoly.monomial(0, 1)
    assert parse("x^2*y") == parse("x1^2*x2")


def test_rational_coefficients():
    f = parse("1/2*x1*x2 - 3*x2^2")
    assert f.coeff(1, 1) == Fraction(1, 2)
    assert f.coeff(0, 2) == -3


def test_precedence_and_parentheses():
    assert parse("x1 + x2*x1^2") == parse("x1 + (x2*(x1^2))")
    assert parse("(x1 + x2)^2") == parse("x1^2 + 2*x1*x2 + x2^2")
    assert parse("-x1^2") == -parse("x1^2")  # unary minus binds the power
    assert parse("2^3*x1") == parse("8*x1")
    assert parse("x1 - x2 - x2") == parse("x1 - 2*x2")


def test_exponent_forms():
    assert parse("x1^(2)") == parse("x1^2")
    assert parse("x1^0") == BiPoly.constant(1)
    assert parse("0") == BiPoly.zero()


def test_no_implicit_multiplication():
    with pytest.raises(PolySyntaxError):
        parse("2x1")
    with pytest.raises(PolySyntaxError):
        parse("x1 x2")
    with pytest.raises(PolySyntaxError):
        parse("(x1+x2)(x1-x2)")


def test_unknown_variable_is_reported_with_position():
    with pytest.raises(UnknownVariable) as err:
        parse("x1 + z^2")
    assert err.value.line == 1
    assert err.value.col == 6
    assert "(line 1, column 6)" in str(err.value)


def test_fractional_exponent_rejected():
    with pytest.raises(NonIntegerExponent):
        parse("x1^(3/2)")
    with pytest.raises(NonIntegerExponent):
        parse("x2^(-1)")


def test_syntax_error_positions():
    with pytest.raises(PolySyntaxError) as err:
        parse("x1 + * x2")
    assert (err.value.line, err.value.col) == (1, 6)
    with pytest.raises(PolySyntaxError) as err:
        parse("x1 + (x2")
    assert err.value.line == 1
    with pytest.raises(PolySyntaxError):
        parse("")
    with pytest.raises(PolySyntaxError):
        parse("x1 +")


def test_non_ascii_digits_are_unexpected_characters():
    # str.isdigit holds for all three; int("2²") fails and int("٣") is 3
    for src, col, ch in [
        ("x1^2 + 2²*x2^2", 9, "²"),
        ("x1^2 + x2^²", 11, "²"),
        ("x1^2 + ٣*x2^2", 8, "٣"),
    ]:
        with pytest.raises(PolySyntaxError) as err:
            parse(src)
        assert (err.value.line, err.value.col) == (1, col)
        assert f"unexpected character {ch!r}" in str(err.value)


def test_multiline_positions():
    with pytest.raises(PolySyntaxError) as err:
        parse("x1^2 +\n  %x2")
    assert err.value.line == 2
    assert err.value.col == 3


def test_nesting_past_the_bound_is_a_syntax_error():
    def nested(n: int) -> str:
        return "(" * n + "x1^2" + ")" * n

    assert parse(nested(MAX_NESTING)) == parse("x1^2")
    for n in (MAX_NESTING + 1, 250, 5000):
        with pytest.raises(PolySyntaxError) as err:
            parse(nested(n))
        assert (err.value.line, err.value.col) == (1, MAX_NESTING + 1)
    # the bound is on depth, not on the number of parentheses
    assert parse(" + ".join([nested(MAX_NESTING)] * 3)) == parse("3*x1^2")


@pytest.mark.parametrize(
    "template, col",
    [("x2^2 + {}*x1^2", 8), ("x2^2 + 1/{}*x1^2", 10), ("x2^2 + x1^{}", 11)],
)
def test_a_literal_past_the_digit_limit_is_a_syntax_error(template, col):
    # int() refuses a digit string past the interpreter's limit (4,300 by
    # default): a coefficient, a denominator and an exponent each name it
    with pytest.raises(PolySyntaxError) as err:
        parse(template.format("1" * 5000))
    assert (err.value.line, err.value.col) == (1, col)
    limit = sys.get_int_max_str_digits()
    assert f"literal of 5000 digits exceeds the limit of {limit} digits" in str(err.value)


def test_zero_denominator_rejected():
    with pytest.raises(PolySyntaxError):
        parse("1/0*x1^2")


def test_printer_examples():
    assert str(parse("x2^2 + x1^4 - 2*x1^2*x2")) == "x2^2 - 2*x1^2*x2 + x1^4"
    assert str(BiPoly.zero()) == "0"
    assert str(BiPoly.constant(Fraction(-1, 2))) == "-1/2"
    assert str(parse("x1*x2")) == "x1*x2"


@given(bipolys(min_terms=0, max_terms=7))
@settings(max_examples=120)
def test_parse_inverts_str(f):
    assert parse(str(f)) == f


def test_parse_is_linear_in_the_summands():
    # 6,400 terms with 64-bit coefficients: folding the sum one summand
    # at a time copies the running sum at each `+` and takes several
    # seconds; one term map for the whole sum takes under one
    rng = Random(7)
    f = BiPoly({
        (j, k): rng.choice((-1, 1)) * rng.randint(1, 2**64)
        for j in range(80)
        for k in range(80)
    })
    src = str(f)
    start = time.perf_counter()
    g = parse(src)
    elapsed = time.perf_counter() - start
    assert g == f
    assert elapsed < 3.0, f"parsing {len(f.num)} terms took {elapsed:.2f}s"
