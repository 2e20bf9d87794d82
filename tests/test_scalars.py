import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flipcayley import AdditiveMap, AlgebraElement, named, tower
from flipcayley.scalars import format_rational, parse_rational, simplify

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=60)


def test_add():
    assert simplify(Fraction(1, 2) + Fraction(1, 3)) == Fraction(5, 6)


def test_inv_of_negative_integer():
    assert simplify(1 / Fraction(-2)) == Fraction(-1, 2)


def test_mul_inverse_pair():
    assert simplify(Fraction(2, 3) * Fraction(3, 2)) == 1


def test_neg():
    assert -Fraction(1, 2) == Fraction(-1, 2)


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        simplify(1 / Fraction(0))


def test_whole_numbers_collapse_to_int():
    assert simplify(Fraction(4, 2)) == 2
    assert isinstance(simplify(Fraction(4, 2)), int)
    assert isinstance(simplify(Fraction(1, 2) + Fraction(1, 2)), int)


def test_int_subclasses_collapse_to_int():
    assert type(simplify(True)) is int and simplify(True) == 1
    assert type(simplify(False)) is int
    element = named("C").element([True, 0])
    assert element.coords == (1, 0) and type(element.coords[0]) is int
    assert format_rational(True) == "1"


@pytest.mark.parametrize("value", [0.5, 1.0, "1/2", None, complex(1, 0)])
def test_non_rational_scalars_rejected(value):
    with pytest.raises(TypeError):
        simplify(value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: tower([0.5]),
        lambda: named("H").element([0.5, 0, 0, 0.1]),
        lambda: AlgebraElement([0.5, 0, 0, 0.1]),
        lambda: AdditiveMap([[0.5]], "sigma"),
    ],
    ids=["tower", "element", "algebra_element", "additive_map"],
)
def test_float_entry_points_rejected(build):
    with pytest.raises(TypeError):
        build()


def test_parse_and_format():
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(8, 4)) == "2"
    assert parse_rational("7") == 7


def test_parse_rational_zero_denominator_is_a_value_error():
    for text in ("1/0", "-3/0", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)


@pytest.mark.parametrize(
    "text",
    # floats' forms, underscores, non-ASCII digits, spaces inside, stray signs
    ["1e2", "0.5", "1.", ".5", "1_0", "\u0661", "1/\u0662", "1 / 2", "- 1", "+-1", "1/-2"]
    + ["", "/2", "2/", "inf", "nan"],
)
def test_parse_rational_reads_only_p_or_p_over_q(text):
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational(text)


def test_parse_rational_allows_a_sign_and_spaces_around():
    assert parse_rational(" -3/6 ") == Fraction(-1, 2)
    assert parse_rational("+4\t") == 4


def test_rat_constructor_canonical():
    v = simplify(Fraction(6, -4))
    assert v == Fraction(-3, 2)
    assert v.denominator == 2


@given(a=rationals, b=rationals, c=rationals)
def test_field_axioms(a, b, c):
    assert simplify(simplify(a + b) + c) == simplify(a + simplify(b + c))
    assert simplify(simplify(a * b) * c) == simplify(a * simplify(b * c))
    assert simplify(a + b) == simplify(b + a)
    assert simplify(a * b) == simplify(b * a)
    assert simplify(a * simplify(b + c)) == simplify(simplify(a * b) + simplify(a * c))


@given(a=rationals, b=rationals)
def test_canonical_form_preserved(a, b):
    for value in (simplify(a + b), simplify(a * b), -a):
        if isinstance(value, Fraction):
            assert value.denominator > 0
            assert math.gcd(value.numerator, value.denominator) == 1
        # round-trip through the textual form is lossless
        assert parse_rational(format_rational(value)) == value


@given(a=rationals)
def test_inverse_cancels(a):
    if a != 0:
        assert simplify(a * (1 / a)) == 1
