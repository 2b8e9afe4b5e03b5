from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from casorati.scalars import (
    GR_I,
    GR_ONE,
    GaussianRational,
    format_rational,
    i_power,
    parse_gaussian,
    rational,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
gaussians = st.builds(GaussianRational, rationals, rationals)


@given(gaussians, gaussians, gaussians)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians, gaussians)
def test_field_division(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a / b) * b == a


@given(gaussians)
def test_conjugation(z):
    assert z.conjugate().conjugate() == z
    assert (z * z.conjugate()).im == 0
    assert z.conjugate().re == z.re and z.conjugate().im == -z.im


def test_i_arithmetic():
    assert GR_I * GR_I == GaussianRational(-1)
    assert i_power(0) == GR_ONE
    assert i_power(2) == GaussianRational(-1)
    assert i_power(5) == GR_I
    assert i_power(-1) == -GR_I


@given(gaussians)
def test_format_parse_roundtrip(z):
    assert parse_gaussian(str(z)) == z


def test_rational_parsing():
    assert rational("3/4") == Fraction(3, 4)
    assert rational("-7") == Fraction(-7)
    assert rational(Fraction(2, 6)) == Fraction(1, 3)
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert format_rational(Fraction(5)) == "5"


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GR_ONE / GaussianRational(0, 0)


def test_other_operand_types_get_their_turn():
    """An operand as_gaussian cannot coerce gets NotImplemented, so Poly's
    reflected methods answer, as they do for Fraction."""
    from casorati.poly import Poly

    x = Poly.x()
    assert GaussianRational(0, 1) * x == Poly([0, GR_I])
    assert GaussianRational(1) + x == Fraction(1) + x == Poly([1, 1])
    assert GaussianRational(1) - x == Poly([1, -1])
    with pytest.raises(TypeError):
        GaussianRational(1) + object()
    with pytest.raises(TypeError):
        object() / GaussianRational(1)
