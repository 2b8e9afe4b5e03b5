import json
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from casorati.poly import (
    ExpPoly,
    ExpRatio,
    Poly,
    RationalFn,
    poly_gcd,
    poly_products_equal,
    rational_reduce,
)
from casorati.scalars import GaussianRational, working_precision

x = Poly.x()

coeffs = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=6)
polys = st.builds(Poly, coeffs)
shifts = st.builds(GaussianRational,
                   st.fractions(min_value=-5, max_value=5, max_denominator=3),
                   st.fractions(min_value=-5, max_value=5, max_denominator=3))


@given(polys, shifts, shifts)
@settings(max_examples=60)
def test_shift_composes(p, d1, d2):
    assert p.shift(d1).shift(d2) == p.shift(d1 + d2)


def test_shift_examples():
    assert (x * x).shift(0) == x * x
    assert x.shift(GaussianRational(0, Fraction(1, 2))) == Poly([GaussianRational(0, Fraction(1, 2)), 1])
    assert (x * x).shift(GaussianRational(0, 1)) == Poly([-1, GaussianRational(0, 2), 1])


def test_derivative_examples():
    assert (x ** 3).derivative() == 3 * x * x
    assert Poly.constant(Fraction(5, 2)).derivative().is_zero()
    f = ExpPoly(Poly.one(), a=-1)
    assert f.derivative() == ExpPoly(-x, a=-1)


@given(polys, polys)
@settings(max_examples=40)
def test_divmod_reconstructs(a, b):
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


def test_gcd_and_reduce():
    p = (x + 1) * (x - 2)
    q = (x + 1) * (x + 3)
    assert poly_gcd(p, q) == x + 1
    assert rational_reduce(x * x - 1, x - 1) == RationalFn(x + 1)
    r = rational_reduce(2 * x, Poly.constant(4))
    assert r.num == Poly([0, Fraction(1, 2)]) and r.den == Poly.one()
    assert rational_reduce(Poly.zero(), x) == RationalFn(Poly.zero())
    # reduce(a*p, a*q) == reduce(p, q) for nonzero scalar a
    assert rational_reduce(3 * (x + 1), 3 * (x * x)) == rational_reduce(x + 1, x * x)
    with pytest.raises(ZeroDivisionError):
        rational_reduce(x, Poly.zero())


def test_exp_poly_closure():
    f = ExpPoly(x, a=Fraction(1, 2), b=Fraction(-1))
    df = f.derivative()
    assert df.pair == f.pair
    assert df.p == Poly.one() + Poly([f.b / 2, f.a]) * x
    g = ExpPoly(x + 1, a=Fraction(-1, 2), b=Fraction(2))
    assert (f * g).pair == (Fraction(0), Fraction(1))


def test_exp_poly_finite_difference_bridge():
    """Formal ExpPoly derivative against a central difference, 128 bits."""
    rng = random.Random(9)
    with working_precision(128):
        h = mpmath.mpf("1e-8")
        for _ in range(10):
            p = Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(4)])
            f = ExpPoly(p, a=rng.choice([-1, 0, 1]), b=rng.choice([-1, 0, 1]))
            if f.is_zero():
                continue
            pt = mpmath.mpf(rng.randint(-30, 30)) / 16
            exact = f.derivative().eval_mpf(pt)
            approx = (f.eval_mpf(pt + h) - f.eval_mpf(pt - h)) / (2 * h)
            scale = max(abs(exact), mpmath.mpf(1))
            assert abs(exact - approx) / scale < mpmath.mpf("1e-6")


def test_exp_ratio_arithmetic():
    num = ExpPoly(x * x, a=-1)
    den = ExpPoly(x + 1, a=1)
    r = ExpRatio.from_exp_polys(num, den)
    assert r.pair == (Fraction(-2), Fraction(0))
    d = r.derivative()
    assert d.pair == r.pair
    with pytest.raises(ValueError):
        r + ExpRatio(RationalFn(x), a=Fraction(1))


def test_rational_fn_lazy_equality():
    a = RationalFn(x * x - 1, x - 1)
    b = RationalFn(x + 1)
    assert a == b
    assert a.reduce().den == Poly.one()
    assert (a - b).is_zero()


def test_poly_products_equal():
    lhs = [(x + 1, 2), ((x + 1) * (x - 3), 1)]
    rhs = [((x + 1) ** 3, 1), (x - 3, 1)]
    assert poly_products_equal(lhs, rhs)
    assert not poly_products_equal([(x, 1)], [(x + 1, 1)])
    assert poly_products_equal([(Poly.zero(), 1), (x, 5)], [(x - 1, 2), (Poly.zero(), 1)])
    assert not poly_products_equal([(Poly.zero(), 1)], [(x, 1)])


rationals = st.fractions(max_denominator=10 ** 12)
gaussian_polys = st.lists(st.builds(GaussianRational, rationals, rationals),
                          max_size=7).map(Poly)


@given(gaussian_polys)
def test_poly_serialize_round_trip(p):
    data = json.loads(json.dumps(p.serialize()))
    assert Poly.deserialize(data) == p


@given(gaussian_polys, rationals, rationals)
def test_exp_poly_serialize_round_trip(p, a, b):
    f = ExpPoly(p, a, b)
    back = ExpPoly.deserialize(json.loads(json.dumps(f.serialize())))
    assert (back.p, back.a, back.b) == (f.p, f.a, f.b)


def test_zero_poly_round_trip():
    assert Poly.zero().serialize() == []
    assert Poly.deserialize([]) == Poly.zero()
    zero = ExpPoly.deserialize(ExpPoly(Poly.zero(), -1, 1).serialize())
    assert zero.p.is_zero() and zero.pair == (-1, 1)
