import json
import math
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
from casorati.scalars import (
    GR_ZERO,
    GaussianRational,
    as_gaussian,
    mpf_from_rational,
    working_precision,
)

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


def exp_poly_value(f: ExpPoly, x0) -> mpmath.mpc:
    """f(x0) at the working precision: Horner on the polynomial part, each
    coefficient converted from its reduced fraction, times the prefactor."""
    acc = mpmath.mpc(0)
    for c in reversed(f.p.coeffs):
        acc = acc * x0 + mpmath.mpc(mpf_from_rational(c.re), mpf_from_rational(c.im))
    expo = (mpf_from_rational(f.a) * x0 * x0 + mpf_from_rational(f.b) * x0) / 2
    return acc * mpmath.exp(expo)


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
            exact = exp_poly_value(f.derivative(), pt)
            approx = (exp_poly_value(f, pt + h) - exp_poly_value(f, pt - h)) / (2 * h)
            scale = max(abs(exact), mpmath.mpf(1))
            assert abs(exact - approx) / scale < mpmath.mpf("1e-6")


def test_exp_ratio_arithmetic():
    num = ExpPoly(x * x, a=-1)
    den = ExpPoly(x + 1, a=1)
    r = ExpRatio.from_exp_polys(num, den)
    assert r.pair == (Fraction(-2), Fraction(0))
    assert r.q == RationalFn(x * x, x + 1)
    with pytest.raises(ZeroDivisionError):
        ExpRatio.from_exp_polys(num, ExpPoly(Poly.zero(), a=1))


def test_rational_fn_lazy_equality():
    a = RationalFn(x * x - 1, x - 1)
    b = RationalFn(x + 1)
    assert a == b
    assert a.reduce().den == Poly.one()
    assert (a - b).is_zero()


def test_reduced_rational_fn_prints_without_a_gcd(monkeypatch):
    """reduce() marks its result, so reducing or printing it again takes no
    gcd; the text is that of the unreduced quotient."""
    import casorati.poly as poly_mod

    for q in (RationalFn(2 * x * x - 2, 4 * x - 4), RationalFn(x + 1, 3 * x * x + 1),
              RationalFn(Poly.zero(), x), RationalFn(Poly([Fraction(1, 2), 1]))):
        text, r = str(q), q.reduce()
        assert not q.reduced and r.reduced
        with monkeypatch.context() as m:
            m.setattr(poly_mod, "poly_gcd", None)
            assert r.reduce() is r and str(r) == text
        assert not (r + 1).reduced and str(r + 1) == str(q + 1)


def test_poly_products_equal():
    lhs = [(x + 1, 2), ((x + 1) * (x - 3), 1)]
    rhs = [((x + 1) ** 3, 1), (x - 3, 1)]
    assert poly_products_equal(lhs, rhs)
    assert not poly_products_equal([(x, 1)], [(x + 1, 1)])
    assert poly_products_equal([(Poly.zero(), 1), (x, 5)], [(x - 1, 2), (Poly.zero(), 1)])
    assert not poly_products_equal([(Poly.zero(), 1)], [(x, 1)])
    # ExpPoly factors: the exponent pairs add up, and must agree unless the
    # products are zero
    lhs = [(ExpPoly(x + 1, 1), 2), (ExpPoly(x, -1, 2), 1), (x - 3, 1)]
    product = (x + 1) ** 2 * x * (x - 3)
    assert poly_products_equal(lhs, [(ExpPoly(product, 1, 2), 1)])
    assert not poly_products_equal(lhs, [(ExpPoly(product, 1, 0), 1)])
    assert poly_products_equal([(ExpPoly(Poly.zero(), 1), 1), (ExpPoly(x, 0, 2), 1)],
                               [(ExpPoly(x - 1, -1, 1), 2), (ExpPoly(Poly.zero()), 1)])


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


# ---------------------------------------------------------------------------
# Reference arithmetic: one GaussianRational per coefficient, as Poly computed
# before it moved to integer form.  The property tests below require the
# integer form to agree with it coefficient for coefficient.
# ---------------------------------------------------------------------------

class RefPoly:
    def __init__(self, coeffs=()):
        cs = [as_gaussian(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = cs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return RefPoly(out)

    def __neg__(self):
        return RefPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RefPoly):
            return RefPoly([c * other for c in self.coeffs])
        out = [GR_ZERO] * max(len(self.coeffs) + len(other.coeffs) - 1, 0)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return RefPoly(out)

    def __divmod__(self, den):
        num = list(self.coeffs)
        dlead = den.coeffs[-1]
        dd = len(den.coeffs) - 1
        q = [GR_ZERO] * max(len(num) - dd, 0)
        while len(num) - 1 >= dd and num:
            k = len(num) - 1 - dd
            factor = num[-1] / dlead
            q[k] = factor
            for j, c in enumerate(den.coeffs):
                num[k + j] = num[k + j] - factor * c
            while num and num[-1].is_zero():
                num.pop()
        return RefPoly(q), RefPoly(num)

    def derivative(self):
        return RefPoly([c * k for k, c in enumerate(self.coeffs)][1:])

    def shift(self, delta):
        out = []
        for c in reversed(self.coeffs):
            nxt = [GR_ZERO] * (len(out) + 1)
            for k, o in enumerate(out):
                nxt[k + 1] = nxt[k + 1] + o
                nxt[k] = nxt[k] + o * delta
            nxt[0] = nxt[0] + c
            out = nxt
        return RefPoly(out)

    def __call__(self, z):
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def conjugate_coeffs(self):
        return RefPoly([c.conjugate() for c in self.coeffs])

    def monic(self):
        lead = self.coeffs[-1]
        return RefPoly([c / lead for c in self.coeffs])

    def max_coeff_bits(self):
        bits = 0
        for c in self.coeffs:
            for q in (c.re, c.im):
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
        return bits


def assert_canonical(p):
    assert len(p.re) == len(p.im) and p.den > 0
    assert math.gcd(p.den, *p.re, *p.im) == 1
    if p.re:
        assert p.re[-1] or p.im[-1]
    else:
        assert p.den == 1


def assert_matches(p, ref):
    assert_canonical(p)
    assert p.coeffs == ref.coeffs


# Coefficients: zero, small, and large with mismatched denominators; a third
# of the draws are purely imaginary.
DENOMINATORS = (1, 2, 3, 7, 9, 2 ** 64, 3 ** 40, 10 ** 12 + 39)
parts = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-9, max_value=9, max_denominator=9),
                  st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20),
                            st.sampled_from(DENOMINATORS)))
gaussians = st.one_of(st.builds(GaussianRational, parts, parts),
                      st.builds(lambda b: GaussianRational(0, b), parts))
coeff_lists = st.lists(gaussians, max_size=6)
nonzero = gaussians.filter(lambda z: not z.is_zero())
# Leading coefficients of divisors: units, Gaussian integers, general values.
leads = st.one_of(st.sampled_from([GaussianRational(1), GaussianRational(-1),
                                   GaussianRational(0, 1), GaussianRational(0, -1)]),
                  st.builds(GaussianRational, st.integers(-60, 60), st.integers(-60, 60))
                  .filter(lambda z: not z.is_zero()),
                  nonzero)
divisors = st.builds(lambda low, lead: low + [lead], st.lists(gaussians, max_size=4), leads)


@given(coeff_lists, coeff_lists)
@settings(max_examples=80)
def test_ring_ops_match_reference(a, b):
    p, q, rp, rq = Poly(a), Poly(b), RefPoly(a), RefPoly(b)
    assert_matches(p, rp)
    assert_matches(p + q, rp + rq)
    assert_matches(p - q, rp - rq)
    assert_matches(-p, -rp)
    assert_matches(p * q, rp * rq)


@given(coeff_lists, gaussians)
@settings(max_examples=60)
def test_scalar_mul_matches_reference(a, z):
    assert_matches(Poly(a) * z, RefPoly(a) * z)


@given(st.lists(gaussians, max_size=9), divisors)
@settings(max_examples=80)
def test_divmod_matches_reference(a, b):
    q, r = divmod(Poly(a), Poly(b))
    rq, rr = divmod(RefPoly(a), RefPoly(b))
    assert_matches(q, rq)
    assert_matches(r, rr)


@given(coeff_lists, divisors)
@settings(max_examples=40)
def test_exact_division_matches_reference(a, b):
    product = Poly(a) * Poly(b)
    q, r = divmod(product, Poly(b))
    assert r.is_zero() and q == Poly(a)
    assert_matches(product.exact_div(Poly(b)), divmod(RefPoly(a) * RefPoly(b), RefPoly(b))[0])


@given(coeff_lists, gaussians)
@settings(max_examples=60)
def test_shift_matches_reference(a, delta):
    assert_matches(Poly(a).shift(delta), RefPoly(a).shift(delta))


@given(coeff_lists)
@settings(max_examples=60)
def test_unary_ops_match_reference(a):
    p, ref = Poly(a), RefPoly(a)
    assert_matches(p.derivative(), ref.derivative())
    assert_matches(p.conjugate_coeffs(), ref.conjugate_coeffs())
    if not p.is_zero():
        assert_matches(p.monic(), ref.monic())
        assert p.leading() == ref.coeffs[-1]
    for k in range(-1, len(a) + 1):
        assert p.coefficient(k) == (ref.coeffs[k] if 0 <= k < len(ref.coeffs) else 0)


@given(coeff_lists, st.one_of(gaussians, st.integers(-9, 9)))
@settings(max_examples=60)
def test_evaluation_and_bits_match_reference(a, z):
    p, ref = Poly(a), RefPoly(a)
    assert p(z) == ref(as_gaussian(z))
    assert p.max_coeff_bits() == ref.max_coeff_bits()


@given(coeff_lists, coeff_lists, nonzero)
@settings(max_examples=60)
def test_equal_polys_hash_equal(a, b, z):
    p, q = Poly(a), Poly(b)
    for same in ((p + q) - q, (p * z) * (GaussianRational(1) / z), Poly(a + [0, 0]),
                 Poly.deserialize(p.serialize())):
        assert_canonical(same)
        assert same == p and hash(same) == hash(p)
