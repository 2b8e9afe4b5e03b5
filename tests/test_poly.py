import json
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from casorati.identities import DECODERS
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
    working_precision,
)

x = Poly([0, 1])

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


def mpf_from_rational(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


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


def test_reduce_keeps_the_value_of_gaussian_quotients():
    """reduce() divides out the gcd and scales by conj(lead)/|lead|^2 of the
    denominator over its common denominator: the result equals the quotient
    it came from, cross-multiplied, for drawn Gaussian numerators and
    denominators with fractional coefficients and a shared factor."""
    rng = random.Random(28)
    i = GaussianRational(0, 1)

    def gaussian_poly(degree, nonzero=False):
        while True:
            p = Poly([GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                       Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                      for _ in range(rng.randint(0, degree) + 1)])
            if not nonzero or not p.is_zero():
                return p

    for _ in range(40):
        shared = gaussian_poly(2, nonzero=True)
        q = RationalFn(gaussian_poly(3) * shared, gaussian_poly(3, nonzero=True) * shared)
        r = q.reduce()
        assert r == q and r.den.re[-1] == r.den.den and r.den.im[-1] == 0   # monic
    assert RationalFn(i * x, (2 + i) * x * x).reduce() == RationalFn(i * x, (2 + i) * x * x)


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



def reference_products_equal(lhs, rhs) -> bool:
    """Both products expanded and compared: the comparison that
    poly_products_equal replaced, kept as its reference."""
    def expand(side):
        out = Poly.one()
        for p, e in side:
            if e < 0:
                raise ValueError("negative exponent in product comparison")
            out = out * p ** e
        return out
    return expand(lhs) == expand(rhs)


small_gaussians = st.builds(GaussianRational,
                            st.fractions(min_value=-3, max_value=3, max_denominator=3),
                            st.fractions(min_value=-3, max_value=3, max_denominator=3))
factor_polys = st.lists(small_gaussians, min_size=1, max_size=3).map(Poly)
factor_pairs = st.sampled_from([(0, 0), (1, 0), (-1, 2), (Fraction(1, 2), -1)])
exp_factors = st.builds(lambda p, pair: ExpPoly(p, *pair), factor_polys, factor_pairs)
exponents = st.integers(min_value=0, max_value=3)


@st.composite
def product_sides(draw):
    """Two factor lists, of Polys, of ExpPolys or of both, built from factors
    shared across the sides (each side with its own exponent, equal ones
    cancel to empty), factors on one side only, factors split into two on
    the other side, and zero factors on neither side, one or both."""
    kind = draw(st.sampled_from(["poly", "exp", "mixed"]))
    factor = {"poly": factor_polys, "exp": exp_factors,
              "mixed": st.one_of(factor_polys, exp_factors)}[kind]
    lhs, rhs = [], []
    for f, e_l, e_r, same in draw(st.lists(st.tuples(factor, exponents, exponents,
                                                     st.booleans()), max_size=3)):
        lhs.append((f, e_l))
        rhs.append((f, e_l if same else e_r))
    for f, g, e in draw(st.lists(st.tuples(factor, factor, exponents), max_size=2)):
        lhs.append((f * g, e))
        rhs += [(f, e), (g, e)]
    lhs += draw(st.lists(st.tuples(factor, exponents), max_size=2))
    rhs += draw(st.lists(st.tuples(factor, exponents), max_size=2))
    zero = Poly.zero() if kind == "poly" else ExpPoly(Poly.zero(), 1)
    for side in (lhs, rhs):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            side.append((zero, draw(exponents)))
    return draw(st.permutations(lhs)), draw(st.permutations(rhs))


@given(product_sides())
@settings(max_examples=150, deadline=None)
def test_poly_products_equal_matches_expansion(sides):
    lhs, rhs = sides
    assert poly_products_equal(lhs, rhs) == reference_products_equal(lhs, rhs)
    assert poly_products_equal(rhs, lhs) == reference_products_equal(lhs, rhs)


@given(st.lists(st.tuples(exp_factors, exponents), min_size=1, max_size=4), st.data())
@settings(max_examples=100, deadline=None)
def test_poly_products_equal_perturbed_shared_factor_flips(shared, data):
    """Negative control: equal sides that share every factor compare equal,
    and bending one coefficient of one copy of a nonzero shared factor with
    a positive exponent flips the verdict.  The bend, 1/997, is no
    (root of unity - 1) multiple of a coefficient with denominator at most 3,
    so the bent factor's power differs from the original's."""
    lhs = [(f, e) for f, e in shared if not f.is_zero()]
    rhs = data.draw(st.permutations(lhs))
    assert poly_products_equal(lhs, rhs) and reference_products_equal(lhs, rhs)
    bendable = [j for j, (_, e) in enumerate(lhs) if e > 0]
    if not bendable:
        return
    j = data.draw(st.sampled_from(bendable))
    f, e = lhs[j]
    k = data.draw(st.integers(min_value=0, max_value=f.degree))
    bent = ExpPoly(f.p + Poly([0] * k + [Fraction(1, 997)]), f.a, f.b)
    lhs[j] = (bent, e)
    assert not poly_products_equal(lhs, rhs)
    assert not reference_products_equal(lhs, rhs)


def test_poly_products_equal_edge_cases():
    """Zero sides are decided before cancelling, an exponent 0 drops its
    factor, a side that cancels to empty expands as its kind, and a
    negative exponent raises."""
    z, e = ExpPoly(Poly.zero(), 1), ExpPoly(x + 1, -1)
    for lhs, rhs, equal in [
        ([(Poly.zero(), 1), (x, 1)], [(Poly.zero(), 2), (x + 1, 1)], True),
        ([(Poly.zero(), 0), (x, 1)], [(x, 1)], True),
        ([(Poly.zero(), 1)], [(Poly.zero(), 0)], False),
        ([(e, 2)], [(e, 2)], True),
        ([(e, 2)], [(e, 2), (ExpPoly.one(), 1)], True),
        ([(e, 2)], [(e, 2), (ExpPoly(Poly.one(), 1), 1)], False),
        ([(z, 1), (e, 1)], [(z, 1), (ExpPoly(x), 3)], True),
        ([(z, 1)], [(Poly.zero(), 1)], False),      # a Poly is never an ExpPoly
        ([(x, 1)], [(ExpPoly(x), 1)], False),
        ([], [(ExpPoly.one(), 1)], False),
        ([], [(Poly.one(), 2), (x, 0)], True),
    ]:
        assert poly_products_equal(lhs, rhs) == reference_products_equal(lhs, rhs) == equal
    with pytest.raises(ValueError):
        poly_products_equal([(x, 1)], [(x, 1), (x + 1, -1)])


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
    back = DECODERS[ExpPoly]["f"](json.loads(json.dumps(f.serialize())))
    assert (back.p, back.a, back.b) == (f.p, f.a, f.b)


def reference_str(p: Poly) -> str:
    """``Poly.__str__`` as it was written on GaussianRational coefficients,
    the reference for the formatter on the integer parts."""
    if p.is_zero():
        return "0"
    parts = []
    coeffs = p.coeffs
    for k in range(p.degree, -1, -1):
        c = coeffs[k]
        if c.is_zero():
            continue
        term = f"({c})" if c.im != 0 or c.re < 0 else str(c)
        if k == 0:
            parts.append(term)
        elif k == 1:
            parts.append(f"{term}*x" if term != "1" else "x")
        else:
            parts.append(f"{term}*x^{k}" if term != "1" else f"x^{k}")
    return " + ".join(parts)


@given(st.one_of(gaussian_polys, polys,
                 st.lists(st.sampled_from([GaussianRational(0), GaussianRational(1),
                                           GaussianRational(-1), GaussianRational(0, 1),
                                           GaussianRational(0, -1), GaussianRational(1, -1),
                                           GaussianRational(Fraction(-1, 2), Fraction(3, 4))]),
                          max_size=5).map(Poly)))
@settings(max_examples=200)
def test_str_matches_reference_formatter(p):
    assert str(p) == reference_str(p)


def test_zero_poly_round_trip():
    assert Poly.zero().serialize() == []
    assert Poly.deserialize([]) == Poly.zero()
    zero = DECODERS[ExpPoly]["f"](ExpPoly(Poly.zero(), -1, 1).serialize())
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


# Shifted polynomials: degrees up to 30, and constants and one-term
# polynomials c*x^k, whose shifts come closest to the packing width's bound;
# shifts with small denominators as well as the coefficients' own.
shift_lists = st.one_of(coeff_lists, st.lists(gaussians, max_size=31),
                        st.builds(lambda c, k: [0] * k + [c], gaussians, st.integers(0, 30)))
small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
shift_deltas = st.one_of(gaussians, st.builds(GaussianRational, small_fractions, small_fractions))


@given(shift_lists, shift_deltas)
@example([GaussianRational(Fraction(3, 2))], GaussianRational(1))
@example([GaussianRational(1), GaussianRational(1)], GaussianRational(1))
@settings(max_examples=150)
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


small_parts = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)])


@st.composite
def hashables(draw):
    """An int, Fraction, GaussianRational, Poly, RationalFn or ExpPoly from
    a small pool, so that equal values of different types, zero included,
    are frequent: a scalar c in each type that holds it, p = c or c + k x,
    p as an unreduced quotient, and p with an exponent pair."""
    re, im = draw(small_parts), draw(st.sampled_from([Fraction(0), Fraction(3)]))
    c = GaussianRational(re, im)
    p = Poly([c, draw(small_parts)] if draw(st.booleans()) else [c])
    q = Poly(draw(st.sampled_from([[1], [2], [1, 1], [Fraction(1, 2), -1]])))
    candidates = [c, p, RationalFn(p * q, q), ExpPoly(p, draw(small_parts), draw(small_parts))]
    if not im:
        candidates.append(re)
        if re.denominator == 1:
            candidates.append(int(re))
    return draw(st.sampled_from(candidates))


@given(st.lists(hashables(), min_size=2, max_size=6))
@settings(max_examples=200)
@example([ExpPoly(Poly.zero(), 1, 0), ExpPoly(Poly.zero(), 2, 3)])
@example([Poly([3]), 3, Fraction(3), GaussianRational(3), RationalFn(Poly([6]), Poly([2]))])
@example([Poly.zero(), 0, RationalFn(Poly.zero(), x + 1), GR_ZERO, Fraction(0)])
@example([RationalFn(x * x - 1, x - 1), x + 1, RationalFn(2 * x + 2, Poly([2]))])
def test_equal_values_hash_equal(values):
    """Equal values hash equal across the scalar and polynomial types, so a
    set or a Counter holds one key per value."""
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    distinct = []
    for v in values:
        if not any(v == u for u in distinct):
            distinct.append(v)
    assert len(set(values)) == len(distinct)


# ---------------------------------------------------------------------------
# The exact sign reader against the value path
# ---------------------------------------------------------------------------

sample_points = st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                          small_gaussians)


def value_sign(value: GaussianRational):
    """The sign of an exact value read off its parts; None off the reals."""
    return (value.re > 0) - (value.re < 0) if value.im == 0 else None


@st.composite
def valued_polys(draw, x0):
    """A Gaussian polynomial that is zero, vanishes at x0, is real at x0
    (b(x) (x - x0) + r with r rational), or is drawn as it comes."""
    p = draw(factor_polys)
    kind = draw(st.sampled_from(["zero", "root", "real", "any"]))
    if kind == "zero":
        return Poly.zero()
    if kind == "any":
        return p
    r = 0 if kind == "root" else draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
    return p * Poly([-as_gaussian(x0), 1]) + r


def rational_sign_at(fn: RationalFn, x) -> int | None:
    """The sign of num(x)/den(x) = num(x) conj(den(x)) / |den(x)|^2, read off
    the integers of both Horner loops: -1, 0 or 1; None at a pole of the pair
    or where the value is not real.  Once ``RationalFn.sign_at``, it is the
    sign rule of the tests' reference PowerProduct (test_idqm.py)."""
    nr, ni, _ = fn.num._at(x)
    dr, di, _ = fn.den._at(x)
    if (dr == 0 and di == 0) or ni * dr != nr * di:
        return None
    re = nr * dr + ni * di
    return (re > 0) - (re < 0)


@given(st.data())
@settings(max_examples=300)
def test_sign_at_agrees_with_the_value_path(data):
    """Poly.sign_at and rational_sign_at give the sign of the value that
    evaluation builds: None where it is not real or at a pole, and 0 for a
    zero numerator, whose RationalFn keeps the denominator 1."""
    x0 = data.draw(sample_points)
    p = data.draw(valued_polys(x0))
    assert p.sign_at(x0) == value_sign(p(x0))
    fn = RationalFn(data.draw(valued_polys(x0)),
                    data.draw(valued_polys(x0).filter(lambda q: not q.is_zero())))
    pole = fn.den(x0).is_zero()
    assert rational_sign_at(fn, x0) == (None if pole else value_sign(fn.num(x0) / fn.den(x0)))


def test_sign_at_cases():
    i = GaussianRational(0, 1)
    assert [(x - 2).sign_at(t) for t in (3, 2, Fraction(3, 2))] == [1, 0, -1]
    assert (x * x).sign_at(i) == -1                          # real at a Gaussian point
    assert (x + i).sign_at(1) is None and Poly.zero().sign_at(i) == 0
    assert rational_sign_at(RationalFn(x, x - 1), 1) is None           # a pole
    assert rational_sign_at(RationalFn(x - 1, x - 1), 1) is None       # 0/0, unreduced
    assert rational_sign_at(RationalFn(Poly.zero(), x - 1), 1) == 0    # den 1
    assert rational_sign_at(RationalFn(1, x + i), 0) is None           # 1/i = -i
    assert rational_sign_at(RationalFn(i, x + i), 0) == 1              # i/i
    assert rational_sign_at(RationalFn(x, 1 - x), 2) == -1
    assert rational_sign_at(RationalFn(x + i, x - i), i) is None       # 2i/0
    assert rational_sign_at(RationalFn(x - i, x + i), i) == 0


def test_values_are_immutable_and_print_their_parts():
    """Every exact value and grid refuses assignment, since values are
    hashed and memo keys hold them, and its repr names its parts."""
    from casorati.gridfn import GridFn
    from casorati.idqm import PowerProduct, Shifted

    values = {
        "Poly([1, 1/2-1*i])": Poly([1, GaussianRational(Fraction(1, 2), -1)]),
        "RationalFn(Poly([0, 1]), Poly([1, 1]))": RationalFn(x, x + 1),
        "ExpPoly(Poly([0, 1]), a=-1, b=0)": ExpPoly(x, -1),
        "ExpRatio(RationalFn(Poly([0, 1]), Poly([1, 1])), a=1, b=2)":
            ExpRatio(RationalFn(x, x + 1), 1, 2),
        "GaussianRational(Fraction(1, 2), Fraction(3, 1))": GaussianRational(Fraction(1, 2), 3),
        "GridFn([1, 2, 3, 4, ...], x_max=4)": GridFn([1, 2, 3, 4, 5]),
    }
    for text, value in values.items():
        assert repr(value) == text
    for value in [*values.values(), PowerProduct(), Shifted()]:
        with pytest.raises(AttributeError, match="immutable"):
            value.re = 0
