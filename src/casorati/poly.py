"""Polynomials over Gaussian rationals, reduced quotients, and exp-prefactor forms.

``Poly`` is dense, coefficient index = degree, trailing zeros stripped.
``RationalFn`` is a quotient of two Polys; arithmetic keeps the pair
unreduced (equality cross-multiplies), ``reduce()``/``canonical()`` produce
the gcd-reduced monic-denominator representative on demand.
``ExpPoly`` is p(x) * exp((a*x^2 + b*x)/2) with rational a, b; the class is
closed under differentiation and products.  ``ExpRatio`` is a quotient
q(x) * exp((a*x^2 + b*x)/2) with q a RationalFn; it is the value class for
deformed eigenfunctions and Wronskians of quotients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import mpmath

from .scalars import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    as_gaussian,
    format_gaussian,
    format_rational,
    mpf_from_rational,
    parse_gaussian,
    rational,
)


class Poly:
    """Dense polynomial with GaussianRational coefficients."""

    __slots__ = ("coeffs", "_icache")

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_gaussian(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_icache", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def _int_form(self) -> tuple[list[int], list[int], int]:
        """Denominator-cleared coefficients (re ints, im ints, common den)."""
        cached = self._icache
        if cached is None:
            import math as _math
            den = 1
            for c in self.coeffs:
                den = _math.lcm(den, c.re.denominator, c.im.denominator)
            re = [int(c.re * den) for c in self.coeffs]
            im = [int(c.im * den) for c in self.coeffs]
            cached = (re, im, den)
            object.__setattr__(self, "_icache", cached)
        return cached

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _P_ZERO

    @staticmethod
    def one() -> "Poly":
        return _P_ONE

    @staticmethod
    def x() -> "Poly":
        return _P_X

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([c])

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.coeffs)

    def leading(self) -> GaussianRational:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GR_ZERO

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction, GaussianRational)):
            return NotImplemented
        other = as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction, GaussianRational)):
            return NotImplemented
        return self + (-as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return as_poly(other) + (-self)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction, GaussianRational)):
            z = as_gaussian(other)
            if z.is_zero():
                return _P_ZERO
            return Poly([c * z for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return _P_ZERO
        # Convolve in denominator-cleared Gaussian-integer form: one Fraction
        # normalization per output coefficient instead of one per product.
        re1, im1, d1 = self._int_form()
        re2, im2, d2 = other._int_form()
        size = len(re1) + len(re2) - 1
        out_re = [0] * size
        out_im = [0] * size
        if any(im1) or any(im2):
            for i, (ra, ia) in enumerate(zip(re1, im1)):
                if ra == 0 and ia == 0:
                    continue
                for j, (rb, ib) in enumerate(zip(re2, im2)):
                    out_re[i + j] += ra * rb - ia * ib
                    out_im[i + j] += ra * ib + ia * rb
        else:
            for i, ra in enumerate(re1):
                if ra == 0:
                    continue
                for j, rb in enumerate(re2):
                    out_re[i + j] += ra * rb
        den = d1 * d2
        return Poly([GaussianRational(Fraction(r, den), Fraction(m, den))
                     for r, m in zip(out_re, out_im)])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of Poly")
        result = _P_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        den = as_poly(other)
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        num = list(self.coeffs)
        dlead = den.leading()
        dd = den.degree
        q = [GR_ZERO] * max(len(num) - dd, 0)
        while len(num) - 1 >= dd and num:
            k = len(num) - 1 - dd
            factor = num[-1] / dlead
            q[k] = factor
            for j, c in enumerate(den.coeffs):
                num[k + j] = num[k + j] - factor * c
            while num and num[-1].is_zero():
                num.pop()
        return Poly(q), Poly(num)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    # -- calculus / substitution -------------------------------------------------

    def derivative(self) -> "Poly":
        return Poly([c * k for k, c in enumerate(self.coeffs)][1:])

    def shift(self, delta) -> "Poly":
        """p(x + delta), exact, via Horner in (x + delta)."""
        d = as_gaussian(delta)
        if d.is_zero():
            return self
        out: list[GaussianRational] = []
        for c in reversed(self.coeffs):
            # out <- out*(x+delta) + c
            nxt = [GR_ZERO] * (len(out) + 1)
            for k, o in enumerate(out):
                nxt[k + 1] = nxt[k + 1] + o
                nxt[k] = nxt[k] + o * d
            nxt[0] = nxt[0] + c
            out = nxt
        while out and out[-1].is_zero():
            out.pop()
        return Poly(out)

    def __call__(self, x) -> GaussianRational:
        acc = GR_ZERO
        z = as_gaussian(x)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def eval_mpf(self, x) -> mpmath.mpc:
        acc = mpmath.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c.to_mpc()
        return acc

    def conjugate_coeffs(self) -> "Poly":
        """The *-operation: conjugate every coefficient."""
        return Poly([c.conjugate() for c in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly([c / lead for c in self.coeffs])

    def max_coeff_bits(self) -> int:
        bits = 0
        for c in self.coeffs:
            for q in (c.re, c.im):
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
        return bits

    # -- comparison / serialization ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly([other])
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly([{', '.join(str(c) for c in self.coeffs)}])"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c.is_zero():
                continue
            term = f"({c})" if not c.is_real() or c.re < 0 else str(c)
            if k == 0:
                parts.append(term)
            elif k == 1:
                parts.append(f"{term}*x" if term != "1" else "x")
            else:
                parts.append(f"{term}*x^{k}" if term != "1" else f"x^{k}")
        return " + ".join(parts)

    def serialize(self) -> list[str]:
        return [format_gaussian(c) for c in self.coeffs]

    @staticmethod
    def deserialize(data: Sequence[str]) -> "Poly":
        return Poly([parse_gaussian(t) for t in data])


_P_ZERO = Poly(())
_P_ONE = Poly((1,))
_P_X = Poly((0, 1))


def as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction, GaussianRational)):
        return Poly([value])
    raise TypeError(f"cannot coerce {value!r} to Poly")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the Gaussian-rational coefficient field."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    if a.is_zero():
        return a
    return a.monic()


def _eval_gauss_int(re: list[int], im: list[int], x: int) -> tuple[int, int]:
    a = b = 0
    for cr, ci in zip(reversed(re), reversed(im)):
        a = a * x + cr
        b = b * x + ci
    return a, b


def poly_products_equal(lhs: Sequence[tuple["Poly", int]],
                        rhs: Sequence[tuple["Poly", int]]) -> bool:
    """Exact equality of prod p_i^{e_i} == prod q_j^{f_j} without expanding.

    Both sides are evaluated (denominator-cleared, pure Gaussian-integer
    arithmetic) at degree+1 integer points; polynomials of degree <= D that
    agree at D+1 points are identical.
    """
    def prepare(side):
        deg = 0
        factors = []
        den = 1
        for p, e in side:
            if e == 0:
                continue
            if e < 0:
                raise ValueError("negative exponent in product comparison")
            if p.is_zero():
                return None, None, None
            deg += p.degree * e
            re, im, d = p._int_form()
            factors.append((re, im, e))
            den *= d ** e
        return deg, factors, den

    deg_l, fac_l, den_l = prepare(lhs)
    deg_r, fac_r, den_r = prepare(rhs)
    if fac_l is None and fac_r is None:
        return True

    def value(factors, x):
        va, vb = 1, 0
        for re, im, e in factors:
            a, b = _eval_gauss_int(re, im, x)
            for _ in range(e):
                va, vb = va * a - vb * b, va * b + vb * a
        return va, vb

    if fac_l is None or fac_r is None:
        deg = deg_r if fac_l is None else deg_l
        factors = fac_r if fac_l is None else fac_l
        return all(value(factors, x) == (0, 0) for x in range(deg + 1))

    bound = max(deg_l, deg_r)
    for x in range(bound + 1):
        la, lb = value(fac_l, x)
        ra, rb = value(fac_r, x)
        if (la * den_r, lb * den_r) != (ra * den_l, rb * den_l):
            return False
    return True


class RationalFn:
    """Quotient of two Polys; den != 0.  Reduction is lazy (see reduce())."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_P_ONE):
        num = as_poly(num)
        den = as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("RationalFn with zero denominator")
        if num.is_zero():
            den = _P_ONE
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    @staticmethod
    def one() -> "RationalFn":
        return RationalFn(_P_ONE)

    @staticmethod
    def zero() -> "RationalFn":
        return RationalFn(_P_ZERO)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def reduce(self) -> "RationalFn":
        """Gcd-reduced representative with monic denominator."""
        if self.num.is_zero():
            return RationalFn(_P_ZERO)
        g = poly_gcd(self.num, self.den)
        num, den = self.num, self.den
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead = den.leading()
        num = num * (GR_ONE / lead)
        den = den * (GR_ONE / lead)
        return RationalFn(num, den)

    # -- arithmetic ----------------------------------------------------------

    _COERCIBLE = (int, Fraction, GaussianRational, Poly)

    def __add__(self, other) -> "RationalFn":
        if not isinstance(other, (RationalFn,) + RationalFn._COERCIBLE):
            return NotImplemented
        other = as_rational_fn(other)
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> "RationalFn":
        if not isinstance(other, (RationalFn,) + RationalFn._COERCIBLE):
            return NotImplemented
        return self + (-as_rational_fn(other))

    def __rsub__(self, other) -> "RationalFn":
        return as_rational_fn(other) + (-self)

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den)

    def __mul__(self, other) -> "RationalFn":
        if not isinstance(other, (RationalFn,) + RationalFn._COERCIBLE):
            return NotImplemented
        other = as_rational_fn(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFn":
        if not isinstance(other, (RationalFn,) + RationalFn._COERCIBLE):
            return NotImplemented
        other = as_rational_fn(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero RationalFn")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFn":
        return as_rational_fn(other) / self

    def __pow__(self, n: int) -> "RationalFn":
        if n < 0:
            return RationalFn(self.den, self.num) ** (-n)
        return RationalFn(self.num ** n, self.den ** n)

    def derivative(self) -> "RationalFn":
        return RationalFn(self.num.derivative() * self.den - self.num * self.den.derivative(),
                          self.den * self.den)

    def shift(self, delta) -> "RationalFn":
        return RationalFn(self.num.shift(delta), self.den.shift(delta))

    def star(self) -> "RationalFn":
        """Coefficientwise conjugation of numerator and denominator."""
        return RationalFn(self.num.conjugate_coeffs(), self.den.conjugate_coeffs())

    def __call__(self, x) -> GaussianRational:
        d = self.den(x)
        if d.is_zero():
            raise ZeroDivisionError(f"RationalFn pole at {x}")
        return self.num(x) / d

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational, Poly)):
            other = RationalFn(other)
        if isinstance(other, RationalFn):
            return self.num * other.den == other.num * self.den
        return NotImplemented

    def __hash__(self):
        r = self.reduce()
        return hash((r.num, r.den))

    def __repr__(self) -> str:
        return f"RationalFn({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        r = self.reduce()
        if r.den == _P_ONE:
            return str(r.num)
        return f"({r.num}) / ({r.den})"


def as_rational_fn(value) -> RationalFn:
    if isinstance(value, RationalFn):
        return value
    if isinstance(value, (int, Fraction, GaussianRational, Poly)):
        return RationalFn(value)
    raise TypeError(f"cannot coerce {value!r} to RationalFn")


def rational_reduce(num: Poly, den: Poly) -> RationalFn:
    """Reduced, monic-denominator quotient of two polynomials."""
    return RationalFn(num, den).reduce()


class ExpPoly:
    """p(x) * exp((a*x^2 + b*x)/2) with rational a, b.

    Differentiation maps p -> p' + (a*x + b)*p with (a, b) unchanged;
    products add the exponent pairs.
    """

    __slots__ = ("p", "a", "b")

    def __init__(self, p, a=0, b=0):
        object.__setattr__(self, "p", as_poly(p))
        object.__setattr__(self, "a", rational(a))
        object.__setattr__(self, "b", rational(b))

    def __setattr__(self, name, value):
        raise AttributeError("ExpPoly is immutable")

    @staticmethod
    def one() -> "ExpPoly":
        return ExpPoly(_P_ONE)

    def is_zero(self) -> bool:
        return self.p.is_zero()

    @property
    def pair(self) -> tuple[Fraction, Fraction]:
        return (self.a, self.b)

    def derivative(self) -> "ExpPoly":
        drift = Poly([self.b / 2, self.a])
        return ExpPoly(self.p.derivative() + drift * self.p, self.a, self.b)

    def __mul__(self, other) -> "ExpPoly":
        if isinstance(other, (int, Fraction, GaussianRational, Poly)):
            return ExpPoly(self.p * other, self.a, self.b)
        if isinstance(other, ExpPoly):
            return ExpPoly(self.p * other.p, self.a + other.a, self.b + other.b)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ExpPoly":
        if n < 0:
            raise ValueError("negative power of ExpPoly")
        return ExpPoly(self.p ** n, self.a * n, self.b * n)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly(-self.p, self.a, self.b)

    def __add__(self, other) -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.pair != other.pair:
            raise ValueError("cannot add ExpPoly with different exponent pairs")
        return ExpPoly(self.p + other.p, self.a, self.b)

    def __sub__(self, other) -> "ExpPoly":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if isinstance(other, ExpPoly):
            if self.p.is_zero() and other.p.is_zero():
                return True
            return self.p == other.p and self.pair == other.pair
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.a, self.b))

    def eval_mpf(self, x) -> mpmath.mpc:
        xf = mpmath.mpf(x) if not isinstance(x, (mpmath.mpf, mpmath.mpc)) else x
        expo = (mpf_from_rational(self.a) * xf * xf + mpf_from_rational(self.b) * xf) / 2
        return self.p.eval_mpf(xf) * mpmath.exp(expo)

    def __repr__(self) -> str:
        return f"ExpPoly({self.p!r}, a={self.a}, b={self.b})"

    def __str__(self) -> str:
        if self.a == 0 and self.b == 0:
            return str(self.p)
        return f"({self.p}) * exp(({format_pair(self.a, self.b)})/2)"

    def serialize(self) -> dict:
        return {"p": self.p.serialize(),
                "a": format_rational(self.a),
                "b": format_rational(self.b)}

    @staticmethod
    def deserialize(data: dict) -> "ExpPoly":
        return ExpPoly(Poly.deserialize(data["p"]), rational(data["a"]), rational(data["b"]))


def format_pair(a: Fraction, b: Fraction) -> str:
    return f"{format_rational(a)}*x^2 + {format_rational(b)}*x"


class ExpRatio:
    """q(x) * exp((a*x^2 + b*x)/2) with q a RationalFn.

    The differential-field element used for deformed eigenfunctions and for
    Wronskians of quotients.  Sums require matching exponent pairs; products
    and quotients add/subtract them.
    """

    __slots__ = ("q", "a", "b")

    def __init__(self, q, a=0, b=0):
        object.__setattr__(self, "q", as_rational_fn(q))
        object.__setattr__(self, "a", rational(a))
        object.__setattr__(self, "b", rational(b))

    def __setattr__(self, name, value):
        raise AttributeError("ExpRatio is immutable")

    @staticmethod
    def from_exp_polys(num: ExpPoly, den: ExpPoly) -> "ExpRatio":
        if den.is_zero():
            raise ZeroDivisionError("ExpRatio with zero denominator")
        return ExpRatio(RationalFn(num.p, den.p), num.a - den.a, num.b - den.b)

    @property
    def pair(self) -> tuple[Fraction, Fraction]:
        return (self.a, self.b)

    def is_zero(self) -> bool:
        return self.q.is_zero()

    def derivative(self) -> "ExpRatio":
        drift = RationalFn(Poly([self.b / 2, self.a]))
        return ExpRatio(self.q.derivative() + drift * self.q, self.a, self.b)

    def __mul__(self, other) -> "ExpRatio":
        if isinstance(other, (int, Fraction, GaussianRational, Poly, RationalFn)):
            return ExpRatio(self.q * other, self.a, self.b)
        if isinstance(other, ExpRatio):
            return ExpRatio(self.q * other.q, self.a + other.a, self.b + other.b)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExpRatio":
        if isinstance(other, (int, Fraction, GaussianRational, Poly, RationalFn)):
            return ExpRatio(self.q / other, self.a, self.b)
        if isinstance(other, ExpRatio):
            if other.is_zero():
                raise ZeroDivisionError("division by zero ExpRatio")
            return ExpRatio(self.q / other.q, self.a - other.a, self.b - other.b)
        return NotImplemented

    def __neg__(self) -> "ExpRatio":
        return ExpRatio(-self.q, self.a, self.b)

    def __add__(self, other) -> "ExpRatio":
        if not isinstance(other, ExpRatio):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.pair != other.pair:
            raise ValueError("cannot add ExpRatio with different exponent pairs")
        return ExpRatio(self.q + other.q, self.a, self.b)

    def __sub__(self, other) -> "ExpRatio":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if isinstance(other, ExpRatio):
            if self.is_zero() and other.is_zero():
                return True
            return self.pair == other.pair and self.q == other.q
        return NotImplemented

    def __hash__(self):
        return hash((self.q, self.a, self.b))

    def reduce(self) -> "ExpRatio":
        return ExpRatio(self.q.reduce(), self.a, self.b)

    def __repr__(self) -> str:
        return f"ExpRatio({self.q!r}, a={self.a}, b={self.b})"

    def __str__(self) -> str:
        if self.a == 0 and self.b == 0:
            return str(self.q)
        return f"({self.q}) * exp(({format_pair(self.a, self.b)})/2)"
