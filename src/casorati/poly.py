"""Polynomials over Gaussian rationals, reduced quotients, and exp-prefactor forms.

``Poly`` stores a polynomial in integer form: two Gaussian-integer coefficient
vectors ``re`` and ``im`` (index = degree) over one common denominator
``den > 0``, kept canonical (gcd(den, re, im) = 1, no trailing zero term, the
zero polynomial has ``den == 1``).  Every operation works on Python ints and
normalizes once; exact division is pseudo-division.  ``GaussianRational``
coefficients appear only at the boundary: the ``coeffs`` view, built on each
read (printing, serialization), ``leading()`` and
``coefficient(k)``.
``RationalFn`` is a quotient of two Polys; arithmetic keeps the pair
unreduced (equality cross-multiplies), ``reduce()``/``canonical()`` produce
the gcd-reduced monic-denominator representative on demand.
``ExpPoly`` is p(x) * exp((a*x^2 + b*x)/2) with rational a, b; the class is
closed under differentiation and products.  ``ExpRatio`` is a quotient
q(x) * exp((a*x^2 + b*x)/2) with q a RationalFn: the value of a deformed
eigenfunction, with no arithmetic of its own.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .scalars import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    as_gaussian,
    format_rational,
    parse_gaussian,
    rational,
)

_set = object.__setattr__


def _parts(value) -> tuple[int, int, int]:
    """A scalar as (re, im, den): Gaussian integer over a positive denominator."""
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    z = as_gaussian(value)
    a, b = z.re, z.im
    den = lcm(a.denominator, b.denominator)
    return a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den


def _gaussian(re: int, im: int, den: int) -> GaussianRational:
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _raw(re: list, im: list, den: int) -> "Poly":
    """Wrap vectors that are already canonical; the Poly takes them over."""
    p = object.__new__(Poly)
    _set(p, "re", re)
    _set(p, "im", im)
    _set(p, "den", den)
    return p


def _canonical(re: list, im: list, den: int) -> "Poly":
    """The Poly (re + i*im)/den for den > 0, brought to canonical form."""
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    if not n:
        return _P_ZERO
    del re[n:], im[n:]
    g = gcd(den, *re, *im)
    if g != 1:
        re = [r // g for r in re]
        im = [m // g for m in im]
        den //= g
    return _raw(re, im, den)


def _taylor_shift(re: list, im: list, ur: int, ui: int) -> None:
    """In place: the integer vector re + i*im becomes its Taylor shift by ur + i*ui."""
    n = len(re) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a, b = re[j + 1], im[j + 1]
            re[j] += ur * a - ui * b
            im[j] += ur * b + ui * a


class Poly:
    """Dense polynomial (re + i*im)/den over the Gaussian rationals.

    ``re`` and ``im`` are equal-length lists of ints indexed by degree and
    ``den`` is a positive int; none of them changes after construction.  The
    form is canonical, so ``==`` and ``hash`` compare the integers directly.
    ``coeffs`` builds the list of ``GaussianRational`` coefficients on each
    read.

    The vectors are lists, not tuples, because CPython keeps freed tuples of
    up to 20 items on per-length free lists that only a full garbage
    collection empties.  This arithmetic allocates so few tracked objects
    that full collections are rare, and tuple storage held a few MB of extra
    peak memory in long runs.
    """

    __slots__ = ("re", "im", "den")

    def __new__(cls, coeffs: Iterable = ()):
        parts = [_parts(c) for c in coeffs]
        den = lcm(*[d for _, _, d in parts])
        return _canonical([r * (den // d) for r, _, d in parts],
                          [m * (den // d) for _, m, d in parts], den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> list[GaussianRational]:
        """The coefficients as GaussianRationals, low degree first."""
        den = self.den
        return [_gaussian(r, m, den) for r, m in zip(self.re, self.im)]

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
        return len(self.re) - 1

    def is_zero(self) -> bool:
        return not self.re

    def is_real(self) -> bool:
        return not any(self.im)

    def leading(self) -> GaussianRational:
        if not self.re:
            raise ValueError("zero polynomial has no leading coefficient")
        return _gaussian(self.re[-1], self.im[-1], self.den)

    def coefficient(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.re):
            return _gaussian(self.re[k], self.im[k], self.den)
        return GR_ZERO

    # -- arithmetic -------------------------------------------------------------

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign*other over the lcm of the two denominators."""
        d1, d2 = self.den, other.den
        den = lcm(d1, d2)
        s1, s2 = den // d1, sign * (den // d2)
        re1, im1, re2, im2 = self.re, self.im, other.re, other.im
        if len(re1) < len(re2):
            re1, im1, re2, im2, s1, s2 = re2, im2, re1, im1, s2, s1
        re = [s1 * r for r in re1]
        im = [s1 * m for m in im1]
        for k, (r, m) in enumerate(zip(re2, im2)):
            re[k] += s2 * r
            im[k] += s2 * m
        return _canonical(re, im, den)

    def __add__(self, other) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction, GaussianRational)):
            return NotImplemented
        return self._combine(as_poly(other), 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction, GaussianRational)):
            return NotImplemented
        return self._combine(as_poly(other), -1)

    def __rsub__(self, other) -> "Poly":
        return as_poly(other) + (-self)

    def __neg__(self) -> "Poly":
        if not self.re:
            return self
        return _raw([-r for r in self.re], [-m for m in self.im], self.den)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction, GaussianRational)):
            zr, zi, zd = _parts(other)
            if not self.re or (zr == 0 and zi == 0):
                return _P_ZERO
            return _canonical([r * zr - m * zi for r, m in zip(self.re, self.im)],
                              [r * zi + m * zr for r, m in zip(self.re, self.im)],
                              self.den * zd)
        if not isinstance(other, Poly):
            return NotImplemented
        re1, im1, re2, im2 = self.re, self.im, other.re, other.im
        if not re1 or not re2:
            return _P_ZERO
        size = len(re1) + len(re2) - 1
        out_re = [0] * size
        out_im = [0] * size
        if any(im1) or any(im2):
            for i, (ra, ia) in enumerate(zip(re1, im1)):
                if ra == 0 and ia == 0:
                    continue
                for j, (rb, ib) in enumerate(zip(re2, im2), i):
                    out_re[j] += ra * rb - ia * ib
                    out_im[j] += ra * ib + ia * rb
        else:
            for i, ra in enumerate(re1):
                if ra == 0:
                    continue
                for j, rb in enumerate(re2, i):
                    out_re[j] += ra * rb
        return _canonical(out_re, out_im, self.den * other.den)

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
        """Quotient and remainder by pseudo-division over the Gaussian integers.

        With lc the divisor's leading coefficient, g = gcd(Re lc, Im lc),
        c = conj(lc)/g and the positive integer N = c*lc, each step
        multiplies the remainder (and the quotient) by N and subtracts
        t*c*x^k*B, t being the remainder's leading coefficient.  After s
        steps both carry the factor N^s, divided out by one normalization.
        """
        divisor = as_poly(other)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dd = divisor.degree
        if len(self.re) <= dd:
            return _P_ZERO, self
        br, bi = divisor.re, divisor.im
        lr, li = br[-1], bi[-1]
        g = gcd(lr, li)
        cr, ci = lr // g, -li // g
        norm = cr * lr - ci * li
        rr, ri = list(self.re), list(self.im)
        qr = [0] * (len(rr) - dd)
        qi = [0] * len(qr)
        scale = 1
        for top in range(len(rr) - 1, dd - 1, -1):
            tr, ti = rr.pop(), ri.pop()
            if tr == 0 and ti == 0:
                continue
            k = top - dd
            fr, fi = tr * cr - ti * ci, tr * ci + ti * cr
            if norm != 1:
                scale *= norm
                rr = [norm * r for r in rr]
                ri = [norm * m for m in ri]
                for j in range(k + 1, len(qr)):
                    qr[j] *= norm
                    qi[j] *= norm
            qr[k], qi[k] = fr, fi
            for j in range(dd):
                b_r, b_i = br[j], bi[j]
                rr[k + j] -= fr * b_r - fi * b_i
                ri[k + j] -= fr * b_i + fi * b_r
        # self = A/da, divisor = B/db:  A*scale = Q*B + R, so the quotient is
        # Q*db/(scale*da) and the remainder R/(scale*da).
        db = divisor.den
        den = scale * self.den
        return (_canonical([q * db for q in qr], [q * db for q in qi], den),
                _canonical(rr, ri, den))

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    # -- calculus / substitution -------------------------------------------------

    def derivative(self) -> "Poly":
        return _canonical([k * r for k, r in enumerate(self.re)][1:],
                          [k * m for k, m in enumerate(self.im)][1:], self.den)

    def shift(self, delta) -> "Poly":
        """p(x + delta), exact.

        With delta = u/d (u a Gaussian integer): scale c_k by d^(n-k), Taylor
        shift by u, scale term j by d^j, and multiply the denominator by d^n.
        """
        ur, ui, d = _parts(delta)
        if (ur == 0 and ui == 0) or not self.re:
            return self
        re, im = list(self.re), list(self.im)
        n = len(re) - 1
        if d != 1:
            for k in range(n):
                w = d ** (n - k)
                re[k] *= w
                im[k] *= w
        _taylor_shift(re, im, ur, ui)
        if d != 1:
            for j in range(1, n + 1):
                w = d ** j
                re[j] *= w
                im[j] *= w
        return _canonical(re, im, self.den * d ** n)

    def __call__(self, x) -> GaussianRational:
        """p(x) by integer Horner: with x = (xr + i*xi)/xd and n the degree,
        den * xd^n * p(x) = sum_k (r_k + i*m_k) (xr + i*xi)^k xd^(n-k)."""
        if not self.re:
            return GR_ZERO
        xr, xi, xd = _parts(x)
        ar = ai = 0
        w = 1
        for r, m in zip(reversed(self.re), reversed(self.im)):
            ar, ai = ar * xr - ai * xi + r * w, ar * xi + ai * xr + m * w
            w *= xd
        return _gaussian(ar, ai, self.den * w // xd)

    def conjugate_coeffs(self) -> "Poly":
        """The *-operation: conjugate every coefficient."""
        return _raw(self.re, [-m for m in self.im], self.den)

    def monic(self) -> "Poly":
        """p/lead: multiply by conj(lead), over the denominator |lead|^2."""
        if self.is_zero():
            return self
        lr, li = self.re[-1], self.im[-1]
        return _canonical([r * lr + m * li for r, m in zip(self.re, self.im)],
                          [m * lr - r * li for r, m in zip(self.re, self.im)],
                          lr * lr + li * li)

    def max_coeff_bits(self) -> int:
        """Largest bit length of a reduced numerator or denominator of a coefficient."""
        den = self.den
        bits = 0
        for q in self.re + self.im:
            g = gcd(q, den)
            bits = max(bits, (q // g).bit_length(), (den // g).bit_length())
        return bits

    # -- comparison / serialization ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly([other])
        if isinstance(other, Poly):
            return self.den == other.den and self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((tuple(self.re), tuple(self.im), self.den))

    def __repr__(self) -> str:
        return f"Poly([{', '.join(str(c) for c in self.coeffs)}])"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        coeffs = self.coeffs
        for k in range(self.degree, -1, -1):
            c = coeffs[k]
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
        return [str(c) for c in self.coeffs]

    @staticmethod
    def deserialize(data: Sequence[str]) -> "Poly":
        return Poly([parse_gaussian(t) for t in data])


_P_ZERO = _raw([], [], 1)
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


def poly_products_equal(lhs: Sequence[tuple[Poly | ExpPoly, int]],
                        rhs: Sequence[tuple[Poly | ExpPoly, int]]) -> bool:
    """Exact equality of prod p_i^{e_i} == prod q_j^{f_j}: both products
    expanded and compared.  ExpPoly factors add their exponent pairs, and a
    zero product equals any zero product, whatever its pair."""
    def expand(side):
        out = _P_ONE
        for p, e in side:
            if e < 0:
                raise ValueError("negative exponent in product comparison")
            out = out * p ** e
        return out
    return expand(lhs) == expand(rhs)


class RationalFn:
    """Quotient of two Polys; den != 0.  Reduction is lazy (see reduce()).

    ``reduced`` is set only on what ``reduce()`` returns, which reduces to
    itself, so reducing it again (as printing does) is skipped."""

    __slots__ = ("num", "den", "reduced")

    def __init__(self, num, den=_P_ONE):
        num = as_poly(num)
        den = as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("RationalFn with zero denominator")
        if num.is_zero():
            den = _P_ONE
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "reduced", False)

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
        if self.reduced:
            return self
        num, den = self.num, self.den
        if not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.leading()
            num = num * (GR_ONE / lead)
            den = den * (GR_ONE / lead)
        out = RationalFn(num, den)
        object.__setattr__(out, "reduced", True)
        return out

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

    Differentiation maps p -> p' + (a*x + b/2)*p with (a, b) unchanged;
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
    def degree(self) -> int:
        return self.p.degree

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

    The value of a deformed eigenfunction: a quotient of two ExpPolys,
    reduced on demand, compared by its parts and printed.  It has no
    arithmetic; ``oqm.verify_schrodinger`` works on q and the pair.
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

    def reduce(self) -> "ExpRatio":
        return ExpRatio(self.q.reduce(), self.a, self.b)

    def __repr__(self) -> str:
        return f"ExpRatio({self.q!r}, a={self.a}, b={self.b})"

    def __str__(self) -> str:
        if self.a == 0 and self.b == 0:
            return str(self.q)
        return f"({self.q}) * exp(({format_pair(self.a, self.b)})/2)"
