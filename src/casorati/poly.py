"""Polynomials over Gaussian rationals, reduced quotients, and exp-prefactor forms.

``Poly`` stores a polynomial in integer form: two Gaussian-integer coefficient
vectors ``re`` and ``im`` (index = degree) over one common denominator
``den > 0``, kept canonical (gcd(den, re, im) = 1, no trailing zero term, the
zero polynomial has ``den == 1``).  Every operation works on Python ints and
normalizes once; exact division is pseudo-division.  ``GaussianRational``
coefficients appear only at the boundary: the ``coeffs`` view, built on each
read (printing, serialization) and a value ``p(x)``.  One integer Horner
loop, ``_horner``, serves values, ``sign_at``, idQM's atom values,
``shift`` (p(x + delta) read back from its value at 2^width + delta) and the
determinant kernel's packing; the packed form's
helpers, ``_pack``, ``_unpack`` and the width bound ``_shift_size``, live
beside it.  One scalar product, ``_scale``, serves ``*`` by a scalar,
``monic`` and ``reduce``.
``RationalFn`` is a quotient of two Polys; arithmetic (+, -, *) keeps the
pair unreduced (equality cross-multiplies), ``reduce()`` produces the
gcd-reduced monic-denominator representative on demand.
``ExpPoly`` is p(x) * exp((a*x^2 + b*x)/2) with rational a, b; the class is
closed under differentiation and products.  ``ExpRatio`` is a quotient
q(x) * exp((a*x^2 + b*x)/2) with q a RationalFn: the value of a deformed
eigenfunction, with no arithmetic of its own.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .scalars import (
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


def _ratio(q: int, den: int) -> str:
    """q/den in lowest terms, as ``format_rational`` prints it: one gcd."""
    g = gcd(q, den)
    return str(q // g) if g == den else f"{q // g}/{den // g}"


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


def _mul_into(out_re: list, out_im: list, re1: list, im1: list, re2: list, im2: list) -> None:
    """In place: add the product of the integer vectors re1 + i*im1 and
    re2 + i*im2 to out_re + i*out_im, which are long enough to hold it; a
    real-only loop when neither factor has an imaginary part."""
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


def _horner(re: list, im, shift: tuple, width: int, w: int) -> tuple[int, int]:
    """w d^k p(2^width + (ur + i ui)/d) for shift = (ur, ui, d) and p of
    degree k with coefficients re + i im (im empty for a real p), by integer
    Horner: sum_j w c_j (d 2^width + ur + i ui)^j d^(k-j), as (re, im)."""
    ur, ui, d = shift
    ar = ai = 0
    if ui or any(im):
        for r, m in zip(reversed(re), reversed(im)):
            ar, ai = ((ar * d << width) + ar * ur - ai * ui + r * w,
                      (ai * d << width) + ai * ur + ar * ui + m * w)
            w *= d
        return ar, ai
    for r in reversed(re):
        ar = (ar * d << width) + ar * ur + r * w
        w *= d
    return ar, 0


def _pack(values: list, width: int) -> int:
    """The coefficient list ``values`` evaluated at 2^width."""
    packed = 0
    for v in reversed(values):
        packed = (packed << width) + v
    return packed


def _unpack(entry, width: int) -> tuple[list, list]:
    """The balanced base-2^width digits, low first, of a packed entry (an int,
    or an (re, im) pair): its re and im coefficients, of equal length."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    parts = []
    for packed in (entry, 0) if isinstance(entry, int) else entry:
        digits = []
        while packed:
            d = packed & mask
            packed >>= width
            if d >= half:
                d -= mask + 1
                packed += 1
            digits.append(d)
        parts.append(digits)
    re, im = parts
    size = max(len(re), len(im))
    return re + [0] * (size - len(re)), im + [0] * (size - len(im))


def _shift_size(p: "Poly", reach: int, d: int) -> int:
    """sum_j |c_j|_1 reach^j d^(k-j) over the coefficients c_j of p (degree k)."""
    total, w = 0, 1
    for r, m in zip(reversed(p.re), reversed(p.im)):
        total = total * reach + (abs(r) + abs(m)) * w
        w *= d
    return total


def _scale(p: "Poly", zr: int, zi: int, den: int) -> "Poly":
    """p's integer vector times the Gaussian integer zr + i*zi, over den."""
    return _canonical([r * zr - m * zi for r, m in zip(p.re, p.im)],
                      [r * zi + m * zr for r, m in zip(p.re, p.im)], den)


class Poly:
    """Dense polynomial (re + i*im)/den over the Gaussian rationals.

    ``re`` and ``im`` are equal-length lists of ints indexed by degree and
    ``den`` is a positive int; none of them changes after construction.  The
    form is canonical, so ``==`` and ``hash`` compare the integers directly;
    a constant hashes as the scalar it equals.
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
    def constant(c) -> "Poly":
        return Poly([c])

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.re) - 1

    def is_zero(self) -> bool:
        return not self.re

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
            return _scale(self, zr, zi, self.den * zd)
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.re or not other.re:
            return _P_ZERO
        size = len(self.re) + len(other.re) - 1
        out_re, out_im = [0] * size, [0] * size
        _mul_into(out_re, out_im, self.re, self.im, other.re, other.im)
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
        """p(x + delta), exact: for delta = u/d (u a Gaussian integer) and p
        of degree k, d^k num(x + delta) has coefficients of size at most
        S = ``_shift_size``(p, d + |u|_1, d), so ``_horner`` evaluates it at
        2^width, width = bitlen(S) + 1, and ``_unpack`` reads them back."""
        ur, ui, d = _parts(delta)
        if (ur == 0 and ui == 0) or not self.re:
            return self
        width = _shift_size(self, d + abs(ur) + abs(ui), d).bit_length() + 1
        return _canonical(*_unpack(_horner(self.re, self.im, (ur, ui, d), width, 1), width),
                          self.den * d ** (len(self.re) - 1))

    def _at(self, x) -> tuple[int, int, int]:
        """p(x) as (re, im, den) with den > 0: for x = (xr + i*xi)/xd, which
        is 1 + (xr - xd + i*xi)/xd, ``_horner`` at width 0 gives
        den * xd^k * p(x), k the degree."""
        if not self.re:
            return 0, 0, 1
        xr, xi, xd = _parts(x)
        return (*_horner(self.re, self.im, (xr - xd, xi, xd), 0, 1),
                self.den * xd ** (len(self.re) - 1))

    def __call__(self, x) -> GaussianRational:
        return _gaussian(*self._at(x))

    def sign_at(self, x) -> int | None:
        """The sign of p(x), -1, 0 or 1, read off the integers; None where
        p(x) is not real."""
        re, im, _ = self._at(x)
        return None if im else (re > 0) - (re < 0)

    def conjugate_coeffs(self) -> "Poly":
        """The *-operation: conjugate every coefficient."""
        return _raw(self.re, [-m for m in self.im], self.den)

    def monic(self) -> "Poly":
        """p/lead: multiply by conj(lead), over the denominator |lead|^2."""
        if self.is_zero():
            return self
        lr, li = self.re[-1], self.im[-1]
        return _scale(self, lr, -li, lr * lr + li * li)

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
        if len(self.re) < 2:            # as GaussianRational.__hash__, with no instance
            re, im = (Fraction(v[0] if v else 0, self.den) for v in (self.re, self.im))
            return hash((re, im) if im else re)
        return hash((tuple(self.re), tuple(self.im), self.den))

    def __repr__(self) -> str:
        return f"Poly([{', '.join(str(c) for c in self.coeffs)}])"

    def __str__(self) -> str:
        """Terms from the top degree down, each coefficient as ``str`` of its
        GaussianRational would print it, formatted from the integers."""
        if self.is_zero():
            return "0"
        parts = []
        den = self.den
        for k in range(self.degree, -1, -1):
            r, m = self.re[k], self.im[k]
            if not m:
                if not r:
                    continue
                term = f"({_ratio(r, den)})" if r < 0 else _ratio(r, den)
            elif not r:
                term = f"({_ratio(m, den)}*i)"
            else:
                term = f"({_ratio(r, den)}{'+' if m > 0 else '-'}{_ratio(abs(m), den)}*i)"
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
    """Exact equality of prod p_i^{e_i} == prod q_j^{f_j}, the exact layer's
    one product comparison.  A side is zero iff it has a zero factor with a
    positive exponent, and zero sides are decided before anything cancels.
    Otherwise the factors common to both sides (by canonical form) cancel,
    as f*A == f*B iff A == B for f != 0 in Q(i)[x] (an ExpPoly factor has the
    same pair on both sides), and only the rest is expanded.  A side with an
    ExpPoly factor is an ExpPoly, even when it cancels to empty, and never
    equals a Poly; ExpPolys add their pairs, and a zero product equals any
    zero product of its kind.  An exponent of 0 drops its factor; a negative
    one raises ValueError."""
    sides = []
    for side in (lhs, rhs):
        counts, exp_kind = Counter(), False
        for p, e in side:
            if e < 0:
                raise ValueError("negative exponent in product comparison")
            exp_kind = exp_kind or isinstance(p, ExpPoly)
            if e:
                counts[p] += e
        sides.append((counts, exp_kind, any(p.is_zero() for p in counts)))
    (l_counts, l_exp, l_zero), (r_counts, r_exp, r_zero) = sides
    if l_zero or r_zero:
        return l_zero and r_zero and l_exp == r_exp
    common = l_counts & r_counts

    def expand(counts, exp_kind):
        out = ExpPoly.one() if exp_kind else _P_ONE
        for p, e in (counts - common).items():
            out = out * p ** e
        return out
    return expand(l_counts, l_exp) == expand(r_counts, r_exp)


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
            lr, li = den.re[-1], den.im[-1]     # den's lead is (lr + i*li)/den.den
            num = _scale(num, den.den * lr, -den.den * li, num.den * (lr * lr + li * li))
            den = den.monic()
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

    def derivative(self) -> "RationalFn":
        return RationalFn(self.num.derivative() * self.den - self.num * self.den.derivative(),
                          self.den * self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational, Poly)):
            other = RationalFn(other)
        if isinstance(other, RationalFn):
            return self.num * other.den == other.num * self.den
        return NotImplemented

    def __hash__(self):
        r = self.reduce()
        return hash(r.num) if r.den == _P_ONE else hash((r.num, r.den))

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
        return hash(self.p) if self.p.is_zero() else hash((self.p, self.a, self.b))

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
