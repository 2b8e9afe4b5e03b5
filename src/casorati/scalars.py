"""Exact scalars: arbitrary-precision rationals, Gaussian rationals, big floats.

Rationals are stdlib ``fractions.Fraction`` (always gcd-reduced, positive
denominator).  ``GaussianRational`` is the complex extension a + b*i with
rational a, b; it is the coefficient field for every exact polynomial
computation in this package.  Big-float evaluation goes through mpmath with a
binary precision chosen per run (default 256 bits).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import mpmath

DEFAULT_PRECISION_BITS = 256

_F0 = Fraction(0)

RationalLike = Union[int, str, Fraction]


def rational(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions or "p/q" strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not a rational: {value!r}")


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q" (plain integer when the denominator is 1)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class GaussianRational:
    """Complex number re + im*i with exact rational parts.

    Closed under +, -, *, and / by a nonzero value; conjugation flips the
    sign of ``im``.  Instances are immutable and hashable.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", rational(re))
        object.__setattr__(self, "im", rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re.numerator == 0 and self.im.numerator == 0

    def is_real(self) -> bool:
        return self.im.numerator == 0

    # -- arithmetic ---------------------------------------------------------

    # An operand that as_gaussian cannot coerce gets NotImplemented, so the
    # other type's reflected method (e.g. Poly.__radd__) has its turn.

    def __add__(self, other) -> "GaussianRational":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        other = _operand(other)
        return NotImplemented if other is None else other.__sub__(self)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        other = _operand(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if b.numerator == 0 and d.numerator == 0:
            return GaussianRational(a * c, _F0)
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = _operand(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero GaussianRational")
        a, b, c, d = self.re, self.im, other.re, other.im
        if b.numerator == 0 and d.numerator == 0:
            return GaussianRational(a / c, _F0)
        norm = c * c + d * d
        return GaussianRational((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other) -> "GaussianRational":
        other = _operand(other)
        return NotImplemented if other is None else other.__truediv__(self)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def magnitude_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.im.numerator == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im.numerator == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.im.numerator == 0:
            return format_rational(self.re)
        if self.re.numerator == 0:
            return f"{format_rational(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}*i"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def as_gaussian(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    if isinstance(value, str):
        return GaussianRational(rational(value))
    raise TypeError(f"cannot coerce {value!r} to GaussianRational")


def _operand(value) -> GaussianRational | None:
    """as_gaussian(value), or None where it would raise TypeError."""
    try:
        return as_gaussian(value)
    except TypeError:
        return None


def imaginary(value: RationalLike) -> GaussianRational:
    """The pure imaginary number value*i."""
    return GaussianRational(_F0, value)


def i_power(k: int) -> GaussianRational:
    """i**k for any integer k."""
    return (GR_ONE, GR_I, -GR_ONE, -GR_I)[k % 4]


def parse_gaussian(text: str) -> GaussianRational:
    """Inverse of ``str`` on a GaussianRational, for witness round-trips."""
    s = text.strip().replace(" ", "")
    if s.endswith("*i"):
        body = s[:-2]
        # split into real part and imaginary coefficient
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/":
                return GaussianRational(rational(body[:pos]),
                                        rational(body[pos:].replace("+", "", 1)))
        return GaussianRational(0, rational(body))
    return GaussianRational(rational(s))


def mpf_from_rational(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def working_precision(bits: int):
    """Context manager pinning the mpmath binary precision."""
    return mpmath.workprec(bits)
