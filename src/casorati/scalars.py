"""Exact scalars: arbitrary-precision rationals, Gaussian rationals, big floats.

Rationals are stdlib ``fractions.Fraction`` (always gcd-reduced, positive
denominator).  ``GaussianRational`` is the complex extension a + b*i with
rational a, b; it is the coefficient field for every exact polynomial
computation in this package.  Big-float evaluation goes through mpmath with a
binary precision chosen per run (default 256 bits).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

import mpmath
from mpmath.libmp import from_int, mpf_div, mpf_pos

DEFAULT_PRECISION_BITS = 256

RationalLike = Union[int, str, Fraction]

# Upper bound of a rational text's digit count and of its decimal exponent's
# size: Fraction("1e999999999") would build the whole power of ten.
MAX_RATIONAL_DIGITS = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)$")


def require_at_most(name: str, value: int, bound: int) -> None:
    """The one rule for an input that sizes the work: above its bound, ValueError."""
    if value > bound:
        raise ValueError(f"{name} {value} is above its bound {bound}")


def rational(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions or "p/q" strings to an exact Fraction; a text
    with more than MAX_RATIONAL_DIGITS digits, a larger exponent or a zero
    denominator raises ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        exponent = _EXPONENT.search(text)
        require_at_most("rational text digit count", sum(map(str.isdigit, text)),
                        MAX_RATIONAL_DIGITS)      # so that int() below is cheap
        require_at_most("rational text exponent size",
                        abs(int(exponent[1])) if exponent else 0, MAX_RATIONAL_DIGITS)
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"rational text {text!r} has a zero denominator") from None
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

    # -- arithmetic ---------------------------------------------------------

    # An operand of a type as_gaussian does not coerce gets NotImplemented, so
    # the other type's reflected method (e.g. Poly.__radd__) has its turn.

    def __add__(self, other) -> "GaussianRational":
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        other = as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        other = as_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        return as_gaussian(other) - self if isinstance(other, _OPERANDS) else NotImplemented

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        other = as_gaussian(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        other = as_gaussian(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero GaussianRational")
        a, b, c, d = self.re, self.im, other.re, other.im
        norm = c * c + d * d
        return GaussianRational((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other) -> "GaussianRational":
        return as_gaussian(other) / self if isinstance(other, _OPERANDS) else NotImplemented

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

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


# What as_gaussian coerces: the operands of GaussianRational's arithmetic.
_OPERANDS = (GaussianRational, int, Fraction, str)

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


def raw_rational(q: Fraction, prec: int, rnd: str) -> tuple:
    """mpf(numerator) / denominator as a raw tuple, the numerator rounded first."""
    return mpf_div(mpf_pos(from_int(q.numerator), prec, rnd), from_int(q.denominator), prec, rnd)


def working_precision(bits: int):
    """Context manager pinning the mpmath binary precision."""
    return mpmath.workprec(bits)
