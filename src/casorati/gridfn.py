"""Functions on the integer window {0, ..., x_max}.

Each value is stored once, in ``raw``: an exact value (a Fraction) as
itself, a big float as its raw ``_mpf_`` tuple, which the rdQM layer's
``mpmath.libmp`` loops read and write.  A read through ``__call__`` or
``values`` wraps a tuple in an mpf, unrounded.  Any access beyond the stored
window raises instead of padding, so shrinking windows surface loudly.
"""

from __future__ import annotations

from typing import Iterable

import mpmath


class WindowError(ValueError):
    """An operation needed grid values outside the stored window."""


def _public(value):
    """A stored value as callers see it: the mpf of a raw tuple, else itself."""
    return mpmath.mp.make_mpf(value) if type(value) is tuple else value


class GridFn:
    """Values on {0, ..., x_max}, given as Fractions, mpfs or raw ``_mpf_``
    tuples; an rdQM seed's energy travels beside it."""

    __slots__ = ("raw",)

    def __init__(self, values: Iterable):
        object.__setattr__(self, "raw", tuple(getattr(v, "_mpf_", v) for v in values))
        if not self.raw:
            raise WindowError("GridFn needs at least one point")

    def __setattr__(self, name, value):
        raise AttributeError("GridFn is immutable")

    @property
    def x_max(self) -> int:
        return len(self.raw) - 1

    @property
    def values(self) -> tuple:
        return tuple(map(_public, self.raw))

    def __call__(self, x: int):
        if not 0 <= x <= self.x_max:
            raise WindowError(f"x={x} outside window [0, {self.x_max}]")
        return _public(self.raw[x])

    def truncated(self, x_max: int) -> "GridFn":
        """The values on {0, ..., x_max}; ``self`` itself when that is the
        whole window, so callers that key on identity see the same grid."""
        if x_max > self.x_max:
            raise WindowError(f"cannot extend window to {x_max} (have {self.x_max})")
        if x_max == self.x_max:
            return self
        return GridFn(self.raw[:x_max + 1])

    def __repr__(self) -> str:
        head = ", ".join(str(self(x)) for x in range(min(4, len(self.raw))))
        tail = ", ..." if len(self.raw) > 4 else ""
        return f"GridFn([{head}{tail}], x_max={self.x_max})"
