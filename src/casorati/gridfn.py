"""Functions on the integer window {0, ..., x_max}.

Values are either exact Fractions or mpmath floats.  Any access beyond the
stored window raises instead of padding, so shrinking windows surface
loudly.  ``raw`` holds the values' raw ``_mpf_`` tuples (None for an exact
value), read once when the grid is made, for loops on ``mpmath.libmp`` calls.
"""

from __future__ import annotations

from typing import Sequence


class WindowError(ValueError):
    """An operation needed grid values outside the stored window."""


class GridFn:
    """Values on {0, ..., x_max}; an rdQM seed's energy travels beside it."""

    __slots__ = ("values", "raw")

    def __init__(self, values: Sequence):
        object.__setattr__(self, "values", tuple(values))
        if not self.values:
            raise WindowError("GridFn needs at least one point")
        object.__setattr__(self, "raw", tuple(getattr(v, "_mpf_", None) for v in self.values))

    def __setattr__(self, name, value):
        raise AttributeError("GridFn is immutable")

    @property
    def x_max(self) -> int:
        return len(self.values) - 1

    def __call__(self, x: int):
        if not 0 <= x <= self.x_max:
            raise WindowError(f"x={x} outside window [0, {self.x_max}]")
        return self.values[x]

    def truncated(self, x_max: int) -> "GridFn":
        """The values on {0, ..., x_max}; ``self`` itself when that is the
        whole window, so callers that key on identity see the same grid."""
        if x_max > self.x_max:
            raise WindowError(f"cannot extend window to {x_max} (have {self.x_max})")
        if x_max == self.x_max:
            return self
        return GridFn(self.values[:x_max + 1])

    def __repr__(self) -> str:
        head = ", ".join(str(v) for v in self.values[:4])
        tail = ", ..." if len(self.values) > 4 else ""
        return f"GridFn([{head}{tail}], x_max={self.x_max})"

