"""Functions on the integer window {0, ..., x_max}.

Values are either exact Fractions or mpmath floats.  Any access beyond the
stored window raises instead of padding, so shrinking windows surface
loudly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import mpmath


class WindowError(ValueError):
    """An operation needed grid values outside the stored window."""


class GridFn:
    """Values on {0, ..., x_max}; an rdQM seed's energy travels beside it."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence):
        object.__setattr__(self, "values", tuple(values))
        if not self.values:
            raise WindowError("GridFn needs at least one point")

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


def grid_csv_rows(name: str, grid: GridFn, precision_bits: int | None = None):
    """Rows for CSV export: header then (x, value) pairs."""
    header = [f"x", f"{name}"]
    if precision_bits is not None:
        header[1] += f" (bits={precision_bits})"
    rows = [header]
    for x, v in enumerate(grid.values):
        if isinstance(v, Fraction):
            rows.append([str(x), f"{v.numerator}/{v.denominator}"])
        else:
            rows.append([str(x), mpmath.nstr(v, 30)])
    return rows
