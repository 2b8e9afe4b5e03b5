"""Seed-label bookkeeping shared by the deformation pipelines.

An IndexSet is the ordered pair of label lists (virtual seeds first, then
eigenstate seeds), with their energies.  It owns the derived quantities:
the first surviving level mu = min{n : n not deleted} and the pairwise-energy
sign factor.  The Krein-Adler admissibility test is a plain function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def sign_factor(energies: Sequence) -> int:
    """Product of sgn(E_i - E_j) over ordered pairs i < j; +1 for length <= 1.

    Energies must be pairwise distinct (a zero difference has no sign).
    """
    sign = 1
    n = len(energies)
    for i in range(n):
        for j in range(i + 1, n):
            diff = energies[i] - energies[j]
            if diff == 0:
                raise ValueError("sign factor undefined for equal energies")
            if diff < 0:
                sign = -sign
    return sign


def krein_adler_check(d_e: Sequence[int]) -> bool:
    """prod_j (m - e_j) >= 0 for every integer m >= 0.

    Checked for m up to max(d_e) + 1; beyond that every factor is positive.
    """
    labels = list(d_e)
    if not labels:
        return True
    for m in range(max(labels) + 2):
        prod = 1
        for e in labels:
            prod *= m - e
        if prod < 0:
            return False
    return True


@dataclass(frozen=True)
class IndexSet:
    """Ordered seed labels: d_v (virtual) then d_e (eigenstate), with energies."""

    d_v: tuple = ()
    d_e: tuple = ()
    v_energies: tuple = ()
    e_energies: tuple = ()

    def __post_init__(self):
        if len(set(self.d_v)) != len(self.d_v):
            raise ValueError("virtual labels must be mutually distinct")
        if len(set(self.d_e)) != len(self.d_e):
            raise ValueError("eigenstate labels must be mutually distinct")
        if len(self.v_energies) != len(self.d_v):
            raise ValueError("one energy per virtual label required")
        if len(self.e_energies) != len(self.d_e):
            raise ValueError("one energy per eigenstate label required")

    @property
    def mu(self) -> int:
        """Smallest level not deleted by the eigenstate seeds."""
        deleted = set(self.d_e)
        n = 0
        while n in deleted:
            n += 1
        return n

    def energies(self) -> tuple:
        """Seed energies in pipeline order (virtual first, then eigenstate)."""
        return tuple(self.v_energies) + tuple(self.e_energies)

    def epsilon(self) -> int:
        return sign_factor(self.energies())

    def sign_identity_holds(self) -> bool:
        """epsilon_D == (-1)^{l m} epsilon_{D_v} epsilon_{D_e} for this ordering."""
        lm = len(self.d_v) * len(self.d_e)
        return (self.epsilon()
                == (-1) ** lm * sign_factor(self.v_energies) * sign_factor(self.e_energies))
