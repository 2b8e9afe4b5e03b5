"""Seed bookkeeping shared by the deformation pipelines: the pairwise-energy
sign factor and the Krein-Adler admissibility test."""

from __future__ import annotations

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
