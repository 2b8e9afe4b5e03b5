"""Lowest eigenvalues of symmetric tridiagonal matrices: Sturm counts with
shared brackets, isolation, then a bracketed Newton polish.

Works at the caller's mpmath precision.  The negative count of the standard
Sturm-sequence recurrence d_1 = a_1 - t, d_i = a_i - t - b_{i-1}^2 / d_{i-1}
equals the number of eigenvalues below t.  Each eigenvalue is bisected from
the Gershgorin interval down to tol, but every count tightens the brackets
of all wanted eigenvalues at once (Barth-Martin-Wilkinson; LAPACK dstebz),
and a bisection step whose midpoint lies outside the current bracket is
decided by the bracket without a count.  Once an eigenvalue sits alone in
its bracket, Newton's method on p(t) = det(T - t), whose p'/p = sum d_i'/d_i
comes from the same recurrence, homes in on it, and one count either side
of the root shrinks the bracket below tol, so the rest of the bisection
needs no counts.  The values returned are those of plain bisection.
"""

from __future__ import annotations

from typing import Sequence

import mpmath
from mpmath.libmp import (
    fone,
    from_int,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_sub,
)


def count_below(diag: Sequence, off_sq: Sequence, t) -> tuple:
    """(number of eigenvalues strictly below t, p'(t)/p(t)), where off_sq
    holds the squared off-diagonal entries and p(t) = det(T - t).

    The entries and t are mpf.  The recurrence runs on their raw ``_mpf_``
    tuples with the ``mpmath.libmp`` calls that mpf's operators make, at the
    working precision and rounding read once, so every value is bit for bit
    the operator result; a d_i that is exactly 0 becomes
    -2^-prec (1 + |t|), and the sign of d_i is read from its tuple.
    """
    prec, rnd = mpmath.mp._prec_rounding
    t = t._mpf_
    neg_tiny = None
    count = 0
    d = mpf_sub(diag[0]._mpf_, t, prec, rnd)
    if d == fzero:
        neg_tiny = _neg_tiny(t, prec, rnd)
        d = neg_tiny
    if d[0]:
        count += 1
    r = mpf_rdiv_int(-1, d, prec, rnd)        # d_i'(t) / d_i(t)
    ratio = r
    for i in range(1, len(diag)):
        q = mpf_div(off_sq[i - 1]._mpf_, d, prec, rnd)
        # d_i' = -1 + q d_{i-1}' / d_{i-1}
        slope = mpf_sub(mpf_mul(q, r, prec, rnd), fone, prec, rnd)
        d = mpf_sub(mpf_sub(diag[i]._mpf_, t, prec, rnd), q, prec, rnd)
        if d == fzero:
            if neg_tiny is None:
                neg_tiny = _neg_tiny(t, prec, rnd)
            d = neg_tiny
        if d[0]:
            count += 1
        r = mpf_div(slope, d, prec, rnd)
        ratio = mpf_add(ratio, r, prec, rnd)
    return count, mpmath.mp.make_mpf(ratio)


def _neg_tiny(t: tuple, prec: int, rnd: str) -> tuple:
    """-(2^-prec * (1 + |t|)) as the mpf operators compute it."""
    scale = mpf_pow_int(from_int(2, prec, rnd), -prec, prec, rnd)
    return mpf_neg(mpf_mul(scale, mpf_add(mpf_abs(t, prec, rnd), fone, prec, rnd),
                           prec, rnd), prec, rnd)


def lowest_eigenvalues(diag: Sequence, off: Sequence, k: int,
                       tol=None) -> list:
    """The k smallest eigenvalues, each bisected to tol (default ~quarter
    of the working precision); shared brackets and the Newton polish spare
    most of the Sturm counts that bisection would make."""
    n = len(diag)
    if len(off) != n - 1:
        raise ValueError("off-diagonal length must be n - 1")
    if k < 1 or k > n:
        raise ValueError("need 1 <= k <= n")
    if tol is None:
        tol = mpmath.mpf(2) ** (-(mpmath.mp.prec * 3) // 4)
    off_sq = [b * b for b in off]
    lo = diag[0]
    hi = diag[0]
    for i in range(n):
        radius = (abs(off[i - 1]) if i > 0 else 0) + (abs(off[i]) if i < n - 1 else 0)
        lo = min(lo, diag[i] - radius)
        hi = max(hi, diag[i] + radius)
    # Eigenvalue j (0-based) lies in [lower[j], upper[j]); the counts at the
    # ends are kept, so j is isolated once they are j and j + 1.
    lower, low_count = [lo] * k, [0] * k
    upper, up_count = [hi] * k, [n] * k

    def sturm(t):
        """Count at t, recorded in every bracket; returns p'/p at t."""
        count, ratio = count_below(diag, off_sq, t)
        for j in range(k):
            if count > j:
                if t < upper[j]:
                    upper[j], up_count[j] = t, count
            elif t > lower[j]:
                lower[j], low_count[j] = t, count
        return ratio

    def polish(j):
        """Newton from the middle of j's isolating bracket, a bisection
        step whenever Newton would leave it; then a count either side."""
        t = (lower[j] + upper[j]) / 2
        prev = None                           # the last Newton step
        while upper[j] - lower[j] > tol * (1 + abs(lower[j]) + abs(upper[j])):
            ratio = sturm(t)
            step = -1 / ratio if ratio else mpmath.inf
            if not lower[j] < t + step < upper[j]:
                t = (lower[j] + upper[j]) / 2
                prev = None
                continue
            t += step
            # Under quadratic convergence the new iterate is off by about
            # C step^2, with C ~ |step| / prev^2.  Once that is a quarter of
            # delta, counts at t -+ delta straddle the root; delta far below
            # tol means the bisection that follows seldom needs a count.
            delta = tol * (1 + abs(t)) / 1024
            if prev is not None and abs(step) ** 3 <= delta * prev ** 2 / 4:
                sturm(t - delta)
                sturm(t + delta)
                return
            prev = step

    # Plain bisection of each eigenvalue.  The computed count is monotone in
    # t (Kahan), so a midpoint outside j's bracket has the count the
    # bracket end beyond it shows; only a midpoint inside needs a count.
    values = []
    for j in range(k):
        polished = False
        a, b = lo, hi
        while b - a > tol * (1 + abs(a) + abs(b)):
            if not polished and low_count[j] == j and up_count[j] == j + 1:
                polish(j)
                polished = True
            mid = (a + b) / 2
            if lower[j] < mid < upper[j]:
                sturm(mid)
            if mid >= upper[j]:
                b = mid
            else:
                a = mid
        values.append((a + b) / 2)
    return values
