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


def count_below(diag: Sequence, off_sq: Sequence, t) -> tuple:
    """(number of eigenvalues strictly below t, p'(t)/p(t)), where off_sq
    holds the squared off-diagonal entries and p(t) = det(T - t)."""
    count = 0
    d = diag[0] - t
    tiny = mpmath.mpf(2) ** (-mpmath.mp.prec) * (1 + abs(t))
    if d == 0:
        d = -tiny
    if d < 0:
        count += 1
    r = -1 / d                                # d_i'(t) / d_i(t)
    ratio = r
    for i in range(1, len(diag)):
        q = off_sq[i - 1] / d
        slope = q * r - 1                     # d_i' = -1 + q d_{i-1}' / d_{i-1}
        d = diag[i] - t - q
        if d == 0:
            d = -tiny
        if d < 0:
            count += 1
        r = slope / d
        ratio += r
    return count, ratio


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
