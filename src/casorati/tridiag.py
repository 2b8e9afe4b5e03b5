"""Lowest eigenvalues of symmetric tridiagonal matrices: Sturm counts with
shared brackets, isolation, then a bracketed Newton polish from a binary64
start.

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

The Newton polish starts where a safeguarded Newton-bisection in binary64,
run on float copies of the entries inside the isolating bracket, ends; so
the full-precision Newton needs two or three steps instead of about eight.
The float iterate only chooses where full-precision counts are taken: it is
used when it lies strictly inside the big-float bracket (else the midpoint
is), a float count tightens only the float bracket, and every bracket end
and every returned digit comes from big-float counts.  Only Newton steps
need p'/p; bisection and straddle counts are count-only sweeps.  The
bisection replay, the bracket updates and the Newton arithmetic run on raw
``_mpf_`` tuples with the ``mpmath.libmp`` calls that mpf's operators make,
so every value is bit for bit the operator result.
"""

from __future__ import annotations

import math
from typing import Sequence

import mpmath
from mpmath.libmp import (
    finf,
    fone,
    from_float,
    from_int,
    ftwo,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_ge,
    mpf_gt,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_sub,
    to_float,
)

_FOUR = from_int(4)
_1024 = from_int(1024)
_FLOAT_STOP = 2.0 ** -50       # binary64 Newton stops on a step below this (1 + |t|)
_FLOAT_STEPS = 64              # at most this many binary64 counts per eigenvalue


def count_below(diag: Sequence, off_sq: Sequence, t, with_ratio: bool = True) -> tuple:
    """(number of eigenvalues strictly below t, p'(t)/p(t)), where off_sq
    holds the squared off-diagonal entries and p(t) = det(T - t).

    The entries and t are mpf.  The recurrence runs on their raw ``_mpf_``
    tuples with the ``mpmath.libmp`` calls that mpf's operators make, at the
    working precision and rounding read once, so every value is bit for bit
    the operator result; a d_i that is exactly 0 becomes
    -2^-prec (1 + |t|), and the sign of d_i is read from its tuple.  With
    ``with_ratio=False`` the sweep is count-only: it skips the derivative
    recurrence (4 of the 7 libmp calls per row) and returns (count, None).
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
    if not with_ratio:
        for i in range(1, len(diag)):
            d = mpf_sub(mpf_sub(diag[i]._mpf_, t, prec, rnd),
                        mpf_div(off_sq[i - 1]._mpf_, d, prec, rnd), prec, rnd)
            if d == fzero:
                if neg_tiny is None:
                    neg_tiny = _neg_tiny(t, prec, rnd)
                d = neg_tiny
            if d[0]:
                count += 1
        return count, None
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


def _float_count(diag: list, off_sq: list, t: float) -> tuple:
    """count_below in binary64 on float entries; a zero d_i becomes
    -2^-53 (1 + |t|).  Overflow gives inf or nan, never an exception."""
    tiny = -(1.0 + abs(t)) * 2.0 ** -53
    d = diag[0] - t
    if d == 0.0:
        d = tiny
    count = 1 if d < 0.0 else 0
    r = -1.0 / d
    ratio = r
    for i in range(1, len(diag)):
        q = off_sq[i - 1] / d
        slope = q * r - 1.0
        d = diag[i] - t - q
        if d == 0.0:
            d = tiny
        if d < 0.0:
            count += 1
        r = slope / d
        ratio += r
    return count, ratio


def _binary64_start(diag: list, off_sq: list, j: int, lower: tuple, upper: tuple):
    """The end of a safeguarded Newton-bisection in binary64 for eigenvalue
    j, from its isolating bracket [lower, upper); as a raw mpf, or None
    when the bracket is not finite in binary64 or the end is not strictly
    inside it.

    A float count tightens only the float bracket, and the iteration stops
    on a step below 2^-50 (1 + |t|), so nothing here decides a count."""
    lo, hi = to_float(lower), to_float(upper)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        return None
    t = 0.5 * lo + 0.5 * hi
    for _ in range(_FLOAT_STEPS):
        count, ratio = _float_count(diag, off_sq, t)
        if count > j:
            hi = t
        else:
            lo = t
        nxt = t - 1.0 / ratio if ratio else math.inf
        if not lo < nxt < hi:
            nxt = 0.5 * lo + 0.5 * hi
        done = abs(nxt - t) <= _FLOAT_STOP * (1.0 + abs(t))
        t = nxt
        if done:
            break
    start = from_float(t)
    if mpf_lt(lower, start) and mpf_lt(start, upper):
        return start
    return None


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
    prec, rnd = mpmath.mp._prec_rounding
    make_mpf = mpmath.mp.make_mpf
    tol, lo, hi = tol._mpf_, lo._mpf_, hi._mpf_
    tol_mag = tol[2] + tol[3]                 # |tol| < 2^tol_mag
    float_diag = [to_float(a._mpf_) for a in diag]
    float_off_sq = [to_float(b._mpf_) for b in off_sq]
    if not all(map(math.isfinite, float_diag + float_off_sq)):
        float_diag = None
    # Eigenvalue j (0-based) lies in [lower[j], upper[j]); the counts at the
    # ends are kept, so j is isolated once they are j and j + 1.
    lower, low_count = [lo] * k, [0] * k
    upper, up_count = [hi] * k, [n] * k

    def wide(a, b):
        """b - a > tol (1 + |a| + |b|)."""
        width = mpf_sub(b, a, prec, rnd)
        sign, man, exp, bc = width
        # The rounded right side is at most 2^(tol_mag + 2 + max(1, mag a,
        # mag b)), with mag x = exp + bc of x, and a positive width is at
        # least 2^(exp + bc - 1); so all but the last few steps of a
        # bisection are decided without computing it.
        if not sign and man and exp + bc >= tol_mag + 4 + max(1, a[2] + a[3], b[2] + b[3]):
            return True
        bound = mpf_add(mpf_add(mpf_abs(a, prec, rnd), fone, prec, rnd),
                        mpf_abs(b, prec, rnd), prec, rnd)
        return mpf_gt(width, mpf_mul(tol, bound, prec, rnd))

    def middle(a, b):
        """(a + b) / 2."""
        return mpf_div(mpf_add(a, b, prec, rnd), ftwo, prec, rnd)

    def sturm(t, with_ratio=False):
        """Count at t, recorded in every bracket; returns p'/p at t (raw)
        when asked for."""
        count, ratio = count_below(diag, off_sq, make_mpf(t), with_ratio)
        for j in range(min(count, k)):
            if mpf_lt(t, upper[j]):
                upper[j], up_count[j] = t, count
        for j in range(count, k):
            if mpf_gt(t, lower[j]):
                lower[j], low_count[j] = t, count
        return ratio._mpf_ if with_ratio else None

    def polish(j):
        """Newton from the binary64 start (or the middle) of j's isolating
        bracket, a bisection step whenever Newton would leave it; then a
        count either side."""
        t = None
        if float_diag is not None:
            t = _binary64_start(float_diag, float_off_sq, j, lower[j], upper[j])
        if t is None:
            t = middle(lower[j], upper[j])
        prev = None                           # the last Newton step
        while wide(lower[j], upper[j]):
            ratio = sturm(t, with_ratio=True)
            step = mpf_rdiv_int(-1, ratio, prec, rnd) if ratio != fzero else finf
            nxt = mpf_add(t, step, prec, rnd)
            if not (mpf_lt(lower[j], nxt) and mpf_lt(nxt, upper[j])):
                t = middle(lower[j], upper[j])
                prev = None
                continue
            t = nxt
            # Under quadratic convergence the new iterate is off by about
            # C step^2, with C ~ |step| / prev^2.  Once that is a quarter of
            # delta, counts at t -+ delta straddle the root; delta far below
            # tol means the bisection that follows seldom needs a count.
            delta = mpf_div(mpf_mul(tol, mpf_add(mpf_abs(t, prec, rnd), fone, prec, rnd),
                                    prec, rnd), _1024, prec, rnd)
            if prev is not None and mpf_le(
                    mpf_pow_int(mpf_abs(step, prec, rnd), 3, prec, rnd),
                    mpf_div(mpf_mul(delta, mpf_pow_int(prev, 2, prec, rnd), prec, rnd),
                            _FOUR, prec, rnd)):
                sturm(mpf_sub(t, delta, prec, rnd))
                sturm(mpf_add(t, delta, prec, rnd))
                return
            prev = step

    # Plain bisection of each eigenvalue.  The computed count is monotone in
    # t (Kahan), so a midpoint outside j's bracket has the count the
    # bracket end beyond it shows; only a midpoint inside needs a count.
    values = []
    for j in range(k):
        polished = False
        a, b = lo, hi
        while wide(a, b):
            if not polished and low_count[j] == j and up_count[j] == j + 1:
                polish(j)
                polished = True
            mid = middle(a, b)
            if mpf_lt(lower[j], mid) and mpf_lt(mid, upper[j]):
                sturm(mid)
            if mpf_ge(mid, upper[j]):
                b = mid
            else:
                a = mid
        values.append(make_mpf(middle(a, b)))
    return values
