"""Lowest eigenvalues of symmetric tridiagonal matrices: plain bisection on
Sturm counts, with the counts placed by hints that cost no big-float work.

Works at the caller's mpmath precision on raw ``_mpf_`` tuples: the entries
come in raw, the Gershgorin bounds and the squared off-diagonal are formed
once a call by the libmp calls of the mpf operators, and only the returned
eigenvalues are mpf.  The negative count of the standard
Sturm-sequence recurrence d_1 = a_1 - t, d_i = a_i - t - b_{i-1}^2 / d_{i-1}
equals the number of eigenvalues below t, and the computed count is
monotone in t (Kahan).  Each eigenvalue is bisected from the Gershgorin
interval down to tol.  Every big-float count tightens the brackets of all
wanted eigenvalues at once (Barth-Martin-Wilkinson; LAPACK dstebz), and a
bisection step whose midpoint lies outside the current bracket is decided
by the bracket without a count, so the values returned are those of plain
bisection, bit for bit.

The hints choose where the big-float counts go.  Binary64 counts on shared
brackets isolate each eigenvalue, a safeguarded binary64 Newton-bisection
polishes it, and a few Newton sweeps in fixed point on Python ints take it
below delta = tol (1 + |t|) / 1024.  Two big-float counts at hint -+ delta
then read j and j + 1 for eigenvalue j (0-based), and the bisection that
follows seldom needs another count.  When they do not (binary64 cannot split a close pair,
or the entries are not finite in binary64), the bisection counts at every
midpoint inside the bracket: slower, never wrong.  No hint enters a bracket
or a digit.

The bisection replay runs on exact ints at a scale 2^-E taken from the
inputs and refined whenever a midpoint needs it: (a + b) is rounded to the
working precision nearest-even, as ``mpf_add`` rounds it, and halved.  Only
the last steps of ``wide`` and the counts themselves use ``mpmath.libmp``.
"""

from __future__ import annotations

import math
from typing import Sequence

import mpmath
from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pow_int,
    mpf_sub,
    to_float,
)

_FLOAT_STOP = 2.0 ** -50       # binary64 Newton stops on a step below this (1 + |t|)
_FLOAT_STEPS = 64              # at most this many binary64 Newton-bisection steps per eigenvalue
_NEWTON_SWEEPS = 8             # at most this many fixed-point Newton sweeps per eigenvalue
_GUARD_BITS = 32               # fixed-point resolution below tol
_REFINE_BITS = 64              # the replay's scale grows by this much when it must


def count_below(diag: Sequence, off_sq: Sequence, t) -> int:
    """The number of eigenvalues strictly below t, where off_sq holds the
    squared off-diagonal entries.

    The entries and t are raw ``_mpf_`` tuples.  The recurrence makes the
    ``mpmath.libmp`` calls that mpf's operators make, at the working
    precision and rounding read once, so every value is bit for bit the
    operator result; a d_i that is exactly 0 becomes -2^-prec (1 + |t|), and
    the sign of d_i is read from its tuple.
    """
    prec, rnd = mpmath.mp._prec_rounding
    neg_tiny = None
    count = 0
    d = mpf_sub(diag[0], t, prec, rnd)
    for i in range(len(diag)):
        if i:
            d = mpf_sub(mpf_sub(diag[i], t, prec, rnd),
                        mpf_div(off_sq[i - 1], d, prec, rnd), prec, rnd)
        if d == fzero:
            if neg_tiny is None:
                neg_tiny = _neg_tiny(t, prec, rnd)
            d = neg_tiny
        if d[0]:
            count += 1
    return count


def _neg_tiny(t: tuple, prec: int, rnd: str) -> tuple:
    """-(2^-prec * (1 + |t|)) as the mpf operators compute it."""
    scale = mpf_pow_int(from_int(2, prec, rnd), -prec, prec, rnd)
    return mpf_neg(mpf_mul(scale, mpf_add(mpf_abs(t, prec, rnd), fone, prec, rnd),
                           prec, rnd), prec, rnd)


def _rounded(x: int, prec: int) -> int:
    """x rounded to prec significant bits, to nearest with ties to even; at
    any fixed scale this is how ``mpf_add`` rounds an exact sum."""
    drop = abs(x).bit_length() - prec
    if drop <= 0:
        return x
    m = abs(x)
    q, r = m >> drop, m & ((1 << drop) - 1)
    half = 1 << (drop - 1)
    if r > half or (r == half and q & 1):
        q += 1
    return q << drop if x > 0 else -(q << drop)


def _fixed(x: tuple, scale: int) -> int:
    """The raw mpf x as an int at scale 2^-scale: exact when x lies on that
    grid, else rounded toward zero."""
    sign, man, exp, _ = x
    shift = exp + scale
    man = man << shift if shift >= 0 else man >> -shift
    return -man if sign else man


def _float_count(diag: list, off_sq: list, t: float) -> tuple:
    """(count, p'(t)/p(t)) in binary64 on float entries, p(t) = det(T - t);
    a zero d_i becomes -2^-53 (1 + |t|).  Overflow gives inf or nan, never
    an exception."""
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


def _binary64_starts(diag: list, off_sq: list, k: int, lo: float, hi: float) -> list:
    """A binary64 estimate of each of the k lowest eigenvalues, or None where
    binary64 cannot isolate it.  Counts on shared brackets isolate
    eigenvalue j, unless its bracket stops splitting first; a safeguarded
    Newton-bisection from the middle of that bracket then stops on a step
    below 2^-50 (1 + |t|)."""
    lower, low_count = [lo] * k, [0] * k
    upper, up_count = [hi] * k, [len(diag)] * k
    starts = []
    for j in range(k):
        while low_count[j] != j or up_count[j] != j + 1:
            t = 0.5 * lower[j] + 0.5 * upper[j]
            if not lower[j] < t < upper[j]:
                break
            count = _float_count(diag, off_sq, t)[0]
            for i in range(min(count, k)):
                if t < upper[i]:
                    upper[i], up_count[i] = t, count
            for i in range(count, k):
                if t > lower[i]:
                    lower[i], low_count[i] = t, count
        if low_count[j] != j or up_count[j] != j + 1:
            starts.append(None)
            continue
        a, b = lower[j], upper[j]
        t = 0.5 * a + 0.5 * b
        for _ in range(_FLOAT_STEPS):
            count, ratio = _float_count(diag, off_sq, t)
            if count > j:
                b = t
            else:
                a = t
            nxt = t - 1.0 / ratio if ratio else math.inf
            if not a < nxt < b:
                nxt = 0.5 * a + 0.5 * b
            done = abs(nxt - t) <= _FLOAT_STOP * (1.0 + abs(t))
            t = nxt
            if done:
                break
        starts.append(t)
    return starts


def _newton_step(diag: list, off_sq: list, t: int, scale: int):
    """-p(t)/p'(t) for p(t) = det(T - t), in fixed point: every int x stands
    for x 2^-scale, and p'/p = sum d_i'/d_i comes from the Sturm recurrence
    (a zero d_i becomes -2^-scale); None when p'/p is 0."""
    one = 1 << scale
    d = diag[0] - t or -1
    r = -(one << scale) // d                  # d_i'(t) / d_i(t)
    ratio = r
    for i in range(1, len(diag)):
        q = (off_sq[i - 1] << scale) // d
        slope = ((q * r) >> scale) - one      # d_i' = -1 + q d_{i-1}' / d_{i-1}
        d = diag[i] - t - q or -1
        r = (slope << scale) // d
        ratio += r
    return -(one << scale) // ratio if ratio else None


def _newton_hint(diag: list, off_sq: list, t: int, scale: int, tol: int) -> tuple:
    """(hint, delta) in fixed point: Newton from t until, under quadratic
    convergence, the hint is off by at most a quarter of delta =
    tol (1 + |t|) / 1024, or the sweeps run out."""
    prev = None
    for _ in range(_NEWTON_SWEEPS):
        delta = (tol * ((1 << scale) + abs(t))) >> (scale + 10)
        step = _newton_step(diag, off_sq, t, scale)
        if step is None:
            break
        t += step
        # The new iterate is off by about C step^2, with C ~ |step| / prev^2.
        if prev is not None and 4 * abs(step) ** 3 <= delta * prev * prev:
            break
        prev = step
    return t, delta


def lowest_eigenvalues(diag: Sequence, off: Sequence, k: int,
                       tol=None) -> list:
    """The k smallest eigenvalues as mpf, each bisected to tol (default
    2^-(3/4 of the working precision)); shared brackets and counts placed by
    the hints spare all but about two Sturm counts per eigenvalue.  diag, off
    and tol are raw ``_mpf_`` tuples.  A tol that the working precision
    cannot resolve near an eigenvalue raises ValueError."""
    n = len(diag)
    if len(off) != n - 1:
        raise ValueError("off-diagonal length must be n - 1")
    if k < 1 or k > n:
        raise ValueError("need 1 <= k <= n")
    prec, rnd = mpmath.mp._prec_rounding
    if tol is None:
        tol = from_man_exp(1, -(prec * 3) // 4)
    sizes = [mpf_abs(b, prec, rnd) for b in off] + [fzero]
    off_sq = [mpf_mul(b, b, prec, rnd) for b in off]
    lo = hi = diag[0]
    for i, a in enumerate(diag):
        radius = mpf_add(sizes[i - 1] if i else fzero, sizes[i], prec, rnd)
        low, high = mpf_sub(a, radius, prec, rnd), mpf_add(a, radius, prec, rnd)
        lo = low if mpf_lt(low, lo) else lo
        hi = high if mpf_gt(high, hi) else hi
    tol_mag = tol[2] + tol[3]                 # |tol| < 2^tol_mag
    starts = [None] * k
    float_diag = [to_float(a) for a in diag]
    float_off_sq = [to_float(b) for b in off_sq]
    float_lo, float_hi = to_float(lo), to_float(hi)
    if all(map(math.isfinite, float_diag + float_off_sq + [float_lo, float_hi])):
        starts = _binary64_starts(float_diag, float_off_sq, k, float_lo, float_hi)
    # The Newton sweeps work at a fixed scale 2^-fine, well below tol; the
    # replay's scale starts there (or at the Gershgorin ends' grid) and only
    # grows, so hints and bracket ends carry over by a left shift.
    fine = max(_GUARD_BITS - tol_mag, 0)
    fixed_diag = [_fixed(a, fine) for a in diag]
    fixed_off_sq = [_fixed(b, fine) for b in off_sq]
    fixed_tol = _fixed(tol, fine)
    scale = max(fine, -lo[2], -hi[2])
    lo, hi = _fixed(lo, scale), _fixed(hi, scale)
    # Eigenvalue j (0-based) lies in [lower[j], upper[j]): each end is a
    # Gershgorin bound or a point whose big-float count was at most j,
    # respectively at least j + 1.
    lower, upper = [lo] * k, [hi] * k

    def mpf_at(x):
        return from_man_exp(x, -scale)

    def wide(a, b):
        """b - a > tol (1 + |a| + |b|), as the mpf operators round it."""
        width = b - a
        # The rounded right side is at most 2^(tol_mag + 2 + max(1, mag a,
        # mag b)), and a positive width is at least 2^(mag width - 1), where
        # mag x = exp + bc of the mpf x is x's bit length less the scale; so
        # all but the last few steps of a bisection skip libmp.
        if width > 0 and width.bit_length() >= tol_mag + 4 + max(
                1 + scale, abs(a).bit_length(), abs(b).bit_length()):
            return True
        a, b = mpf_at(a), mpf_at(b)
        bound = mpf_add(mpf_add(mpf_abs(a, prec, rnd), fone, prec, rnd),
                        mpf_abs(b, prec, rnd), prec, rnd)
        return mpf_gt(mpf_sub(b, a, prec, rnd), mpf_mul(tol, bound, prec, rnd))

    def sturm(t):
        """Count at t, recorded in every bracket."""
        count = count_below(diag, off_sq, mpf_at(t))
        for i in range(min(count, k)):
            if t < upper[i]:
                upper[i] = t
        for i in range(count, k):
            if t > lower[i]:
                lower[i] = t

    values = []
    for j in range(k):
        if starts[j] is not None:
            hint, delta = _newton_hint(fixed_diag, fixed_off_sq,
                                       _fixed(from_float(starts[j]), fine), fine, fixed_tol)
            sturm(_rounded((hint - delta) << (scale - fine), prec))
            sturm(_rounded((hint + delta) << (scale - fine), prec))
        # Plain bisection.  A midpoint outside j's bracket has the count the
        # bracket end beyond it shows; only a midpoint inside needs a count.
        a, b = lo, hi
        while wide(a, b):
            total = _rounded(a + b, prec)
            if total & 1:                     # (a + b) / 2 is off the grid: refine it
                scale += _REFINE_BITS
                a, b, lo, hi = (x << _REFINE_BITS for x in (a, b, lo, hi))
                lower[:] = [x << _REFINE_BITS for x in lower]
                upper[:] = [x << _REFINE_BITS for x in upper]
                total <<= _REFINE_BITS
            mid = total >> 1
            if lower[j] < mid < upper[j]:
                sturm(mid)
            if mid == (b if mid >= upper[j] else a):   # no step after this one moves
                raise ValueError(f"tol {mpmath.nstr(mpmath.mp.make_mpf(tol), 5)} is below the "
                                 f"spacing of {prec}-bit numbers near eigenvalue {j}")
            if mid >= upper[j]:
                b = mid
            else:
                a = mid
        values.append(mpmath.mp.make_mpf(from_man_exp(_rounded(a + b, prec), -scale - 1)))
    return values
