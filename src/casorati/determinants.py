"""The three determinant families: Wronskian, imaginary-shift and real-shift
Casoratians, over exact polynomial entries (plus a grid backend for the
real-shift family).

The workhorse is fraction-free (Bareiss) elimination as an integer kernel:
each row is cleared of its denominators once (scaled by the lcm L_r), the
elimination runs on Gaussian-integer coefficient lists (real ones when no
entry has an imaginary part), every division by the previous pivot is an
exact integer division from the top, zero pivots are cured by sign-tracked
row interchanges, and the result is the last entry over prod L_r.  Each new
entry is screened against ``COEFF_BIT_BUDGET`` by the bit lengths of its
integers and of its row-scale product.  ``cofactor_det`` is the
independent expansion: the cross-check oracle for Bareiss, and the evaluator
of ``wronskian_over_base``'s ExpPoly matrices, which have no exact division.
``wronskian_operator`` takes the minors of a seed set once and applies
f -> W[seeds, f] by their cofactors.  Empty input returns 1 for all three
families.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Sequence

import mpmath
from mpmath.libmp import fzero, mpf_abs, mpf_div, mpf_gt, mpf_mul, mpf_mul_int, mpf_neg, mpf_sub

from .gridfn import GridFn, WindowError
from .poly import ExpPoly, Poly, _canonical, as_poly
from .scalars import GaussianRational, i_power, rational

# Abort knob for runaway exact computations; see DeterminantBudgetError.
COEFF_BIT_BUDGET = 10 ** 6


class DeterminantBudgetError(RuntimeError):
    """A single determinant exceeded the coefficient bit-size budget."""


def _check_budget(p: Poly) -> None:
    """Raise when an entry's reduced coefficients pass COEFF_BIT_BUDGET bits.

    This takes a gcd, so the kernel calls it only for an entry past its
    gcd-free screen (see ``fraction_free_det``)."""
    if p.max_coeff_bits() > COEFF_BIT_BUDGET:
        raise DeterminantBudgetError(
            f"coefficient size exceeded {COEFF_BIT_BUDGET} bits")


def _entry_poly(entry: tuple, den: int) -> Poly:
    """The Poly entry/den of a kernel entry: ``(re,)`` or ``(re, im)``."""
    re = entry[0]
    im = entry[1] if len(entry) == 2 else [0] * len(re)
    return _canonical(list(re), list(im), den)


def _scaled(values: list, m: int) -> list:
    """values * m; the list itself when m == 1 (the kernel never writes to it)."""
    return values if m == 1 else [v * m for v in values]


def _real_quotient(num: list, d: list | None) -> list:
    """num/d over Z[x], from the top by integer divmod by d's leading
    coefficient; ``num`` is consumed, and returned trimmed for d None (the
    pivot 1 before step 0).  Raises unless d divides num in Z[x]."""
    while num and not num[-1]:
        num.pop()
    if d is None:
        return num
    dd = len(d) - 1
    lc = d[-1]
    low = d[:-1]
    q = [0] * (len(num) - dd)
    for k in range(len(q) - 1, -1, -1):
        t = num[k + dd]
        if t:
            c, r = divmod(t, lc)
            if r:
                raise ValueError("division is not exact")
            q[k] = c
            for j, dj in enumerate(low, k):
                num[j] -= c * dj
    if any(num[:dd]):
        raise ValueError("division is not exact")
    return q


def _gaussian_quotient(nr: list, ni: list, d: tuple | None) -> tuple[list, list]:
    """(nr + i*ni)/d over Z[i][x] for d = (dr, di); the numerator is
    consumed, and returned trimmed for d None (the pivot 1 before step 0).

    Each quotient coefficient is t/lc for the remainder's top coefficient t:
    t/lc by integer divmod for a real lc, else t*conj(lc) over |lc|^2.
    Raises unless d divides the numerator in Z[i][x]."""
    while nr and not nr[-1] and not ni[-1]:
        nr.pop()
        ni.pop()
    if d is None:
        return nr, ni
    dr, di = d
    dd = len(dr) - 1
    lr, li = dr[-1], di[-1]
    norm = lr * lr + li * li
    low = list(zip(dr[:-1], di[:-1]))
    qr = [0] * (len(nr) - dd)
    qi = [0] * len(qr)
    for k in range(len(qr) - 1, -1, -1):
        tr, ti = nr[k + dd], ni[k + dd]
        if not tr and not ti:
            continue
        if li:
            a, r1 = divmod(tr * lr + ti * li, norm)
            b, r2 = divmod(ti * lr - tr * li, norm)
        else:
            a, r1 = divmod(tr, lr)
            b, r2 = divmod(ti, lr)
        if r1 or r2:
            raise ValueError("division is not exact")
        qr[k], qi[k] = a, b
        for j, (er, ei) in enumerate(low, k):
            nr[j] -= a * er - b * ei
            ni[j] -= a * ei + b * er
    if any(nr[:dd]) or any(ni[:dd]):
        raise ValueError("division is not exact")
    return qr, qi


def _real_update(pivot: tuple, a: tuple, lead: tuple, b: tuple, prev) -> tuple:
    """(pivot*a - lead*b) / prev on ``(re,)`` entries; prev None at step 0."""
    (pv,), (av,), (lv,), (bv,) = pivot, a, lead, b
    out = [0] * (max(len(pv) + len(av), len(lv) + len(bv)) - 1)
    for i, c in enumerate(pv):
        if c:
            for j, e in enumerate(av, i):
                out[j] += c * e
    for i, c in enumerate(lv):
        if c:
            for j, e in enumerate(bv, i):
                out[j] -= c * e
    return (_real_quotient(out, prev and prev[0]),)


def _gaussian_update(pivot: tuple, a: tuple, lead: tuple, b: tuple, prev) -> tuple:
    """(pivot*a - lead*b) / prev on ``(re, im)`` entries; prev None at step 0."""
    size = max(len(pivot[0]) + len(a[0]), len(lead[0]) + len(b[0])) - 1
    out_re = [0] * size
    out_im = [0] * size
    for (xr, xi), (yr, yi), s in ((pivot, a, 1), (lead, b, -1)):
        for i, (cr, ci) in enumerate(zip(xr, xi)):
            if cr or ci:
                cr, ci = s * cr, s * ci
                for j, (er, ei) in enumerate(zip(yr, yi), i):
                    out_re[j] += cr * er - ci * ei
                    out_im[j] += cr * ei + ci * er
    return _gaussian_quotient(out_re, out_im, prev)


def fraction_free_det(matrix: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square Poly matrix by Bareiss elimination.

    Row r is multiplied by L_r, the lcm of its entries' denominators, so the
    elimination runs on Gaussian-integer coefficient lists (real ones only,
    when no entry has an imaginary part) and the result is the final entry
    over prod L_r.  Every entry is then a minor of the integer matrix, so
    each division by the previous pivot is exact in Z[i][x] (Sylvester's
    identity) and is done by integer divmod from the top; at step 0 the
    previous pivot is 1 and nothing is divided.  A zero pivot is cured by
    the first row below with a nonzero entry in its column (a sign flip);
    when there is none, the determinant is zero.

    The integer entry of row i after step k is the entry of the unscaled
    elimination times the scales of rows 0..k and i.  The bit lengths of its
    integers and of that scale product bound its reduced size; only when
    this screen is over COEFF_BIT_BUDGET is the entry built as a Poly and
    checked exactly, so the budget raises where it did on Poly entries.
    """
    n = len(matrix)
    if n == 0:
        return Poly.one()
    rows = [[as_poly(e) for e in row] for row in matrix]
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    if n == 1:
        return rows[0][0]
    scales = [lcm(*[e.den for e in row]) for row in rows]
    if any(any(e.im) for row in rows for e in row):
        update = _gaussian_update
        ints = [[(_scaled(e.re, s // e.den), _scaled(e.im, s // e.den)) for e in row]
                for row, s in zip(rows, scales)]
    else:
        update = _real_update
        ints = [[(_scaled(e.re, s // e.den),) for e in row] for row, s in zip(rows, scales)]
    budget = COEFF_BIT_BUDGET
    sign = 1
    prev = None
    pivot_scale = 1
    for k in range(n - 1):
        if not ints[k][k][0]:
            for r in range(k + 1, n):
                if ints[r][k][0]:
                    ints[k], ints[r] = ints[r], ints[k]
                    scales[k], scales[r] = scales[r], scales[k]
                    sign = -sign
                    break
            else:
                return Poly.zero()
        row_k = ints[k]
        pivot = row_k[k]
        pivot_scale *= scales[k]
        for i in range(k + 1, n):
            row_i = ints[i]
            lead = row_i[k]
            den = pivot_scale * scales[i]
            den_over = den.bit_length() > budget
            for j in range(k + 1, n):
                entry = update(pivot, row_i[j], lead, row_k[j], prev)
                if den_over or max(map(int.bit_length, chain(*entry)), default=0) > budget:
                    _check_budget(_entry_poly(entry, den))
                row_i[j] = entry
        prev = pivot
    result = _entry_poly(ints[n - 1][n - 1], pivot_scale * scales[n - 1])
    return result if sign > 0 else -result


def cofactor_det(matrix: Sequence[Sequence]):
    """Determinant by first-row cofactor expansion (generic ring elements).

    Exponential in n.  It evaluates ``wronskian_over_base``'s ExpPoly
    matrices, where Bareiss has no exact division, and is the independent
    oracle for ``fraction_free_det``.
    """
    n = len(matrix)
    if n == 0:
        return Poly.one()
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    return _minor_det(matrix, tuple(range(n)), tuple(range(n)))


def _minor_det(matrix, rows: tuple[int, ...], cols: tuple[int, ...]):
    """First-row cofactor expansion of the minor on ``rows`` x ``cols``.

    A module function rather than a recursive closure: the closure would
    refer to itself through its cell, and that cycle would keep the matrix
    alive until the cyclic garbage collector next runs.
    """
    if len(rows) == 1:
        return matrix[rows[0]][cols[0]]
    total = None
    r = rows[0]
    rest = rows[1:]
    for idx, c in enumerate(cols):
        entry = matrix[r][c]
        sub_cols = cols[:idx] + cols[idx + 1:]
        term = entry * _minor_det(matrix, rest, sub_cols)
        if idx % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def det_float_scalar(matrix) -> object:
    """LU determinant with partial pivoting for big-float (mpf) entries.

    The elimination runs on the raw ``_mpf_`` tuples with the
    ``mpmath.libmp`` calls that mpf's operators make, at the working
    precision and rounding read once, so every value is bit for bit the
    operator result.  The pivot is the first row of largest |entry| in its
    column (as ``max(..., key=abs)`` picks it); a zero pivot column gives 0.
    """
    n = len(matrix)
    if n == 0:
        return 1
    prec, rnd = mpmath.mp._prec_rounding
    rows = [[x._mpf_ for x in row] for row in matrix]
    det = None
    negate = False
    for k in range(n):
        pivot_row = k
        largest = mpf_abs(rows[k][k], prec, rnd)
        for r in range(k + 1, n):
            size = mpf_abs(rows[r][k], prec, rnd)
            if mpf_gt(size, largest):
                pivot_row, largest = r, size
        if rows[pivot_row][k] == fzero:
            return mpmath.mp.make_mpf(mpf_mul_int(rows[0][0], 0, prec, rnd))
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            negate = not negate
        row_k = rows[k]
        pivot = row_k[k]
        det = pivot if det is None else mpf_mul(det, pivot, prec, rnd)
        for i in range(k + 1, n):
            row_i = rows[i]
            factor = mpf_div(row_i[k], pivot, prec, rnd)
            for j in range(k + 1, n):
                row_i[j] = mpf_sub(row_i[j], mpf_mul(factor, row_k[j], prec, rnd), prec, rnd)
    return mpmath.mp.make_mpf(mpf_neg(det, prec, rnd) if negate else det)


# ---------------------------------------------------------------------------
# Wronskian
# ---------------------------------------------------------------------------

def wronskian(fs: Sequence[ExpPoly]) -> ExpPoly:
    """W[f_1, ..., f_n]: determinant of successive derivatives; W[.] = 1.

    Each column's exponential prefactor factors out of the determinant by
    multilinearity, leaving the fraction-free determinant of polynomial
    parts under the drift derivative p -> p' + (a*x + b/2)*p.
    """
    fs = [f if isinstance(f, ExpPoly) else ExpPoly(f) for f in fs]
    n = len(fs)
    if n == 0:
        return ExpPoly.one()
    a_total = sum((f.a for f in fs), rational(0))
    b_total = sum((f.b for f in fs), rational(0))
    columns = []
    for f in fs:
        col = [f.p]
        drift = Poly([f.b / 2, f.a])
        for _ in range(n - 1):
            col.append(col[-1].derivative() + drift * col[-1])
        columns.append(col)
    matrix = [[columns[k][j] for k in range(n)] for j in range(n)]
    return ExpPoly(fraction_free_det(matrix), a_total, b_total)


class WronskianOperator:
    """The Darboux-Crum operator f -> W[seeds, f] of a fixed seed set.

    W[seeds, f] expanded along its last column is sum_j c_j * D_f^j p_f
    times exp of the summed exponent pairs, where D_f is f's drift
    derivative and c_j the signed k x k minors of the seeds' derivative
    columns (rows 0..k, row j dropped).  ``seed_wronskian`` is W[seeds]:
    the minor that drops row k, with the seeds' summed pair.
    """

    __slots__ = ("cofactors", "seed_wronskian")

    def __init__(self, cofactors: Sequence[Poly], seed_wronskian: ExpPoly):
        self.cofactors = tuple(cofactors)
        self.seed_wronskian = seed_wronskian

    def __call__(self, f: ExpPoly) -> ExpPoly:
        drift = Poly([f.b / 2, f.a])
        term = f.p
        total = self.cofactors[0] * term
        for c in self.cofactors[1:]:
            term = term.derivative() + drift * term
            total = total + c * term
        base = self.seed_wronskian
        return ExpPoly(total, base.a + f.a, base.b + f.b)


def wronskian_operator(seeds: Sequence[ExpPoly]) -> WronskianOperator:
    """W[seeds, .] from the k + 1 size-k minors of the seeds' derivative
    columns, each taken once by ``fraction_free_det``.

    The minor that drops the last row is exactly ``wronskian(seeds)``'s
    determinant, so W[seeds] comes with the operator at no extra cost.  No
    seeds give the identity, with W[] = 1.
    """
    k = len(seeds)
    if k == 0:
        return WronskianOperator([Poly.one()], ExpPoly.one())
    a_total = sum((s.a for s in seeds), rational(0))
    b_total = sum((s.b for s in seeds), rational(0))
    columns = []
    for s in seeds:
        col = [s.p]
        drift = Poly([s.b / 2, s.a])
        for _ in range(k):
            col.append(col[-1].derivative() + drift * col[-1])
        columns.append(col)
    rows = [[col[j] for col in columns] for j in range(k + 1)]
    cofactors = []
    for j in range(k + 1):
        minor = fraction_free_det(rows[:j] + rows[j + 1:])
        cofactors.append(minor if (k + j) % 2 == 0 else -minor)
    return WronskianOperator(cofactors, ExpPoly(cofactors[k], a_total, b_total))


def wronskian_poly(fs: Sequence[Poly]) -> Poly:
    """Plain polynomial Wronskian (the gamma -> 0 target of the limit check)."""
    return wronskian([ExpPoly(f) for f in fs]).p


def wronskian_over_base(nums: Sequence[ExpPoly], base: ExpPoly,
                        power: int = 1) -> tuple[ExpPoly, int]:
    """Wronskian of m quotients num_j / base^power sharing one base.

    d/dx (n / base^k) = (n' base - k n base') / base^{k+1} stays in the
    class, so row j carries the uniform power ``power + j`` and the whole
    determinant collapses onto (numerator, K) with
    K = m*power + m(m-1)/2; the numerator is a cofactor determinant of
    ExpPoly entries (additions combine same-row-set terms, so exponent
    pairs always match).
    """
    m = len(nums)
    if m == 0:
        return ExpPoly.one(), 0
    if base.is_zero():
        raise ZeroDivisionError("wronskian_over_base with zero base")
    base_d = base.derivative()
    rows = [list(nums)]
    k = power
    for _ in range(m - 1):
        rows.append([n.derivative() * base - k * (n * base_d) for n in rows[-1]])
        k += 1
    det = cofactor_det(rows)
    big_k = m * power + (m * (m - 1)) // 2
    return det, big_k


# ---------------------------------------------------------------------------
# Imaginary-shift Casoratian
# ---------------------------------------------------------------------------

def imag_shift_points(n: int, gamma: Fraction) -> list[GaussianRational]:
    """The n shifted arguments x_j = x + i*((n+1)/2 - j)*gamma, j = 1..n."""
    g = rational(gamma)
    return [GaussianRational(0, (Fraction(n + 1, 2) - j) * g) for j in range(1, n + 1)]


def casoratian_imag(fs: Sequence[Poly], gamma) -> Poly:
    """W_gamma[f_1, ..., f_n]: i^{n(n-1)/2} det f_k(x + i((n+1)/2 - j) gamma)."""
    g = rational(gamma)
    if g == 0:
        raise ValueError("casoratian_imag needs nonzero gamma")
    fs = [as_poly(f) for f in fs]
    n = len(fs)
    if n == 0:
        return Poly.one()
    matrix = [[f.shift(delta) for f in fs] for delta in imag_shift_points(n, g)]
    det = fraction_free_det(matrix)
    return det * i_power((n * (n - 1)) // 2)


# ---------------------------------------------------------------------------
# Real-shift Casoratian
# ---------------------------------------------------------------------------

def real_shift_points(n: int) -> range:
    """The n row arguments x_j = x + j - 1, j = 1..n, as offsets from x."""
    return range(n)


def casoratian_real(fs: Sequence[Poly]) -> Poly:
    """W_C[f_1, ..., f_n]: det f_k(x + j - 1); W_C[.] = 1."""
    fs = [as_poly(f) for f in fs]
    n = len(fs)
    if n == 0:
        return Poly.one()
    matrix = [[f.shift(delta) for f in fs] for delta in real_shift_points(n)]
    return fraction_free_det(matrix)


def casoratian_real_grid(fs: Sequence[GridFn]) -> GridFn:
    """Grid-backend W_C: result lives on the window shrunk by n - 1.

    Exact (Fraction) grids go through the fraction-free kernel as constant
    polynomials; big-float grids through pivoted LU."""
    n = len(fs)
    if n == 0:
        raise ValueError("casoratian_real_grid needs at least one function; "
                         "use the n = 0 convention (constant 1) upstream")
    x_max = min(f.x_max for f in fs)
    out_max = x_max - (n - 1)
    if out_max < 0:
        raise WindowError(
            f"window too small for a {n}-function Casoratian: need x_max >= {n - 1}")
    exact = all(isinstance(f(0), Fraction) for f in fs)
    values = []
    for x in range(out_max + 1):
        matrix = [[fs[k](x + j) for k in range(n)] for j in range(n)]
        values.append(fraction_free_det(matrix).coefficient(0).re if exact
                      else det_float_scalar(matrix))
    return GridFn(values)
