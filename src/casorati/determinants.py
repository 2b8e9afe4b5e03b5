"""The three determinant families: Wronskian, imaginary-shift and real-shift
Casoratians, over exact polynomial entries (plus a grid backend for the
real-shift family).

Every exact determinant is Bareiss elimination on packed big integers
(``fraction_free_det``): rows are cleared of denominators once, each entry is
packed once as its value at x = 2^width (Kronecker substitution), and each
exact division is certified.  Wronskian columns (``_drift_column``) are built
on Poly, so the exponent pairs factor out.  The Darboux-Crum operators take
the minors of their fixed columns once and apply f -> W[fixed, f] by
cofactors, over a base in ``over_base_operator``, whose seed part is the
Wronskian of quotients over it.  Both shift Casoratians are one body, and
``cofactor_det`` is the test oracle only.  Empty input gives 1 everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
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


class RunMemo:
    """Results that the checks of one lab run share, each computed once, by
    keys of plain values and immutable objects.  A memo lives on its model
    and is freed with it; nothing is kept at module level."""

    def __init__(self):
        self._entries = {}

    def __len__(self) -> int:
        return len(self._entries)

    def once(self, key: tuple, compute, *args):
        """compute(*args), computed on the first call with this key only."""
        if key not in self._entries:
            self._entries[key] = compute(*args)
        return self._entries[key]


def _check_budget(p: Poly) -> None:
    """Raise when an entry's reduced coefficients pass COEFF_BIT_BUDGET bits.

    This takes a gcd, so the kernel calls it only for an entry past its
    gcd-free screen (see ``fraction_free_det``)."""
    if p.max_coeff_bits() > COEFF_BIT_BUDGET:
        raise DeterminantBudgetError(
            f"coefficient size exceeded {COEFF_BIT_BUDGET} bits")


class _Packing:
    """Kronecker substitution x = 2^width for the entries of one determinant.

    An entry is a Gaussian-integer polynomial with at most ``length``
    coefficients, each below ``bound`` in size, packed as its value at
    2^width with balanced digits: an int, or an (re, im) pair of ints.  A
    quotient is certified by a zero remainder and a digit bound: at most
    ``length`` digits, each in [-2^s, 2^s) with s = bitlen(bound), tested
    by one add and one mask.  Then numerator - quotient * divisor has
    digits below 12 * length * 4^s < 2^width, and a nonzero polynomial
    vanishing at 2^width has a digit of at least 2^width, so the integer
    division is the division in Z[i][x].
    """

    __slots__ = ("width", "offset", "high")

    def __init__(self, bound: int, length: int):
        s = bound.bit_length()
        self.width = width = (12 * length << 2 * s).bit_length()
        ones = ((1 << width * length) - 1) // ((1 << width) - 1)
        self.offset = ones << s
        self.high = ~(((2 << s) - 1) * ones)

    def pack(self, values: list) -> int:
        """The coefficient list ``values`` evaluated at 2^width."""
        packed = 0
        for v in reversed(values):
            packed = (packed << self.width) + v
        return packed

    def digits(self, entry) -> tuple[list, list]:
        """The balanced base-2^width digits, low first, of a packed entry (an
        int, or an (re, im) pair): its re and im coefficients, equal length."""
        width = self.width
        half, mask = 1 << (width - 1), (1 << width) - 1
        parts = []
        for packed in (entry, 0) if isinstance(entry, int) else entry:
            digits = []
            while packed:
                d = packed & mask
                packed >>= width
                if d >= half:
                    d -= mask + 1
                    packed += 1
                digits.append(d)
            parts.append(digits)
        re, im = parts
        size = max(len(re), len(im))
        return re + [0] * (size - len(re)), im + [0] * (size - len(im))

    def quotient(self, num: int, den: int) -> int:
        """num / den for packed real entries; raises unless certified."""
        q, r = divmod(num, den)
        if r or (q + self.offset) & self.high:
            raise ValueError("division is not exact")
        return q

    def gaussian_quotient(self, nr: int, ni: int, dr: int, di: int, norm: int) -> tuple:
        """(nr + i ni) / (dr + i di), with norm = dr^2 + di^2: the numerator
        times the conjugate over the norm; raises unless certified."""
        qr, r1 = divmod(nr * dr + ni * di, norm)
        qi, r2 = divmod(ni * dr - nr * di, norm)
        offset, high = self.offset, self.high
        if r1 or r2 or (qr + offset) & high or (qi + offset) & high:
            raise ValueError("division is not exact")
        return qr, qi


def fraction_free_det(matrix: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square Poly matrix by Bareiss elimination.

    Row r is scaled by L_r, the lcm of its denominators, and the result is
    the last entry over prod L_r.  Every entry is then a minor, so its
    coefficients are below B = prod_r max(1, sum_c |a_rc|_1) (|.|_1 sums
    |re| + |im| over them) and its degree is at most the sum of the rows'.
    The entries are packed once (``_Packing``), the updates
    (pivot*a - lead*b) / prev run on ints, or (re, im) pairs when an entry
    is not real (a Gaussian division multiplies by conj(prev) over its
    norm), and only the last entry is unpacked.  Each division is exact by
    Sylvester's identity and certified, else ``ValueError``.  A zero pivot
    is cured by the first row below with a nonzero entry in its column (a
    sign flip); when there is none, the determinant is zero.

    When bitlen(B) and bitlen(prod L_r) are within COEFF_BIT_BUDGET, no
    entry can pass it.  Otherwise each new entry is unpacked and screened
    by the bit lengths of its integers and of its row-scale product, and an
    entry past the screen is checked exactly, as on Poly entries.
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
    gaussian = any(any(e.im) for row in rows for e in row)
    bound = length = 1
    for row, s in zip(rows, scales):
        bound *= max(1, sum([sum(map(abs, e.re + e.im if gaussian else e.re)) * (s // e.den)
                             for e in row]))
        length += max(1, *[len(e.re) for e in row]) - 1
    packing = _Packing(bound, length)
    pack = packing.pack
    ints = [[(pack(e.re) * (s // e.den), pack(e.im) * (s // e.den)) if gaussian
             else pack(e.re) * (s // e.den) for e in row] for row, s in zip(rows, scales)]
    zero = (0, 0) if gaussian else 0
    budget = COEFF_BIT_BUDGET
    screen = bound.bit_length() > budget or prod(scales).bit_length() > budget
    sign = 1
    prev = None
    pivot_scale = 1
    for k in range(n - 1):
        if ints[k][k] == zero:
            for r in range(k + 1, n):
                if ints[r][k] != zero:
                    ints[k], ints[r] = ints[r], ints[k]
                    scales[k], scales[r] = scales[r], scales[k]
                    sign = -sign
                    break
            else:
                return Poly.zero()
        row_k = ints[k]
        pivot = row_k[k]
        pivot_scale *= scales[k]
        if gaussian:
            pr, pi = pivot
            if prev is not None:
                dr, di = prev
                norm = dr * dr + di * di
        for i in range(k + 1, n):
            row_i = ints[i]
            if gaussian:
                lr, li = row_i[k]
                for j in range(k + 1, n):
                    (ar, ai), (br, bi) = row_i[j], row_k[j]
                    nr = pr * ar - pi * ai - lr * br + li * bi
                    ni = pr * ai + pi * ar - lr * bi - li * br
                    row_i[j] = ((nr, ni) if prev is None
                                else packing.gaussian_quotient(nr, ni, dr, di, norm))
            else:
                lead = row_i[k]
                for j in range(k + 1, n):
                    num = pivot * row_i[j] - lead * row_k[j]
                    row_i[j] = num if prev is None else packing.quotient(num, prev)
            if screen:
                den = pivot_scale * scales[i]
                den_over = den.bit_length() > budget
                for entry in row_i[k + 1:]:
                    re, im = packing.digits(entry)
                    if den_over or max(map(int.bit_length, re + im), default=0) > budget:
                        _check_budget(_canonical(re, im, den))
        prev = pivot
    result = _canonical(*packing.digits(ints[n - 1][n - 1]), pivot_scale * scales[n - 1])
    return result if sign > 0 else -result


def cofactor_det(matrix: Sequence[Sequence]):
    """Determinant by first-row cofactor expansion (generic ring elements).

    Exponential in n, and called by nothing in the package: it is the
    independent oracle that the tests hold ``fraction_free_det`` and the
    over-base operator to, and the benchmark's tracer still wraps it by
    name.  It recurses on its first-row minors as a module function: a
    recursive closure would refer to itself through its cell, and that
    cycle would keep the matrix alive until the cyclic collector next runs.
    """
    n = len(matrix)
    if n == 0:
        return Poly.one()
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n == 1:
        return matrix[0][0]
    total = None
    for c, entry in enumerate(matrix[0]):
        term = entry * cofactor_det([row[:c] + row[c + 1:] for row in matrix[1:]])
        if c % 2 == 1:
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

def _drift_column(f: ExpPoly, length: int, base: ExpPoly | None = None) -> list[Poly]:
    """The polynomial parts of the first ``length`` rows of f's column.

    Row j + 1 is the drift derivative P' + (a*x + b/2)*P of row j, with
    (a, b) the pair of row j.  Over a base B*exp(.) the rows are those of
    the quotient f / base: row j is the numerator of its j-th derivative
    over base^(1 + j), and carries f's pair plus j times the base's, so with
    G the polynomial part of base' the quotient rule gives
    P_{j+1} = P_j'*B + P_j*(drift_j*B - (1 + j)*G)."""
    col = [f.p]
    if base is None:
        drift = Poly([f.b / 2, f.a])
        for _ in range(length - 1):
            col.append(col[-1].derivative() + drift * col[-1])
        return col
    b_part, g_part = base.p, base.derivative().p
    for j in range(length - 1):
        drift = Poly([(f.b + j * base.b) / 2, f.a + j * base.a])
        p = col[-1]
        col.append(p.derivative() * b_part + p * (drift * b_part - (1 + j) * g_part))
    return col


def _pair(fs: Sequence[ExpPoly], base: ExpPoly | None, times: int) -> tuple:
    """The summed exponent pairs of fs, plus ``times`` times the base's."""
    a = sum((f.a for f in fs), rational(0))
    b = sum((f.b for f in fs), rational(0))
    return (a, b) if base is None else (a + times * base.a, b + times * base.b)


def wronskian(fs: Sequence[ExpPoly]) -> ExpPoly:
    """W[f_1, ..., f_n]: determinant of successive derivatives; W[.] = 1.

    Row j's exponential prefactor factors out, leaving one fraction-free
    determinant of the columns' Poly parts."""
    fs = [f if isinstance(f, ExpPoly) else ExpPoly(f) for f in fs]
    n = len(fs)
    if n == 0:
        return ExpPoly.one()
    columns = [_drift_column(f, n) for f in fs]
    det = fraction_free_det([[col[j] for col in columns] for j in range(n)])
    return ExpPoly(det, *_pair(fs, None, 0))


class WronskianOperator:
    """The Darboux-Crum operator f -> W[seeds, f] of a fixed seed set.

    W[seeds, f] expanded along its last column is sum_j c_j * P_j times
    exp of the summed exponent pairs, where P_j are the rows of f's column
    (``_drift_column``) and c_j the signed k x k minors of the seeds'
    columns (rows 0..k, row j dropped).  ``seed_wronskian`` is W[seeds]:
    the minor that drops row k, with the seeds' pair.  Over a base, the
    seeds and f are quotients over the base (``over_base_operator``).
    """

    __slots__ = ("cofactors", "seed_wronskian", "base")

    def __init__(self, cofactors: Sequence[Poly], seed_wronskian: ExpPoly,
                 base: ExpPoly | None = None):
        self.cofactors = tuple(cofactors)
        self.seed_wronskian = seed_wronskian
        self.base = base

    def __call__(self, f: ExpPoly) -> ExpPoly:
        k = len(self.cofactors) - 1
        col = _drift_column(f, k + 1, self.base)
        total = self.cofactors[0] * col[0]
        for c, p in zip(self.cofactors[1:], col[1:]):
            total = total + c * p
        return ExpPoly(total, *_pair([self.seed_wronskian, f], self.base, k))


def wronskian_operator(seeds: Sequence[ExpPoly],
                       base: ExpPoly | None = None) -> WronskianOperator:
    """W[seeds, .] from the k + 1 size-k minors of the seeds' columns, each
    taken once by ``fraction_free_det``; over a base, the operator of the
    quotients over it (``over_base_operator``, which checks the base).

    The minor that drops the last row is exactly ``wronskian(seeds)``'s
    determinant, so W[seeds] comes with the operator at no extra cost.  No
    seeds give the identity, with W[] = 1.
    """
    k = len(seeds)
    if k == 0:
        return WronskianOperator([Poly.one()], ExpPoly.one(), base)
    columns = [_drift_column(s, k + 1, base) for s in seeds]
    rows = [[col[j] for col in columns] for j in range(k + 1)]
    cofactors = []
    for j in range(k + 1):
        minor = fraction_free_det(rows[:j] + rows[j + 1:])
        cofactors.append(minor if (k + j) % 2 == 0 else -minor)
    seed_wronskian = ExpPoly(cofactors[k], *_pair(seeds, base, k * (k - 1) // 2))
    return WronskianOperator(cofactors, seed_wronskian, base)


def over_base_power(m: int) -> int:
    """K = m(m+1)/2: the base power under the Wronskian of m quotients over
    the base (row j is over base^(1 + j))."""
    return m * (m + 1) // 2


def over_base_operator(nums: Sequence[ExpPoly], base: ExpPoly) -> WronskianOperator:
    """f -> the numerator of W[nums/base, f/base] over base^K(m + 1); its
    seed part is the numerator of W[nums/base] over base^K(m), with
    K = ``over_base_power``."""
    if base.is_zero():
        raise ZeroDivisionError("over_base_operator with zero base")
    return wronskian_operator(nums, base)


# ---------------------------------------------------------------------------
# Imaginary-shift Casoratian
# ---------------------------------------------------------------------------

def imag_shift_points(n: int, gamma: Fraction) -> list[GaussianRational]:
    """The n shifted arguments x_j = x + i*((n+1)/2 - j)*gamma, j = 1..n."""
    g = rational(gamma)
    return [GaussianRational(0, (Fraction(n + 1, 2) - j) * g) for j in range(1, n + 1)]


def _shifted_det(fs: Sequence[Poly], points: Sequence) -> Poly:
    """det f_k(x + point_j), with rows j over the points; 1 for no fs."""
    fs = [as_poly(f) for f in fs]
    return fraction_free_det([[f.shift(delta) for f in fs] for delta in points])


def casoratian_imag(fs: Sequence[Poly], gamma) -> Poly:
    """W_gamma[f_1, ..., f_n]: i^{n(n-1)/2} det f_k(x + i((n+1)/2 - j) gamma)."""
    g = rational(gamma)
    if g == 0:
        raise ValueError("casoratian_imag needs nonzero gamma")
    n = len(fs)
    return _shifted_det(fs, imag_shift_points(n, g)) * i_power((n * (n - 1)) // 2)


# ---------------------------------------------------------------------------
# Real-shift Casoratian
# ---------------------------------------------------------------------------

def real_shift_points(n: int) -> range:
    """The n row arguments x_j = x + j - 1, j = 1..n, as offsets from x."""
    return range(n)


def casoratian_real(fs: Sequence[Poly]) -> Poly:
    """W_C[f_1, ..., f_n]: det f_k(x + j - 1); W_C[.] = 1."""
    return _shifted_det(fs, real_shift_points(len(fs)))


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
