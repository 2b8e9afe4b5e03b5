"""The three determinant families: Wronskian, imaginary-shift and real-shift
Casoratians, over exact polynomial entries (plus a grid backend for the
real-shift family).

Every exact determinant goes through one entry, ``maximal_minors``, and one
packing step, ``_Rows``: rows are cleared of denominators once, with the
bound B on every minor's coefficients, and each entry is packed once as its
value at x = 2^width (Kronecker substitution); a shifted entry f(x + delta)
is f at 2^width + delta by ``poly._horner``, as ``Poly.shift`` computes it,
so no shifted Poly is built; ``imag_shift`` is f(x + i k gamma/2).  Up to
n = EXPANSION_MAX_N the minors come from a division-free shared minor
expansion (``_expand``) at width bitlen(B) + 1, which holds every
coefficient, on ints: real rows, or conjugate ones that ``_Rows`` pairs;
past it, when B passes COEFF_BIT_BUDGET, or for other rows, from Bareiss
(``fraction_free_det``) on (re, im) pairs at about twice that width, which
its certified exact divisions need, and which screens each entry against the
budget.  Wronskian columns (``_drift_column``) are integer vectors over one
denominator, each row canonicalized once, so the exponent pairs factor out.
The Darboux-Crum operators take the k + 1 minors of their fixed columns from
one expansion and apply f -> W[fixed, f] as one integer cofactor sum, also
over a base, whose seed part is then the Wronskian of quotients over it.
Both shift Casoratians are ``maximal_minors`` at their row points, and
``cofactor_det`` is the test oracle only.  Empty input gives 1 everywhere.
Big-float grids take a left-looking pivoted LU on ``GridFn.raw`` tuples
(``_lu_states``), one column at a time; a run's memo keeps each column
prefix's states, so its grid Casoratians eliminate a shared prefix once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm, prod
from operator import mul
from typing import Sequence

import mpmath
from mpmath.libmp import (
    fzero, mpf_abs, mpf_div, mpf_gt, mpf_mul, mpf_neg, mpf_sub)

from .gridfn import GridFn, WindowError
from .poly import (
    ExpPoly, Poly, _canonical, _horner, _mul_into, _pack, _pair_sum, _parts, _raw, _scale,
    _shift_size, _unpack, as_poly)
from .scalars import GaussianRational, rational

# Abort knob for runaway exact computations; see DeterminantBudgetError.
COEFF_BIT_BUDGET = 10 ** 6
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))     # i^k as (re, im), by k % 4


class DeterminantBudgetError(RuntimeError):
    """A single determinant exceeded the coefficient bit-size budget."""


class RunMemo:
    """Results that the checks of one lab run share, each computed once, by
    keys of plain values and immutable objects.  A memo lives on its model
    and is freed with it; nothing is kept at module level."""

    def __init__(self):
        self._entries = {}

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


class _Rows:
    """The one packing step of both eliminations: a matrix's rows cleared of
    denominators, with the bound B on its minors, packed at x = 2^width.

    Row r's entries are Polys read at x + delta_r, with delta_r = u/d (u a
    Gaussian integer) from ``points`` (0 without).  An entry (re + i im)/den
    of degree k is P(x)/(den d^k), P(x) = sum_j c_j d^(k-j) (d x + u)^j with
    c_j = re_j + i im_j; as |.|_1 (|re| + |im|, summed over coefficients)
    is submultiplicative, P's coefficients are at most
    sum_j |c_j|_1 (d + |u|_1)^j d^(k-j) in |.|_1.  Row r is scaled by L_r,
    the lcm of its den d^k, so every minor of the scaled rows has
    coefficients at most B = prod_r max(1, sum_c |entry r, c|_1) in |.|_1.
    ``pack`` evaluates each scaled P at 2^width by ``poly._horner`` and
    builds no Poly; at delta = 0 that is P's coefficients as base-2^width digits.
    ``length`` is 1 plus the sum of the rows' largest degrees.  Equal real
    rows r and n-1-r of a square matrix at conjugate points (a real middle
    one), as in W_gamma of real inputs, are ``pairs``: A +- iB pack as A and
    B, bounded once (|a|, |b| <= |a + ib|_1), and det = (-2i)^pairs det(A, B).
    """

    __slots__ = ("rows", "shifts", "multipliers", "scales", "bound", "length", "gaussian", "pairs")

    def __init__(self, rows: Sequence[Sequence], points: Sequence | None = None):
        self.rows = rows = [[as_poly(e) for e in row] for row in rows]
        n, real = len(rows), not any(any(e.im) for row in rows for e in row)
        self.shifts = shifts = ([(0, 0, 1)] * n if points is None else [_parts(p) for p in points])
        gaussian = not real or any(ui for _, ui, _ in shifts)
        self.pairs = pairs = n // 2 if gaussian and real and n == len(rows[0]) and all(
            rows[r] == rows[~r] and shifts[~r] == (ur, -ui, d)
            for r, (ur, ui, d) in enumerate(shifts[:n - n // 2])) else 0
        self.gaussian = gaussian and not pairs
        self.multipliers, self.scales = [], []
        bound = length = 1
        for r, (row, (ur, ui, d)) in enumerate(zip(rows[:n - pairs], shifts)):
            if d == 1 and not ur and not ui:
                dens = [e.den for e in row]
                sizes = [sum(map(abs, e.re)) + sum(map(abs, e.im)) for e in row]
            else:
                reach = d + abs(ur) + abs(ui)
                dens = [e.den * d ** max(len(e.re) - 1, 0) for e in row]
                sizes = [_shift_size(e, reach, d) for e in row]
            scale = lcm(*dens)
            multipliers = [scale // den for den in dens]
            bound *= max(1, sum(map(mul, sizes, multipliers))) ** (1 + (r < pairs))
            length += (max(1, *[len(e.re) for e in row]) - 1) * (1 + (r < pairs))
            self.multipliers.append(multipliers)
            self.scales.append(scale)
        self.scales += self.scales[:pairs][::-1]
        self.bound, self.length = bound, length

    def pack(self, width: int) -> list[list]:
        """The scaled entries at 2^width: ints, or (re, im) pairs when ``gaussian``."""
        gaussian, pairs, out, mirrors = self.gaussian, self.pairs, [], []
        for r, (row, shift, multipliers) in enumerate(zip(self.rows, self.shifts, self.multipliers)):
            if shift == (0, 0, 1) and r >= pairs:
                out.append([(_pack(e.re, width) * k, _pack(e.im, width) * k) if gaussian
                            else _pack(e.re, width) * k for e, k in zip(row, multipliers)])
                continue
            values = [_horner(e.re, e.im, shift, width, k) for e, k in zip(row, multipliers)]
            out.append(values if gaussian else [a for a, _ in values])
            if r < pairs:
                mirrors.append([b for _, b in values])
        return out + mirrors[::-1]

    def det(self, entry, width: int, den: int) -> Poly:
        """The packed determinant ``entry`` over ``den``, times (-2i)^pairs."""
        if not self.pairs:
            return _canonical(*_unpack(entry, width), den)
        zr, zi = _I_POWERS[-self.pairs % 4]
        return _scale(_raw(*_unpack(entry, width), 1), zr << self.pairs, zi << self.pairs, den)


class _Packing:
    """Bareiss's width for the entries of one determinant, and its certified
    exact division.

    An entry is a Gaussian-integer polynomial with at most ``length``
    coefficients, each below ``bound`` in size, packed as its value at
    2^width with balanced digits: an (re, im) pair of ints, with im = 0 for
    a real entry.  A quotient is certified by a zero remainder and a digit
    bound: at most ``length`` digits, each in [-2^s, 2^s) with
    s = bitlen(bound), tested by one add and one mask.  Then numerator -
    quotient * divisor has digits below 12 * length * 4^s < 2^width, and a
    nonzero polynomial vanishing at 2^width has a digit of at least 2^width,
    so the integer division is the division in Z[i][x].  The one
    ``quotient`` serves both kinds of divisor: a real one, (d, 0), is its
    own norm and skips the conjugate, so real rows need no quotient, and no
    loop, of their own.
    """

    __slots__ = ("width", "offset", "high")

    def __init__(self, bound: int, length: int):
        s = bound.bit_length()
        self.width = width = (12 * length << 2 * s).bit_length()
        ones = ((1 << width * length) - 1) // ((1 << width) - 1)
        self.offset = ones << s
        self.high = ~(((2 << s) - 1) * ones)

    def quotient(self, nr: int, ni: int, dr: int, di: int, norm: int) -> tuple[int, int]:
        """(nr + i ni) / (dr + i di), with norm = dr^2 + di^2, or dr itself
        when di = 0: the numerator, times conj(dr + i di) when di is nonzero,
        with both parts over the norm; raises unless certified."""
        if di:
            nr, ni = nr * dr + ni * di, ni * dr - nr * di
        qr, r1 = divmod(nr, norm)
        qi, r2 = divmod(ni, norm)
        offset, high = self.offset, self.high
        if r1 or r2 or (qr + offset) & high or (qi + offset) & high:
            raise ValueError("division is not exact")
        return qr, qi


def fraction_free_det(matrix: Sequence[Sequence[Poly]], points: Sequence | None = None) -> Poly:
    """Exact determinant of a square Poly matrix by Bareiss elimination; with
    ``points``, row r is read at x + points[r].  ``maximal_minors`` runs it
    for n > EXPANSION_MAX_N, where the shared expansion's n 2^(n-1) products
    lose, and for the matrices whose bound passes COEFF_BIT_BUDGET, whose
    entries it screens; below, the division-free expansion needs only width
    bitlen(B) + 1.

    The rows are cleared of denominators and packed by ``_Rows``, so every
    entry is a minor with coefficients below its bound B, and the result is
    the last entry over prod L_r.  The width is 2 bitlen(B) +
    log2(12 length) (``_Packing``): a false quotient must leave a digit of
    2^width, past what numerator - quotient * divisor can reach, so that
    every exact division is certified by its remainder and a digit bound.
    The updates (pivot*a - lead*b) / prev run in one loop on (re, im) pairs,
    a real entry entering as (v, 0): the kernel's one Gaussian elimination.
    No workload reaches it, and of the corpus rows only oQM runs with nine
    seeds (``oqm --dv 0,1,2,3,4 --de 1,2,3,4 --n 0``, ten 9 x 9 real
    determinants).  Only the last entry is unpacked, and a 1 x 1 matrix is
    its packed entry.  Each division is exact by Sylvester's identity and
    certified, else ``ValueError``.  A zero pivot is cured by the first row
    below with a nonzero entry in its column (a sign flip); when there is
    none, the determinant is zero.

    When bitlen(B) and bitlen(prod L_r) are within COEFF_BIT_BUDGET, no
    entry can pass it.  Otherwise each new entry is unpacked and screened
    by the bit lengths of its integers and of its row-scale product, and an
    entry past the screen is checked exactly, as on Poly entries.
    """
    n = len(matrix)
    if n == 0:
        return Poly.one()
    rows = _Rows(matrix, points)
    if any(len(row) != n for row in rows.rows):
        raise ValueError("matrix is not square")
    scales = list(rows.scales)
    packing = _Packing(rows.bound, rows.length)
    width, quotient = packing.width, packing.quotient
    ints = rows.pack(width)
    if not rows.gaussian:
        ints = [[(v, 0) for v in row] for row in ints]
    budget = COEFF_BIT_BUDGET
    screen = rows.bound.bit_length() > budget or prod(scales).bit_length() > budget
    sign = pivot_scale = 1
    prev = None
    for k in range(n - 1):
        if ints[k][k] == (0, 0):
            for r in range(k + 1, n):
                if ints[r][k] != (0, 0):
                    ints[k], ints[r] = ints[r], ints[k]
                    scales[k], scales[r] = scales[r], scales[k]
                    sign = -sign
                    break
            else:
                return Poly.zero()
        row_k = ints[k]
        pr, pi = row_k[k]
        pivot_scale *= scales[k]
        for i in range(k + 1, n):
            row_i = ints[i]
            lr, li = row_i[k]
            for j in range(k + 1, n):
                (ar, ai), (br, bi) = row_i[j], row_k[j]
                nr = pr * ar - pi * ai - lr * br + li * bi
                ni = pr * ai + pi * ar - lr * bi - li * br
                row_i[j] = (nr, ni) if prev is None else quotient(nr, ni, *prev)
            if screen:
                den = pivot_scale * scales[i]
                den_over = den.bit_length() > budget
                for entry in row_i[k + 1:]:
                    re, im = _unpack(entry, width)
                    if den_over or max(map(int.bit_length, re + im), default=0) > budget:
                        _check_budget(_canonical(re, im, den))
        prev = pr, pi, pr * pr + pi * pi if pi else pr
    result = rows.det(ints[n - 1][n - 1], width, pivot_scale * scales[n - 1])
    return result if sign > 0 else -result


# The largest minor size the shared expansion takes, from a measurement
# against Bareiss on a 2-core x86_64 host, when Bareiss still had a loop of
# its own for real matrices: at n = 8 the expansion's n 2^(n-1) half-width
# products won on oQM Wronskians (5.6x), drawn quadratics (2.0x) and
# real-shift Casoratians of drawn cubics (1.2x); at n = 10 they lost on the
# Casoratians (0.88x), and on integer constants they lose from n = 6.
EXPANSION_MAX_N = 8


@cache
def _expansion_plan(size: int) -> tuple:
    """For each column j >= 1 of a matrix of ``size`` rows, the masks of the
    (j + 1)-row subsets, each with its terms along column j: row r of the
    subset, the subset without r, and whether the term is negated."""
    return tuple(tuple((mask, tuple((r, mask ^ 1 << r, (t + j) % 2 == 1)
                                    for t, r in enumerate(members)))
                       for members in combinations(range(size), j + 1)
                       for mask in [sum(1 << r for r in members)])
                 for j in range(1, size))


def _expand(ints: list, columns: int) -> list:
    """The minors on the first ``columns`` columns of every row subset of as
    many rows, by mask: column by column, each j x j minor is the signed sum
    of column j's entries times the (j - 1) x (j - 1) minors (Rote 2001).
    Division-free, so the entries stay as packed ints."""
    minors = [None] * (1 << len(ints))
    for r, row in enumerate(ints):
        minors[1 << r] = row[0]
    for j, level in zip(range(1, columns), _expansion_plan(len(ints))):
        for mask, terms in level:
            total = 0
            for r, sub, negative in terms:
                a, m = ints[r][j], minors[sub]
                if a and m:
                    total = total - a * m if negative else total + a * m
            minors[mask] = total
    return minors


def maximal_minors(matrix: Sequence[Sequence], points: Sequence | None = None) -> list[Poly]:
    """The n x n minors of an R x n Poly matrix, R = n or n + 1: minor j
    drops row j, and a square matrix's one minor is its determinant.  With
    ``points``, row r is read at x + points[r].  The kernel's one entry.

    Up to n = EXPANSION_MAX_N all minors come from one shared expansion
    (``_expand``) of the rows packed once by ``_Rows``, at width
    bitlen(B) + 1: with no division to certify, every value packed is a
    polynomial's value at 2^width, and each minor unpacked has coefficients
    of size at most B < 2^(width - 1), so its balanced digits are exact.
    Past that size, when bitlen(B) or bitlen(prod L_r) passes
    COEFF_BIT_BUDGET, or for non-real rows that do not pair, each minor is
    ``fraction_free_det``'s, which screens its entries against the budget.
    """
    size = len(matrix)
    n = len(matrix[0]) if matrix else 0
    if any(len(row) != n for row in matrix) or size - n not in (0, 1):
        raise ValueError("matrix is not square")
    if n == 0:
        return [Poly.one()] * max(size, 1)
    if n == 1:
        entries = [as_poly(row[0]) for row in matrix]
        if points is not None:
            entries = [e.shift(p) for e, p in zip(entries, points)]
        return entries[::-1]
    rows = None if n > EXPANSION_MAX_N else _Rows(matrix, points)
    if (rows is None or rows.gaussian or rows.bound.bit_length() > COEFF_BIT_BUDGET
            or prod(rows.scales).bit_length() > COEFF_BIT_BUDGET):
        if size == n:
            return [fraction_free_det(matrix, points)]
        return [fraction_free_det(matrix[:j] + matrix[j + 1:],
                                  None if points is None else [*points[:j], *points[j + 1:]])
                for j in range(size)]
    width = rows.bound.bit_length() + 1
    minors = _expand(rows.pack(width), n)
    full, scale = (1 << size) - 1, prod(rows.scales)
    if size == n:
        return [rows.det(minors[full], width, scale)]
    return [_canonical(*_unpack(minors[full ^ 1 << j], width), scale // s)
            for j, s in enumerate(rows.scales)]


def cofactor_det(matrix: Sequence[Sequence]):
    """Determinant by first-row cofactor expansion (generic ring elements).

    Exponential in n, and called by nothing in the package: it is the
    independent oracle that the tests hold both eliminations and the
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


# ---------------------------------------------------------------------------
# Wronskian
# ---------------------------------------------------------------------------

def _drift(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """(L, A, B) with L the lcm of the denominators of a and b/2, so that
    L*(a*x + b/2) = A*x + B; b/2 in lowest terms by the parity of b's numerator."""
    n, d = b.numerator, b.denominator
    hn, hd = (n // 2, d) if n % 2 == 0 else (n, 2 * d)
    L = lcm(a.denominator, hd)
    return L, a.numerator * (L // a.denominator), hn * (L // hd)


def _drift_step(q: list, scale: int, A: int, B: int) -> list:
    """scale*q' + (A*x + B)*q on an integer vector, with no top term when A = 0."""
    dq = [scale * k * c for k, c in enumerate(q)][1:] + [0, 0]
    out = [u + B * c + A * v for u, c, v in zip(dq, q + [0], [0] + q)]
    return out if A else out[:-1]


def _drift_column(f: ExpPoly, length: int, base: ExpPoly | None = None) -> list[Poly]:
    """The polynomial parts of the first ``length`` rows of f's column,
    each one canonical Poly computed on integer vectors.

    Row j + 1 is the drift derivative P' + (a*x + b/2)*P of row j, with
    (a, b) f's pair.  With L*(a*x + b/2) = A*x + B (``_drift``) and f's
    part Q_0/den, row j is Q_j/(den*L^j), Q_{j+1} = L*Q_j' + (A*x + B)*Q_j,
    with the Q_j carried unreduced.  Over a base B*exp(.) the rows are those
    of the quotient f / base: row j is the numerator of its j-th derivative
    over base^(1 + j).  The base's drift cancels from the quotient rule, so
    P_{j+1} = P_j'*B + P_j*((a*x + b/2)*B - (1 + j)*B') with (a, b) f's pair
    minus the base's: two integer convolutions from the canonical row j over
    den*bden*L, so that the base's denominators do not compound."""
    p = f.p
    col = [p]
    if base is None:
        L, A, B = _drift(f.a, f.b)
        re, im, den = p.re, p.im, p.den
        real = not any(im)
        for _ in range(length - 1):
            re = _drift_step(re, L, A, B)
            im = [0] * len(re) if real else _drift_step(im, L, A, B)
            den *= L
            col.append(_canonical(re, im, den))
        return col
    L, A, B = _drift(*_pair_sum(((1, f), (-1, base))))
    b_re, b_im, b_den = base.p.re, base.p.im, base.p.den
    for j in range(length - 1):
        re, im = p.re, p.im
        h_re = _drift_step(b_re, -(1 + j) * L, A, B)
        h_im = _drift_step(b_im, -(1 + j) * L, A, B)
        size = len(re) + len(h_re) - 1
        out_re, out_im = [0] * size, [0] * size
        _mul_into(out_re, out_im, [L * k * c for k, c in enumerate(re)][1:],
                  [L * k * c for k, c in enumerate(im)][1:], b_re, b_im)
        _mul_into(out_re, out_im, re, im, h_re, h_im)
        p = _canonical(out_re, out_im, p.den * b_den * L)
        col.append(p)
    return col


def _pair(fs: Sequence[ExpPoly], base: ExpPoly | None, times: int) -> tuple:
    """The summed exponent pairs of fs, plus ``times`` times the base's."""
    return _pair_sum([(1, f) for f in fs] + ([] if base is None else [(times, base)]))


def wronskian(fs: Sequence[ExpPoly]) -> ExpPoly:
    """W[f_1, ..., f_n]: determinant of successive derivatives; W[.] = 1.

    Row j's exponential prefactor factors out, leaving one exact
    determinant of the columns' Poly parts."""
    fs = [f if isinstance(f, ExpPoly) else ExpPoly(f) for f in fs]
    n = len(fs)
    if n == 0:
        return ExpPoly.one()
    columns = [_drift_column(f, n) for f in fs]
    det, = maximal_minors([[col[j] for col in columns] for j in range(n)])
    return ExpPoly(det, *_pair(fs, None, 0))


class WronskianOperator:
    """The Darboux-Crum operator f -> W[seeds, f] of a fixed seed set.

    W[seeds, f] expanded along its last column is sum_j c_j * P_j times
    exp of the summed exponent pairs, where P_j are the rows of f's column
    (``_drift_column``) and c_j the signed k x k minors of the seeds'
    columns (rows 0..k, row j dropped); the sum is taken on one integer
    vector over lcm_j(den c_j * den P_j) and canonicalized once.
    ``seed_wronskian`` is W[seeds]: the minor that drops row k, with the
    seeds' pair.  Over a base, the seeds and f are quotients over the base
    (see ``wronskian_operator``).
    """

    __slots__ = ("cofactors", "seed_wronskian", "base")

    def __init__(self, cofactors: Sequence[Poly], seed_wronskian: ExpPoly,
                 base: ExpPoly | None = None):
        self.cofactors = tuple(cofactors)
        self.seed_wronskian = seed_wronskian
        self.base = base

    def __call__(self, f: ExpPoly) -> ExpPoly:
        k = len(self.cofactors) - 1
        terms = list(zip(self.cofactors, _drift_column(f, k + 1, self.base)))
        den = lcm(*[c.den * p.den for c, p in terms])
        size = max(len(c.re) + len(p.re) for c, p in terms) - 1
        re, im = [0] * size, [0] * size
        for c, p in terms:
            s = den // (c.den * p.den)
            _mul_into(re, im, c.re, c.im, [s * r for r in p.re], [s * m for m in p.im])
        return ExpPoly(_canonical(re, im, den), *_pair([self.seed_wronskian, f], self.base, k))


def wronskian_operator(seeds: Sequence[ExpPoly],
                       base: ExpPoly | None = None) -> WronskianOperator:
    """W[seeds, .] from the k + 1 size-k minors of the seeds' columns, all
    from one ``maximal_minors`` call; over a nonzero base (ZeroDivisionError
    on a zero one), f -> the numerator of W[seeds/base, f/base] over
    base^K(k + 1), whose seed part is that of W[seeds/base] over base^K(k),
    K = ``over_base_power``.

    The minor that drops the last row is exactly ``wronskian(seeds)``'s
    determinant, so W[seeds] comes with the operator at no extra cost.  No
    seeds give the identity, with W[] = 1.
    """
    if base is not None and base.is_zero():
        raise ZeroDivisionError("wronskian_operator with zero base")
    k = len(seeds)
    if k == 0:
        return WronskianOperator([Poly.one()], ExpPoly.one(), base)
    columns = [_drift_column(s, k + 1, base) for s in seeds]
    minors = maximal_minors([[col[j] for col in columns] for j in range(k + 1)])
    cofactors = [minor if (k + j) % 2 == 0 else -minor for j, minor in enumerate(minors)]
    seed_wronskian = ExpPoly(cofactors[k], *_pair(seeds, base, k * (k - 1) // 2))
    return WronskianOperator(cofactors, seed_wronskian, base)


def over_base_power(m: int) -> int:
    """K = m(m+1)/2: the base power under the Wronskian of m quotients over
    the base (row j is over base^(1 + j))."""
    return m * (m + 1) // 2


# ---------------------------------------------------------------------------
# Imaginary-shift Casoratian
# ---------------------------------------------------------------------------

@cache
def imag_shift_points(n: int, gamma: Fraction) -> tuple[GaussianRational, ...]:
    """The n shifted arguments x_j = x + i*((n+1)/2 - j)*gamma, j = 1..n, built
    once per (n, gamma)."""
    g = rational(gamma)
    return tuple(GaussianRational(0, (Fraction(n + 1, 2) - j) * g) for j in range(1, n + 1))


def imag_shift(f: Poly, k: int, gamma) -> Poly:
    """f(x + i k gamma/2) for a Poly f: a whole number k of half steps
    i gamma/2.  (idQM's own ``imag_shift`` moves atom indices instead.)"""
    return f.shift(GaussianRational(0, Fraction(k, 2) * rational(gamma)))


def casoratian_imag(fs: Sequence[Poly], gamma) -> Poly:
    """W_gamma[f_1, ..., f_n]: i^{n(n-1)/2} det f_k(x + i((n+1)/2 - j) gamma); its rows
    pair for real f_k (``_Rows``), and purely imaginary f_k = i g_k give i^n W_gamma[g]."""
    g = rational(gamma)
    if g == 0:
        raise ValueError("casoratian_imag needs nonzero gamma")
    fs, n = [as_poly(f) for f in fs], len(fs)
    imaginary = not any(any(f.re) for f in fs)
    det, = maximal_minors([[_raw(f.im, f.re, f.den) for f in fs] if imaginary else fs] * n,
                          imag_shift_points(n, g))
    return _scale(det, *_I_POWERS[n * (n + 1 if imaginary else n - 1) // 2 % 4], det.den)


# ---------------------------------------------------------------------------
# Real-shift Casoratian
# ---------------------------------------------------------------------------

def casoratian_real(fs: Sequence[Poly]) -> Poly:
    """W_C[f_1, ..., f_n]: det f_k(x + j - 1); W_C[.] = 1."""
    return maximal_minors([fs] * len(fs), range(len(fs)))[0]


def _lu_states(columns: list, n: int, memo: RunMemo) -> list:
    """The pivoted LU of the n-row windows f_k(x + j) of ``columns``, at each
    x, left-looking: the previous columns' state, from the memo, extended
    by the last column.  A state is (steps, det, negate), a step being the
    pivot row and the multipliers below it; None marks a zero pivot column.

    The last column gets each recorded row swap and the update
    e - factor * top of each step, in order, then its pivot: the first row
    of largest |entry|, the running det times it.  These are the libmp calls
    and the order of a right-looking LU of each whole matrix, so every value
    is bit for bit the same.  The window of a prefix's states is the prefix's
    own; an extension reads as many as its last column's window holds.
    """
    prec, rnd = mpmath.mp._prec_rounding
    *prefix, column = columns
    raw = column.raw
    states = (memo.once(("LU", prec, n, *prefix), _lu_states, prefix, n, memo) if prefix
              else [((), None, False)] * (len(raw) - n + 1))
    out = []
    for x, state in zip(range(len(raw) - n + 1), states):
        if state is None:
            out.append(None)
            continue
        steps, det, negate = state
        c = list(raw[x:x + n])
        for k, (pivot_row, factors) in enumerate(steps):
            c[k], c[pivot_row] = c[pivot_row], c[k]
            top = c[k]
            for i, factor in enumerate(factors, k + 1):
                c[i] = mpf_sub(c[i], mpf_mul(factor, top, prec, rnd), prec, rnd)
        k = pivot_row = len(steps)
        largest = mpf_abs(c[k], prec, rnd)
        for r in range(k + 1, n):
            size = mpf_abs(c[r], prec, rnd)
            if mpf_gt(size, largest):
                pivot_row, largest = r, size
        pivot = c[pivot_row]
        if pivot == fzero:
            out.append(None)
            continue
        c[pivot_row] = c[k]
        factors = tuple(mpf_div(e, pivot, prec, rnd) for e in c[k + 1:])
        out.append((steps + ((pivot_row, factors),),
                    pivot if det is None else mpf_mul(det, pivot, prec, rnd),
                    negate != (pivot_row != k)))
    return out


def casoratian_real_grid(fs: Sequence[GridFn], memo: RunMemo | None = None) -> GridFn:
    """Grid-backend W_C: result lives on the window shrunk by n - 1.

    Exact (Fraction) grids go through the exact kernel as constant
    polynomials.  Big-float grids go through the left-looking pivoted LU
    (``_lu_states``) on the columns' raw tuples; the states of every column
    prefix are kept in ``memo`` (a fresh one by default) by precision, row
    count and the prefix's grids, so the Casoratians of one run that share a
    prefix eliminate it once.  The last column's extension is the result."""
    n = len(fs)
    if n == 0:
        raise ValueError("casoratian_real_grid needs at least one function; "
                         "use the n = 0 convention (constant 1) upstream")
    x_max = min(f.x_max for f in fs)
    out_max = x_max - (n - 1)
    if out_max < 0:
        raise WindowError(
            f"window too small for a {n}-function Casoratian: need x_max >= {n - 1}")
    columns = [f.raw for f in fs]
    if all(isinstance(column[0], Fraction) for column in columns):
        dets = (maximal_minors([[column[x + j] for column in columns] for j in range(n)])[0]
                for x in range(out_max + 1))
        return GridFn([Fraction((d.re or [0])[0], d.den) for d in dets])
    prec, rnd = mpmath.mp._prec_rounding
    return GridFn(fzero if state is None else mpf_neg(state[1], prec, rnd) if state[2]
                  else state[1]
                  for state in _lu_states(list(fs), n, RunMemo() if memo is None else memo))
