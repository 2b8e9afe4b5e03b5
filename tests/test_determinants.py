import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import casorati.determinants as det_mod
from casorati.determinants import (
    DeterminantBudgetError,
    casoratian_imag,
    casoratian_real,
    casoratian_real_grid,
    cofactor_det,
    det_float_scalar,
    fraction_free_det,
    over_base_operator,
    over_base_power,
    wronskian,
    wronskian_operator,
)
from casorati.gridfn import GridFn, WindowError
from casorati.poly import ExpPoly, Poly
from casorati.sampling import random_poly
from casorati.scalars import GaussianRational, working_precision

x = Poly.x()


def rng_polys(seed, count, deg=2, bound=9):
    rng = random.Random(seed)
    return [random_poly(rng, deg, bound, nonzero=True) for _ in range(count)]


def test_fraction_free_examples():
    assert fraction_free_det([[Poly.one()]]) == Poly.one()
    assert fraction_free_det([[x, Poly.one()], [Poly.one(), Poly.zero()]]) == Poly.constant(-1)
    assert fraction_free_det([]) == Poly.one()


def test_fraction_free_matches_cofactor_oracle():
    rng = random.Random(4)
    for trial in range(12):
        n = rng.randint(1, 5)
        matrix = [[random_poly(rng, 2, 9) for _ in range(n)] for _ in range(n)]
        assert fraction_free_det(matrix) == cofactor_det(matrix), f"trial {trial}"


def test_fraction_free_zero_pivots():
    matrix = [[Poly.zero(), x], [x + 1, Poly.one()]]
    assert fraction_free_det(matrix) == cofactor_det(matrix)
    singular = [[Poly.zero(), Poly.zero()], [x, x]]
    assert fraction_free_det(singular).is_zero()


def test_cofactor_oracle_closed_forms():
    """The oracle itself, on closed forms: an integer Vandermonde matrix is
    prod_{i<j} (x_j - x_i), and a matrix with a Gaussian entry its value
    expanded by hand, (1+i)*5 - 2*1 + (-1)*(1/2) = 5/2 + 5i."""
    xs = [2, -1, 3, 5]
    vandermonde = [[v ** k for k in range(4)] for v in xs]
    assert cofactor_det(vandermonde) == math.prod(
        xs[j] - xs[i] for i in range(4) for j in range(i + 1, 4))
    gaussian = [[GaussianRational(1, 1), 2, -1],
                [Fraction(1, 2), 3, 1],
                [0, 1, 2]]
    assert cofactor_det(gaussian) == GaussianRational(Fraction(5, 2), 5)


def test_cofactor_oracle_empty_and_non_square():
    assert cofactor_det([]) == Poly.one()
    with pytest.raises(ValueError, match="not square"):
        cofactor_det([[1, 2, 3], [4, 5, 6]])


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def bareiss_matrices(draw):
    """n = 1..6 matrices of Gaussian-rational (at times real) polynomials,
    each row over its own extra denominator, and at times with a zero
    leading pivot that needs a row swap, two equal rows, or a zero column.
    A quarter are "wide": n = 1..5, integer or Gaussian-integer entries of
    up to 8 coefficients as large as 2^64, of mixed signs."""
    wide = draw(st.integers(0, 3)) == 0
    n = draw(st.integers(1, 5 if wide else 6))
    part = st.integers(-2 ** 64, 2 ** 64) if wide else small_fractions
    imag = st.just(Fraction(0)) if draw(st.booleans()) else part
    coeffs = st.builds(GaussianRational, part, imag)
    max_len = 8 if wide else 3 if n <= 4 else 2
    matrix = []
    for _ in range(n):
        row_den = 1 if wide else draw(st.integers(1, 12))
        matrix.append([Poly(draw(st.lists(coeffs, max_size=max_len))) * Fraction(1, row_den)
                       for _ in range(n)])
    shape = draw(st.sampled_from(["plain", "zero pivot", "equal rows", "zero column"]))
    if shape == "zero pivot" and n > 1:
        matrix[0][0] = Poly.zero()
        if matrix[n - 1][0].is_zero():
            matrix[n - 1][0] = x + Fraction(1, 3)
    elif shape == "equal rows" and n > 1:
        matrix[n - 1] = list(matrix[0])
    elif shape == "zero column":
        col = draw(st.integers(0, n - 1))
        for row in matrix:
            row[col] = Poly.zero()
    return matrix


@given(bareiss_matrices())
@settings(max_examples=100, deadline=None)
@example([[Poly.one(), Poly.one(), Poly.zero()],          # zero pivot at step 1
          [Poly.one(), Poly.one(), x * Fraction(1, 2)],
          [Poly.zero(), Poly.constant(Fraction(1, 3)), x + 1]])
@example([[Poly([GaussianRational(0, Fraction(1, 2)), GaussianRational(1, 1)]), x * Fraction(1, 3)],
          [x * x * Fraction(1, 5), Poly([GaussianRational(Fraction(2, 7), -1), 0, GaussianRational(0, 3)])]])
@example([[Poly([2 ** 64, -2 ** 64, 2 ** 64]), Poly.zero()],   # |det|_1 is the bound B
          [Poly.zero(), Poly([-2 ** 64, 0, 0, 2 ** 64])]])
def test_fraction_free_matches_cofactor_property(matrix):
    assert fraction_free_det(matrix) == cofactor_det(matrix)


def packing_for(*polys):
    """A packing whose digit bound and length hold every given Poly (each
    over denominator 1), as the kernel sizes one for its entries."""
    bound = max(sum(map(abs, p.re + p.im)) for p in polys)
    return det_mod._Packing(bound, max(len(p.re) for p in polys))


@pytest.mark.parametrize("num, d, q", [([-1, 0, 1], [1, 1], [-1, 1]),
                                       ([6, -9], [3], [2, -3]),
                                       ([0, 0, 4], [0, 2], [0, 2])])
def test_real_quotient_exact(num, d, q):
    """The packed real division unpacks to the quotient in Z[x]."""
    num, d, q = Poly(num), Poly(d), Poly(q)
    packing = packing_for(num, d, q)
    got = packing.quotient(packing.pack(num.re), packing.pack(d.re))
    assert packing.digits(got) == (q.re, q.im)


@pytest.mark.parametrize("num, d", [([1, 0, 1], [1, 1]),     # polynomial remainder 2
                                    ([1, 2], [2]),           # coefficient 1/2
                                    ([3], [2, 1]),           # lower degree
                                    ([0, 3], [0, 2])])
def test_real_quotient_rejects_inexact(num, d):
    num, d = Poly(num), Poly(d)
    packing = packing_for(num, d)
    with pytest.raises(ValueError, match="division is not exact"):
        packing.quotient(packing.pack(num.re), packing.pack(d.re))


gi = GaussianRational


def gaussian_quotient(packing, num, d):
    """num / d by the packed Gaussian division, unpacked."""
    dr, di = packing.pack(d.re), packing.pack(d.im)
    got = packing.gaussian_quotient(packing.pack(num.re), packing.pack(num.im),
                                    dr, di, dr * dr + di * di)
    return packing.digits(got)


@pytest.mark.parametrize("q, d", [(x + gi(0, 1), x - gi(2, -3)),
                                  (gi(3, -1) * x * x - 2, gi(1, 2) * x + 3),
                                  (gi(0, 2) * x + gi(-1, 1), 2 * x + gi(0, 1)),
                                  (Poly([gi(4, 1)]), Poly([gi(-2, 5)]))])
def test_gaussian_quotient_exact(q, d):
    """The packed Gaussian division unpacks to the quotient in Z[i][x]."""
    num = q * d
    assert gaussian_quotient(packing_for(num, d, q), num, d) == (q.re, q.im)


@pytest.mark.parametrize("num, d", [((x + gi(0, 1)) * (x - 2) + 1, x - 2),
                                    (gi(1, 1) * x, 2 * x),           # real lc, 1/2 + i/2
                                    (x, gi(1, 1) * x),               # (1 - i)/2
                                    (Poly([gi(3, 0)]), Poly([gi(1, 2)])),
                                    (Poly([gi(0, 1)]), x + 1)])
def test_gaussian_quotient_rejects_inexact(num, d):
    with pytest.raises(ValueError, match="division is not exact"):
        gaussian_quotient(packing_for(num, d), num, d)


@pytest.mark.parametrize("num, d", [(x, Poly.constant(2)),
                                    (gi(1, 1) * x + 2, Poly.constant(gi(0, 2))),
                                    (x * x - 4 * x, Poly.constant(4))])
def test_packed_quotient_digit_bound_alone_rejects(num, d):
    """x / 2 is not in Z[x], yet 2^w / 2 = 2^(w-1) is an exact integer
    division: the remainder test passes, and only the digit bound on the
    quotient (a digit 2^(w-1), past 2^s) rejects it."""
    packing = packing_for(num, d)
    dr, di = packing.pack(d.re), packing.pack(d.im)
    nr, ni = packing.pack(num.re), packing.pack(num.im)
    norm = dr * dr + di * di
    assert (nr * dr + ni * di) % norm == 0 and (ni * dr - nr * di) % norm == 0
    with pytest.raises(ValueError, match="division is not exact"):
        if num.is_real() and d.is_real():
            packing.quotient(nr, dr)
        else:
            packing.gaussian_quotient(nr, ni, dr, di, norm)


@pytest.mark.parametrize("bound, length", [(1, 1), (9, 3), (2 ** 64, 8), (3 ** 50, 30)])
def test_slot_width_leaves_no_false_quotient(bound, length):
    """Why the width is what it is.  A false quotient q of N by d leaves
    N - q*d nonzero with value 0 at 2^width, so with a coefficient of at
    least 2^width.  The cheapest, N = 2^width - x + q*d with q = -2^s and
    d = 2, passes both tests of the certificate: only the width keeps such
    an N out of the kernel's reach.  Entries have at most ``length`` digits,
    each below 2^s (s = bitlen(bound)), so pivot*a - lead*b has digits
    below 8 * length * 4^s and q*prev below 4 * length * 4^s: the width
    must pass their sum."""
    packing = det_mod._Packing(bound, length)
    s, width = bound.bit_length(), packing.width
    q, d = -(1 << s), 2
    assert packing.quotient(packing.pack([(1 << width) + q * d, -1]), d) == q
    assert 2 ** width > 12 * length * 4 ** s


def test_budget_guard():
    old = det_mod.COEFF_BIT_BUDGET
    det_mod.COEFF_BIT_BUDGET = 8
    try:
        big = Poly.constant(Fraction(10 ** 9))
        matrix = [[big * x, big], [big, big * x]]
        with pytest.raises(DeterminantBudgetError):
            fraction_free_det(matrix)
    finally:
        det_mod.COEFF_BIT_BUDGET = old


def test_budget_exact_size_decides(monkeypatch):
    """The gcd-free bound only screens: an entry whose stored integers pass
    the budget but whose reduced coefficients do not is accepted."""
    # (1/2) + 2^20 x is stored over den 2 as re = [1, 2^21]: the bound reads
    # 22 bits, the reduced coefficients 1/2 and 2^20 need 21.
    entry = Poly([Fraction(1, 2), 2 ** 20])
    assert (entry.re, entry.den) == ([1, 2 ** 21], 2) and entry.max_coeff_bits() == 21
    monkeypatch.setattr(det_mod, "COEFF_BIT_BUDGET", 21)
    det_mod._check_budget(entry)
    monkeypatch.setattr(det_mod, "COEFF_BIT_BUDGET", 20)
    with pytest.raises(DeterminantBudgetError):
        det_mod._check_budget(entry)
    # through Bareiss: the eliminated entry is `entry` itself, then 2^40 x^2 - 1
    monkeypatch.setattr(det_mod, "COEFF_BIT_BUDGET", 21)
    assert fraction_free_det([[Poly.one(), Poly.zero()], [Poly.zero(), entry]]) == entry
    big = Poly([0, 2 ** 20])
    with pytest.raises(DeterminantBudgetError):
        fraction_free_det([[big, Poly.one()], [Poly.one(), big]])
    # Rows cleared over 3 * 2^30 and 5: the eliminated entry is stored as
    # 3 * 2^30 * (x^2 - k) over 15 * 2^30, past the screen at 8 bits.  Its
    # reduced form (x^2 - 1)/5 fits and is accepted; (x^2 - 2^9)/5 does not.
    monkeypatch.setattr(det_mod, "COEFF_BIT_BUDGET", 8)
    top = [x * Fraction(1, 3), Fraction(1, 2 ** 30)]
    fits = [[*top], [Poly.constant(Fraction(2 ** 30, 5)), x * Fraction(3, 5)]]
    assert fraction_free_det(fits) == (x * x - 1) * Fraction(1, 5)
    over = [[*top], [Poly.constant(Fraction(2 ** 39, 5)), x * Fraction(3, 5)]]
    with pytest.raises(DeterminantBudgetError):
        fraction_free_det(over)


@pytest.mark.parametrize("unit", [Poly.one(), Poly.constant(GaussianRational(0, 1))])
def test_budget_screen_reads_row_scales(monkeypatch, unit):
    """An eliminated entry with one-bit integers is still checked when its
    row-scale product is past the budget: c/2^9 needs 10 bits, c/2^7 fits 8."""
    monkeypatch.setattr(det_mod, "COEFF_BIT_BUDGET", 8)
    for power, fits in ((7, True), (9, False)):
        matrix = [[unit, Poly.zero()], [Poly.zero(), unit * Fraction(1, 2 ** power)]]
        if fits:
            assert fraction_free_det(matrix) == unit * unit * Fraction(1, 2 ** power)
        else:
            with pytest.raises(DeterminantBudgetError):
                fraction_free_det(matrix)


def test_wronskian_examples():
    assert wronskian([]) == ExpPoly.one()
    assert wronskian([ExpPoly(Poly.one()), ExpPoly(x)]).p == Poly.one()
    assert wronskian([ExpPoly(x), ExpPoly(x * x)]).p == x * x
    w = wronskian([ExpPoly(Poly.one(), a=1), ExpPoly(Poly.one(), a=-1)])
    assert w.p == -2 * x and w.pair == (Fraction(0), Fraction(0))


def test_casoratian_imag_examples():
    assert casoratian_imag([], 1) == Poly.one()
    assert casoratian_imag([Poly.one(), x], 1) == Poly.one()
    assert casoratian_imag([x, x * x], 2) == 2 * x * x + Poly.constant(2)
    f = 3 * x * x + 1
    assert casoratian_imag([f], 1) == f
    with pytest.raises(ValueError):
        casoratian_imag([x], 0)


def test_casoratian_real_examples():
    assert casoratian_real([]) == Poly.one()
    assert casoratian_real([Poly.one(), x]) == Poly.one()
    assert casoratian_real([x, x * x]) == x * (x + 1)
    f = x ** 3 - 2
    assert casoratian_real([f]) == f


@pytest.mark.parametrize("family", ["wronskian", "imag", "real"])
def test_antisymmetry(family):
    rng = random.Random(11)
    for _ in range(8):
        fs = [random_poly(rng, 3, 9, nonzero=True) for _ in range(3)]
        if family == "wronskian":
            base = wronskian([ExpPoly(f) for f in fs]).p
            swapped = wronskian([ExpPoly(fs[1]), ExpPoly(fs[0]), ExpPoly(fs[2])]).p
        elif family == "imag":
            base = casoratian_imag(fs, Fraction(1, 2))
            swapped = casoratian_imag([fs[1], fs[0], fs[2]], Fraction(1, 2))
        else:
            base = casoratian_real(fs)
            swapped = casoratian_real([fs[1], fs[0], fs[2]])
        assert swapped == -base


gaussian_coeffs = st.builds(GaussianRational,
                            st.fractions(min_value=-4, max_value=4, max_denominator=3),
                            st.fractions(min_value=-4, max_value=4, max_denominator=3))
exp_pairs = st.tuples(st.sampled_from([0, 1, -1, Fraction(1, 2)]),
                      st.fractions(min_value=-2, max_value=2, max_denominator=2))
exp_polys = st.builds(lambda coeffs, pair: ExpPoly(Poly(coeffs), *pair),
                      st.lists(gaussian_coeffs, min_size=1, max_size=3), exp_pairs)


@st.composite
def operator_instances(draw):
    """(seeds, f): k = 0..5 seeds with mixed exponent pairs; f is at times
    one of the seeds."""
    seeds = draw(st.lists(exp_polys, max_size=5))
    if seeds and draw(st.booleans()):
        return seeds, draw(st.sampled_from(seeds))
    return seeds, draw(exp_polys)


@given(operator_instances())
@settings(max_examples=100, deadline=None)
@example(([], ExpPoly(x + 1, -1, 2)))
@example(([ExpPoly(x, 1), ExpPoly(x * x - 1, -1)], ExpPoly(x, 1)))
def test_wronskian_operator_matches_wronskian(drawn):
    """W[seeds, .] applied to f is W[seeds, f], pair included, and the
    operator's seed Wronskian is W[seeds]; a seed gives 0."""
    seeds, f = drawn
    op = wronskian_operator(seeds)
    got, want = op(f), wronskian([*seeds, f])
    assert (got.p, got.pair) == (want.p, want.pair)
    base = wronskian(seeds)
    assert (op.seed_wronskian.p, op.seed_wronskian.pair) == (base.p, base.pair)
    if f in seeds:
        assert got.is_zero()


@st.composite
def over_base_instances(draw):
    """(nums, base, f): m = 0..3 fixed numerators over a nonzero base, with
    mixed exponent pairs; f is at times one of the fixed numerators."""
    nums = draw(st.lists(exp_polys, max_size=3))
    base = draw(exp_polys)
    assume(not base.is_zero())
    if nums and draw(st.booleans()):
        return nums, base, draw(st.sampled_from(nums))
    return nums, base, draw(exp_polys)


def over_base_matrix(nums, base):
    """The ExpPoly matrix of W[nums/base] cleared of its base powers:
    row j + 1 is row_j' * base - (1 + j) * row_j * base'."""
    rows = [list(nums)]
    for j in range(len(nums) - 1):
        rows.append([n.derivative() * base - (1 + j) * (n * base.derivative())
                     for n in rows[-1]])
    return rows


@given(over_base_instances())
@settings(max_examples=100, deadline=None)
@example(([], ExpPoly(x + 1, 1), ExpPoly(x * x, -1, 1)))
@example(([ExpPoly(x, 1), ExpPoly(x * x - 1, -1)], ExpPoly(x + 2, Fraction(1, 2), 1),
          ExpPoly(x * x - 1, -1)))
def test_over_base_operator_matches_cofactor_oracle(drawn):
    """The operator over a base, applied to f, is the cofactor expansion of
    the ExpPoly matrix of [nums, f], pair included; its seed part is that
    of nums, over the base power ``over_base_power`` gives.  A column equal
    to a fixed one gives zero."""
    nums, base, f = drawn
    op = over_base_operator(nums, base)
    got, want = op(f), cofactor_det(over_base_matrix([*nums, f], base))
    assert (got.p, got.pair) == (want.p, want.pair)
    if nums:
        want = cofactor_det(over_base_matrix(nums, base))
    else:
        want = ExpPoly.one()
    assert (op.seed_wronskian.p, op.seed_wronskian.pair) == (want.p, want.pair)
    # row j of the oracle matrix is cleared of base^(1 + j)
    assert over_base_power(len(nums)) == sum(1 + j for j in range(len(nums)))
    if f in nums:
        assert got.is_zero()


def test_linearity_in_slot():
    rng = random.Random(13)
    alpha, beta = Fraction(3, 2), Fraction(-2, 5)
    for _ in range(6):
        fs = [random_poly(rng, 3, 9, nonzero=True) for _ in range(2)]
        f, g = random_poly(rng, 3, 9), random_poly(rng, 3, 9)
        combo = alpha * f + beta * g
        for fam in (lambda hs: wronskian([ExpPoly(h) for h in hs]).p,
                    lambda hs: casoratian_imag(hs, Fraction(1)),
                    casoratian_real):
            lhs = fam([fs[0], combo, fs[1]])
            rhs = alpha * fam([fs[0], f, fs[1]]) + beta * fam([fs[0], g, fs[1]])
            assert lhs == rhs


def test_reality_of_imag_casoratian():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(1, 4)
        fs = [random_poly(rng, 4, 9) for _ in range(n)]
        out = casoratian_imag(fs, Fraction(1, 2))
        assert out.is_real()


def sample_poly_exact(poly: Poly, x_max: int) -> GridFn:
    """The exact rational values of a real polynomial on {0, ..., x_max}."""
    values = [poly(x_pt) for x_pt in range(x_max + 1)]
    assert all(v.is_real() for v in values)
    return GridFn([v.re for v in values])


def test_grid_matches_polynomial_backend():
    rng = random.Random(19)
    fs = [random_poly(rng, 3, 5, nonzero=True) for _ in range(3)]
    exact = casoratian_real(fs)
    grids = [sample_poly_exact(f, 10) for f in fs]
    grid_out = casoratian_real_grid(grids)
    assert grid_out.x_max == 10 - 2
    for pt in range(grid_out.x_max + 1):
        assert grid_out(pt) == exact(pt).re


def test_grid_window_underflow():
    grids = [GridFn([Fraction(1)]), GridFn([Fraction(2)])]
    with pytest.raises(WindowError, match="x_max >= 1"):
        casoratian_real_grid(grids)


def test_wronskian_over_base_matches_direct_ratio():
    """W[n1/b, n2/b] computed generically equals the seed part of the
    operator over b, over b^3."""
    rng = random.Random(23)
    base = ExpPoly(random_poly(rng, 2, 5, nonzero=True), a=1)
    nums = [ExpPoly(random_poly(rng, 3, 5, nonzero=True), a=-1) for _ in range(2)]
    det, power = over_base_operator(nums, base).seed_wronskian, over_base_power(len(nums))
    # oracle: 2x2 quotient-rule determinant cleared over base^3
    n1, n2 = nums
    direct = (n1 * (n2.derivative() * base - n2 * base.derivative())
              - n2 * (n1.derivative() * base - n1 * base.derivative()))
    assert power == 3
    assert det == direct


# ---------------------------------------------------------------------------
# det_float_scalar against the operator-based LU it replaces
# ---------------------------------------------------------------------------

def det_float_reference(matrix):
    """LU with partial pivoting written with mpf operators."""
    n = len(matrix)
    if n == 0:
        return 1
    rows = [list(row) for row in matrix]
    det = None
    sign = 1
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda r: abs(rows[r][k]))
        if rows[pivot_row][k] == 0:
            return rows[0][0] * 0
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        pivot = rows[k][k]
        det = pivot if det is None else det * pivot
        for i in range(k + 1, n):
            factor = rows[i][k] / pivot
            for j in range(k + 1, n):
                rows[i][j] = rows[i][j] - factor * rows[k][j]
    return det if sign > 0 else -det


# Small integers tie pivot magnitudes (|2| = |-2|) and cancel exactly; the
# ratios and thirds need rounding at every precision.
float_entries = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2, 3]),
    st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)),
    st.tuples(st.integers(-50, 50), st.just(3)))


@st.composite
def float_matrices(draw):
    """(entry bits, working bits, matrix spec): an n x n spec of entries,
    with a zero column or a repeated row drawn at times."""
    n = draw(st.integers(1, 5))
    spec = [[draw(float_entries) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["plain", "zero column", "repeated row"]))
    if shape == "zero column":
        col = draw(st.integers(0, n - 1))
        for row in spec:
            row[col] = 0
    elif shape == "repeated row" and n > 1:
        spec[n - 1] = list(spec[0])
    return draw(st.sampled_from([53, 128, 256])), draw(st.sampled_from([53, 128, 256])), spec


def _mpf_entry(value):
    if isinstance(value, tuple):
        return mpmath.mpf(value[0]) / value[1]
    return mpmath.mpf(value)


@given(float_matrices())
@settings(max_examples=150, deadline=None)
@example((128, 128, [[0, 1, 2], [0, 3, 1], [0, -1, 1]]))
@example((256, 53, [[1, 2, 3], [2, (1, 3), 1], [1, 2, 3]]))
@example((53, 53, [[3, (2, 3), (1, 3)], [-3, -2, -1], [(5, 7), -1, (-1, 3)]]))
def test_det_float_scalar_matches_operator_lu(drawn):
    """Same _mpf_ tuple as the operator LU, for entries made at one
    precision and eliminated at another.  In the last example rows 0 and 1
    tie at |3|; taking the later one as pivot rounds the result differently."""
    entry_bits, bits, spec = drawn
    with working_precision(entry_bits):
        matrix = [[_mpf_entry(v) for v in row] for row in spec]
    with working_precision(bits):
        got = det_float_scalar(matrix)
        want = det_float_reference(matrix)
    assert isinstance(got, mpmath.mpf)
    assert got._mpf_ == want._mpf_


def test_det_float_scalar_zero_column_and_empty():
    with working_precision(128):
        zero = [[mpmath.mpf(1), mpmath.mpf(0)], [mpmath.mpf(2), mpmath.mpf(0)]]
        assert det_float_scalar(zero) == 0 and isinstance(det_float_scalar(zero), mpmath.mpf)
        assert det_float_scalar([]) == 1
