import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import fone, fzero
from hypothesis import assume, example, given, settings, strategies as st

import casorati.determinants as det_mod
from casorati.determinants import (
    DeterminantBudgetError,
    casoratian_imag,
    casoratian_real,
    casoratian_real_grid,
    RunMemo,
    cofactor_det,
    fraction_free_det,
    imag_shift_points,
    maximal_minors,
    over_base_power,
    wronskian,
    wronskian_operator,
)
from casorati.gridfn import GridFn, WindowError
from casorati.poly import ExpPoly, ExpRatio, Poly, _pair_sum, as_poly
from casorati.sampling import random_poly
from casorati.scalars import GaussianRational, i_power, working_precision

x = Poly([0, 1])


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
gi = GaussianRational


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
@example([[Poly([gi(0, 2 ** 64), gi(0, -2 ** 64), gi(0, 2 ** 64)]), Poly.zero()],  # its
          [Poly.zero(), Poly([gi(0, -2 ** 64), 0, 0, gi(0, 2 ** 64)])]])         # Gaussian twin
@example([[random_poly(random.Random(8 * r + c), 1, 5) for c in range(8)]   # the largest
          for r in range(8)])                                               # expansion, n = 8
@example([[Poly.zero(), x - 2, Poly.constant(Fraction(1, 3))],     # real, zero first pivot
          [x * x + 1, Poly.constant(-2), x * Fraction(1, 2)],
          [Poly.constant(3), x + 1, Poly.zero()]])
@example([[Poly([Fraction(-1, 4), 2, Fraction(1, 3)])]])           # a 1 x 1 entry, shifted
def test_fraction_free_matches_cofactor_property(matrix):
    """Both eliminations, Bareiss and the shared expansion, give the
    oracle's determinant, and on the matrix without its last column the
    expansion's n maximal minors are the Bareiss determinants of the rows
    left when one is dropped.  With row r read at x + (r + 1)/2 - i r/3,
    Bareiss on the entries packed by evaluation is the oracle's determinant
    of the shifted entries.  At the conjugate points of an imaginary-shift
    Casoratian the kernel's determinant is Bareiss's on the shifted entries,
    whether or not the rows pair."""
    det = cofactor_det(matrix)
    assert fraction_free_det(matrix) == det
    points = [gi(Fraction(r + 1, 2), Fraction(-r, 3)) for r in range(len(matrix))]
    shifted = [[e.shift(p) for e in row] for row, p in zip(matrix, points)]
    assert fraction_free_det(matrix, points) == cofactor_det(shifted)
    conjugate = imag_shift_points(len(matrix), Fraction(1))
    assert maximal_minors(matrix, conjugate) == [fraction_free_det(
        [[e.shift(p) for e in row] for row, p in zip(matrix, conjugate)])]
    assert maximal_minors(matrix) == [det]
    narrow = [row[:-1] for row in matrix]
    assert maximal_minors(narrow) == [fraction_free_det(narrow[:j] + narrow[j + 1:])
                                      for j in range(len(matrix))]


def packing_for(*polys):
    """A packing whose digit bound and length hold every given Poly (each
    over denominator 1), as the kernel sizes one for its entries."""
    bound = max(sum(map(abs, p.re + p.im)) for p in polys)
    return det_mod._Packing(bound, max(len(p.re) for p in polys))


def packed_quotient(packing, num, d):
    """num / d by the packed division, with the kernel's norm (d itself for
    a real d), unpacked."""
    width = packing.width
    dr, di = det_mod._pack(d.re, width), det_mod._pack(d.im, width)
    got = packing.quotient(det_mod._pack(num.re, width), det_mod._pack(num.im, width),
                           dr, di, dr * dr + di * di if di else dr)
    return det_mod._unpack(got, width)


@pytest.mark.parametrize("num, d, q", [([-1, 0, 1], [1, 1], [-1, 1]),
                                       ([6, -9], [3], [2, -3]),
                                       ([0, 0, 4], [0, 2], [0, 2])])
def test_real_quotient_exact(num, d, q):
    """The packed division by a real divisor unpacks to the quotient in Z[x]."""
    num, d, q = Poly(num), Poly(d), Poly(q)
    assert packed_quotient(packing_for(num, d, q), num, d) == (q.re, q.im)


@pytest.mark.parametrize("num, d", [([1, 0, 1], [1, 1]),     # polynomial remainder 2
                                    ([1, 2], [2]),           # coefficient 1/2
                                    ([3], [2, 1]),           # lower degree
                                    ([0, 3], [0, 2])])
def test_real_quotient_rejects_inexact(num, d):
    num, d = Poly(num), Poly(d)
    with pytest.raises(ValueError, match="division is not exact"):
        packed_quotient(packing_for(num, d), num, d)


@pytest.mark.parametrize("q, d", [(x + gi(0, 1), x - gi(2, -3)),
                                  (gi(3, -1) * x * x - 2, gi(1, 2) * x + 3),
                                  (gi(0, 2) * x + gi(-1, 1), 2 * x + gi(0, 1)),
                                  (Poly([gi(4, 1)]), Poly([gi(-2, 5)]))])
def test_gaussian_quotient_exact(q, d):
    """The packed Gaussian division unpacks to the quotient in Z[i][x]."""
    num = q * d
    assert packed_quotient(packing_for(num, d, q), num, d) == (q.re, q.im)


@pytest.mark.parametrize("num, d", [((x + gi(0, 1)) * (x - 2) + 1, x - 2),
                                    (gi(1, 1) * x, 2 * x),           # real lc, 1/2 + i/2
                                    (x, gi(1, 1) * x),               # (1 - i)/2
                                    (Poly([gi(3, 0)]), Poly([gi(1, 2)])),
                                    (Poly([gi(0, 1)]), x + 1)])
def test_gaussian_quotient_rejects_inexact(num, d):
    with pytest.raises(ValueError, match="division is not exact"):
        packed_quotient(packing_for(num, d), num, d)


@pytest.mark.parametrize("num, d", [(x, Poly.constant(2)),
                                    (gi(1, 1) * x + 2, Poly.constant(gi(0, 2))),
                                    (x * x - 4 * x, Poly.constant(4))])
def test_packed_quotient_digit_bound_alone_rejects(num, d):
    """x / 2 is not in Z[x], yet 2^w / 2 = 2^(w-1) is an exact integer
    division: the remainder test passes, and only the digit bound on the
    quotient (a digit 2^(w-1), past 2^s) rejects it.  For a real d, the
    remainders of num * conj(d) by |d|^2 vanish just when d divides num's
    parts, as the quotient tests them."""
    packing = packing_for(num, d)
    width = packing.width
    dr, di = det_mod._pack(d.re, width), det_mod._pack(d.im, width)
    nr, ni = det_mod._pack(num.re, width), det_mod._pack(num.im, width)
    norm = dr * dr + di * di
    assert (nr * dr + ni * di) % norm == 0 and (ni * dr - nr * di) % norm == 0
    with pytest.raises(ValueError, match="division is not exact"):
        packed_quotient(packing, num, d)


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
    num = det_mod._pack([(1 << width) + q * d, -1], width)
    assert packing.quotient(num, 0, d, 0, d) == (q, 0)
    assert 2 ** width > 12 * length * 4 ** s


@pytest.mark.parametrize("units", [(gi(1), gi(1)), (gi(0, 1), gi(0, -1))])
def test_expansion_width_holds_a_coefficient_of_size_b(units, monkeypatch):
    """Why the expansion's width is bitlen(B) + 1.  With no division, each
    packed minor is a polynomial's value at 2^width, and its balanced digits,
    in [-2^(width-1), 2^(width-1)), are its coefficients when each is at
    most B < 2^bitlen(B) in size.  Here det = B x^3, from real entries: at
    bitlen(B) + 1 it unpacks exactly, one bit narrower its digit B reads as
    -B.  Its Gaussian twin packs (re, im) pairs, which only Bareiss takes:
    the kernel sends it there, and gets the oracle's determinant."""
    a, b = units
    matrix = [[a * 2 ** 64 * x, Poly.zero()], [Poly.zero(), b * 2 ** 64 * x * x]]
    rows = det_mod._Rows(matrix)
    width = rows.bound.bit_length() + 1
    assert rows.bound == 2 ** 128 and rows.gaussian == (a != 1)
    calls = []
    bareiss = det_mod.fraction_free_det
    monkeypatch.setattr(det_mod, "fraction_free_det",
                        lambda m, points=None: calls.append(len(m)) or bareiss(m, points))
    det, = maximal_minors(matrix)
    assert det == cofactor_det(matrix) == 2 ** 128 * x ** 3
    assert calls == ([2] if rows.gaussian else [])
    if rows.gaussian:
        return
    coefficients = (det.re, det.im)

    def unpacked(w):
        full = det_mod._expand(rows.pack(w), 2)[0b11]
        return det_mod._unpack(full, w)
    assert unpacked(width) == coefficients
    assert unpacked(width - 1) != coefficients


def test_minors_past_the_expansion_or_the_budget_take_bareiss(monkeypatch):
    """Above EXPANSION_MAX_N, and where the gcd-free bound passes
    COEFF_BIT_BUDGET, the kernel's minors are Bareiss determinants, which
    screen each entry: the budget raises or accepts as on Bareiss alone.
    Past the cutoff a shift Casoratian's Bareiss reads the entries packed
    by evaluation, and equals Bareiss on the Poly.shift entries."""
    calls = []
    bareiss = det_mod.fraction_free_det
    monkeypatch.setattr(det_mod, "fraction_free_det",
                        lambda m, points=None: calls.append(len(m)) or bareiss(m, points))
    n = det_mod.EXPANSION_MAX_N + 1
    rng = random.Random(9)
    matrix = [[random_poly(rng, 1, 5) for _ in range(n)] for _ in range(n + 1)]
    minors = maximal_minors(matrix)
    assert calls == [n] * (n + 1)
    fs = matrix[0]
    for gamma in (None, Fraction(1, 2)):     # Bareiss on entries packed by evaluation
        points = list(range(n)) if gamma is None else imag_shift_points(n, gamma)
        shifted = [[f.shift(delta) for f in fs] for delta in points]
        assert maximal_minors([fs] * n, points) == [bareiss(shifted)]
    assert calls == [n] * (n + 3)
    monkeypatch.setattr(det_mod, "EXPANSION_MAX_N", n)
    assert maximal_minors(matrix) == minors and calls == [n] * (n + 3)
    monkeypatch.setattr(det_mod, "COEFF_BIT_BUDGET", 8)
    top = [x * Fraction(1, 3), Fraction(1, 2 ** 30)]
    fits = [[*top], [Poly.constant(Fraction(2 ** 30, 5)), x * Fraction(3, 5)]]
    assert maximal_minors(fits) == [(x * x - 1) * Fraction(1, 5)]
    with pytest.raises(DeterminantBudgetError):
        maximal_minors([[*top], [Poly.constant(Fraction(2 ** 39, 5)), x * Fraction(3, 5)]])
    assert calls[-2:] == [2, 2]


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


def test_imag_shift_points_are_built_once_per_n_and_gamma():
    points = imag_shift_points(3, Fraction(1, 2))
    assert points == (GaussianRational(0, Fraction(1, 2)), GaussianRational(0),
                      GaussianRational(0, Fraction(-1, 2)))
    assert imag_shift_points(3, Fraction(1, 2)) is points
    assert imag_shift_points(2, Fraction(1, 2)) == (GaussianRational(0, Fraction(1, 4)),
                                                    GaussianRational(0, Fraction(-1, 4)))


def test_casoratian_real_examples():
    assert casoratian_real([]) == Poly.one()
    assert casoratian_real([Poly.one(), x]) == Poly.one()
    assert casoratian_real([x, x * x]) == x * (x + 1)
    f = x ** 3 - 2
    assert casoratian_real([f]) == f


shift_coeffs = st.one_of(small_fractions, st.builds(GaussianRational, small_fractions,
                                                    small_fractions))
real_polys = st.lists(small_fractions, max_size=5).map(Poly)
shift_inputs = st.one_of(
    st.lists(st.lists(shift_coeffs, max_size=5).map(Poly), max_size=5),          # mixed
    st.lists(st.one_of(real_polys, st.integers(-9, 9), small_fractions), max_size=8),
    st.lists(real_polys.map(lambda p: p * gi(0, 1)), max_size=8))               # imaginary


@given(shift_inputs, st.sampled_from([None, Fraction(1, 2), Fraction(1), Fraction(2)]))
@example([x, x * x + 1, x ** 3 - 2, 2 * x + 1], Fraction(1))        # real, n even
@example([x + 2, 3, Fraction(1, 2) * x ** 3], Fraction(1, 2))       # real, a middle row
@example([gi(0, 1) * x, gi(0, 2) * x ** 3 + gi(0, 1)], Fraction(2))   # purely imaginary
@settings(max_examples=100, deadline=None)
def test_shift_casoratians_packed_by_evaluation_match_poly_shift(fs, gamma):
    """Both shift Casoratians pack each f_k(x + delta_j) by evaluating f_k
    at 2^width + delta_j; they equal the determinant of the Poly.shift
    entries, at the imaginary points of gamma (None: the integer points).
    Real inputs, some given as int or Fraction constants, take the real
    form of W_gamma (conjugate rows replaced by their real and imaginary
    parts), and purely imaginary ones factor out their unit; the oracle is
    Bareiss on the shifted entries, which are not real and do not pair.
    Rows at points that are not conjugate, or with a non-real middle point,
    do not pair either; the middle-row example has a cubic, as below degree
    3 Im f(x + iy) = y f'(x), and a moved middle row's imaginary part would
    be a multiple of its neighbour's and drop out of the determinant."""
    polys, n = [as_poly(f) for f in fs], len(fs)
    points = list(range(n)) if gamma is None else imag_shift_points(n, gamma)
    shifted = [[f.shift(delta) for f in polys] for delta in points]
    got = casoratian_real(fs) if gamma is None else casoratian_imag(fs, gamma)
    expected = fraction_free_det(shifted)
    if gamma is not None:
        expected = expected * i_power(n * (n - 1) // 2)
    assert got == expected
    assert maximal_minors([fs] * n, points) == maximal_minors(shifted)
    if gamma is not None:
        for moved in ([p + j for j, p in enumerate(points)],
                      [p + gi(0, Fraction(2 * j + 1 == n, 3)) for j, p in enumerate(points)]):
            assert maximal_minors([fs] * n, moved) == [
                fraction_free_det([[f.shift(delta) for f in polys] for delta in moved])]


def test_imaginary_shift_casoratians_of_drawn_checks_stay_on_ints(monkeypatch):
    """Every imaginary-shift Casoratian of the first 20 seed-42 trials of
    each cas-imag checker and of 12 seed-42 idQM trials has inputs that are
    all real or all purely imaginary, so the kernel expands it on ints: no
    Bareiss call, and no (re, im) pair reaches the expansion."""
    from casorati import identities
    from casorati.sampling import SamplerConfig
    calls, bareiss, expand = [], det_mod.fraction_free_det, det_mod._expand

    def ints_only(ints, columns):
        assert all(type(v) is int for row in ints for v in row)
        return expand(ints, columns)
    monkeypatch.setattr(det_mod, "fraction_free_det",
                        lambda m, points=None: calls.append(len(m)) or bareiss(m, points))
    monkeypatch.setattr(det_mod, "_expand", ints_only)
    config = SamplerConfig(master_seed=42)
    checkers = [name for name in identities.CHECKS
                if name.startswith("cas-imag.") and name != "cas-imag.sum-formula"]
    for name in checkers:
        for trial in range(20):
            assert identities.draw_trial(name, config, trial)[1].passed
    identities.check_sum_formula(10)
    for trial in range(12):
        identities.idqm_trial(42, trial, Fraction(1), 2, 2, 2)
    assert len(checkers) == 7 and calls == []


@pytest.mark.parametrize("f, delta, tight", [(x ** 3 + 2 * x + 5, Fraction(3, 2), True),
                                             (x ** 3 - 2 * x + 5, Fraction(3, 2), False),
                                             (Poly([gi(1, -2), gi(0, 3), 1]), gi(Fraction(1, 3), -2),
                                              False),
                                             (7 * x ** 4, 3, True)])
def test_shift_size_bounds_the_shifted_coefficients(f, delta, tight):
    """The bound of a shifted entry f(x + u/d) of degree k,
    sum_j |c_j|_1 (d + |u|_1)^j d^(k-j), holds the |.|_1 sum of the
    coefficients of d^k f(x + u/d), with equality for positive coefficients
    and a positive shift."""
    ur, ui, d = det_mod._parts(delta)
    scaled = f.shift(delta) * d ** f.degree
    assert scaled.den == 1
    size = sum(abs(r) + abs(m) for r, m in zip(scaled.re, scaled.im))
    bound = det_mod._shift_size(f, d + abs(ur) + abs(ui), d)
    assert size == bound if tight else size < bound


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
# a and b draw denominators up to 5, so that L*(a*x + b/2) needs L > 2
exp_pairs = st.tuples(st.one_of(st.sampled_from([0, 1, -1, Fraction(1, 2)]),
                                st.fractions(min_value=-2, max_value=2, max_denominator=5)),
                      st.fractions(min_value=-2, max_value=2, max_denominator=5))
exp_polys = st.builds(lambda coeffs, pair: ExpPoly(Poly(coeffs), *pair),
                      st.lists(gaussian_coeffs, min_size=1, max_size=3), exp_pairs)


def drift_column_reference(f, length, base=None):
    """The Poly-form column: row j + 1 is row j's drift derivative, over a
    base by the quotient rule P_j'*B + P_j*(drift_j*B - (1 + j)*G), with
    drift_j from f's pair plus j times the base's and G the polynomial part
    of base'."""
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


def operator_sum_reference(op, f):
    """sum_j c_j * P_j by Poly products and sums."""
    col = drift_column_reference(f, len(op.cofactors), op.base)
    total = Poly.zero()
    for c, p in zip(op.cofactors, col):
        total = total + c * p
    return total


@given(exp_polys, st.one_of(st.none(), exp_polys), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
@example(ExpPoly(Poly.zero(), Fraction(2, 5), Fraction(-3, 4)), None, 4)       # zero f
@example(ExpPoly(Poly.zero(), 1, 1), ExpPoly(x + gi(0, 1), Fraction(1, 3)), 5)
@example(ExpPoly(Poly.constant(Fraction(-7, 3))), None, 3)                     # constant, (0, 0)
@example(ExpPoly(Poly.constant(Fraction(-7, 3))), ExpPoly(x * x + 1), 6)
@example(ExpPoly(x * gi(1, 2) - 1, -1, Fraction(1, 5)),                        # Gaussian f and base
         ExpPoly(Poly([gi(Fraction(1, 2), -1), gi(0, 3)]), Fraction(2, 3), 1), 6)
@example(ExpPoly(x * x - Fraction(1, 2), Fraction(3, 5), Fraction(4, 5)),      # real, L = 5 and 10
         ExpPoly(x + 3, Fraction(-1, 4), Fraction(1, 3)), 6)
def test_drift_column_matches_poly_reference(f, base, length):
    """The integer-vector column is the Poly-form column, row by row, plain
    and over a base, real and Gaussian."""
    assume(base is None or not base.is_zero())
    assert det_mod._drift_column(f, length, base) == drift_column_reference(f, length, base)


# Exponent-pair components: zero, small, and large with mismatched
# denominators; numerators of both parities and signs.
pair_parts = st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=-9, max_value=9, max_denominator=12),
                       st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20),
                                 st.sampled_from([1, 2, 3, 4, 2 ** 64, 3 ** 40])))
pair_states = st.builds(lambda a, b: ExpPoly(x, a, b), pair_parts, pair_parts)


def drift_reference(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """``_drift`` by Fraction arithmetic: b/2 divided out as a Fraction."""
    h = b / 2
    L = math.lcm(a.denominator, h.denominator)
    return L, a.numerator * (L // a.denominator), h.numerator * (L // h.denominator)


@given(pair_parts, pair_parts)
@settings(max_examples=200)
@example(Fraction(0), Fraction(0))
@example(Fraction(1, 3), Fraction(3))             # odd numerator: b/2 = 3/2
@example(Fraction(-1), Fraction(4, 7))            # even numerator: b/2 = 2/7
@example(Fraction(2, 5), Fraction(-3, 4))         # odd and negative: b/2 = -3/8
@example(Fraction(-5, 6), Fraction(-6, 5))        # even and negative: b/2 = -3/5
def test_drift_matches_fraction_halving(a, b):
    """L*(a*x + b/2) = A*x + B with b/2 taken by the parity of b's numerator
    gives the (L, A, B) of Fraction division."""
    assert det_mod._drift(a, b) == drift_reference(a, b)


@given(st.lists(pair_states, max_size=5), st.one_of(st.none(), pair_states), st.integers(0, 6))
@settings(max_examples=200)
@example([], None, 0)
@example([], ExpPoly(x, Fraction(-1, 2), Fraction(3, 4)), 6)
def test_pair_matches_fraction_sums(fs, base, times):
    """``_pair`` on integer numerators over the product of the denominators
    is the Fraction sum of the pairs plus ``times`` times the base's."""
    a = sum((f.a for f in fs), Fraction(0))
    b = sum((f.b for f in fs), Fraction(0))
    if base is not None:
        a, b = a + times * base.a, b + times * base.b
    out = det_mod._pair(fs, base, times)
    assert out == (a, b) and all(type(q) is Fraction for q in out)


@given(pair_states, pair_states)
@settings(max_examples=200)
@example(ExpPoly(x, 1, 3), ExpPoly(x, 1, 3))
@example(ExpPoly(x, Fraction(1, 2), Fraction(-1, 3)), ExpPoly(x, Fraction(-1, 3), Fraction(1, 2)))
def test_pair_differences_match_fraction_subtraction(f, g):
    """The over-base difference that ``_drift_column`` halves and the pair of
    ``ExpRatio.from_exp_polys`` are f's pair minus g's, as Fractions."""
    diff = (f.a - g.a, f.b - g.b)
    assert _pair_sum(((1, f), (-1, g))) == diff
    assert det_mod._drift(*_pair_sum(((1, f), (-1, g)))) == drift_reference(*diff)
    ratio = ExpRatio.from_exp_polys(f, g)
    assert ratio.pair == diff and all(type(q) is Fraction for q in ratio.pair)


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
@example(([ExpPoly(x, 1), ExpPoly(x * x - 1, -1)], ExpPoly(Poly.zero(), Fraction(1, 5))))  # zero f
def test_wronskian_operator_matches_wronskian(drawn):
    """W[seeds, .] applied to f is W[seeds, f], pair included, and the
    Poly-form cofactor sum; the operator's seed Wronskian is W[seeds]; a
    seed gives 0."""
    seeds, f = drawn
    op = wronskian_operator(seeds)
    got, want = op(f), wronskian([*seeds, f])
    assert (got.p, got.pair) == (want.p, want.pair)
    assert got.p == operator_sum_reference(op, f)
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
@example(([ExpPoly(x, 1)], ExpPoly(x + 2, Fraction(1, 2), 1), ExpPoly(Poly.zero(), -1)))  # zero f
@example(([ExpPoly(x * gi(0, 1) + 1, Fraction(1, 3)), ExpPoly(x * x, -1)],   # Gaussian base
          ExpPoly(Poly([gi(1, -2), gi(Fraction(1, 2), 1)]), Fraction(-2, 5), Fraction(3, 4)),
          ExpPoly(x - 1, 1, Fraction(1, 5))))
def test_over_base_operator_matches_cofactor_oracle(drawn):
    """The operator over a base, applied to f, is the cofactor expansion of
    the ExpPoly matrix of [nums, f], pair included, and the Poly-form
    cofactor sum; its seed part is that of nums, over the base power
    ``over_base_power`` gives.  A column equal to a fixed one gives zero."""
    nums, base, f = drawn
    op = wronskian_operator(nums, base)
    got, want = op(f), cofactor_det(over_base_matrix([*nums, f], base))
    assert (got.p, got.pair) == (want.p, want.pair)
    assert got.p == operator_sum_reference(op, f)
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
        assert out.conjugate_coeffs() == out


def sample_poly_exact(poly: Poly, x_max: int) -> GridFn:
    """The exact rational values of a real polynomial on {0, ..., x_max}."""
    values = [poly(x_pt) for x_pt in range(x_max + 1)]
    assert all(v.im == 0 for v in values)
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
    det, power = wronskian_operator(nums, base).seed_wronskian, over_base_power(len(nums))
    # oracle: 2x2 quotient-rule determinant cleared over base^3
    n1, n2 = nums
    direct = (n1 * (n2.derivative() * base - n2 * base.derivative())
              - n2 * (n1.derivative() * base - n1 * base.derivative()))
    assert power == 3
    assert det == direct


def test_wronskian_operator_rejects_a_zero_base():
    """The operator refuses a zero base itself: its callers check theirs first."""
    with pytest.raises(ZeroDivisionError, match="zero base"):
        wronskian_operator([ExpPoly(x + 1, 1)], ExpPoly(Poly.zero(), -1))


# ---------------------------------------------------------------------------
# The big-float grid LU against the operator-based LU it replaces
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


def one_point_grid(matrix) -> GridFn:
    """W_C of an n x n matrix's n columns on one-point windows: column k is
    f_k(j) = matrix[j][k], so the grid's one value is det(matrix)."""
    return casoratian_real_grid([GridFn([row[k] for row in matrix])
                                 for k in range(len(matrix))])


@given(float_matrices())
@settings(max_examples=150, deadline=None)
@example((128, 128, [[0, 1, 2], [0, 3, 1], [0, -1, 1]]))
@example((256, 53, [[1, 2, 3], [2, (1, 3), 1], [1, 2, 3]]))
@example((53, 53, [[3, (2, 3), (1, 3)], [-3, -2, -1], [(5, 7), -1, (-1, 3)]]))
def test_one_point_grid_matches_operator_lu(drawn):
    """Same _mpf_ tuple as the operator LU, for entries made at one
    precision and eliminated at another.  In the last example rows 0 and 1
    tie at |3|; taking the later one as pivot rounds the result differently."""
    entry_bits, bits, spec = drawn
    with working_precision(entry_bits):
        matrix = [[_mpf_entry(v) for v in row] for row in spec]
    with working_precision(bits):
        got = one_point_grid(matrix)
        want = det_float_reference(matrix)
    assert got.raw == (want._mpf_,)


@st.composite
def float_grids(draw):
    """(entry bits, working bits, column specs): 1 to 5 columns on a common
    window, a column at times zero or repeated."""
    n = draw(st.integers(1, 5))
    length = draw(st.integers(n, n + 5))
    spec = [[draw(float_entries) for _ in range(length)] for _ in range(n)]
    shape = draw(st.sampled_from(["plain", "zero column", "repeated column"]))
    if shape == "zero column":
        spec[draw(st.integers(0, n - 1))] = [0] * length
    elif shape == "repeated column" and n > 1:
        spec[n - 1] = list(spec[0])
    return draw(st.sampled_from([53, 128, 256])), draw(st.sampled_from([53, 128, 256])), spec


@given(float_grids())
@settings(max_examples=100, deadline=None)
@example((256, 53, [[1, 2, (1, 3), -2], [(2, 3), 0, 3, 1], [-1, (5, 7), 2, 0]]))
def test_casoratian_real_grid_matches_operator_lu(drawn):
    """Rows sliced from the columns' raw tuples give, at every x, the tuple
    of the operator LU on the matrix f_k(x + j) built from the grid values."""
    entry_bits, bits, spec = drawn
    with working_precision(entry_bits):
        fs = [GridFn([_mpf_entry(v) for v in column]) for column in spec]
    n = len(fs)
    with working_precision(bits):
        got = casoratian_real_grid(fs)
        want = [det_float_reference([[fs[k](x + j) for k in range(n)] for j in range(n)])
                for x in range(fs[0].x_max - n + 2)]
    assert got.raw == tuple(v._mpf_ for v in got.values) == tuple(v._mpf_ for v in want)


def test_one_point_grid_zero_column_and_empty():
    """A zero pivot column gives 0; no columns is the rdQM layer's constant 1."""
    from casorati.rdqm import _casoratian
    with working_precision(128):
        assert one_point_grid([[mpmath.mpf(1), fzero], [mpmath.mpf(2), fzero]]).raw == (fzero,)
        with pytest.raises(ValueError, match="at least one function"):
            casoratian_real_grid([])
        assert _casoratian([], 0, RunMemo()).raw == (fone,)


@st.composite
def prefix_families(draw):
    """(entry bits, working bits, column specs, families): up to 5 columns of
    5 to 8 points (a zero or a repeated one at times), and 1 to 6 families,
    in drawn order, each a prefix of one drawn index list plus at times one
    more column, so that families share prefixes; an index may repeat."""
    count = draw(st.integers(1, 5))
    spec = [[draw(float_entries) for _ in range(draw(st.integers(5, 8)))]
            for _ in range(count)]
    shape = draw(st.sampled_from(["plain", "zero column", "repeated column"]))
    if shape == "zero column":
        spec[-1] = [0] * len(spec[-1])
    elif shape == "repeated column" and count > 1:
        spec[-1] = list(spec[0])
    base = draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=4))
    families = draw(st.lists(
        st.tuples(st.integers(1, len(base)), st.none() | st.integers(0, count - 1))
        .map(lambda drawn: base[:drawn[0]] + ([] if drawn[1] is None else [drawn[1]])),
        min_size=1, max_size=6))
    bits = st.sampled_from([53, 128, 256])
    return draw(bits), draw(bits), spec, families


@given(prefix_families())
@settings(max_examples=100, deadline=None)
@example((128, 128, [[1, 2, 3, 4, 5], [0, 0, 0, 0, 0], [2, (1, 3), -1, 0, 7, 1]],
          [[0, 2], [0, 1], [0, 2, 1], [0], [0, 0]]))
@example((53, 256, [[3, -3, (5, 7), 2, 1], [(2, 3), -2, -1, 0, 2, 3, 1]],
          [[0, 1], [0], [0, 1, 0], [1, 0]]))
def test_casoratians_sharing_prefixes_match_operator_lu(drawn):
    """Casoratians computed in drawn order through one memo, each reusing
    the eliminations of the prefixes before it, are each the operator LU's
    tuples at every x, whatever was computed first."""
    entry_bits, bits, spec, families = drawn
    with working_precision(entry_bits):
        columns = [GridFn([_mpf_entry(v) for v in column]) for column in spec]
    memo = RunMemo()
    with working_precision(bits):
        for family in families:
            fs = [columns[k] for k in family]
            n = len(fs)
            want = [det_float_reference([[f(x + j) for f in fs] for j in range(n)])
                    for x in range(min(f.x_max for f in fs) - n + 2)]
            assert casoratian_real_grid(fs, memo).raw == tuple(v._mpf_ for v in want)
