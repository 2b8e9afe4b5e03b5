from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from casorati.determinants import RunMemo, casoratian_real_grid
from casorati.gridfn import GridFn, WindowError
from casorati.rdqm import (
    NegativeRadicandError,
    _casoratian,
    _relative_residual,
    apply_hamiltonian,
    build_meixner_model,
    darboux_chain_replay,
    darboux_step_replay,
    deformed_eigenfunctions,
    deformed_potentials_bd,
    check_definite_sign,
    meixner_polynomial,
    residual,
    sign_conjecture_check,
    sign_identity_sweep,
    solve_seed_at_energy,
    spectrum_check,
    two_path_compare_rdqm,
)
from casorati.scalars import mpf_from_rational, working_precision
from casorati.seeds import sign_factor
import casorati.tridiag as tridiag_mod
from casorati.tridiag import lowest_eigenvalues

BITS = 192
TOL = mpmath.mpf(10) ** -20


@pytest.fixture(scope="module")
def model():
    return build_meixner_model(Fraction(2), Fraction(1, 3), n_max=8, x_max=60,
                               precision_bits=BITS)


def test_model_normalization_and_order(model):
    assert all(model.eigen(n)(0) == 1 for n in range(9))
    assert [model.eigen_energy(n) for n in range(4)] == [0, 1, 2, 3]
    assert meixner_polynomial(0, Fraction(2), Fraction(1, 3)) == __import__(
        "casorati.poly", fromlist=["Poly"]).Poly.one()


def test_model_residuals(model):
    tolerance = mpmath.mpf(10) ** -(BITS // 4)
    for n in range(9):
        assert residual(model, model.eigen(n), n) <= tolerance


def test_seed_row0_identity(model):
    """Row 0 fixes psi(1): -sqrt(B(0)D(1)) psi(1) + B(0) psi(0) = E psi(0)."""
    seed = solve_seed_at_energy(model, Fraction(-3, 5))
    with working_precision(BITS):
        b0 = model.b_grid(0)
        lhs = -mpmath.sqrt(b0 * model.d_grid(1)) * seed(1) + b0 * seed(0)
        assert abs(lhs - mpmath.mpf(Fraction(-3, 5).numerator) / 5 * 1) < mpmath.mpf(10) ** -40


def test_seed_positive_energy_rejected(model):
    with pytest.raises(ValueError):
        solve_seed_at_energy(model, Fraction(1, 2))


def test_seed_energy_must_be_rational(model):
    """A seed energy is exact; a float is not coerced."""
    with pytest.raises(TypeError):
        solve_seed_at_energy(model, -0.6)


def test_seed_reproduces_eigenfunction_up_to_normalization(model):
    """Marching the recurrence at E = E_n recovers phi_n (cross-check)."""
    with working_precision(BITS):
        energy = mpmath.mpf(2)
        b, d = model.b_grid, model.d_grid
        off0 = mpmath.sqrt(b(0) * d(1))
        psi = [mpmath.mpf(1), (b(0) - energy) / off0]
        for x_pt in range(1, 30):
            nxt = ((b(x_pt) + d(x_pt) - energy) * psi[x_pt]
                   - mpmath.sqrt(b(x_pt - 1) * d(x_pt)) * psi[x_pt - 1]) \
                / mpmath.sqrt(b(x_pt) * d(x_pt + 1))
            psi.append(nxt)
        phi2 = model.eigen(2)
        for x_pt in range(25):
            assert abs(psi[x_pt] - phi2(x_pt)) < mpmath.mpf(10) ** -40


def test_seeds_linearly_independent(model):
    s1 = solve_seed_at_energy(model, Fraction(-3, 5))
    s2 = solve_seed_at_energy(model, Fraction(-17, 10))
    assert check_definite_sign(s1) and check_definite_sign(s2)
    with working_precision(BITS):
        cas = casoratian_real_grid([s1, s2])
        assert all(v != 0 for v in cas.values)


def test_sign_factor_examples():
    assert sign_factor([Fraction(5)]) == 1
    assert sign_factor([3, -1, 2]) == -1
    for m in range(2, 6):
        ascending = list(range(m))
        assert sign_factor(ascending) == (-1) ** (m * (m - 1) // 2)
    with pytest.raises(ValueError):
        sign_factor([1, 1])


def test_deformed_potentials_trivial_and_single(model):
    with working_precision(BITS):
        b0, d0, pos = deformed_potentials_bd(model.b_grid, model.d_grid, [],
                                             model.eigen(0), BITS, model.memo)
        for x_pt in range(0, 20):
            assert abs(b0(x_pt) - model.b_grid(x_pt)) < mpmath.mpf(10) ** -40
            assert abs(d0(x_pt) - model.d_grid(x_pt)) < mpmath.mpf(10) ** -40
        b1, d1, pos1 = deformed_potentials_bd(model.b_grid, model.d_grid,
                                              [model.eigen(0)], model.eigen(1), BITS,
                                              model.memo)
        assert d1(0) == 0
        assert pos1["b_positive"] and pos1["d_positive_interior"]


def apply_hamiltonian_reference(b_grid, d_grid, psi, energy_shift=0, roots=None):
    """H psi written with mpf operators."""
    n = min(psi.x_max, b_grid.x_max, d_grid.x_max)
    if roots is None:
        roots = [mpmath.sqrt(b_grid(x) * d_grid(x + 1)) for x in range(n)]
    values = []
    for x in range(n):
        total = -roots[x] * psi(x + 1) + (b_grid(x) + d_grid(x) + energy_shift) * psi(x)
        if x >= 1:
            total -= roots[x - 1] * psi(x - 1)
        values.append(total)
    return values


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_hamiltonian_and_residual_match_operator_form(bits):
    """The raw-tuple H psi and residual gate are bit for bit the operator
    forms: int and mpf energies, a model made at another precision."""
    made = build_meixner_model(Fraction(2), Fraction(1, 3), n_max=4, x_max=30,
                               precision_bits=192)
    with working_precision(192):
        seed_energy = mpf_from_rational(Fraction(-3, 5))
    with working_precision(bits):
        b, d, roots = made.b_grid, made.d_grid, made.off_roots
        seed = solve_seed_at_energy(made, Fraction(-3, 5))
        for psi, energy in [(made.eigen(n), n) for n in range(5)] + [(seed, seed_energy)]:
            got = apply_hamiltonian(b, d, psi, roots)
            want = apply_hamiltonian_reference(b, d, psi, roots=roots)
            assert [v._mpf_ for v in got.values] == [v._mpf_ for v in want]
            top = max(abs(h - energy * psi(x)) for x, h in enumerate(want))
            bottom = max(abs(v) for v in psi.values[:len(want)])
            res = _relative_residual(b, d, psi, energy, roots)
            assert res._mpf_ == (top / bottom)._mpf_


def test_deformed_eigenfunction_residual(model):
    with working_precision(BITS):
        b1, d1, _ = deformed_potentials_bd(model.b_grid, model.d_grid,
                                           [model.eigen(0)], model.eigen(1), BITS,
                                           model.memo)
        phi = deformed_eigenfunctions(model.b_grid, model.d_grid,
                                      [model.eigen(0)], [Fraction(0)],
                                      model.eigen(1), BITS, model.memo)
        h_phi = apply_hamiltonian_reference(b1, d1, phi, energy_shift=mpmath.mpf(1))
        res = max(abs(h - phi(x)) for x, h in enumerate(h_phi))
        res /= max(abs(v) for v in phi.values[:len(h_phi)])
        assert res < mpmath.mpf(10) ** -40
        # M = 0 returns phi unchanged
        assert deformed_eigenfunctions(model.b_grid, model.d_grid, [], [],
                                       model.eigen(2), BITS, model.memo) is model.eigen(2)


def test_sign_conjecture_and_negative_radicand(model):
    seeds = [solve_seed_at_energy(model, Fraction(-3, 5)),
             solve_seed_at_energy(model, Fraction(-17, 10))]
    assert sign_conjecture_check(model, [Fraction(-3, 5), Fraction(-17, 10)], [])
    # an intermediate seed set violating admissibility trips the real-root guard
    with working_precision(BITS):
        bad = [seeds[0], seeds[1], model.eigen(1)]
        with pytest.raises(NegativeRadicandError):
            deformed_eigenfunctions(model.b_grid, model.d_grid, bad,
                                    [Fraction(-3, 5), Fraction(-17, 10), Fraction(1)],
                                    model.eigen(0), BITS, model.memo)


def test_step_replay_first_step(model):
    report = darboux_step_replay(model, [Fraction(-3, 5)], [], 0, 0, TOL)
    assert report.passed and report.params["eps_next_combinatorial"] == 1


def test_step_replay_out_of_order_sign(model):
    report = darboux_step_replay(model, [Fraction(-17, 10), Fraction(-3, 5)], [], 0, 1, TOL)
    assert report.passed
    assert report.params["sigma_s1"] == -1 == report.params["eps_next_combinatorial"]


def test_step_replay_anchor_violation_reported(model):
    report = darboux_step_replay(model, [], [1, 2], 0, 1, TOL)
    assert not report.passed and report.inconclusive
    assert "anchor" in report.note


def test_full_chain_replay(model):
    reports = darboux_chain_replay(model, [Fraction(-3, 5), Fraction(-17, 10)], [1, 2], 0, TOL)
    assert len(reports) == 4 and all(r.passed for r in reports)
    assert reports[-1].params["eps_next_combinatorial"] == -1


def test_two_path_and_permutation_invariance(model):
    report = two_path_compare_rdqm(model, [Fraction(-3, 5), Fraction(-17, 10)],
                                   [1, 2], 0, TOL, compare_up_to=30)
    assert report.passed
    assert mpmath.mpf(report.params["max_relative_deviation"]) <= TOL
    assert report.params["sign_identity_all_orderings"]
    assert report.params["epsilon"] == -1


def test_two_path_rejects_deleted_level(model):
    with pytest.raises(ValueError):
        two_path_compare_rdqm(model, [Fraction(-3, 5)], [1, 2], 2, TOL)


def test_two_path_requires_monotone_energies(model):
    with pytest.raises(ValueError):
        two_path_compare_rdqm(model, [Fraction(-17, 10), Fraction(-3, 5)], [1], 0, TOL)


def test_sign_identity_sweep():
    assert sign_identity_sweep([Fraction(-3, 5), Fraction(-17, 10)], [1, 2])
    assert sign_identity_sweep([Fraction(-1)], [Fraction(1)])
    assert sign_identity_sweep([], [1, 2])


def test_spectrum_checks(model):
    # truncation error at N = 45 on this window is ~4e-7 for the 5th value
    kwargs = dict(match_tolerance=mpmath.mpf(10) ** -5,
                  sensitivity_threshold=mpmath.mpf(10) ** -5)
    plain = spectrum_check(model, [], [], 45, 5, **kwargs)
    assert plain["matched"] and plain["expected"] == ["0", "1", "2", "3", "4"]
    deleted = spectrum_check(model, [Fraction(-3, 5), Fraction(-17, 10)], [1, 2],
                             45, 5, **kwargs)
    assert deleted["matched"] and deleted["expected"] == ["0", "3", "4", "5", "6"]
    iso = spectrum_check(model, [Fraction(-3, 5)], [], 45, 5, **kwargs)
    assert iso["matched"] and iso["expected"] == ["0", "1", "2", "3", "4"]


def test_spectrum_against_scipy_oracle(model):
    """Independent cross-check of the Sturm bisection path in float64."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    with working_precision(BITS):
        size = 30
        diag = [float(model.b_grid(x) + model.d_grid(x)) for x in range(size)]
        off = [float(-mpmath.sqrt(model.b_grid(x) * model.d_grid(x + 1)))
               for x in range(size - 1)]
        mine = lowest_eigenvalues([mpmath.mpf(v) for v in diag],
                                  [mpmath.mpf(v) for v in off], 4)
    theirs = scipy_linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
    for a, b in zip(mine, sorted(theirs)[:4]):
        assert abs(float(a) - b) < 1e-8


def bisection_eigenvalues(diag, off, k, tol=None):
    """Reference: each of the k smallest eigenvalues bisected on its own from
    the Gershgorin interval down to tol, one full Sturm count per step."""
    n = len(diag)
    if tol is None:
        tol = mpmath.mpf(2) ** (-(mpmath.mp.prec * 3) // 4)

    def count(t):
        below = 0
        d = diag[0] - t
        tiny = mpmath.mpf(2) ** (-mpmath.mp.prec) * (1 + abs(t))
        if d == 0:
            d = -tiny
        if d < 0:
            below += 1
        for i in range(1, n):
            d = diag[i] - t - off[i - 1] * off[i - 1] / d
            if d == 0:
                d = -tiny
            if d < 0:
                below += 1
        return below

    lo = hi = diag[0]
    for i in range(n):
        radius = (abs(off[i - 1]) if i > 0 else 0) + (abs(off[i]) if i < n - 1 else 0)
        lo = min(lo, diag[i] - radius)
        hi = max(hi, diag[i] + radius)
    values = []
    for j in range(1, k + 1):
        a, b = lo, hi
        while b - a > tol * (1 + abs(a) + abs(b)):
            mid = (a + b) / 2
            if count(mid) >= j:
                b = mid
            else:
                a = mid
        values.append((a + b) / 2)
    return values


def assert_matches_bisection(diag, off, k, tol=None):
    """Within tol (1 + 2|lambda|) of the reference; in fact equal, since the
    polish only spares counts the reference's bisection steps would make."""
    if tol is None:
        tol = mpmath.mpf(2) ** (-(mpmath.mp.prec * 3) // 4)
    mine = lowest_eigenvalues(diag, off, k, tol)
    reference = bisection_eigenvalues(diag, off, k, tol)
    assert len(mine) == k
    for got, want in zip(mine, reference):
        assert abs(got - want) <= tol * (1 + 2 * abs(want))
    assert mine == reference
    return mine


@pytest.fixture(scope="module")
def deformed_truncation():
    """The 60-row truncation of the deformed Meixner Hamiltonian that
    acceptance criterion 6 checks: seeds at -3/5 and -17/10, levels 1 and 2
    deleted, 256 bits."""
    bits = 256
    big = build_meixner_model(Fraction(2), Fraction(1, 3), n_max=8, x_max=80,
                              precision_bits=bits)
    seeds = ([solve_seed_at_energy(big, e) for e in (Fraction(-3, 5), Fraction(-17, 10))]
             + [big.eigen(1), big.eigen(2)])
    with working_precision(bits):
        b_d, d_d, _ = deformed_potentials_bd(big.b_grid, big.d_grid, seeds,
                                             big.eigen(0), bits, big.memo)
        diag = [b_d(x) + d_d(x) for x in range(60)]
        off = [-mpmath.sqrt(b_d(x) * d_d(x + 1)) for x in range(59)]
    return bits, diag, off


def test_eigenvalues_deformed_meixner_match_bisection(deformed_truncation):
    bits, diag, off = deformed_truncation
    with working_precision(bits):
        assert_matches_bisection(diag, off, 5)


def test_eigenvalues_take_few_sturm_counts(deformed_truncation, monkeypatch):
    """Isolation plus Newton from a binary64 start needs a few counts per
    eigenvalue, where bisecting each one from the Gershgorin interval takes
    about 1000; only the Newton steps compute p'/p."""
    bits, diag, off = deformed_truncation
    calls = []
    count_below = tridiag_mod.count_below

    def counted(diag, off_sq, t, with_ratio=True):
        calls.append(with_ratio)
        return count_below(diag, off_sq, t, with_ratio)

    monkeypatch.setattr(tridiag_mod, "count_below", counted)
    with working_precision(bits):
        values = lowest_eigenvalues(diag, off, 5)
    assert len(calls) <= 40
    assert sum(calls) <= 15
    assert [int(mpmath.nint(v)) for v in values] == [0, 3, 4, 5, 6]


@pytest.mark.parametrize("bits", [53, 128])
def test_eigenvalues_wilkinson_close_pairs(bits):
    """W21+: its upper eigenvalues come in pairs about 1e-14 apart, which
    128 bits separates and 53 bits cannot; k = n."""
    diag = [mpmath.mpf(abs(10 - i)) for i in range(21)]
    off = [mpmath.mpf(1)] * 20
    with working_precision(bits):
        values = assert_matches_bisection(diag, off, 21)
    assert abs(values[-1] - values[-2]) < mpmath.mpf(10) ** -13


def test_eigenvalues_reducible_repeated():
    """off = 0 with repeated integer diagonal entries: the Gershgorin
    interval is [0, 4], so bisection midpoints land on entries and hit the
    d == 0 guard, and a repeated eigenvalue never sits alone in a bracket,
    so it is bisected down to tol; k = n."""
    diag = [mpmath.mpf(v) for v in (4, 1, 2, 1, 3, 3, 0, 2)]
    off = [mpmath.mpf(0)] * 7
    with working_precision(128):
        values = assert_matches_bisection(diag, off, 8)
        tol = mpmath.mpf(2) ** -96
        for got, want in zip(values, [0, 1, 1, 2, 2, 3, 3, 4]):
            assert abs(got - want) <= tol * (1 + 2 * want)


# Entries: small integers and fractions, optionally moved by 2^-70, which
# binary64 rounds away; the whole matrix is scaled by 2^scale, where 2^1100
# overflows float() to inf and 2^-1100 underflows it to 0, so the binary64
# start is useless and the polish must start from the middle.
tridiag_entries = st.tuples(st.integers(-9, 9), st.integers(1, 8), st.sampled_from([0, 0, 1, -1]))


@st.composite
def tridiagonal_problems(draw):
    """(bits, diag, off, scale, k): a random symmetric tridiagonal, or two
    copies of one joined by a zero off-diagonal (every eigenvalue doubled)."""
    bits = draw(st.sampled_from([53, 128, 256]))
    twice = draw(st.booleans())
    size = draw(st.integers(1, 6) if twice else st.integers(2, 12))
    diag = [draw(tridiag_entries) for _ in range(size)]
    off = [draw(st.one_of(st.just((0, 1, 0)), tridiag_entries)) for _ in range(size - 1)]
    if twice:
        diag, off = diag + diag, off + [(0, 1, 0)] + off
    scale = draw(st.sampled_from([0, 0, 0, 1100, -1100]))
    return bits, diag, off, scale, draw(st.integers(1, min(len(diag), 4)))


def _tridiag_entry(entry, scale):
    num, den, fine = entry
    return mpmath.ldexp(mpmath.mpf(num) / den + fine * mpmath.mpf(2) ** -70, scale)


@given(tridiagonal_problems())
@settings(max_examples=100, deadline=None)
@example((128, [(1, 1, 1), (3, 1, 0), (5, 1, -1)], [(1, 4, 0), (1, 2, 1)], 0, 3))
@example((256, [(2, 1, 0)] * 4, [(0, 1, 0)] * 3, 0, 4))          # one eigenvalue, 4 times
@example((53, [(1, 1, 0), (2, 1, 0), (1, 1, 0), (2, 1, 0)],
          [(1, 1, 0), (0, 1, 0), (1, 1, 0)], 1100, 4))             # float() gives inf
@example((128, [(1, 1, 0), (-3, 2, 0), (7, 3, 0)], [(1, 3, 0), (2, 1, 0)], -1100, 3))
def test_eigenvalues_match_bisection_on_random_tridiagonals(drawn):
    bits, diag, off, scale, k = drawn
    with working_precision(bits):
        diag = [_tridiag_entry(v, scale) for v in diag]
        off = [_tridiag_entry(v, scale) for v in off]
        # the default tol is absolute near 0; scaled down with the matrix so
        # that the 2^-1100 problems are bisected and polished too
        tol = mpmath.mpf(2) ** (-(bits * 3) // 4 + min(scale, 0))
        assert_matches_bisection(diag, off, k, tol)


def test_binary64_start_decides_no_value(deformed_truncation, monkeypatch):
    """A binary64 sweep that lies (counts taken 2^-20 relative to the right,
    or every count wrong) only moves the Newton start: the values stay those
    of plain bisection, since only big-float counts enter the brackets."""
    bits, diag, off = deformed_truncation
    float_count = tridiag_mod._float_count
    liars = [lambda d, o, t: float_count(d, o, t + 2.0 ** -20 * (1 + abs(t))),
             lambda d, o, t: (len(d) - float_count(d, o, t)[0], 1.0)]
    with working_precision(bits):
        reference = bisection_eigenvalues(diag[:24], off[:23], 3)
        for liar in liars:
            monkeypatch.setattr(tridiag_mod, "_float_count", liar)
            assert lowest_eigenvalues(diag[:24], off[:23], 3) == reference


def dense_hamiltonian(b_grid: GridFn, d_grid: GridFn, size: int) -> list[list]:
    out = [[mpmath.mpf(0)] * size for _ in range(size)]
    for x_pt in range(size):
        out[x_pt][x_pt] = b_grid(x_pt) + d_grid(x_pt)
        if x_pt + 1 < size:
            off = -mpmath.sqrt(b_grid(x_pt) * d_grid(x_pt + 1))
            out[x_pt][x_pt + 1] = off
            out[x_pt + 1][x_pt] = off
    return out


def factorization_pair(b_grid: GridFn, d_grid: GridFn, size: int):
    """Forward-difference factor and its transpose on the truncation.

    A = sqrt(B(x)) - e^+ sqrt(D(x)): (A psi)(x) = sqrt(B(x))psi(x) - sqrt(D(x+1))psi(x+1).
    """
    a = [[mpmath.mpf(0)] * size for _ in range(size)]
    at = [[mpmath.mpf(0)] * size for _ in range(size)]
    for x_pt in range(size):
        root_b = mpmath.sqrt(b_grid(x_pt))
        a[x_pt][x_pt] = root_b
        at[x_pt][x_pt] = root_b
        if x_pt + 1 < size:
            root_d = mpmath.sqrt(d_grid(x_pt + 1))
            a[x_pt][x_pt + 1] = -root_d
            at[x_pt + 1][x_pt] = -root_d
    return a, at


def shift_matrices(size: int):
    """e^+ and e^- on the truncation: (e^+-)_{x,y} = delta_{x+-1, y}."""
    up = [[mpmath.mpf(1) if y == x + 1 else mpmath.mpf(0) for y in range(size)]
          for x in range(size)]
    down = [[mpmath.mpf(1) if y == x - 1 else mpmath.mpf(0) for y in range(size)]
            for x in range(size)]
    return up, down


def test_factorization_consistency(model):
    """A^T A reproduces the tri-diagonal matrix entrywise."""
    with working_precision(BITS):
        size = 12
        a, at = factorization_pair(model.b_grid, model.d_grid, size)
        product = [[sum(at[i][k] * a[k][j] for k in range(size)) for j in range(size)]
                   for i in range(size)]
        h = dense_hamiltonian(model.b_grid, model.d_grid, size)
        # bits/4 relative: bits/2 would sit below the working epsilon
        tolerance = mpmath.mpf(10) ** -(BITS // 4)
        for i in range(size - 1):           # last row feels the truncation edge
            for j in range(size - 1):
                assert abs(product[i][j] - h[i][j]) <= tolerance * (1 + abs(h[i][j]))


def test_shift_matrices_not_inverse():
    """e^+ e^- == 1 but e^- e^+ != 1 on the truncated representation."""
    size = 6
    up, down = shift_matrices(size)

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)]
                for i in range(size)]

    forward = matmul(up, down)
    backward = matmul(down, up)
    identity = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    assert all(forward[i][j] == identity[i][j] for i in range(size - 1) for j in range(size))
    assert backward != identity
    assert backward[0][0] == 0   # the corner betrays the one-sided inverse


def test_window_errors(model):
    tiny = GridFn([mpmath.mpf(1), mpmath.mpf(2)])
    other = GridFn([mpmath.mpf(1), mpmath.mpf(1)])
    with pytest.raises(WindowError):
        deformed_potentials_bd(tiny, tiny, [tiny], other, BITS, RunMemo())


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        build_meixner_model(Fraction(-1), Fraction(1, 3), 2, 10)
    with pytest.raises(ValueError):
        build_meixner_model(Fraction(2), Fraction(3, 2), 2, 10)
    with pytest.raises(ValueError):
        build_meixner_model(Fraction(2), Fraction(0), 2, 10)


def test_singular_deformation_names_location(model):
    """A seed Casoratian zero inside the window is reported with its x."""
    from casorati.rdqm import SingularDeformationError
    with working_precision(BITS):
        # phi_1 vanishes at x = 1, so the 1-seed Casoratian is zero there
        with pytest.raises(SingularDeformationError, match="x = 1"):
            deformed_potentials_bd(model.b_grid, model.d_grid,
                                   [model.eigen(1)], model.eigen(0), BITS, model.memo)


def test_deformed_potentials_seed_order_invariant(model):
    """Permuting seeds flips the Casoratian sign only; the potential ratios
    cancel it, while eps_D tracks the energy-order parity."""
    s1 = solve_seed_at_energy(model, Fraction(-3, 5))
    s2 = solve_seed_at_energy(model, Fraction(-17, 10))
    with working_precision(BITS):
        b_a, d_a, _ = deformed_potentials_bd(model.b_grid, model.d_grid,
                                             [s1, s2], model.eigen(0), BITS, model.memo)
        b_b, d_b, _ = deformed_potentials_bd(model.b_grid, model.d_grid,
                                             [s2, s1], model.eigen(0), BITS, model.memo)
        for x_pt in range(min(b_a.x_max, b_b.x_max) + 1):
            assert abs(b_a(x_pt) - b_b(x_pt)) <= mpmath.mpf(10) ** -40 * (1 + abs(b_a(x_pt)))
            assert abs(d_a(x_pt) - d_b(x_pt)) <= mpmath.mpf(10) ** -40 * (1 + abs(d_a(x_pt)))
    assert sign_factor([Fraction(-3, 5), Fraction(-17, 10)]) == 1
    assert sign_factor([Fraction(-17, 10), Fraction(-3, 5)]) == -1


# ---------------------------------------------------------------------------
# count_below against the operator-based Sturm recurrence it replaces
# ---------------------------------------------------------------------------

def count_below_reference(diag, off_sq, t):
    """The Sturm count and p'/p written with mpf operators."""
    count = 0
    d = diag[0] - t
    tiny = mpmath.mpf(2) ** (-mpmath.mp.prec) * (1 + abs(t))
    if d == 0:
        d = -tiny
    if d < 0:
        count += 1
    r = -1 / d
    ratio = r
    for i in range(1, len(diag)):
        q = off_sq[i - 1] / d
        slope = q * r - 1
        d = diag[i] - t - q
        if d == 0:
            d = -tiny
        if d < 0:
            count += 1
        r = slope / d
        ratio += r
    return count, ratio


# Small integers and halves make d_i == 0 frequent (t on a diagonal entry,
# or a_i - t = b_{i-1}^2 / d_{i-1} exactly); ratios need rounding.
sturm_values = st.one_of(
    st.sampled_from([0, 1, -1, 2, 3, (1, 2), (-3, 2)]),
    st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)))


def _mpf_value(value):
    if isinstance(value, tuple):
        return mpmath.mpf(value[0]) / value[1]
    return mpmath.mpf(value)


@st.composite
def sturm_problems(draw):
    n = draw(st.integers(1, 8))
    diag = [draw(sturm_values) for _ in range(n)]
    off_sq = [draw(st.one_of(st.sampled_from([0, 1, (1, 4)]), sturm_values))
              for _ in range(n - 1)]
    t = draw(st.one_of(st.sampled_from(diag), sturm_values))
    return draw(st.sampled_from([53, 128, 256])), diag, off_sq, t


@given(sturm_problems())
@settings(max_examples=200, deadline=None)
@example((53, [0, 3, 2], [1, 2], 0))          # d_0 == 0 at once
@example((128, [2, 1], [2], 0))               # d_1 = 1 - 0 - 2/2 == 0
@example((256, [1, 1, 1], [0, 0], 1))         # every d_i == 0
def test_count_below_matches_operator_recurrence(drawn):
    bits, diag, off_sq, t = drawn
    with working_precision(bits):
        diag = [_mpf_value(v) for v in diag]
        off_sq = [abs(_mpf_value(v)) for v in off_sq]
        t = _mpf_value(t)
        count, ratio = tridiag_mod.count_below(diag, off_sq, t)
        want_count, want_ratio = count_below_reference(diag, off_sq, t)
        count_only = tridiag_mod.count_below(diag, off_sq, t, with_ratio=False)
    assert count == want_count
    assert count_only == (want_count, None)
    assert isinstance(ratio, mpmath.mpf)
    assert ratio._mpf_ == want_ratio._mpf_


# ---------------------------------------------------------------------------
# One rdQM run computes each seed and each grid Casoratian once
# ---------------------------------------------------------------------------

RDQM_ARGV = ["rdqm", "--dv=-0.6,-1.7", "--de=1,2", "--n", "0,3"]


def counted_rdqm_run(monkeypatch, tmp_path, argv):
    """Run ``casorati`` on argv, recording each casoratian_real_grid call as
    (working precision, column values) and each seed solve by its energy."""
    from casorati import cli
    import casorati.rdqm as rdqm_mod
    grid_calls, seed_calls = [], []
    grid, solve = rdqm_mod.casoratian_real_grid, rdqm_mod.solve_seed_at_energy

    def counted_grid(columns):
        grid_calls.append((mpmath.mp.prec, tuple(tuple(f.values) for f in columns)))
        return grid(columns)

    def counted_solve(model, e_tilde):
        seed_calls.append(e_tilde)
        return solve(model, e_tilde)

    monkeypatch.setattr(rdqm_mod, "casoratian_real_grid", counted_grid)
    monkeypatch.setattr(rdqm_mod, "solve_seed_at_energy", counted_solve)
    assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == 0
    return grid_calls, seed_calls


def test_rdqm_run_computes_each_casoratian_once(monkeypatch, tmp_path):
    """Calls of casoratian_real_grid <= distinct (precision, column values)
    sets, and each virtual seed is solved once."""
    grid_calls, seed_calls = counted_rdqm_run(monkeypatch, tmp_path, RDQM_ARGV)
    assert len(grid_calls) == len(set(grid_calls))
    assert sorted(seed_calls) == [Fraction(-17, 10), Fraction(-3, 5)]


def test_rdqm_run_casoratians_at_model_precision(monkeypatch, tmp_path):
    """Every grid Casoratian of a run, the sign-conjecture check's included,
    runs at the model's working precision, never at mpmath's ambient one."""
    grid_calls, _ = counted_rdqm_run(monkeypatch, tmp_path,
                                     [*RDQM_ARGV, "--precision-bits", "192"])
    assert grid_calls and {prec for prec, _ in grid_calls} == {192}


def test_memo_keys_on_precision():
    """The same model grids at two precisions get two entries."""
    small = build_meixner_model(Fraction(2), Fraction(1, 3), n_max=2, x_max=12,
                                precision_bits=128)
    columns = [small.eigen(0), small.eigen(1)]
    with working_precision(64):
        low = _casoratian(columns, small.x_max, small.memo)
        assert _casoratian(columns, small.x_max, small.memo) is low
    with working_precision(128):
        high = _casoratian(columns, small.x_max, small.memo)
        assert high.values == casoratian_real_grid(columns).values
    assert len(small.memo) == 2 and high is not low
    assert high.values != low.values


def test_memo_freed_with_its_model(monkeypatch, tmp_path):
    """Reference counting alone frees a run's model and memo, and the run
    leaves no module-level container of the package larger."""
    import gc
    import sys
    import weakref

    from casorati import cli

    built = []

    def build(*args, **kwargs):
        model = build_meixner_model(*args, **kwargs)
        built.append((weakref.ref(model), weakref.ref(model.memo)))
        return model

    def container_sizes():
        return {(name, attr): len(value)
                for name, module in sys.modules.items()
                if name == "casorati" or name.startswith("casorati.")
                for attr, value in vars(module).items()
                if isinstance(value, (dict, list, set, tuple))}

    monkeypatch.setattr(cli, "build_meixner_model", build)
    argv = ["rdqm", "--dv=-0.6", "--n", "0", "--window", "40", "--truncation", "20",
            "--out", str(tmp_path / "r.json")]
    cli.main(argv)                      # warm-up: imports and the parser
    before = container_sizes()
    gc.disable()
    try:
        cli.main(argv)
        model_ref, memo_ref = built[-1]
        assert model_ref() is None and memo_ref() is None
    finally:
        gc.enable()
    assert container_sizes() == before


def test_truncated_keeps_identity_on_full_window():
    grid = GridFn([mpmath.mpf(1), mpmath.mpf(2), mpmath.mpf(3)])
    assert grid.truncated(2) is grid
    short = grid.truncated(1)
    assert short.values == grid.values[:2]
