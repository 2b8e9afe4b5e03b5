"""The rdQM layer's per-point loops on raw mpf tuples against the mpf
operator forms they replace, kept here: equal tuples, or the same exception
class and message (so the same x) where a radicand or a W_C pair violates
the sign premise.  Grids are drawn at 53, 128 and 256 bits, with zero and
negative entries, and used at another precision at times."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import casorati.rdqm as rdqm_mod
import casorati.tridiag as tridiag_mod
from casorati.determinants import RunMemo, casoratian_real_grid
from casorati.gridfn import GridFn, WindowError
from casorati.rdqm import (
    MAX_N_MAX,
    MAX_PRECISION_BITS,
    MAX_X_MAX,
    NegativeRadicandError,
    ResidualGateError,
    SingularDeformationError,
    _casoratian,
    _relative_deviation,
    _relative_residual,
    _step_plain_parts,
    apply_hamiltonian,
    build_meixner_model,
    deformed_eigenfunctions,
    deformed_potentials_bd,
    meixner_polynomial,
    solve_seed_at_energy,
    spectrum_check,
)
from casorati.scalars import raw_rational, working_precision
from casorati.seeds import sign_factor
from casorati.tridiag import count_below, lowest_eigenvalues

BITS = [53, 128, 256]


def mpf_from_rational_reference(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def outcome(compute):
    """("ok", result) with every mpf sequence in it as raw tuples, or
    ("raised", class, message)."""
    try:
        result = compute()
    except (ArithmeticError, ValueError) as exc:
        return "raised", type(exc), str(exc)
    return "ok", [item if isinstance(item, dict) else tuple(v._mpf_ for v in item)
                  for item in result]


# Small integers tie, cancel and vanish; the ratios round at every precision.
grid_entries = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2, 3]),
    st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)))


def mpf_values(spec, bits):
    with working_precision(bits):
        return [mpmath.mpf(v[0]) / v[1] if isinstance(v, tuple) else mpmath.mpf(v)
                for v in spec]


def make_grid(spec, bits):
    return GridFn(mpf_values(spec, bits))


def grids(length, count):
    return st.lists(st.lists(grid_entries, min_size=length, max_size=length),
                    min_size=count, max_size=count)


def _negated(entry):
    return -entry if isinstance(entry, int) else (-entry[0], entry[1])


@st.composite
def nonnegative_grids(draw, length, count):
    """Grids of entries >= 0, with one entry of one grid negated at times, so
    that the sign premise holds often and fails at a drawn x otherwise."""
    specs = [[_negated(v) if (v if isinstance(v, int) else v[0]) < 0 else v for v in spec]
             for spec in draw(grids(length, count))]
    if draw(st.booleans()):
        spec = draw(st.sampled_from(specs))
        at = draw(st.integers(0, length - 1))
        spec[at] = _negated(spec[at])
    return specs


_MODELS = {}


def small_model(beta, c, bits):
    key = (beta, c, bits)
    if key not in _MODELS:
        _MODELS[key] = build_meixner_model(beta, c, n_max=3, x_max=12, precision_bits=bits)
    return _MODELS[key]


models = st.tuples(st.sampled_from([Fraction(2), Fraction(1, 2)]),
                   st.sampled_from([Fraction(1, 3), Fraction(3, 4)]), st.sampled_from(BITS))


# ---------------------------------------------------------------------------
# The model build: potentials, off-diagonal roots, eigenvectors
# ---------------------------------------------------------------------------

@given(st.fractions(), st.sampled_from(BITS))
@example(Fraction(3 ** 200 + 1, 7), 53)       # a numerator wider than the precision
@example(Fraction(-(2 ** 300) - 1, 3 ** 50), 128)
@example(Fraction(65123568434557763297, 65), 53)     # rounding the numerator first matters
def test_raw_rational_matches_operator_form(q, bits):
    with working_precision(bits):
        assert raw_rational(q, *mpmath.mp._prec_rounding) == mpf_from_rational_reference(q)._mpf_


@given(st.fractions(min_value=Fraction(1, 10), max_value=5, max_denominator=12),
       st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=20),
       st.sampled_from(BITS), st.integers(1, 30))
@settings(max_examples=30, deadline=None)
@example(Fraction(2), Fraction(1, 3), 256, 30)
def test_model_build_matches_operator_form(beta, c, bits, x_max):
    """The off-diagonal roots and phi_n(k) = phi_0(k) P_n(k), with P_n(k) by
    integer Horner, are the operator form's tuples."""
    try:
        model = build_meixner_model(beta, c, n_max=4, x_max=x_max, precision_bits=bits)
    except ResidualGateError:
        assume(False)
    with working_precision(bits):
        b, d, ground = model.b_grid, model.d_grid, model.ground
        assert list(model.off_roots.raw) == [
            mpmath.sqrt(b(x) * d(x + 1))._mpf_ for x in range(x_max)]
        for n in range(5):
            p_n = meixner_polynomial(n, beta, c)
            want = [ground(k) * mpf_from_rational_reference(p_n(k).re)
                    for k in range(x_max + 1)]
            assert model.eigen(n).raw == tuple(v._mpf_ for v in want)


def test_model_inputs_above_their_bounds_raise():
    """Rejected before any big-float work; no lower bound is added."""
    for kwargs, message in [
            (dict(x_max=MAX_X_MAX + 1), f"window x_max {MAX_X_MAX + 1} is above its bound"),
            (dict(n_max=MAX_N_MAX + 1), f"n_max {MAX_N_MAX + 1} is above its bound"),
            (dict(precision_bits=MAX_PRECISION_BITS + 1),
             f"precision_bits {MAX_PRECISION_BITS + 1} is above its bound")]:
        with pytest.raises(ValueError, match=message):
            build_meixner_model(2, Fraction(1, 3), **{**dict(n_max=2, x_max=10,
                                                             precision_bits=64), **kwargs})
    assert build_meixner_model(2, Fraction(1, 3), n_max=2, x_max=10, precision_bits=64)


def test_raw_layer_makes_no_mpf(monkeypatch):
    """Grids store raw tuples, so the raw-tuple loops take and give them as
    they are: not one mpmath.mp.make_mpf call inside them on a small model."""
    model = small_model(Fraction(2), Fraction(1, 3), 128)
    energies = [Fraction(-3, 5), Fraction(-17, 10)]
    seeds = [model.seed(e) for e in energies]
    diag, off_sq = model.b_grid.raw, model.d_grid.raw[1:]
    made, make_mpf = [], mpmath.mp.make_mpf
    monkeypatch.setattr(mpmath.mp, "make_mpf", lambda v: made.append(v) or make_mpf(v))
    with working_precision(128):
        casoratian_real_grid(seeds)
        apply_hamiltonian(model.b_grid, model.d_grid, model.eigen(2), model.off_roots)
        deformed_potentials_bd(model, seeds, model.eigen(0))
        deformed_eigenfunctions(model.b_grid, model.d_grid, seeds, energies, model.eigen(2),
                                128, RunMemo())
        count_below(diag, off_sq, model.b_grid.raw[3])
    assert made == []


# ---------------------------------------------------------------------------
# Virtual seeds
# ---------------------------------------------------------------------------

def solve_seed_reference(model, e_tilde):
    """The seed recurrence in mpf operator form, then its residual gate."""
    with working_precision(model.precision_bits):
        b, d, off = model.b_grid, model.d_grid, model.off_roots
        energy = mpf_from_rational_reference(e_tilde)
        psi = [mpmath.mpf(1), (b(0) - energy) / off(0)]
        for x_pt in range(1, model.x_max):
            nxt = ((b(x_pt) + d(x_pt) - energy) * psi[x_pt]
                   - (off(x_pt - 1) * psi[x_pt - 1])) / off(x_pt)
            psi.append(nxt)
        grid = GridFn(psi)
        res = _relative_residual(b, d, grid, energy._mpf_, off)
        if res > mpmath.mpf(10) ** (-(model.precision_bits // 4)):
            raise ResidualGateError(f"seed residual {res} above tolerance")
        return grid


_SEED_MODELS = {}


def seed_model(beta, c, bits, x_max):
    key = (beta, c, bits, x_max)
    if key not in _SEED_MODELS:
        _SEED_MODELS[key] = build_meixner_model(beta, c, n_max=2, x_max=x_max,
                                                precision_bits=bits)
    return _SEED_MODELS[key]


@given(st.sampled_from([Fraction(2), Fraction(1, 2), Fraction(1, 3)]),     # B, D round at 2/7
       st.sampled_from([Fraction(1, 3), Fraction(3, 4), Fraction(2, 7)]), st.sampled_from(BITS),
       st.sampled_from([1, 2, 12, 40, 80]),
       st.fractions(max_value=Fraction(-1, 10 ** 6), min_value=-40, max_denominator=10 ** 9))
@settings(max_examples=100, deadline=None)
@example(Fraction(2), Fraction(1, 3), 256, 80, Fraction(-3, 5))
@example(Fraction(2), Fraction(3, 4), 53, 80, Fraction(-1, 10))      # the gate raises
@example(Fraction(1, 2), Fraction(3, 4), 128, 1, Fraction(-947049, 483407))
def test_seed_solve_matches_operator_form(beta, c, bits, x_max, e_tilde):
    """The raw-tuple recurrence gives the operator form's tuples, or the
    same gate error with the same message."""
    model = seed_model(beta, c, bits, x_max)

    def result(solve):
        try:
            return "ok", solve(model, e_tilde).raw
        except ResidualGateError as exc:
            return "raised", str(exc)

    assert result(solve_seed_at_energy) == result(solve_seed_reference)


# ---------------------------------------------------------------------------
# Deformed potentials
# ---------------------------------------------------------------------------

def deformed_potentials_reference(model, seeds, mu_state):
    """deformed_potentials_bd in its mpf operator form, with both square
    roots taken from the potentials."""
    b_grid, d_grid = model.b_grid, model.d_grid
    with working_precision(model.precision_bits):
        m_count = len(seeds)
        x_max = min(b_grid.x_max, d_grid.x_max, mu_state.x_max, *(s.x_max for s in seeds))
        memo = RunMemo()
        wc = _casoratian(seeds, x_max, memo)
        wc_mu = _casoratian(list(seeds) + [mu_state], x_max, memo)
        for grid, what in ((wc, f"W_C[{m_count} seeds]"), (wc_mu, f"W_C[{m_count} seeds, mu]")):
            for x_pt, value in enumerate(grid.values):
                if value == 0:
                    raise SingularDeformationError(f"{what} vanishes at x = {x_pt}")
        out_max = x_max - m_count - 1
        if out_max < 0:
            raise WindowError("window too small for the deformed potentials")
        b_values, d_values = [], [mpmath.mpf(0)]
        for x_pt in range(out_max + 1):
            radicand = b_grid(x_pt + m_count) * d_grid(x_pt + m_count + 1)
            if radicand < 0:
                raise NegativeRadicandError(f"B(x+M)D(x+M+1) < 0 at x = {x_pt}")
            b_values.append(mpmath.sqrt(radicand) * wc(x_pt) / wc(x_pt + 1)
                            * wc_mu(x_pt + 1) / wc_mu(x_pt))
            if x_pt >= 1:
                radicand = b_grid(x_pt - 1) * d_grid(x_pt)
                if radicand < 0:
                    raise NegativeRadicandError(f"B(x-1)D(x) < 0 at x = {x_pt}")
                d_values.append(mpmath.sqrt(radicand) * wc(x_pt + 1) / wc(x_pt)
                                * wc_mu(x_pt - 1) / wc_mu(x_pt))
        return b_values, d_values, {"b_positive": all(v > 0 for v in b_values),
                                    "d_positive_interior": all(v > 0 for v in d_values[1:]),
                                    "d_zero_at_origin": d_values[0] == 0}


def deformed_potentials(model, seeds, mu_state):
    b_d, d_d, positivity = deformed_potentials_bd(model, seeds, mu_state)
    return b_d.values, d_d.values, positivity


@given(models, st.sampled_from(BITS), st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_deformed_potentials_match_operator_form(model_key, entry_bits, m_count, data):
    model = small_model(*model_key)
    columns = data.draw(grids(model.x_max + 1, m_count + 1))
    *seeds, mu_state = [make_grid(column, entry_bits) for column in columns]
    want = outcome(lambda: deformed_potentials_reference(model, seeds, mu_state))
    assert outcome(lambda: deformed_potentials(model, seeds, mu_state)) == want


def test_deformed_potentials_of_model_seeds_match_operator_form():
    """Eigenstates and virtual seeds of the model itself, at 53 to 256 bits."""
    for bits in BITS:
        model = small_model(Fraction(2), Fraction(1, 3), bits)
        seeds = [model.seed(Fraction(-3, 5)), model.seed(Fraction(-17, 10)),
                 model.eigen(1), model.eigen(2)]
        for m_count in range(5):
            want = outcome(lambda: deformed_potentials_reference(model, seeds[:m_count],
                                                                 model.eigen(0)))
            got = outcome(lambda: deformed_potentials(model, seeds[:m_count], model.eigen(0)))
            assert got == want and got[0] == "ok"


# ---------------------------------------------------------------------------
# Deformed eigenfunctions
# ---------------------------------------------------------------------------

def deformed_eigenfunctions_reference(b_grid, d_grid, seeds, seed_energies, phi, bits):
    """deformed_eigenfunctions in its mpf operator form."""
    with working_precision(bits):
        m_count = len(seeds)
        epsilon = sign_factor(list(seed_energies))
        x_max = min(phi.x_max, b_grid.x_max, d_grid.x_max, *(s.x_max for s in seeds))
        memo = RunMemo()
        wc = _casoratian(seeds, x_max, memo)
        wc_n = _casoratian(list(seeds) + [phi.truncated(x_max)], x_max, memo)
        out_max = min(wc_n.x_max, wc.x_max - 1, x_max - m_count)
        if out_max < 0:
            raise WindowError("window too small for the deformed eigenfunction")
        values = []
        for x_pt in range(out_max + 1):
            quarters = mpmath.mpf(1)
            for j in range(1, m_count + 1):
                quarters *= b_grid(x_pt + j - 1) * d_grid(x_pt + j)
            if quarters < 0:
                raise NegativeRadicandError(f"prod B D < 0 at x = {x_pt}")
            w_pair = wc(x_pt) * wc(x_pt + 1)
            if w_pair <= 0:
                raise NegativeRadicandError(
                    f"W_C(x)W_C(x+1) not positive at x = {x_pt} (sign premise violated)")
            values.append((-1) ** m_count * epsilon * mpmath.root(quarters, 4)
                          * wc_n(x_pt) / mpmath.sqrt(w_pair))
        return [values]


@given(st.sampled_from(BITS), st.sampled_from(BITS), st.integers(1, 3),
       st.integers(0, 2), st.data())
@settings(max_examples=100, deadline=None)
def test_deformed_eigenfunctions_match_operator_form(entry_bits, bits, m_count, short, data):
    """Potentials, seeds and phi drawn with zero and negative entries: the
    same tuples, or the same NegativeRadicandError at the same x; a second
    call, on the memo's roots, gives the same tuples again.  The potentials
    are ``short`` points shorter than the rest at times, as the staged
    path's are."""
    length = m_count + 2 + data.draw(st.integers(0, 6))
    b_spec, d_spec = data.draw(nonnegative_grids(length - short, 2))
    *seed_specs, phi_spec = data.draw(nonnegative_grids(length, m_count + 1))
    b_grid, d_grid = make_grid(b_spec, entry_bits), make_grid(d_spec, entry_bits)
    seeds = [make_grid(spec, entry_bits) for spec in seed_specs]
    phi = make_grid(phi_spec, entry_bits)
    energies = data.draw(st.lists(st.fractions(), min_size=m_count, max_size=m_count,
                                  unique=True))
    want = outcome(lambda: deformed_eigenfunctions_reference(b_grid, d_grid, seeds,
                                                             energies, phi, bits))
    memo = RunMemo()
    for _ in range(2):
        got = outcome(lambda: [deformed_eigenfunctions(b_grid, d_grid, seeds, energies,
                                                       phi, bits, memo).values])
        assert got == want


def test_deformed_eigenfunctions_first_violated_premise_named():
    """The memo's roots are computed on the whole window, yet the error names
    the first x where a premise fails, and at one x the prod B D check
    comes first, as in the operator form.  The seed's W_C(1)W_C(2) < 0."""
    def grid(*values):
        return GridFn([mpmath.mpf(v) for v in values])

    one, seed, phi = grid(1, 1, 1, 1, 1), grid(1, 2, -1, 3, 4), grid(1, 0, 2, 1, 1)
    pair_message = r"^W_C\(x\)W_C\(x\+1\) not positive at x = 1 \(sign premise violated\)$"
    for d_grid, message in [(one, pair_message),
                            (grid(0, 1, -1, 1, 1), r"^prod B D < 0 at x = 1$"),   # both at x = 1
                            (grid(0, 1, 1, -1, 1), pair_message)]:            # B D < 0 at x = 2
        with pytest.raises(NegativeRadicandError, match=message):
            deformed_eigenfunctions(one, d_grid, [seed], [Fraction(-1)], phi, 128, RunMemo())


# ---------------------------------------------------------------------------
# Spectrum matrix entries, Gershgorin bounds and off_sq
# ---------------------------------------------------------------------------

class _Captured(Exception):
    pass


@st.composite
def spectrum_problems(draw):
    """(model, entry bits, B_D and D_D specs, truncation, deleted labels):
    nonnegative potentials, with one entry negated at times."""
    length = draw(st.integers(2, 12))
    b_spec, d_spec = draw(grids(length, 2))
    b_spec, d_spec = ([abs(v) if isinstance(v, int) else (abs(v[0]), v[1]) for v in spec]
                      for spec in (b_spec, d_spec))
    if draw(st.booleans()):
        spec = draw(st.sampled_from([b_spec, d_spec]))
        at = draw(st.integers(0, length - 1))
        spec[at] = -spec[at] if isinstance(spec[at], int) else (-spec[at][0], spec[at][1])
    return (draw(models), draw(st.sampled_from(BITS)), b_spec, d_spec,
            draw(st.integers(1, length)), draw(st.sampled_from([[], [0], [0, 1]])))


@given(spectrum_problems())
@settings(max_examples=60, deadline=None)
@example(((Fraction(2), Fraction(1, 3), 53), 256, [(947049, 483407)] * 3,
          [(367814, 595282)] * 3, 2, [0, 1]))         # (B_D + D_D) + E_mu rounds twice
def test_spectrum_entries_match_operator_form(drawn):
    """B_D + D_D + E_mu and -sqrt(B_D D_D(+1)) on drawn deformed potentials:
    the entries of the first truncation, or the same NegativeRadicandError
    at the same x."""
    model_key, entry_bits, b_spec, d_spec, truncation, de_labels = drawn
    model = small_model(*model_key)
    b_d, d_d = make_grid(b_spec, entry_bits), make_grid(d_spec, entry_bits)
    length, mu = len(b_spec), len(de_labels)

    def capture(diag, off, k):
        raise _Captured(tuple(diag), tuple(off))

    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(rdqm_mod, "deformed_potentials_bd", lambda *args: (b_d, d_d, {}))
        patcher.setattr(rdqm_mod, "lowest_eigenvalues", capture)
        try:
            spectrum_check(model, [], de_labels, truncation, 1, 1, 1)
        except _Captured as exc:
            got = exc.args
        except NegativeRadicandError as exc:
            got = (type(exc), str(exc))
    with working_precision(model.precision_bits):
        second = min(2 * truncation, length)
        diag = [b_d(x) + d_d(x) + mpmath.mpf(mu) for x in range(second)]
        bad = [x for x in range(second - 1) if b_d(x) * d_d(x + 1) < 0]
        if bad:
            want = (NegativeRadicandError, f"B_D D_D < 0 at x = {bad[0]}")
        else:
            off = [-mpmath.sqrt(b_d(x) * d_d(x + 1)) for x in range(truncation - 1)]
            want = (tuple(v._mpf_ for v in diag[:truncation]), tuple(v._mpf_ for v in off))
    assert got == want


gershgorin_entries = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2]),
    st.tuples(st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6)))


@st.composite
def tridiagonals(draw):
    n = draw(st.integers(1, 9))
    return (draw(st.sampled_from(BITS)), draw(st.sampled_from(BITS)),
            [draw(gershgorin_entries) for _ in range(n)],
            [draw(gershgorin_entries) for _ in range(n - 1)])


@given(tridiagonals())
@settings(max_examples=100, deadline=None)
@example((256, 53, [(1, 3)], []))                           # n = 1: the radius is the int 0
@example((128, 53, [2, -2, (7, 3)], [(1, 2), -1]))          # ties between candidates
@example((256, 53, [0, 0, 0], [(420958996, 925737), (-23563265, 943405)]))  # |b| rounded first
def test_gershgorin_bounds_and_off_sq_match_operator_form(drawn):
    """lo = min(d_i - r_i), hi = max(d_i + r_i) with r_i = |b_{i-1}| + |b_i|
    (the int 0 at the ends), and off_sq = b_i^2, as the mpf operators round
    them.  The raw values are read where lowest_eigenvalues turns them into
    binary64: the diagonal, then off_sq, then lo and hi."""
    entry_bits, bits, diag_spec, off_spec = drawn
    n = len(diag_spec)
    diag = list(make_grid(diag_spec, entry_bits).values)
    off = list(make_grid(off_spec, entry_bits).values) if off_spec else []
    seen = []
    to_float = tridiag_mod.to_float
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(tridiag_mod, "to_float", lambda x: seen.append(x) or to_float(x))
        with working_precision(bits):
            lowest_eigenvalues([a._mpf_ for a in diag], [b._mpf_ for b in off], 1)
    with working_precision(bits):
        lo = hi = diag[0]
        for i in range(n):
            radius = (abs(off[i - 1]) if i > 0 else 0) + (abs(off[i]) if i < n - 1 else 0)
            lo = min(lo, diag[i] - radius)
            hi = max(hi, diag[i] + radius)
        off_sq = [b * b for b in off]
    assert seen[n:2 * n + 1] == [b._mpf_ for b in off_sq] + [lo._mpf_, hi._mpf_]


# ---------------------------------------------------------------------------
# The step replay's plain parts and the relative deviation
# ---------------------------------------------------------------------------

def step_plain_parts_reference(w_s, w_s1, wn_s, wn_s1, out_max, s, eps_s, eps_s1,
                               replay_sign):
    """darboux_step_replay's per-point loop in its mpf operator form."""
    targets, advanced = [], []
    for x_pt in range(out_max + 1):
        bracket = (w_s1(x_pt) * wn_s(x_pt + 1) - w_s1(x_pt + 1) * wn_s(x_pt))
        advanced.append(((-1) ** s * eps_s) * replay_sign * bracket / w_s(x_pt + 1))
        targets.append(((-1) ** (s + 1) * eps_s1) * wn_s1(x_pt))
    return [targets, advanced]


signs = st.sampled_from([1, -1])


@given(st.sampled_from(BITS), st.sampled_from(BITS), st.integers(0, 4), signs, signs, signs,
       st.lists(st.lists(grid_entries, min_size=2, max_size=9), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
@example(53, 256, 1, 1, -1, -1, [[1, (1, 3), 2], [2, -2, (5, 7)], [(2, 3), 3, 1], [1, 2, 3]])
@example(128, 128, 0, 1, 1, 1, [[1, 0, 2], [1, 2, 3], [1, 2, 3], [1, 2]])   # W_s(1) = 0
def test_step_plain_parts_match_operator_form(entry_bits, bits, s, eps_s, eps_s1,
                                              replay_sign, specs):
    """Targets and replayed plain parts on drawn grids of different windows
    are the operator form's tuples, or the same division by zero."""
    w_s, w_s1, wn_s, wn_s1 = [make_grid(spec, entry_bits) for spec in specs]
    out_max = min(wn_s.x_max - 1, w_s1.x_max - 1, wn_s1.x_max, w_s.x_max - 1)
    with working_precision(bits):
        want = outcome(lambda: step_plain_parts_reference(
            w_s, w_s1, wn_s, wn_s1, out_max, s, eps_s, eps_s1, replay_sign))
        signs_in = ((-1) ** s * eps_s * replay_sign, (-1) ** (s + 1) * eps_s1)
        got = outcome(lambda: [map(mpmath.mp.make_mpf, part) for part in
                               _step_plain_parts(w_s, w_s1, wn_s, wn_s1, out_max, *signs_in)])
    assert got == want


def relative_deviation_reference(reference, other):
    """_relative_deviation in its mpf operator form."""
    deviation = norm = mpmath.mpf(0)
    for ref, value in zip(reference, other):
        deviation = max(deviation, abs(ref - value))
        norm = max(norm, abs(ref))
    return deviation / norm if norm > 0 else deviation


@given(st.sampled_from(BITS), st.sampled_from(BITS),
       st.lists(grid_entries, max_size=9), st.lists(grid_entries, max_size=9))
@settings(max_examples=150, deadline=None)
@example(256, 53, [0, 0, 0], [1, (1, 3), -2])              # the reference vanishes
@example(53, 128, [(1, 3), -2, 2], [(1, 3), 2, -2])        # equal gaps and sizes tie
@example(128, 53, [(947049, 483407), 3], [(367814, 595282), (1, 3), 5])   # other is longer
def test_relative_deviation_matches_operator_form(entry_bits, bits, reference, other):
    """The same tuple as the operator form, on raw tuples made at one
    precision and compared at another."""
    reference, other = mpf_values(reference, entry_bits), mpf_values(other, entry_bits)
    with working_precision(bits):
        want = relative_deviation_reference(reference, other)
        got = _relative_deviation([v._mpf_ for v in reference], [v._mpf_ for v in other])
    assert got._mpf_ == want._mpf_


# ---------------------------------------------------------------------------
# One run computes each root once, and keeps nothing after it
# ---------------------------------------------------------------------------

def test_rdqm_run_computes_each_root_once(monkeypatch, tmp_path):
    """Over one CLI run, each (prod B D)^{1/4} (per grid pair and M) and each
    sqrt(W_C W_C(+1)) (per seed Casoratian) is computed once, and the model
    with its memo is freed when the run returns."""
    import gc
    import weakref

    from casorati import cli

    quarter_calls, pair_calls, built = [], [], []
    quarter_roots, pair_roots = rdqm_mod._quarter_roots, rdqm_mod._pair_roots

    def counted_quarters(b_grid, d_grid, m_count):
        quarter_calls.append((mpmath.mp.prec, b_grid.raw, d_grid.raw, m_count))
        return quarter_roots(b_grid, d_grid, m_count)

    def counted_pairs(wc):
        pair_calls.append((mpmath.mp.prec, wc.raw))
        return pair_roots(wc)

    def build(*args, **kwargs):
        model = build_meixner_model(*args, **kwargs)
        built.append(weakref.ref(model))
        return model

    monkeypatch.setattr(rdqm_mod, "_quarter_roots", counted_quarters)
    monkeypatch.setattr(rdqm_mod, "_pair_roots", counted_pairs)
    monkeypatch.setattr(cli, "build_meixner_model", build)
    gc.disable()
    try:
        assert cli.main(["rdqm", "--dv=-0.6,-1.7", "--de=1,2", "--n", "0,3",
                         "--out", str(tmp_path / "r.json")]) == 0
        assert len(built) == 1 and built[0]() is None
    finally:
        gc.enable()
    # one-shot (M = 4), stage 1 and stage 2's levels (M = 2 on the model's
    # potentials), stage 2 itself (M = 2 on the stage-1 potentials)
    assert len(quarter_calls) == len(set(quarter_calls)) == 3
    assert len(pair_calls) == len(set(pair_calls)) == 3
