"""Real-shift lattice pipeline: tri-diagonal Hamiltonians, Meixner model,
seed solutions, multi-step Darboux with the square-root rule and its sign
factor, two-path equality, and spectral verification.

Identity-level material stays exact elsewhere; this pipeline runs on big
floats (the ground factor involves square roots of rationals), with the
working precision a model parameter (default 256 bits).  Admissibility
facts that the source treats as numerically supported conjectures
(positivity of the deformed potentials, sign-definiteness of the seed
Casoratians) are checked per instance and reported, never assumed.

Each check takes the model, the virtual seed energies and the deleted
eigenstate labels, and returns its whole report; its witness holds the
model, the seeds and the check's own inputs, so that a witness from the CLI
or from a library call replays alone.  One run computes each big-float quantity
once: the checks of a run take their virtual seeds, seed Casoratians (and the LU
states of their column prefixes), the first stage of the staged path and the two
roots of every deformed eigenfunction from the model's ``RunMemo``, at the model's
working precision, and the memo is freed with the model.  Grids hold raw ``_mpf_``
tuples (``GridFn.raw``), which the per-point loops read and write by the mpf
operators' libmp calls, bit for bit; an mpf is made only for a report, the CSV
or an error.  The model build measures an eigenpair's residual only where it
cannot certify it exactly (``build_meixner_model``); every seed is measured.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath
from mpmath.libmp import (
    fone, from_int, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_le, mpf_lt, mpf_mul,
    mpf_mul_int, mpf_neg, mpf_nthroot, mpf_sign, mpf_sqrt, mpf_sub)

from .determinants import RunMemo, casoratian_real_grid
from .gridfn import GridFn, WindowError
from .poly import Poly
from .report import CheckReport, check_report
from .scalars import (
    DEFAULT_PRECISION_BITS,
    rational,
    raw_rational,
    require_at_most,
    working_precision,
)
from .seeds import krein_adler_check, sign_factor
from .tridiag import lowest_eigenvalues


class SingularDeformationError(ArithmeticError):
    """A seed Casoratian vanished inside the working window."""


class NegativeRadicandError(ArithmeticError):
    """A real square root met a negative argument (sign premise violated)."""


class ResidualGateError(ArithmeticError):
    """A model eigenpair or a seed missed its residual gate: the working
    precision is too low for the window."""


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def meixner_polynomial(n: int, beta: Fraction, c: Fraction) -> Poly:
    """Terminating hypergeometric sum in x, exact and normalized to 1 at 0:
    sum_{k=0}^n (-n)_k (-x)_k / ((beta)_k k!) * (1 - 1/c)^k."""
    z = 1 - 1 / Fraction(c)
    out = Poly.zero()
    coeff = Fraction(1)
    falling = Poly.one()          # (-x)_k as a polynomial in x
    for k in range(n + 1):
        out = out + falling * coeff
        coeff = coeff * Fraction(-n + k) / (beta + k) / (k + 1) * z
        falling = falling * Poly([k, -1])     # next factor (-x + k)
    return out


@dataclass(frozen=True)
class RdqmModel:
    """Semi-infinite Meixner lattice model, truncated to {0, ..., x_max}.

    ``off_roots(x)`` is sqrt(B(x)D(x+1)), the negated off-diagonal of H.
    ``memo`` holds the run's shared results: each virtual seed
    (``seed``), each grid Casoratian and the LU states of its column
    prefixes (``casoratian_real_grid``), the first stage of the staged path,
    (prod B D)^{1/4} per grid pair and M and sqrt(W_C W_C(+1)) per seed
    Casoratian.  The CLI and the witness replays build one model per run, so
    the memo lives exactly as long as the run.
    """

    beta: Fraction
    c: Fraction
    energies: tuple
    eigenfunctions: tuple          # GridFn, phi_n(0) = 1
    ground: GridFn
    b_grid: GridFn
    d_grid: GridFn
    x_max: int
    precision_bits: int
    off_roots: GridFn
    memo: RunMemo = field(default_factory=RunMemo, init=False, compare=False, repr=False)

    @property
    def n_max(self) -> int:
        return len(self.energies) - 1

    def eigen(self, n: int) -> GridFn:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"level {n} is outside the model's 0..{self.n_max}")
        return self.eigenfunctions[n]

    def eigen_energy(self, n: int) -> Fraction:
        return self.energies[n]

    def seed(self, e_tilde) -> GridFn:
        """The virtual seed at the rational energy e_tilde, solved once."""
        e_tilde = rational(e_tilde)
        return self.memo.once(("seed", e_tilde), solve_seed_at_energy, self, e_tilde)


# Bounds of a model's inputs: above them a run or a witness would take hours, and
# below 4 bits the gates' tolerance 10^-(precision_bits // 4) is not below 1.
MAX_X_MAX, MAX_N_MAX, MAX_PRECISION_BITS, MIN_PRECISION_BITS = 1000, 60, 8192, 4


def build_meixner_model(beta, c, n_max: int, x_max: int,
                        precision_bits: int = DEFAULT_PRECISION_BITS) -> RdqmModel:
    """B(x) = c(x+beta)/(1-c), D(x) = x/(1-c); E_n = n; phi_n = phi_0 P_n.

    Every eigenpair passes the residual gate, relative 10^{-precision_bits/4}
    against the tri-diagonal matrix action, before the model is returned.  A
    level is certified rather than measured where P_n solves the gauge
    equation B(x)(P_n(x) - P_n(x+1)) + D(x)(P_n(x) - P_n(x-1)) = n P_n(x) as
    an exact polynomial identity (phi_0's radicands step by B(x)/D(x+1) by
    construction), |phi_n| does not rise at the window's end, and
    ``_gate_bound`` puts the computed gate at most half the tolerance;
    elsewhere the gate is computed, so the outcome is the computed gate's.
    x_max, n_max and precision_bits above MAX_X_MAX, MAX_N_MAX and
    MAX_PRECISION_BITS, or precision_bits below MIN_PRECISION_BITS, raise
    ValueError.
    """
    beta = rational(beta)
    c = rational(c)
    if beta <= 0:
        raise ValueError("need beta > 0")
    if not 0 < c < 1:
        raise ValueError("need 0 < c < 1")
    for name, value, bound in (("window x_max", x_max, MAX_X_MAX), ("n_max", n_max, MAX_N_MAX),
                               ("precision_bits", precision_bits, MAX_PRECISION_BITS)):
        require_at_most(name, value, bound)
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision_bits {precision_bits} is below its bound {MIN_PRECISION_BITS}")
    b_poly, d_poly = Poly([c * beta / (1 - c), c / (1 - c)]), Poly([0, 1 / (1 - c)])
    b_exact = [c * (k + beta) / (1 - c) for k in range(x_max + 1)]
    d_exact = [k / (1 - c) for k in range(x_max + 1)]
    with working_precision(precision_bits):
        prec, rnd = mpmath.mp._prec_rounding
        b_grid = GridFn([raw_rational(value, prec, rnd) for value in b_exact])
        d_grid = GridFn([raw_rational(value, prec, rnd) for value in d_exact])
        products = [mpf_mul(b, d, prec, rnd) for b, d in zip(b_grid.raw, d_grid.raw[1:])]
        for x_pt, value in enumerate(products):
            if mpf_le(value, fzero):
                raise SingularDeformationError(
                    f"off-diagonal sqrt(B({x_pt})D({x_pt + 1})) vanishes")
        off_roots = GridFn(mpf_sqrt(value, prec, rnd) for value in products)
        # ground factor phi_0(x) = sqrt(c^x (beta)_x / x!), whose radicands
        # step by B(x)/D(x+1) exactly, as the gauge equation of P_n needs
        radicands = [Fraction(1)]
        for b, d in zip(b_exact, d_exact[1:]):
            radicands.append(radicands[-1] * b / d)
        ground = GridFn([mpf_sqrt(raw_rational(r, prec, rnd), prec, rnd) for r in radicands])
        tolerance = mpmath.mpf(10) ** (-(precision_bits // 4))
        bound = _gate_bound(b_exact, d_exact, n_max, prec)
        certified = bound is not None and bound <= Fraction(1, 2 * 10 ** (precision_bits // 4))
        eigenfunctions = []
        for n in range(n_max + 1):
            p_n = meixner_polynomial(n, beta, c)
            numerators = [0] * (x_max + 1)        # den * P_n(k), by integer Horner
            for coefficient in reversed(p_n.re):
                numerators = [value * k + coefficient for k, value in enumerate(numerators)]
            phi_n = GridFn(mpf_mul(root, raw_rational(Fraction(value, p_n.den), prec, rnd),
                                   prec, rnd) for root, value in zip(ground.raw, numerators))
            exact = (certified and b_exact[x_max - 1] * numerators[x_max] ** 2
                     <= d_exact[x_max] * numerators[x_max - 1] ** 2      # |phi_n| ends falling
                     and b_poly * (p_n - p_n.shift(1)) + d_poly * (p_n - p_n.shift(-1))
                     == p_n * n)
            if not exact:
                res = _relative_residual(b_grid, d_grid, phi_n, from_int(n, prec, rnd),
                                         off_roots)
                if res > tolerance:
                    raise ResidualGateError(
                        f"eigenpair {n} residual {res} above 1e-{precision_bits // 4}")
            eigenfunctions.append(phi_n)
    if not all(phi.raw[0] == fone for phi in eigenfunctions):
        raise ArithmeticError("eigenfunction normalization phi_n(0) = 1 failed")
    return RdqmModel(beta=beta, c=c, energies=tuple(map(Fraction, range(n_max + 1))),
                     eigenfunctions=tuple(eigenfunctions), ground=ground, b_grid=b_grid,
                     d_grid=d_grid, x_max=x_max, precision_bits=precision_bits,
                     off_roots=off_roots)


def _gate_bound(b_exact: Sequence, d_exact: Sequence, n_max: int, prec: int):
    """An upper bound on the gate value ``_relative_residual`` computes at prec
    bits for phi_n, n <= n_max, where P_n is exact and |phi_n(x_max)| <=
    |phi_n(x_max - 1)|; None where 13u >= 1, u = 2^-prec.

    Each libmp call rounds to nearest with relative error <= u, and mpf
    exponents do not underflow (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2.2).  B and D round twice, sqrt(BD) four times,
    phi_n five times and E = n once, so row x of H phi_n - E phi_n is
    sum T_i (1 + e_i), |e_i| <= gamma_13 = 13u/(1 - 13u), over four exact
    terms that sum to 0 (Higham 3.1).  By AM-GM sqrt(B(x)D(x+1)) <= (B(x) +
    D(x+1))/2, and B + D and B(x) + D(x+1) grow with x, so the last interior
    row bounds each row's sum of |T_i| / max|phi_n|; the computed max |phi_n|
    is at least (1 - u)^5 times the exact one, and the quotient rounds once.
    """
    u = Fraction(1, 2 ** prec)
    if 13 * u >= 1:
        return None
    last = len(b_exact) - 2
    rows = 2 * b_exact[last] + d_exact[last] + d_exact[last + 1] + n_max
    return 13 * u / (1 - 13 * u) * rows * (1 + u) / (1 - u) ** 5


# ---------------------------------------------------------------------------
# Matrix action, residuals, seeds
# ---------------------------------------------------------------------------

def apply_hamiltonian(b_grid: GridFn, d_grid: GridFn, psi: GridFn,
                      roots: GridFn) -> GridFn:
    """(H psi)(x) on the interior window {0, ..., x_max - 1}.

    H = -sqrt(B(x)D(x+1)) e^+ - sqrt(B(x-1)D(x)) e^- + (B + D), with
    ``roots(x)`` = sqrt(B(x)D(x+1)) (a model's ``off_roots``); the down term
    vanishes at x = 0 because D(0) = 0.  The rows run on raw ``_mpf_``
    tuples with the ``mpmath.libmp`` calls that the mpf operator form of H
    makes, so every value is bit for bit the operator result.
    """
    prec, rnd = mpmath.mp._prec_rounding
    b_vals, d_vals, psi_vals, root_vals = b_grid.raw, d_grid.raw, psi.raw, roots.raw
    values = []
    for x_pt in range(min(psi.x_max, b_grid.x_max, d_grid.x_max)):
        up = mpf_mul(mpf_neg(root_vals[x_pt], prec, rnd), psi_vals[x_pt + 1], prec, rnd)
        level = mpf_add(b_vals[x_pt], d_vals[x_pt], prec, rnd)
        total = mpf_add(up, mpf_mul(level, psi_vals[x_pt], prec, rnd), prec, rnd)
        if x_pt >= 1:
            total = mpf_sub(total, mpf_mul(root_vals[x_pt - 1], psi_vals[x_pt - 1],
                                           prec, rnd), prec, rnd)
        values.append(total)
    return GridFn(values)


def _relative_residual(b_grid: GridFn, d_grid: GridFn, psi: GridFn,
                       energy: tuple, roots: GridFn) -> mpmath.mpf:
    """max |H psi - E psi| / max |psi| over the interior window, for a raw
    energy; the residual gate of every model build and seed solve."""
    prec, rnd = mpmath.mp._prec_rounding
    h_psi = apply_hamiltonian(b_grid, d_grid, psi, roots)
    top, bottom = _max_abs((mpf_sub(h_value, mpf_mul(energy, psi_value, prec, rnd), prec, rnd)
                            for h_value, psi_value in zip(h_psi.raw, psi.raw)), psi.raw)
    return mpmath.mp.make_mpf(mpf_div(top, bottom, prec, rnd))


def residual(model: RdqmModel, psi: GridFn, energy) -> mpmath.mpf:
    with working_precision(model.precision_bits):
        energy = getattr(energy, "_mpf_", None) or mpmath.mpf(energy)._mpf_
        return _relative_residual(model.b_grid, model.d_grid, psi, energy, model.off_roots)


def solve_seed_at_energy(model: RdqmModel, e_tilde) -> GridFn:
    """Unique grid solution of (H - E)psi = 0 with psi(0) = 1, E < 0.

    Row 0 fixes psi(1) because D(0) = 0; the upward three-term recurrence
    does the rest, on raw tuples with the libmp calls of its mpf operator
    form, bit for bit.  An upward recurrence can amplify its rounding, so
    the residual gate is computed before returning.  A run asks
    ``model.seed`` instead, which solves each energy once.
    """
    with working_precision(model.precision_bits):
        prec, rnd = mpmath.mp._prec_rounding
        energy = raw_rational(rational(e_tilde), prec, rnd)
        if mpf_sign(energy) >= 0:
            raise ValueError("seed energy must be negative (virtual-candidate range)")
        b, d, off = model.b_grid.raw, model.d_grid.raw, model.off_roots.raw
        psi = [fone, mpf_div(mpf_sub(b[0], energy, prec, rnd), off[0], prec, rnd)]
        for x_pt in range(1, model.x_max):
            level = mpf_sub(mpf_add(b[x_pt], d[x_pt], prec, rnd), energy, prec, rnd)
            psi.append(mpf_div(mpf_sub(mpf_mul(level, psi[x_pt], prec, rnd),
                                       mpf_mul(off[x_pt - 1], psi[x_pt - 1], prec, rnd),
                                       prec, rnd), off[x_pt], prec, rnd))
        grid = GridFn(psi)
        tolerance = mpmath.mpf(10) ** (-(model.precision_bits // 4))
        res = _relative_residual(model.b_grid, model.d_grid, grid, energy, model.off_roots)
        if res > tolerance:
            raise ResidualGateError(f"seed residual {res} above tolerance")
        return grid


def seed_set(model: RdqmModel, dv_energies: Sequence, de_labels: Sequence[int]):
    """Seeds in pipeline order (virtual first, then eigenstates) and their energies."""
    dv = [rational(e) for e in dv_energies]
    return ([model.seed(e) for e in dv] + [model.eigen(k) for k in de_labels],
            dv + [model.eigen_energy(k) for k in de_labels])


def _max_abs(gaps: Iterable, sizes: Iterable) -> tuple:
    """(max |gap|, max |size|) of raw tuples taken in pairs until ``gaps``
    ends, by the libmp calls of the mpf operator form (``max`` keeps the
    first of equal values)."""
    prec, rnd = mpmath.mp._prec_rounding
    top = bottom = fzero
    for gap, size in zip(gaps, sizes):
        gap = mpf_abs(gap, prec, rnd)
        if mpf_gt(gap, top):
            top = gap
        size = mpf_abs(size, prec, rnd)
        if mpf_gt(size, bottom):
            bottom = size
    return top, bottom


def _relative_deviation(reference: Sequence, other: Sequence) -> mpmath.mpf:
    """max |reference - other| / max |reference|, or the deviation alone
    when the reference vanishes, of raw tuples."""
    prec, rnd = mpmath.mp._prec_rounding
    top, bottom = _max_abs((mpf_sub(ref, value, prec, rnd)
                            for ref, value in zip(reference, other)), reference)
    return mpmath.mp.make_mpf(mpf_div(top, bottom, prec, rnd) if mpf_gt(bottom, fzero)
                              else top)


# ---------------------------------------------------------------------------
# Deformations
# ---------------------------------------------------------------------------

def _casoratian(columns: Sequence[GridFn], x_max: int, memo: RunMemo) -> GridFn:
    """W_C[columns] at the working precision, once per run; the constant 1
    on {0, ..., x_max} for no columns.

    The memo key is the precision and the column grids themselves: GridFn
    is immutable and compares by identity, and a key holds its grids, so no
    id is reused while the memo lives."""
    if not columns:
        return GridFn([fone] * (x_max + 1))
    return memo.once(("W_C", mpmath.mp.prec, *columns), casoratian_real_grid, list(columns),
                     memo)


def _require_nonzero(grid: GridFn, what: str) -> None:
    for x_pt, value in enumerate(grid.raw):
        if value == fzero:
            raise SingularDeformationError(f"{what} vanishes at x = {x_pt}")


def deformed_potentials_bd(model: RdqmModel, seeds: Sequence[GridFn], mu_state: GridFn):
    """The model's deformed potential pair (B_D, D_D) plus a positivity report.

    B_D(x) = sqrt(B(x+M)D(x+M+1)) W_C[s](x)/W_C[s](x+1) W_C[s,mu](x+1)/W_C[s,mu](x)
    D_D(x) = sqrt(B(x-1)D(x))    W_C[s](x+1)/W_C[s](x) W_C[s,mu](x-1)/W_C[s,mu](x)
    with D_D(0) = 0 (the prefactor vanishes there since D(0) = 0).  Both
    square roots are the model's ``off_roots``, at x + M and x - 1.
    """
    with working_precision(model.precision_bits):
        prec, rnd = mpmath.mp._prec_rounding
        m_count = len(seeds)
        x_max = min(model.x_max, mu_state.x_max, *(s.x_max for s in seeds))
        wc = _casoratian(seeds, x_max, model.memo)
        wc_mu = _casoratian(list(seeds) + [mu_state], x_max, model.memo)
        _require_nonzero(wc, f"W_C[{m_count} seeds]")
        _require_nonzero(wc_mu, f"W_C[{m_count} seeds, mu]")
        out_max = x_max - m_count - 1
        if out_max < 0:
            raise WindowError("window too small for the deformed potentials")
        roots, w, w_mu = model.off_roots.raw, wc.raw, wc_mu.raw
        def quotient(root, w_up, w_down, mu_up, mu_down):   # left to right, as written
            value = mpf_div(mpf_mul(root, w_up, prec, rnd), w_down, prec, rnd)
            return mpf_div(mpf_mul(value, mu_up, prec, rnd), mu_down, prec, rnd)
        b_values = [quotient(roots[x + m_count], w[x], w[x + 1], w_mu[x + 1], w_mu[x])
                    for x in range(out_max + 1)]
        d_values = [fzero] + [quotient(roots[x - 1], w[x + 1], w[x], w_mu[x - 1], w_mu[x])
                              for x in range(1, out_max + 1)]
        positivity = {
            "b_positive": all(mpf_gt(v, fzero) for v in b_values),
            "d_positive_interior": all(mpf_gt(v, fzero) for v in d_values[1:]),
            "d_zero_at_origin": d_values[0] == fzero,
        }
        return GridFn(b_values), GridFn(d_values), positivity


def _quarter_roots(b_grid: GridFn, d_grid: GridFn, m_count: int) -> list:
    """(prod_{j=1}^M B(x+j-1) D(x+j))^{1/4} as raw tuples, None where negative."""
    prec, rnd = mpmath.mp._prec_rounding
    products = [mpf_mul(b, d, prec, rnd) for b, d in zip(b_grid.raw, d_grid.raw[1:])]
    roots = []
    for x_pt in range(len(products) - m_count + 1):
        quarters = fone
        for product in products[x_pt:x_pt + m_count]:
            quarters = mpf_mul(quarters, product, prec, rnd)
        roots.append(None if mpf_lt(quarters, fzero) else mpf_nthroot(quarters, 4, prec, rnd))
    return roots


def _pair_roots(wc: GridFn) -> list:
    """sqrt(W_C(x) W_C(x+1)) as raw tuples, None where not positive."""
    prec, rnd = mpmath.mp._prec_rounding
    pairs = [mpf_mul(left, right, prec, rnd) for left, right in zip(wc.raw, wc.raw[1:])]
    return [None if mpf_le(pair, fzero) else mpf_sqrt(pair, prec, rnd) for pair in pairs]


def deformed_eigenfunctions(b_grid: GridFn, d_grid: GridFn,
                            seeds: Sequence[GridFn], seed_energies: Sequence,
                            phi: GridFn, precision_bits: int, memo: RunMemo) -> GridFn:
    """phi_{D n} = (-1)^M eps_D (prod B D)^{1/4} W_C[seeds, phi] / sqrt(W_C W_C(+1)).

    The square root is real: a negative radicand (sign premise violated on
    the window) raises NegativeRadicandError rather than going complex.
    """
    with working_precision(precision_bits):
        prec, rnd = mpmath.mp._prec_rounding
        m_count = len(seeds)
        if m_count == 0:
            return phi
        epsilon = sign_factor(list(seed_energies))
        x_max = min(phi.x_max, b_grid.x_max, d_grid.x_max, *(s.x_max for s in seeds))
        wc = _casoratian(seeds, x_max, memo)
        wc_n = _casoratian(list(seeds) + [phi.truncated(x_max)], x_max, memo)
        out_max = min(wc_n.x_max, wc.x_max - 1, x_max - m_count)
        if out_max < 0:
            raise WindowError("window too small for the deformed eigenfunction")
        quarter_roots = memo.once(("(prod BD)^1/4", prec, b_grid, d_grid, m_count),
                                  _quarter_roots, b_grid, d_grid, m_count)
        pair_roots = memo.once(("sqrt W_C W_C(+1)", prec, wc), _pair_roots, wc)
        negate = (-1) ** m_count * epsilon < 0
        values = []
        for x_pt, w_n in enumerate(wc_n.raw[:out_max + 1]):
            root, pair = quarter_roots[x_pt], pair_roots[x_pt]
            if root is None:
                raise NegativeRadicandError(f"prod B D < 0 at x = {x_pt}")
            if pair is None:
                raise NegativeRadicandError(
                    f"W_C(x)W_C(x+1) not positive at x = {x_pt} (sign premise violated)")
            # the sign is exact: negating a working-precision root rounds nothing
            values.append(mpf_div(mpf_mul(mpf_neg(root) if negate else root, w_n, prec, rnd),
                                  pair, prec, rnd))
        return GridFn(values)


def _inputs(model: RdqmModel, dv_energies: Sequence, de_labels: Sequence[int], **inputs):
    """An rdQM check's inputs, with its model and seeds, so that it replays alone."""
    return dict(beta=model.beta, c=model.c, n_max=model.n_max, window=model.x_max,
                precision_bits=model.precision_bits,
                dv_energies=[rational(e) for e in dv_energies], de_labels=de_labels, **inputs)


def tolerance_text(text: str, name: str) -> str:
    """``text``, once mpmath reads it as a check's ``tolerance``; a zero
    denominator raises ValueError naming ``name`` (the flag or witness key)."""
    try:
        mpmath.mpf(text)
    except ZeroDivisionError:
        raise ValueError(f"{name} {text} has a zero denominator") from None
    return text


def sign_conjecture_check(model: RdqmModel, dv_energies: Sequence,
                          de_labels: Sequence[int]) -> CheckReport:
    """sgn W_C[seeds](x) == eps everywhere on the window, at the model's
    working precision.  A violation is reported inconclusive, not failed."""
    seeds, energies = seed_set(model, dv_energies, de_labels)
    holds = True
    if seeds:
        epsilon = sign_factor(energies)
        with working_precision(model.precision_bits):
            wc = _casoratian(seeds, 0, model.memo)
        holds = all(mpf_sign(v) == epsilon for v in wc.raw)
    return check_report("rdqm.sign-conjecture", True, "sgn W_C[seeds]", "epsilon_D",
                        {"holds_on_window": holds}, _inputs(model, dv_energies, de_labels),
                        not holds, "" if holds else
                        "sign conjecture violated on window (reported, not failed)")


# ---------------------------------------------------------------------------
# Mechanized one-step replay of the square-root-rule derivation
# ---------------------------------------------------------------------------

def darboux_step_replay(model: RdqmModel, dv_energies: Sequence, de_labels: Sequence[int],
                        n: int, s: int, tolerance,
                        compare_up_to: int | None = None) -> CheckReport:
    """Apply intermediate Darboux step s, in tracked-radical form, to level n.

    The seeds are the virtual seeds at ``dv_energies`` followed by the
    eigenstates ``de_labels``.  The level-s state is the closed form split
    into sign * plain * radical; no square root is ever evaluated
    (intermediate radicands may be negative when the running seed set
    violates the admissibility condition).  The step (i) merges the
    half-integer exponents of the two summands, whose quarter-power
    multisets are both prod_{0 <= j <= s} B(x+j) D(x+j+1) for every s (so
    the report's ``quarter_merge_ok`` states that fact and decides
    nothing), (ii) externalizes the integer powers by
    sqrt(f(x)^2) = sgn f(0) * f(x) anchored at x = 0, 1, and (iii)
    collapses the resulting bracket with the two-column Casoratian identity.
    The outcome must be the closed form at level s+1, including the emergent
    sign:
        sgn-rule signs:  (-1) * sigma_s * sigma_{s+1}  joining (-1)^s eps_s
        closed form:     (-1)^{s+1} eps_{s+1}.
    ``tolerance`` (text or a number) is converted at mpmath's ambient
    precision; ``compare_up_to`` is not used by the step and is recorded in
    the witness with the rest of the run's settings.
    """
    seeds, seed_energies = seed_set(model, dv_energies, de_labels)
    if not 0 <= s < len(seeds):
        raise ValueError("need 0 <= s < number of seeds")
    bound = mpmath.mpf(tolerance)
    run = dict(n=n, tolerance=str(tolerance), compare_up_to=compare_up_to)
    memo = model.memo
    with working_precision(model.precision_bits):
        phi = model.eigen(n)
        x_max = min(phi.x_max, model.b_grid.x_max, model.d_grid.x_max,
                    *(sd.x_max for sd in seeds))
        phi = phi.truncated(x_max)
        w_s = _casoratian(seeds[:s], x_max, memo)
        w_s1 = _casoratian(seeds[:s + 1], x_max, memo)
        wn_s = _casoratian([*seeds[:s], phi], x_max, memo) if s else phi
        wn_s1 = _casoratian([*seeds[:s + 1], phi], x_max, memo)
        eps_s = sign_factor(seed_energies[:s])
        eps_s1 = sign_factor(seed_energies[:s + 1])

        # Square-root-rule anchors: sgn W_C at x = 0 and x = 1 must agree
        # for the running and the extended seed set (the stated assumption).
        sigmas = {}
        for name, grid in (("s", w_s), ("s1", w_s1)):
            sig0, sig1 = mpf_sign(grid.raw[0]), mpf_sign(grid.raw[1])
            if sig0 == 0 or sig0 != sig1:
                return check_report(
                    "rdqm.step-replay", False, "", "",
                    {"s": s, "assumption_violated": f"level {name}", "n": n},
                    _inputs(model, dv_energies, de_labels, s=s, violated=name, **run), True,
                    "sgn W_C anchor at x=0,1 undefined or inconsistent")
            sigmas[name] = sig0
        sigma_s, sigma_s1 = sigmas["s"], sigmas["s1"]

        # (ii)+(iii): externalized bracket, advanced plain part.  The replayed
        # plain part sigma-signs included must equal the direct determinant
        # Wn_{s+1} with the combinatorial sign at level s+1.
        out_max = min(wn_s.x_max - 1, w_s1.x_max - 1, wn_s1.x_max, w_s.x_max - 1,
                      x_max - s - 1)
        replay_sign = -sigma_s * sigma_s1          # joins (-1)^s eps_s
        targets, advanced = _step_plain_parts(w_s, w_s1, wn_s, wn_s1, out_max,
                                              (-1) ** s * eps_s * replay_sign,
                                              (-1) ** (s + 1) * eps_s1)
        rel_dev = _relative_deviation(targets, advanced)
        emergent_ok = sigma_s * sigma_s1 * eps_s == eps_s1
        return check_report(
            "rdqm.step-replay", bool(emergent_ok and rel_dev <= bound),
            "tracked-radical step application (sign * plain part)",
            "closed form at the next level (sign * plain part)",
            {"s": s, "max_relative_deviation": mpmath.nstr(rel_dev, 8),
             "quarter_merge_ok": True, "sigma_s": sigma_s, "sigma_s1": sigma_s1,
             "emergent_sign_ok": bool(emergent_ok), "eps_next_combinatorial": eps_s1, "n": n},
            _inputs(model, dv_energies, de_labels, s=s, **run))


def _step_plain_parts(w_s: GridFn, w_s1: GridFn, wn_s: GridFn, wn_s1: GridFn, out_max: int,
                      advance_sign: int, target_sign: int) -> tuple[list, list]:
    """The direct plain parts target_sign * Wn_{s+1}(x) and the replayed ones
    advance_sign * (W_{s+1}(x) Wn_s(x+1) - W_{s+1}(x+1) Wn_s(x)) / W_s(x+1)
    for x = 0..out_max, as raw tuples, by the libmp calls of the operator form."""
    prec, rnd = mpmath.mp._prec_rounding
    w0, w1, wn, wn1 = w_s.raw, w_s1.raw, wn_s.raw, wn_s1.raw
    targets, advanced = [], []
    for x_pt in range(out_max + 1):
        bracket = mpf_sub(mpf_mul(w1[x_pt], wn[x_pt + 1], prec, rnd),
                          mpf_mul(w1[x_pt + 1], wn[x_pt], prec, rnd), prec, rnd)
        advanced.append(mpf_div(mpf_mul_int(bracket, advance_sign, prec, rnd), w0[x_pt + 1],
                                prec, rnd))
        targets.append(mpf_mul_int(wn1[x_pt], target_sign, prec, rnd))
    return targets, advanced


def darboux_chain_replay(model: RdqmModel, dv_energies: Sequence, de_labels: Sequence[int],
                         n: int, tolerance,
                         compare_up_to: int | None = None) -> list[CheckReport]:
    """Replay every step 0..M-1 on level n; the final step lands on the
    closed form with the full sign factor."""
    return [darboux_step_replay(model, dv_energies, de_labels, n, s, tolerance,
                                compare_up_to)
            for s in range(len(dv_energies) + len(de_labels))]


# ---------------------------------------------------------------------------
# Two-path comparison and spectra
# ---------------------------------------------------------------------------

def sign_identity_sweep(v_energies: Sequence, e_energies: Sequence) -> bool:
    """eps_D == (-1)^{l m} eps_{D_v} eps_{D_e} for every ordering of each block."""
    l_count, m_count = len(v_energies), len(e_energies)
    for v_perm in itertools.permutations(v_energies):
        for e_perm in itertools.permutations(e_energies):
            eps_v = sign_factor(v_perm)
            eps_e = sign_factor(e_perm)
            eps_d = sign_factor(list(v_perm) + list(e_perm))
            if eps_d != (-1) ** (l_count * m_count) * eps_v * eps_e:
                return False
    return True


def _first_stage(model: RdqmModel, seeds_v: list, dv_energies: list,
                 de_labels: Sequence[int]) -> tuple:
    """Stage 1 of the staged path, the same for every compared level: the
    potentials the virtual seeds deform to, their positivity report, and
    the deleted eigenstates deformed by the virtual seeds."""
    mu_stage1 = model.eigen(0)   # no eigenstates deleted yet at stage 1
    b_dv, d_dv, positivity = deformed_potentials_bd(model, seeds_v, mu_stage1)
    stage2_seeds = [deformed_eigenfunctions(model.b_grid, model.d_grid, seeds_v,
                                            dv_energies, model.eigen(k),
                                            model.precision_bits, model.memo)
                    for k in de_labels]
    return b_dv, d_dv, positivity, stage2_seeds


def two_path_compare_rdqm(model: RdqmModel, dv_energies: Sequence,
                          de_labels: Sequence[int], n: int, tolerance,
                          compare_up_to: int | None = None) -> CheckReport:
    """One-shot deformation versus staged (virtual first) deformation.

    Both grids carry their stated prefactors and signs; the comparison is a
    max relative deviation on the window, with the exact sign included.
    ``tolerance`` (text or a number) is converted at mpmath's ambient
    precision.
    """
    if n in de_labels:
        raise ValueError(f"level {n} is deleted by the eigenstate seeds")
    if len(set(de_labels)) != len(de_labels):
        raise ValueError("eigenstate labels must be mutually distinct")
    dv_energies = [rational(e) for e in dv_energies]
    if any(dv_energies[i] <= dv_energies[i + 1] for i in range(len(dv_energies) - 1)):
        raise ValueError("virtual seed energies must be strictly decreasing")
    bound = mpmath.mpf(tolerance)
    with working_precision(model.precision_bits):
        seeds, energies = seed_set(model, dv_energies, de_labels)
        seeds_v, e_energies = seeds[:len(dv_energies)], energies[len(dv_energies):]

        one_shot = deformed_eigenfunctions(
            model.b_grid, model.d_grid, seeds, energies, model.eigen(n),
            model.precision_bits, model.memo)

        b_dv, d_dv, stage1_positivity, stage2_seeds = model.memo.once(
            ("stage 1", tuple(dv_energies), tuple(de_labels)),
            _first_stage, model, seeds_v, dv_energies, de_labels)
        stage2_phi = deformed_eigenfunctions(model.b_grid, model.d_grid, seeds_v,
                                             dv_energies, model.eigen(n),
                                             model.precision_bits, model.memo)
        staged = deformed_eigenfunctions(b_dv, d_dv, stage2_seeds, e_energies,
                                         stage2_phi, model.precision_bits, model.memo)

        limit = min(one_shot.x_max, staged.x_max)
        if compare_up_to is not None:
            limit = min(limit, compare_up_to)
        rel_dev = _relative_deviation(one_shot.raw[:limit + 1], staged.raw[:limit + 1])
        sign_ok = sign_identity_sweep(dv_energies, e_energies)
        return check_report(
            "rdqm.two-path", bool(rel_dev <= bound and sign_ok),
            "one-shot deformed eigenfunction", "staged deformed eigenfunction",
            {"dv_energies": [str(e) for e in dv_energies], "de_labels": list(de_labels), "n": n,
             "max_relative_deviation": mpmath.nstr(rel_dev, 8), "compared_up_to_x": limit,
             "sign_identity_all_orderings": sign_ok,
             "epsilon": sign_factor(dv_energies + e_energies),
             "krein_adler": krein_adler_check(de_labels),
             "stage1_positivity": dict(stage1_positivity)},
            _inputs(model, dv_energies, de_labels, n=n, tolerance=str(tolerance),
                    compare_up_to=compare_up_to))


def spectrum_check(model: RdqmModel, dv_energies: Sequence, de_labels: Sequence[int],
                   truncation: int, eigen_count: int, match_tolerance,
                   sensitivity_threshold) -> dict:
    """Lowest eigen_count eigenvalues of the truncated deformed Hamiltonian.

    Each eigenvalue is plain Sturm bisection, with about two big-float
    counts placed either side of it by binary64 and fixed-point Newton hints
    (tridiag.lowest_eigenvalues); the deformed spectrum must sit at the
    surviving original levels (the constant term in the deformed Hamiltonian
    realigns it).  Truncation sensitivity compares against the largest
    usable second truncation (twice the first when the window allows).
    """
    with working_precision(model.precision_bits):
        seeds, _ = seed_set(model, dv_energies, de_labels)
        deleted = set(de_labels)
        mu = 0
        while mu in deleted:
            mu += 1
        prec, rnd = mpmath.mp._prec_rounding
        b_d, d_d, positivity = deformed_potentials_bd(model, seeds, model.eigen(mu))
        e_mu = from_int(mu, prec, rnd)

        max_usable = b_d.x_max + 1
        if truncation > max_usable:
            raise WindowError(f"truncation {truncation} exceeds usable window {max_usable}")
        # Both truncations are leading blocks of the second, larger one.
        second_size = min(2 * truncation, max_usable)
        b, d = b_d.raw, d_d.raw
        diag = [mpf_add(mpf_add(b[x], d[x], prec, rnd), e_mu, prec, rnd)
                for x in range(second_size)]
        off = []
        for x_pt in range(second_size - 1):
            radicand = mpf_mul(b[x_pt], d[x_pt + 1], prec, rnd)
            if mpf_lt(radicand, fzero):
                raise NegativeRadicandError(f"B_D D_D < 0 at x = {x_pt}")
            off.append(mpf_neg(mpf_sqrt(radicand, prec, rnd), prec, rnd))
        primary = lowest_eigenvalues(diag[:truncation], off[:truncation - 1], eigen_count)
        secondary = lowest_eigenvalues(diag, off, eigen_count)
        sensitivity = max(abs(a - b) for a, b in zip(primary, secondary))

        survivors = [e for e in range(model.n_max + 1) if e not in deleted][:eigen_count]
        deviations = [abs(primary[i] - survivors[i]) for i in range(len(survivors))]
        matched = all(dev <= match_tolerance for dev in deviations)
        inconclusive = sensitivity > sensitivity_threshold
        return {
            "eigenvalues": [mpmath.nstr(v, 25) for v in primary],
            "expected": [str(e) for e in survivors],
            "deviations": [mpmath.nstr(d, 8) for d in deviations],
            "matched": bool(matched and not inconclusive),
            "inconclusive": bool(inconclusive),
            "truncation": truncation,
            "second_truncation": second_size,
            "sensitivity": mpmath.nstr(sensitivity, 8),
            "positivity": positivity,
        }


def spectrum_report(model: RdqmModel, dv_energies: Sequence, de_labels: Sequence[int],
                    truncation: int, eigen_count: int) -> tuple[CheckReport, dict]:
    """The rdqm.spectrum report and the ``spectrum_check`` dict it is built
    from, at deviation bound 1e-8 and sensitivity bound 1e-9 (both at mpmath's
    ambient precision).  A truncation-sensitive spectrum is inconclusive, and passes."""
    spectrum = spectrum_check(model, dv_energies, de_labels, truncation, eigen_count,
                              mpmath.mpf(10) ** -8, mpmath.mpf(10) ** -9)
    inconclusive = spectrum["inconclusive"]
    report = check_report(
        "rdqm.spectrum", spectrum["matched"] or inconclusive, spectrum["eigenvalues"],
        spectrum["expected"],
        {key: spectrum[key] for key in ("deviations", "sensitivity", "truncation",
                                        "second_truncation", "positivity")},
        _inputs(model, dv_energies, de_labels, truncation=truncation, eigen_count=eigen_count),
        inconclusive, "truncation-sensitive" if inconclusive else "")
    return report, spectrum
