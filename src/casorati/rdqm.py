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
eigenstate labels, and writes its whole witness: its own inputs and the
run's model and comparison settings, so that a witness from the CLI or from
a library call replays alone.  One run computes each big-float quantity
once: the checks of a run take their virtual seeds, seed Casoratians and the
first stage of the staged path from the model's ``RunMemo``, at the model's
working precision, and the memo is freed with the model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import mpmath
from mpmath.libmp import (
    fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_mul, mpf_neg, mpf_sub)

from .determinants import RunMemo, casoratian_real_grid
from .gridfn import GridFn, WindowError
from .poly import Poly
from .report import CheckReport
from .scalars import (
    DEFAULT_PRECISION_BITS,
    format_rational,
    mpf_from_rational,
    rational,
    working_precision,
)
from .seeds import krein_adler_check, sign_factor
from .tridiag import lowest_eigenvalues


class SingularDeformationError(ArithmeticError):
    """A seed Casoratian vanished inside the working window."""


class NegativeRadicandError(ArithmeticError):
    """A real square root met a negative argument (sign premise violated)."""


def _sign(value) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


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

    ``off_roots[x]`` is sqrt(B(x)D(x+1)), the negated off-diagonal of H.
    ``memo`` holds the run's shared results: each virtual seed
    (``seed``), each grid Casoratian and the first stage of the staged
    path.  The CLI and the witness replays build one model per run, so the
    memo lives exactly as long as the run.
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
    off_roots: tuple
    memo: RunMemo = field(default_factory=RunMemo, init=False, compare=False, repr=False)

    @property
    def n_max(self) -> int:
        return len(self.energies) - 1

    def eigen(self, n: int) -> GridFn:
        return self.eigenfunctions[n]

    def eigen_energy(self, n: int) -> Fraction:
        return self.energies[n]

    def seed(self, e_tilde) -> GridFn:
        """The virtual seed at the rational energy e_tilde, solved once."""
        e_tilde = rational(e_tilde)
        return self.memo.once(("seed", e_tilde), solve_seed_at_energy, self, e_tilde)


def build_meixner_model(beta, c, n_max: int, x_max: int,
                        precision_bits: int = DEFAULT_PRECISION_BITS) -> RdqmModel:
    """B(x) = c(x+beta)/(1-c), D(x) = x/(1-c); E_n = n; phi_n = phi_0 P_n.

    Every eigenpair is verified against the tri-diagonal matrix action to
    relative 10^{-precision_bits/4} before the model is returned.
    """
    beta = rational(beta)
    c = rational(c)
    if beta <= 0:
        raise ValueError("need beta > 0")
    if not 0 < c < 1:
        raise ValueError("need 0 < c < 1")
    with working_precision(precision_bits):
        b_grid = GridFn([mpf_from_rational(c * (k + beta) / (1 - c)) for k in range(x_max + 1)])
        d_grid = GridFn([mpf_from_rational(k / (1 - c)) for k in range(x_max + 1)])
        off_roots = []
        for x_pt in range(x_max):
            value = b_grid(x_pt) * d_grid(x_pt + 1)
            if value <= 0:
                raise SingularDeformationError(
                    f"off-diagonal sqrt(B({x_pt})D({x_pt + 1})) vanishes")
            off_roots.append(mpmath.sqrt(value))
        # ground factor phi_0(x) = sqrt(c^x (beta)_x / x!)
        radicands = [Fraction(1)]
        for k in range(1, x_max + 1):
            radicands.append(radicands[-1] * c * (beta + k - 1) / k)
        ground = GridFn([mpmath.sqrt(mpf_from_rational(r)) for r in radicands])
        tolerance = mpmath.mpf(10) ** (-(precision_bits // 4))
        energies = []
        eigenfunctions = []
        for n in range(n_max + 1):
            p_n = meixner_polynomial(n, beta, c)
            values = [ground(k) * mpf_from_rational(_real_at(p_n, k)) for k in range(x_max + 1)]
            phi_n = GridFn(values)
            res = _relative_residual(b_grid, d_grid, phi_n, mpmath.mpf(n), off_roots)
            if res > tolerance:
                raise ArithmeticError(f"eigenpair {n} residual {res} above 1e-{precision_bits // 4}")
            energies.append(Fraction(n))
            eigenfunctions.append(phi_n)
    if not all(phi(0) == 1 for phi in eigenfunctions):
        raise ArithmeticError("eigenfunction normalization phi_n(0) = 1 failed")
    return RdqmModel(beta=beta, c=c, energies=tuple(energies), eigenfunctions=tuple(eigenfunctions),
                     ground=ground,
                     b_grid=b_grid, d_grid=d_grid, x_max=x_max,
                     precision_bits=precision_bits, off_roots=tuple(off_roots))


def _real_at(fn: Poly, k: int) -> Fraction:
    value = fn(k)
    if not value.is_real():
        raise ValueError("expected a real value")
    return value.re


# ---------------------------------------------------------------------------
# Matrix action, residuals, seeds
# ---------------------------------------------------------------------------

def apply_hamiltonian(b_grid: GridFn, d_grid: GridFn, psi: GridFn,
                      roots: Sequence) -> GridFn:
    """(H psi)(x) on the interior window {0, ..., x_max - 1}.

    H = -sqrt(B(x)D(x+1)) e^+ - sqrt(B(x-1)D(x)) e^- + (B + D), with
    ``roots[x]`` = sqrt(B(x)D(x+1)) (a model's ``off_roots``); the down term
    vanishes at x = 0 because D(0) = 0.  The rows run on raw ``_mpf_``
    tuples with the ``mpmath.libmp`` calls that the mpf operator form of H
    makes, so every value is bit for bit the operator result.
    """
    prec, rnd = mpmath.mp._prec_rounding
    make_mpf = mpmath.mp.make_mpf
    n = min(psi.x_max, b_grid.x_max, d_grid.x_max)
    b_vals, d_vals, psi_vals = b_grid.values, d_grid.values, psi.values
    values = []
    for x_pt in range(n):
        up = mpf_mul(mpf_neg(roots[x_pt]._mpf_, prec, rnd), psi_vals[x_pt + 1]._mpf_,
                     prec, rnd)
        level = mpf_add(b_vals[x_pt]._mpf_, d_vals[x_pt]._mpf_, prec, rnd)
        total = mpf_add(up, mpf_mul(level, psi_vals[x_pt]._mpf_, prec, rnd), prec, rnd)
        if x_pt >= 1:
            total = mpf_sub(total, mpf_mul(roots[x_pt - 1]._mpf_, psi_vals[x_pt - 1]._mpf_,
                                           prec, rnd), prec, rnd)
        values.append(make_mpf(total))
    return GridFn(values)


def _relative_residual(b_grid: GridFn, d_grid: GridFn, psi: GridFn,
                       energy, roots: Sequence) -> mpmath.mpf:
    """max |H psi - E psi| / max |psi| over the interior window; the residual
    gate of every model build and seed solve, on raw tuples."""
    prec, rnd = mpmath.mp._prec_rounding
    h_psi = apply_hamiltonian(b_grid, d_grid, psi, roots)
    energy = getattr(energy, "_mpf_", None) or mpmath.mpf(energy)._mpf_
    top = bottom = fzero
    for h_value, psi_value in zip(h_psi.values, psi.values):
        psi_value = psi_value._mpf_
        gap = mpf_abs(mpf_sub(h_value._mpf_, mpf_mul(energy, psi_value, prec, rnd), prec, rnd),
                      prec, rnd)
        if mpf_gt(gap, top):
            top = gap
        size = mpf_abs(psi_value, prec, rnd)
        if mpf_gt(size, bottom):
            bottom = size
    return mpmath.mp.make_mpf(mpf_div(top, bottom, prec, rnd))


def residual(model: RdqmModel, psi: GridFn, energy) -> mpmath.mpf:
    with working_precision(model.precision_bits):
        return _relative_residual(model.b_grid, model.d_grid, psi, energy, model.off_roots)


def solve_seed_at_energy(model: RdqmModel, e_tilde) -> GridFn:
    """Unique grid solution of (H - E)psi = 0 with psi(0) = 1, E < 0.

    Row 0 fixes psi(1) because D(0) = 0; the upward three-term recurrence
    does the rest.  The residual is re-verified before returning.  A run
    asks ``model.seed`` instead, which solves each energy once.
    """
    with working_precision(model.precision_bits):
        energy = mpf_from_rational(rational(e_tilde))
        if energy >= 0:
            raise ValueError("seed energy must be negative (virtual-candidate range)")
        b, d, off = model.b_grid, model.d_grid, model.off_roots
        psi = [mpmath.mpf(1), (b(0) - energy) / off[0]]
        for x_pt in range(1, model.x_max):
            nxt = ((b(x_pt) + d(x_pt) - energy) * psi[x_pt]
                   - (off[x_pt - 1] * psi[x_pt - 1])) / off[x_pt]
            psi.append(nxt)
        grid = GridFn(psi)
        tolerance = mpmath.mpf(10) ** (-(model.precision_bits // 4))
        res = _relative_residual(b, d, grid, energy, off)
        if res > tolerance:
            raise ArithmeticError(f"seed residual {res} above tolerance")
        return grid


def seed_set(model: RdqmModel, dv_energies: Sequence, de_labels: Sequence[int]):
    """Seeds in pipeline order (virtual first, then eigenstates) and their energies."""
    dv = [rational(e) for e in dv_energies]
    return ([model.seed(e) for e in dv] + [model.eigen(k) for k in de_labels],
            dv + [model.eigen_energy(k) for k in de_labels])


def _relative_deviation(reference: Sequence, other: Sequence) -> mpmath.mpf:
    """max |reference - other| / max |reference|, or the deviation alone
    when the reference vanishes."""
    deviation = norm = mpmath.mpf(0)
    for ref, value in zip(reference, other):
        deviation = max(deviation, abs(ref - value))
        norm = max(norm, abs(ref))
    return deviation / norm if norm > 0 else deviation


def check_definite_sign(psi: GridFn) -> bool:
    signs = {_sign(v) for v in psi.values}
    return len(signs) == 1 and 0 not in signs


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
        return GridFn([mpmath.mpf(1)] * (x_max + 1))
    return memo.once(("W_C", mpmath.mp.prec, *columns), casoratian_real_grid, list(columns))


def _require_nonzero(grid: GridFn, what: str) -> None:
    for x_pt, value in enumerate(grid.values):
        if value == 0:
            raise SingularDeformationError(f"{what} vanishes at x = {x_pt}")


def deformed_potentials_bd(b_grid: GridFn, d_grid: GridFn,
                           seeds: Sequence[GridFn], mu_state: GridFn,
                           precision_bits: int, memo: RunMemo):
    """Deformed potential pair (B_D, D_D) plus a positivity report.

    B_D(x) = sqrt(B(x+M)D(x+M+1)) W_C[s](x)/W_C[s](x+1) W_C[s,mu](x+1)/W_C[s,mu](x)
    D_D(x) = sqrt(B(x-1)D(x))    W_C[s](x+1)/W_C[s](x) W_C[s,mu](x-1)/W_C[s,mu](x)
    with D_D(0) = 0 (the prefactor vanishes there since D(0) = 0).
    """
    with working_precision(precision_bits):
        m_count = len(seeds)
        x_max = min(b_grid.x_max, d_grid.x_max, mu_state.x_max, *(s.x_max for s in seeds))
        wc = _casoratian(seeds, x_max, memo)
        wc_mu = _casoratian(list(seeds) + [mu_state], x_max, memo)
        _require_nonzero(wc, f"W_C[{m_count} seeds]")
        _require_nonzero(wc_mu, f"W_C[{m_count} seeds, mu]")
        out_max = x_max - m_count - 1
        if out_max < 0:
            raise WindowError("window too small for the deformed potentials")
        b_values = []
        d_values = [mpmath.mpf(0)]
        for x_pt in range(out_max + 1):
            radicand = b_grid(x_pt + m_count) * d_grid(x_pt + m_count + 1)
            if radicand < 0:
                raise NegativeRadicandError(f"B(x+M)D(x+M+1) < 0 at x = {x_pt}")
            b_values.append(mpmath.sqrt(radicand)
                            * wc(x_pt) / wc(x_pt + 1)
                            * wc_mu(x_pt + 1) / wc_mu(x_pt))
            if x_pt >= 1:
                radicand = b_grid(x_pt - 1) * d_grid(x_pt)
                if radicand < 0:
                    raise NegativeRadicandError(f"B(x-1)D(x) < 0 at x = {x_pt}")
                d_values.append(mpmath.sqrt(radicand)
                                * wc(x_pt + 1) / wc(x_pt)
                                * wc_mu(x_pt - 1) / wc_mu(x_pt))
        b_d = GridFn(b_values)
        d_d = GridFn(d_values[:out_max + 1])
        positivity = {
            "b_positive": all(v > 0 for v in b_d.values),
            "d_positive_interior": all(v > 0 for v in d_d.values[1:]),
            "d_zero_at_origin": d_d(0) == 0,
        }
        return b_d, d_d, positivity


def deformed_eigenfunctions(b_grid: GridFn, d_grid: GridFn,
                            seeds: Sequence[GridFn], seed_energies: Sequence,
                            phi: GridFn, precision_bits: int, memo: RunMemo) -> GridFn:
    """phi_{D n} = (-1)^M eps_D (prod B D)^{1/4} W_C[seeds, phi] / sqrt(W_C W_C(+1)).

    The square root is real: a negative radicand (sign premise violated on
    the window) raises NegativeRadicandError rather than going complex.
    """
    with working_precision(precision_bits):
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
        return GridFn(values)


def sign_conjecture_check(model: RdqmModel, dv_energies: Sequence,
                          de_labels: Sequence[int]) -> bool:
    """sgn W_C[seeds](x) == eps everywhere on the window, at the model's
    working precision."""
    seeds, energies = seed_set(model, dv_energies, de_labels)
    if not seeds:
        return True
    epsilon = sign_factor(energies)
    with working_precision(model.precision_bits):
        wc = _casoratian(seeds, 0, model.memo)
    return all(_sign(v) == epsilon for v in wc.values)


def _witness(identity_id: str, inputs: dict, model: RdqmModel, dv_energies: Sequence,
             de_labels: Sequence[int], n: int, tolerance, compare_up_to) -> dict:
    """The witness of an rdQM check: its own inputs, then the model and the
    comparison settings of the run, so that it replays alone.  A tolerance
    given as text is recorded as that text."""
    return {"identityId": identity_id,
            "inputs": {**inputs, "beta": format_rational(model.beta),
                       "c": format_rational(model.c), "n_max": model.n_max,
                       "window": model.x_max, "precision_bits": model.precision_bits,
                       "tolerance": tolerance if isinstance(tolerance, str) else str(tolerance),
                       "compare_up_to": compare_up_to,
                       "dv_energies": [str(rational(e)) for e in dv_energies],
                       "de_labels": list(de_labels), "n": n}}


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
    multisets must coincide structurally, (ii) externalizes the integer
    powers by sqrt(f(x)^2) = sgn f(0) * f(x) anchored at x = 0, 1, and (iii)
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
    run = (model, dv_energies, de_labels, n, tolerance, compare_up_to)
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
            sig0, sig1 = _sign(grid(0)), _sign(grid(1))
            if sig0 == 0 or sig0 != sig1:
                return CheckReport(
                    identity_id="rdqm.step-replay", passed=False,
                    params={"s": s, "assumption_violated": f"level {name}", "n": n},
                    lhs="", rhs="", inconclusive=True,
                    note="sgn W_C anchor at x=0,1 undefined or inconsistent",
                    witness=_witness("rdqm.step-replay", {"s": s, "violated": name}, *run))
            sigmas[name] = sig0
        sigma_s, sigma_s1 = sigmas["s"], sigmas["s1"]

        # (i) structural merge: both summands carry the same quarter-power
        # multiset prod_{j=1}^{s+1} B(x+j-1) D(x+j).
        shifts_term1 = sorted([(j - 1, j) for j in range(1, s + 1)] + [(s, s + 1)])
        shifts_term2 = sorted([(j, j + 1) for j in range(1, s + 1)] + [(0, 1)])
        merged_ok = shifts_term1 == shifts_term2

        # (ii)+(iii): externalized bracket, advanced plain part.  The replayed
        # plain part sigma-signs included must equal the direct determinant
        # Wn_{s+1} with the combinatorial sign at level s+1.
        out_max = min(wn_s.x_max - 1, w_s1.x_max - 1, wn_s1.x_max, w_s.x_max - 1,
                      x_max - s - 1)
        replay_sign = -sigma_s * sigma_s1          # joins (-1)^s eps_s
        targets, advanced = [], []
        for x_pt in range(out_max + 1):
            bracket = (w_s1(x_pt) * wn_s(x_pt + 1) - w_s1(x_pt + 1) * wn_s(x_pt))
            advanced.append(((-1) ** s * eps_s) * replay_sign * bracket / w_s(x_pt + 1))
            targets.append(((-1) ** (s + 1) * eps_s1) * wn_s1(x_pt))
        rel_dev = _relative_deviation(targets, advanced)
        emergent_ok = sigma_s * sigma_s1 * eps_s == eps_s1
        passed = bool(merged_ok and emergent_ok and rel_dev <= bound)
        return CheckReport(
            identity_id="rdqm.step-replay", passed=passed,
            lhs="tracked-radical step application (sign * plain part)",
            rhs="closed form at the next level (sign * plain part)",
            params={"s": s, "max_relative_deviation": mpmath.nstr(rel_dev, 8),
                    "quarter_merge_ok": bool(merged_ok),
                    "sigma_s": sigma_s, "sigma_s1": sigma_s1,
                    "emergent_sign_ok": bool(emergent_ok),
                    "eps_next_combinatorial": eps_s1, "n": n},
            witness=None if passed else _witness("rdqm.step-replay", {"s": s}, *run))


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
    b_dv, d_dv, positivity = deformed_potentials_bd(
        model.b_grid, model.d_grid, seeds_v, mu_stage1, model.precision_bits, model.memo)
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
        rel_dev = _relative_deviation(one_shot.values[:limit + 1], staged.values[:limit + 1])
        sign_ok = sign_identity_sweep(dv_energies, e_energies)
        passed = bool(rel_dev <= bound and sign_ok)
        return CheckReport(
            identity_id="rdqm.two-path", passed=passed,
            lhs="one-shot deformed eigenfunction",
            rhs="staged deformed eigenfunction",
            params={"dv_energies": [str(e) for e in dv_energies],
                    "de_labels": list(de_labels), "n": n,
                    "max_relative_deviation": mpmath.nstr(rel_dev, 8),
                    "compared_up_to_x": limit,
                    "sign_identity_all_orderings": sign_ok,
                    "epsilon": sign_factor(dv_energies + e_energies),
                    "krein_adler": krein_adler_check(de_labels),
                    "stage1_positivity": dict(stage1_positivity)},
            witness=None if passed else _witness(
                "rdqm.two-path", {}, model, dv_energies, de_labels, n, tolerance,
                compare_up_to))


def spectrum_check(model: RdqmModel, dv_energies: Sequence, de_labels: Sequence[int],
                   n_trunc: int, k: int, match_tolerance,
                   sensitivity_threshold) -> dict:
    """Lowest k eigenvalues of the truncated deformed Hamiltonian.

    Sturm counts isolate each eigenvalue and bracketed Newton polishes it
    (tridiag.lowest_eigenvalues); the deformed spectrum must sit at the
    surviving original levels (the constant term in the deformed Hamiltonian
    realigns it).  Truncation sensitivity compares against the largest
    usable second truncation (2N when the window allows).
    """
    with working_precision(model.precision_bits):
        seeds, _ = seed_set(model, dv_energies, de_labels)
        deleted = set(de_labels)
        mu = 0
        while mu in deleted:
            mu += 1
        b_d, d_d, positivity = deformed_potentials_bd(
            model.b_grid, model.d_grid, seeds, model.eigen(mu), model.precision_bits,
            model.memo)
        e_mu = mpmath.mpf(mu)

        max_usable = b_d.x_max + 1
        if n_trunc > max_usable:
            raise WindowError(f"truncation {n_trunc} exceeds usable window {max_usable}")
        # Both truncations are leading blocks of the second, larger one.
        second_size = min(2 * n_trunc, max_usable)
        diag = [b_d(x) + d_d(x) + e_mu for x in range(second_size)]
        off = []
        for x_pt in range(second_size - 1):
            radicand = b_d(x_pt) * d_d(x_pt + 1)
            if radicand < 0:
                raise NegativeRadicandError(f"B_D D_D < 0 at x = {x_pt}")
            off.append(-mpmath.sqrt(radicand))
        primary = lowest_eigenvalues(diag[:n_trunc], off[:n_trunc - 1], k)
        secondary = lowest_eigenvalues(diag, off, k)
        sensitivity = max(abs(a - b) for a, b in zip(primary, secondary))

        survivors = [e for e in range(model.n_max + 1) if e not in deleted][:k]
        deviations = [abs(primary[i] - survivors[i]) for i in range(len(survivors))]
        matched = all(dev <= match_tolerance for dev in deviations)
        inconclusive = sensitivity > sensitivity_threshold
        return {
            "eigenvalues": [mpmath.nstr(v, 25) for v in primary],
            "expected": [str(e) for e in survivors],
            "deviations": [mpmath.nstr(d, 8) for d in deviations],
            "matched": bool(matched and not inconclusive),
            "inconclusive": bool(inconclusive),
            "truncation": n_trunc,
            "second_truncation": second_size,
            "sensitivity": mpmath.nstr(sensitivity, 8),
            "positivity": positivity,
        }
