"""Multi-step Darboux transformations for the continuous (differential) system.

The concrete model is the harmonic oscillator with potential x^2: its bound
states (Hermite-type times exp(-x^2/2)) and its negative-energy solutions
(modified-Hermite times exp(+x^2/2)) are both exactly representable, so every
claim is checked with zero tolerance.  Tabulated energies are shifted so the
ground level sits at 0; the raw equation carries a constant offset which
every verification applies explicitly.

Deformations delete or preserve levels depending on the seed mix; the checks
compare the one-shot deformation against the staged (virtual-first)
deformation, which must agree exactly, and census both.  The deformed
equation has its exact check, ``verify_schrodinger`` on ``deformed_potential``,
which the tests and demos run and no check of a run makes yet.
Every W[seeds, f] is the seeds' Darboux-Crum operator applied to f, and the
model's memo holds each operator, the staged path's first stage (with its
n-independent denominator) and each level's unreduced numerators, so one run
computes each Wronskian once.  The degree census reads the unreduced
quotients; only the level the two paths compare is gcd-reduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .determinants import (
    RunMemo, WronskianOperator, wronskian, wronskian_operator)
from .poly import ExpPoly, ExpRatio, Poly, RationalFn, rational_reduce
from .report import CheckReport, check_report
from .scalars import rational, require_at_most
from .seeds import krein_adler_check


class StateDeletedError(ValueError):
    """Requested a level that the seed set deletes."""


class SeedDependenceError(ValueError):
    """Seed Wronskian vanished identically (linearly dependent seeds)."""


def hermite_polynomials(n_max: int, sign: int) -> list[Poly]:
    """p_0..p_{n_max} by p_{n+1} = 2x p_n + sign*2n p_{n-1}: the Hermite
    polynomials H_n for sign -1, their positive-coefficient companions q_v
    for sign +1."""
    polys = [Poly.one(), Poly([0, 2])]
    for n in range(1, n_max):
        polys.append(Poly([0, 2]) * polys[n] + (sign * 2 * n) * polys[n - 1])
    return polys[:n_max + 1]


def verify_schrodinger(potential: Poly | RationalFn, phi: ExpPoly | ExpRatio,
                       energy) -> bool:
    """Exact check of -phi'' + potential*phi == energy*phi.

    With phi = q * exp((a*x^2 + b*x)/2), q a Poly or a RationalFn, and
    w = a*x + b/2, phi'' = (q'' + 2w*q' + (w^2 + a)*q) * exp(.), so the
    check is q'' + 2w*q' + (w^2 + a + energy - potential)*q == 0."""
    q = phi.p if isinstance(phi, ExpPoly) else phi.q
    w = Poly([phi.b / 2, phi.a])
    dq = q.derivative()
    residual = (dq.derivative() + 2 * w * dq
                + (w * w + Poly.constant(phi.a + rational(energy)) - potential) * q)
    return residual.is_zero()


@dataclass(frozen=True)
class OqmModel:
    """Harmonic model: potential x^2, shifted spectra, exact wavefunctions."""

    potential: Poly
    energy_offset: Fraction            # raw ground energy; stored levels are shifted
    levels: tuple                      # (E_n shifted, phi_n: ExpPoly)
    aux: tuple                         # (E_v shifted (negative), psi_v: ExpPoly)
    memo: RunMemo = field(default_factory=RunMemo, init=False, compare=False, repr=False)

    def eigen(self, n: int) -> ExpPoly:
        return self.levels[n][1]

    def eigen_energy(self, n: int) -> Fraction:
        return self.levels[n][0]

    def aux_state(self, v: int) -> ExpPoly:
        return self.aux[v][1]

    def raw_energy(self, shifted_energy) -> Fraction:
        return rational(shifted_energy) + self.energy_offset

    def seed_list(self, d_v: Sequence[int], d_e: Sequence[int]) -> list[ExpPoly]:
        """Seeds in pipeline order: virtual labels first, then eigenstate labels."""
        return [self.aux_state(v) for v in d_v] + [self.eigen(e) for e in d_e]

    def operator(self, seeds: Sequence[ExpPoly]) -> WronskianOperator:
        """The Darboux-Crum operator W[seeds, .], built once per seed tuple."""
        seeds = tuple(seeds)
        return self.memo.once(("operator", seeds), wronskian_operator, seeds)


# Upper bound of a model's n_max and v_max, and so of every label a run or a
# witness may use: deleting levels 40 and 41 already takes 4.5 s.
MAX_LEVEL_COUNT = 40


def build_harmonic_model(n_max: int, v_max: int) -> OqmModel:
    """U = x^2; E_n = 2n and E_v = -2v-2 after shifting the ground level to 0.

    Every stored pair is re-verified against the raw equation before the
    model becomes usable; a verification failure aborts construction.
    n_max or v_max above MAX_LEVEL_COUNT raises ValueError.
    """
    if n_max < 0 or v_max < 0:
        raise ValueError("n_max and v_max must be >= 0")
    require_at_most("n_max", n_max, MAX_LEVEL_COUNT)
    require_at_most("v_max", v_max, MAX_LEVEL_COUNT)
    potential = Poly([0, 0, 1])
    offset = Fraction(1)  # raw ground energy of -d^2/dx^2 + x^2
    levels = []
    for n, h in enumerate(hermite_polynomials(n_max, -1)):
        energy = Fraction(2 * n)
        phi = ExpPoly(h, a=Fraction(-1))
        if not verify_schrodinger(potential, phi, energy + offset):
            raise ArithmeticError(f"eigenstate {n} failed the load-time check")
        levels.append((energy, phi))
    aux = []
    for v, q in enumerate(hermite_polynomials(v_max, 1)):
        energy = Fraction(-2 * v - 2)
        psi = ExpPoly(q, a=Fraction(1))
        if not verify_schrodinger(potential, psi, energy + offset):
            raise ArithmeticError(f"negative-energy solution {v} failed the load-time check")
        aux.append((energy, psi))
    return OqmModel(potential=potential, energy_offset=offset,
                    levels=tuple(levels), aux=tuple(aux))


def harmonic_model_for(d_v: Sequence[int], d_e: Sequence[int], n_max: int,
                       v_max: int) -> OqmModel:
    """The model of a run or a replay: levels 0..n_max and aux states
    0..v_max, each grown past the largest seed label that uses it."""
    return build_harmonic_model(max([n_max, *(e + 1 for e in d_e)]),
                                max([v_max, *(v + 1 for v in d_v)]))


def deformed_potential(model: OqmModel, seeds: Sequence[ExpPoly]) -> RationalFn:
    """U_D = U - 2 (log W[seeds])'' as an exact rational function.

    With W = p * exp((a x^2 + b x)/2), (log W)'' = (p''p - p'^2)/p^2 + a;
    the absolute value in the log is immaterial for the second derivative.
    """
    w = wronskian(seeds)
    if w.is_zero():
        raise SeedDependenceError("seed Wronskian vanishes identically")
    p = w.p
    dp = p.derivative()
    curvature = rational_reduce(p.derivative().derivative() * p - dp * dp, p * p)
    return RationalFn(model.potential) - 2 * curvature - RationalFn(Poly.constant(2 * w.a))


def deformed_eigenfunction(model: OqmModel, seeds: Sequence[ExpPoly],
                           n: int) -> ExpRatio:
    """phi_{D n} = W[seeds, phi_n] / W[seeds], unreduced and exact; no check
    of a run puts it into the deformed equation.  The numerator is the seeds'
    Darboux-Crum operator applied to phi_n, and each level's numerator is
    computed once per model."""
    phi_n = model.eigen(n)
    if any(s == phi_n for s in seeds):
        raise StateDeletedError(f"level {n} is deleted by the seed set")
    op = model.operator(seeds)
    den = op.seed_wronskian
    if den.is_zero():
        raise SeedDependenceError("seed Wronskian vanishes identically")
    num = model.memo.once(("one-shot", tuple(seeds), n), op, phi_n)
    return ExpRatio.from_exp_polys(num, den)


def _first_stage(model: OqmModel, d_v: tuple, d_e: tuple):
    """The n-independent part of the staged path: the virtual-seed operator,
    the operator over its base W[virtual seeds] of the intermediate
    eigenstate numerators, whose seed part is their Wronskian over it, and
    the levels' common denominator."""
    virtual = model.operator(model.seed_list(d_v, ()))
    base = virtual.seed_wronskian
    if base.is_zero():
        raise SeedDependenceError("virtual-seed Wronskian vanishes identically")
    outer = wronskian_operator([virtual(model.eigen(e)) for e in d_e], base)
    if outer.seed_wronskian.is_zero():
        raise SeedDependenceError("intermediate eigenstate Wronskian vanishes")
    # a level's top is over base^K(m + 1), the seed part over base^K(m): K differs by 1 + m
    return virtual, outer, outer.seed_wronskian * (base ** (1 + len(d_e)))


def staged_eigenfunction(model: OqmModel, d_v: Sequence[int], d_e: Sequence[int],
                         n: int) -> ExpRatio:
    """Two-step route: deform by the virtual seeds, then delete eigenstates of
    the intermediate system.  Intermediate levels are quotients over the
    common base W[virtual seeds]; the outer Wronskian collapses onto a single
    base power, and each level is one application of the operator over that
    base.  Returns the unreduced quotient; each level's numerator is
    computed once per model."""
    if n in d_e:
        raise StateDeletedError(f"level {n} is deleted by the seed set")
    d_v, d_e = tuple(d_v), tuple(d_e)
    virtual, outer, den = model.memo.once(("stage", d_v, d_e), _first_stage, model, d_v, d_e)
    top = model.memo.once(("staged", d_v, d_e, n),
                          lambda: outer(virtual(model.eigen(n))))
    return ExpRatio.from_exp_polys(top, den)


def _denominator_real_root_probe(den: Poly, span: int = 5, steps: int = 40) -> bool:
    """Crude pole probe: True if den changes sign on [-span, span]."""
    last_sign = 0
    for k in range(-steps, steps + 1):
        sign = den.sign_at(Fraction(k * span, steps))
        if sign is None:
            continue
        if sign == 0:
            return True
        if last_sign and sign != last_sign:
            return True
        last_sign = sign
    return False


def two_path_compare(model: OqmModel, d_v: Sequence[int], d_e: Sequence[int],
                     n: int) -> CheckReport:
    """One-shot versus staged deformation; exact equality of reduced quotients.

    Each quotient comes from its own path, the one-shot one from the
    operator of all seeds, the staged one from the virtual-seed operator and
    the operator over its base, and is reduced here."""
    one_shot = deformed_eigenfunction(model, model.seed_list(d_v, d_e), n).reduce()
    staged = staged_eigenfunction(model, d_v, d_e, n).reduce()
    same = (one_shot.pair == staged.pair
            and one_shot.q.num == staged.q.num
            and one_shot.q.den == staged.q.den)
    return check_report("oqm.two-path", same, one_shot, staged,
                        {"d_v": list(d_v), "d_e": list(d_e), "n": n,
                         "krein_adler": krein_adler_check(d_e),
                         "denominator_sign_change": _denominator_real_root_probe(one_shot.q.den)},
                        dict(d_v=d_v, d_e=d_e, n=n))


@dataclass(frozen=True)
class CensusResult:
    degrees: tuple
    missing: tuple
    classification: str  # "case-1" (prefix missing set) or "case-2"


def degree_census(model: OqmModel, d_v: Sequence[int], d_e: Sequence[int],
                  n_max: int, staged: bool = False) -> CensusResult:
    """Polynomial-part degrees of the surviving deformed levels.

    The census degree of level n is deg num - deg den of its quotient plus
    the seed-Wronskian polynomial degree (an n-independent constant), so
    both construction paths census identically.  The quotients are read
    unreduced: cancelling a common factor leaves deg num - deg den as it
    is, and a zero numerator already has the denominator 1.
    """
    seeds = model.seed_list(d_v, d_e)
    anchor = model.operator(seeds).seed_wronskian
    if anchor.is_zero():
        raise SeedDependenceError("seed Wronskian vanishes identically")
    k_anchor = anchor.p.degree
    degrees = []
    for n in range(n_max + 1):
        if n in d_e:
            continue
        ratio = (staged_eigenfunction(model, d_v, d_e, n) if staged
                 else deformed_eigenfunction(model, seeds, n))
        degrees.append(ratio.q.num.degree - ratio.q.den.degree + k_anchor)
    observed = sorted(set(degrees))
    top = observed[-1] if observed else -1
    missing = tuple(sorted(set(range(top + 1)) - set(observed)))
    prefix = missing == tuple(range(len(missing)))
    return CensusResult(degrees=tuple(degrees), missing=missing,
                        classification="case-1" if prefix else "case-2")


def census_check(model: OqmModel, d_v: Sequence[int], d_e: Sequence[int],
                 n_max: int) -> CheckReport:
    """The degree census of levels 0..n_max by both paths, which must agree."""
    one_shot = degree_census(model, d_v, d_e, n_max)
    staged = degree_census(model, d_v, d_e, n_max, staged=True)
    return check_report("oqm.degree-census", one_shot == staged, one_shot, staged,
                        {"d_v": list(d_v), "d_e": list(d_e), "missing": list(one_shot.missing),
                         "classification": one_shot.classification},
                        dict(d_v=d_v, d_e=d_e, n_max=n_max))
