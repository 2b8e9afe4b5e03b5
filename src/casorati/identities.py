"""Executable checkers for the determinant identities, and the check registry.

Each checker compares two independently computed exact objects and returns a
CheckReport; quotient and square-root identities are verified in
cross-multiplied / squared polynomial form so that every comparison stays
inside exact arithmetic.

The three families share one structure, so quotient, one-reduction, gauge,
nesting and theorem are written once each (``check_quotient`` ...
``check_theorem``, each taking a family name) over the algebra a
``FAMILIES`` row holds: the determinant, the one-reduction operator D and
its unit, and the row points with evaluation at a point; so are the direct
sides of the theorem at m = 2 (``two_column_identity``).  The corollaries
stay per family; the two Casoratian ones share the squared form.

``CHECKS`` maps every check id that can emit a witness to its registry row:
how a seeded trial draws its inputs, how inputs are encoded into a witness,
and how a witness is decoded and re-run.  The 18 identity rows come from two
tables, ``FAMILIES`` (algebra, element drawer, element codec, whether gamma
is drawn) and ``KINDS`` (the shape's argument names); witness keys are the
checkers' parameter names.  The lab rows (oqm, idqm, rdqm) decode witnesses
that their lab modules write.  ``run_identity_suite`` drives seeded sweeps
over the identity rows, and ``replay_witness`` is the one replay entry point.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import idqm, oqm, rdqm
from .determinants import (
    casoratian_imag,
    casoratian_real,
    imag_shift_points,
    over_base_operator,
    over_base_power,
    real_shift_points,
    wronskian,
    wronskian_operator,
)
from .poly import ExpPoly, Poly, RationalFn, poly_products_equal
from .report import CheckReport, sort_reports
from .sampling import (
    SamplerConfig,
    random_exp_poly,
    random_gamma,
    random_poly,
    trial_rng,
)
from .scalars import format_rational, i_power, imaginary, rational

HALF = Fraction(1, 2)


def _report(identity_id, passed, lhs, rhs, params, inputs,
            inconclusive=False, note="") -> CheckReport:
    """A checker's report; ``inputs`` (its arguments by parameter name) are
    encoded into a witness when the check fails or is inconclusive."""
    witness = None
    if not passed or inconclusive:
        witness = {"identityId": identity_id, "inputs": CHECKS[identity_id].encode(inputs)}
    return CheckReport(identity_id=identity_id, params=params, lhs=str(lhs),
                       rhs=str(rhs), passed=passed, witness=witness,
                       inconclusive=inconclusive, note=note)


# ---------------------------------------------------------------------------
# The family table: each determinant family's algebra
# ---------------------------------------------------------------------------

def _d_imag(f: Poly, gamma: Fraction) -> Poly:
    """Df(x) = f(x - i gamma/2) - f(x + i gamma/2)."""
    return f.shift(imaginary(-gamma * HALF)) - f.shift(imaginary(gamma * HALF))


@dataclass(frozen=True)
class Family:
    """One determinant family: how its inputs are drawn and encoded, and the
    algebra the shape checkers are written in.

    Row points are offsets from x.  The Wronskian is the gamma -> 0 limit of
    the imaginary-shift family: every row point collapses onto x, where
    evaluation is the identity.  The callables look up the determinant
    functions by module global at call time, so a patched one is the one
    that runs.
    """

    draw: Callable            # element drawer: random_exp_poly or random_poly
    element: type             # element codec: ExpPoly or Poly (serialize / deserialize)
    gamma: bool               # whether a shift gamma is drawn
    det: Callable             # (fs, gamma) -> W[f_1, ..., f_n]
    reduce: Callable          # (f, gamma) -> Df in W[1, f..] == c_n W[Df..]
    unit: Callable            # n -> c_n
    points: Callable          # (n, gamma) -> the n row points x_1..x_n
    at: Callable              # (f, point) -> f evaluated at the point
    theorem_points: Callable  # (m, gamma) -> the m - 1 points of the theorem's W[f] factors
    # The nesting identity is stated with the factor g(x_1^{(n+1)}) that
    # both sides share cancelled (g^{n-1} W[g, f..] == W[W[g, f_i]..]).
    nesting_cancels_g: bool = False


FAMILIES = {
    "wronskian": Family(
        random_exp_poly, ExpPoly, gamma=False,
        det=lambda fs, gamma: wronskian(fs),
        reduce=lambda f, gamma: f.derivative(),
        unit=lambda n: 1,
        points=lambda n, gamma: [0] * n,
        at=lambda f, point: f,
        theorem_points=lambda m, gamma: [0] * (m - 1),
        nesting_cancels_g=True),
    "cas-imag": Family(
        random_poly, Poly, gamma=True,
        det=lambda fs, gamma: casoratian_imag(fs, gamma),
        reduce=_d_imag,
        unit=i_power,
        points=imag_shift_points,
        at=lambda f, point: f.shift(point),
        theorem_points=lambda m, gamma: imag_shift_points(m - 1, gamma)),
    "cas-real": Family(
        random_poly, Poly, gamma=False,
        det=lambda fs, gamma: casoratian_real(fs),
        reduce=lambda f, gamma: f.shift(1) - f,
        unit=lambda n: 1,
        points=lambda n, gamma: real_shift_points(n),
        at=lambda f, point: f.shift(point),
        theorem_points=lambda m, gamma: range(1, m)),
}


def _family(family: str, gamma) -> tuple[Family, Fraction | None]:
    """The family's row, and gamma as a Fraction (None for the families
    without a shift); a gamma that the family does not take is rejected."""
    row = FAMILIES[family]
    if row.gamma != (gamma is not None):
        raise ValueError(f"{family} {'needs a' if row.gamma else 'takes no'} gamma")
    return row, rational(gamma) if row.gamma else None


def _shape_report(family: str, kind: str, passed: bool, lhs, rhs, params: dict,
                  inputs: dict, gamma) -> CheckReport:
    if gamma is not None:
        params["gamma"] = format_rational(gamma)
    return _report(f"{family}.{kind}", passed, lhs, rhs, params, dict(inputs, gamma=gamma))


# ---------------------------------------------------------------------------
# The five shape checkers, one per identity shape of all three families
# ---------------------------------------------------------------------------

def check_quotient(family: str, f, g, gamma=None) -> CheckReport:
    """c_1 ((Df) g(x_1) - f(x_1) (Dg)) == W[g, f], x_1 the first of the two
    row points: the quotient identity (f/g)' g^2 == W[g, f] cross-multiplied."""
    row, gamma = _family(family, gamma)
    x_1 = row.points(2, gamma)[0]
    lhs = (row.reduce(f, gamma) * row.at(g, x_1)
           - row.at(f, x_1) * row.reduce(g, gamma)) * row.unit(1)
    rhs = row.det([g, f], gamma)
    return _shape_report(family, "quotient", lhs == rhs, lhs, rhs,
                         {"deg_f": f.degree, "deg_g": g.degree}, dict(f=f, g=g), gamma)


def check_one_reduction(family: str, fs: Sequence, gamma=None) -> CheckReport:
    """W[1, f_1, ..., f_n] == c_n W[Df_1, ..., Df_n]."""
    row, gamma = _family(family, gamma)
    n = len(fs)
    lhs = row.det([row.element.one()] + list(fs), gamma)
    rhs = row.det([row.reduce(f, gamma) for f in fs], gamma) * row.unit(n)
    return _shape_report(family, "one-reduction", lhs == rhs, lhs, rhs,
                         {"n": n, "degrees": [f.degree for f in fs]}, dict(fs=fs), gamma)


def check_gauge(family: str, fs: Sequence, g, gamma=None) -> CheckReport:
    """W[g f_1, ..., g f_n] == prod_j g(x_j) W[f_1, ..., f_n]."""
    row, gamma = _family(family, gamma)
    n = len(fs)
    lhs = row.det([g * f for f in fs], gamma)
    rhs = row.det(fs, gamma)
    for point in row.points(n, gamma):
        rhs = rhs * row.at(g, point)
    return _shape_report(family, "gauge", lhs == rhs, lhs, rhs,
                         {"n": n, "degrees": [f.degree for f in fs], "deg_g": g.degree},
                         dict(fs=fs, g=g), gamma)


def check_nesting(family: str, fs: Sequence, g, gamma=None) -> CheckReport:
    """prod_{j=1}^n g(x_j^{(n+1)}) W[g, f..] == g(x_1^{(n+1)}) W[W[g,f_1], ..., W[g,f_n]],
    with g(x_1^{(n+1)}) cancelled where the family states it so; W[g] == g at n = 0."""
    row, gamma = _family(family, gamma)
    n = len(fs)
    if n == 0:
        lhs, rhs = row.det([g], gamma), g
    else:
        points = row.points(n + 1, gamma)
        lhs = row.det([g] + list(fs), gamma)
        rhs = row.det([row.det([g, f], gamma) for f in fs], gamma)
        if row.nesting_cancels_g:
            points = points[1:n]
        else:
            rhs = row.at(g, points[0]) * rhs
            points = points[:n]
        for point in points:
            lhs = lhs * row.at(g, point)
    return _shape_report(family, "nesting", lhs == rhs, lhs, rhs,
                         {"n": n, "degrees": [f.degree for f in fs], "deg_g": g.degree},
                         dict(fs=fs, g=g), gamma)


def check_theorem(family: str, fs: Sequence, us: Sequence, gamma=None) -> CheckReport:
    """prod_{j=1}^{m-1} W[f](y_j) W[f, u_1..u_m] == W[W[f,u_1], ..., W[f,u_m]]."""
    row, gamma = _family(family, gamma)
    m = len(us)
    if m < 1:
        raise ValueError("theorem needs m >= 1")
    w0 = row.det(fs, gamma)
    lhs = row.det(list(fs) + list(us), gamma)
    for point in row.theorem_points(m, gamma):
        lhs = lhs * row.at(w0, point)
    rhs = row.det([row.det(list(fs) + [u], gamma) for u in us], gamma)
    return _shape_report(family, "theorem", lhs == rhs, lhs, rhs,
                         {"n": len(fs), "m": m,
                          "degrees": [f.degree for f in list(fs) + list(us)]},
                         dict(fs=fs, us=us), gamma)


# ---------------------------------------------------------------------------
# The corollaries, per family
# ---------------------------------------------------------------------------

def check_wronskian_corollary(fs: Sequence[ExpPoly], us: Sequence[ExpPoly],
                              v: ExpPoly) -> CheckReport:
    """Quotient form of the theorem, plus the derived two-path ratio.

    Both are verified cross-multiplied, with the ratio Wronskians computed
    over the common base W[f..] by one over-base operator, whose columns
    W[f, u] come from the operator W[f, .]; the left sides are direct
    Wronskians, so the two sides share no determinant:
      W[f,u..]/W[f] == W[W[f,u_1]/W[f], ..., W[f,u_m]/W[f]]
      W[f,u..,v]/W[f,u..] == W[ratios, ratio_v] / W[ratios]
    """
    ops = wronskian_operator(fs)
    w0 = ops.seed_wronskian
    if w0.is_zero():
        raise ZeroDivisionError("corollary needs linearly independent f's")
    m = len(us)
    nums = [ops(u) for u in us]
    num_v = ops(v)

    outer = over_base_operator(nums, w0)
    rhs_num, k1 = outer.seed_wronskian, over_base_power(m)
    lhs_num = wronskian(list(fs) + list(us))
    # lhs_num/w0 == rhs_num/w0^k1
    ok1 = poly_products_equal([(lhs_num, 1), (w0, k1 - 1)], [(rhs_num, 1)])

    w_all = lhs_num
    if w_all.is_zero() or rhs_num.is_zero():
        raise ZeroDivisionError("two-path ratio needs nonzero Wronskians")
    rhs2_num, k2 = outer(num_v), over_base_power(m + 1)
    # W[f,u..,v]/W[f,u..] == (rhs2_num/w0^k2) / (rhs_num/w0^k1)
    lhs2_num = wronskian(list(fs) + list(us) + [v])
    ok2 = poly_products_equal([(lhs2_num, 1), (rhs_num, 1), (w0, k2 - k1)],
                              [(w_all, 1), (rhs2_num, 1)])

    return _report("wronskian.corollary", ok1 and ok2,
                   "cross-multiplied quotient LHS", "cross-multiplied quotient RHS",
                   {"l": len(fs), "m": m,
                    "degrees": [f.p.degree for f in list(fs) + list(us) + [v]]},
                   dict(fs=fs, us=us, v=v), note="" if ok1 else "corollary-form failed")


def _squared_corollary(family: str, fs: Sequence[Poly], us: Sequence[Poly], gamma):
    """Square-root-free corollary of a Casoratian theorem: A^2 P == C^2 B with

    A = W[f, u..](x),  C = W[W[f,u_1], ..., W[f,u_m]](x),
    B = W[f] at the first and last of the m+1 row points,
    P = prod_{j=1}^m w^2(x_j^{(m)}),  w^2(y) = prod_p W[f](y + p) over the two row points p.

    Returns the verdict and (W[f], A, [W[f,u_j]], C, w^2, the factors of P).
    """
    row = FAMILIES[family]
    w0 = row.det(fs, gamma)
    a = row.det(list(fs) + list(us), gamma)
    gs = [row.det(list(fs) + [u], gamma) for u in us]
    c = row.det(gs, gamma)
    p_1, p_2 = row.points(2, gamma)
    w2 = row.at(w0, p_1) * row.at(w0, p_2)
    p_parts = [row.at(w2, point) for point in row.points(len(us), gamma)]
    ends = row.points(len(us) + 1, gamma)
    passed = poly_products_equal(
        [(a, 2)] + [(q, 1) for q in p_parts],
        [(c, 2), (row.at(w0, ends[0]), 1), (row.at(w0, ends[-1]), 1)])
    return passed, (w0, a, gs, c, w2, p_parts)


def check_cas_imag_corollary(fs: Sequence[Poly], us: Sequence[Poly], gamma) -> CheckReport:
    """The squared corollary A^2 P == C^2 B of the imaginary-shift theorem."""
    gamma = rational(gamma)
    passed = _squared_corollary("cas-imag", fs, us, gamma)[0]
    return _report("cas-imag.corollary", passed,
                   "A^2 P (cross-multiplied)", "C^2 B (cross-multiplied)",
                   {"l": len(fs), "m": len(us), "gamma": format_rational(gamma),
                    "degrees": [f.degree for f in list(fs) + list(us)]},
                   dict(fs=fs, us=us, gamma=gamma))


def _real_sign_at(p: Poly, x: int) -> int:
    v = p(x)
    if not v.is_real():
        return 0
    return (v.re > 0) - (v.re < 0)


def check_cas_real_corollary(fs: Sequence[Poly], us: Sequence[Poly],
                             v: Poly | None = None) -> CheckReport:
    """Squared corollary, plus the signed two-path ratio when v is given.

    Squared corollary: A^2 P == C^2 B with B = W_C[f](x) W_C[f](x+m) and
    P = prod_{j=1}^m W_C[f](x+j-1) W_C[f](x+j) (see _squared_corollary).

    Signed variant (the epsilon-weighted ratio identity): verified to the 4th
    power exactly (epsilon^4 == 1 drops out), then sign-checked exactly at the
    first sample point where W_C[f] has a definite sign on every argument used
    and every radical is real: sgn a_v(x0) == epsilon^m sgn c_v(x0).
    """
    m = len(us)
    ok_squared, (w0, a, gs, c, w2, p_parts) = _squared_corollary("cas-real", fs, us, None)

    ok_signed = True
    inconclusive = False
    note = ""
    if v is not None:
        g_v = casoratian_real(list(fs) + [v])
        a_v = casoratian_real(list(fs) + list(us) + [v])
        c_v = casoratian_real(gs + [g_v])
        lhs4 = ([(a_v, 4), (w0.shift(1), 1), (w0.shift(m), 1), (c, 2), (c.shift(1), 2)]
                + [(q, 2) for q in p_parts] + [(w2.shift(m), 2)])
        rhs4 = ([(w0, 1), (w0.shift(m + 1), 1), (c_v, 4), (a, 2), (a.shift(1), 2)]
                + [(q, 1) for q in p_parts] + [(q.shift(1), 1) for q in p_parts])
        ok_signed = poly_products_equal(lhs4, rhs4)
        note = "" if ok_signed else "signed 4th-power identity failed"

        if ok_signed:
            sign_checked = False
            for x0 in range(7):
                w_signs = {_real_sign_at(w0, x0 + k) for k in range(m + 2)}
                if len(w_signs) != 1 or 0 in w_signs:
                    continue  # premise: definite sign on every used argument
                eps = w_signs.pop()
                vals = {
                    "a_v": a_v(x0), "a0": a(x0), "a1": a(x0 + 1),
                    "c_v": c_v(x0), "c0": c(x0), "c1": c(x0 + 1),
                }
                if any(not z.is_real() for z in vals.values()):
                    continue
                sgn = {k: (z.re > 0) - (z.re < 0) for k, z in vals.items()}
                if sgn["a0"] * sgn["a1"] <= 0 or sgn["c0"] * sgn["c1"] <= 0:
                    continue
                # The w_signs premise makes w2(x0+j) (j = 0..m), qn(x0) =
                # w0(x0) w0(x0+m+1) and qd(x0) = w0(x0+1) w0(x0+m) positive,
                # so every radical is real.  The 4th-power identity holds, so
                # |lhs| == |rhs| exactly: the signs decide.
                sign_checked = True
                if sgn["a_v"] == eps ** m * sgn["c_v"]:
                    note = f"signs compared at x={x0}"
                else:
                    ok_signed = False
                    note = f"sign disagreement at x={x0}"
                break
            if not sign_checked and ok_signed:
                # The squared and 4th-power identities already passed; the
                # auxiliary sign sample simply had no sign-definite window.
                note = "sign sample skipped (W_C[f] not sign-definite)"

    passed = ok_squared and ok_signed
    return _report("cas-real.corollary", passed,
                   "squared/4th-power cross-multiplied LHS",
                   "squared/4th-power cross-multiplied RHS",
                   {"l": len(fs), "m": m,
                    "degrees": [f.degree for f in list(fs) + list(us)]},
                   dict(fs=fs, us=us, v=v), inconclusive=inconclusive, note=note)


# ---------------------------------------------------------------------------
# The two-column identities (the m = 2 rows of the three theorems)
# ---------------------------------------------------------------------------

def two_column_identity(family: str, fs, g, h, gamma=None) -> tuple:
    """Direct both sides of D[D[f..,g], D[f..,h]] == D[f..](y_1) D[f..,g,h],
    the theorem at m = 2, with y_1 the family's one theorem point: x for the
    Wronskian and the imaginary shift, x+1 for the real shift, which is the
    lattice family's distinctive feature."""
    row, gamma = _family(family, gamma)
    (point,) = row.theorem_points(2, gamma)
    lhs = row.det([row.det(list(fs) + [g], gamma), row.det(list(fs) + [h], gamma)], gamma)
    rhs = row.at(row.det(fs, gamma), point) * row.det(list(fs) + [g, h], gamma)
    return lhs, rhs


# ---------------------------------------------------------------------------
# The imaginary-shift extras: sum formula and classical limit
# ---------------------------------------------------------------------------

def check_sum_formula(j_max: int) -> CheckReport:
    """sum_r (-1)^r C(j-1, r) (r - (j-1)/2)^s == (-1)^{j-1} (j-1)! delta_{s,j-1}."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    failures = []
    for j in range(1, j_max + 1):
        for s in range(j):
            total = Fraction(0)
            for r in range(j):
                total += (-1) ** r * math.comb(j - 1, r) * (Fraction(r) - Fraction(j - 1, 2)) ** s
            expected = Fraction((-1) ** (j - 1) * math.factorial(j - 1)) if s == j - 1 else Fraction(0)
            if total != expected:
                failures.append({"j": j, "s": s, "got": format_rational(total),
                                 "expected": format_rational(expected)})
    return _report("cas-imag.sum-formula", not failures,
                   "binomial sums", "factorial deltas",
                   {"j_max": j_max, "failures": failures}, dict(j_max=j_max))


def check_classical_limit(fs: Sequence[Poly], gamma0, halvings: int) -> CheckReport:
    """gamma^{-n(n-1)/2} W_gamma[fs] -> W[fs] with decay order >= 1.

    Errors are tracked coefficientwise as exact squared magnitudes; each
    nonzero error must shrink by at least 3/2 per halving (ratio^2 >= 9/4),
    with exact zeros allowed at any stage.
    """
    gamma0 = rational(gamma0)
    if gamma0 <= 0:
        raise ValueError("gamma0 must be positive")
    n = len(fs)
    target = wronskian([ExpPoly(f) for f in fs]).p
    scale_power = (n * (n - 1)) // 2
    errors: list[list[Fraction]] = []
    gamma = gamma0
    max_len = 0
    for _ in range(halvings + 1):
        scaled = casoratian_imag(fs, gamma) * (Fraction(1) / gamma ** scale_power)
        diff = scaled - target
        row = [c.magnitude_squared() for c in diff.coeffs]
        errors.append(row)
        max_len = max(max_len, len(row))
        gamma = gamma / 2
    ratio_floor = Fraction(9, 4)  # (3/2)^2 on squared magnitudes
    ok = True
    worst = None
    # The first halving (from gamma0 itself) may be pre-asymptotic; decay is
    # asserted from the second step on.
    for k in range(max_len):
        for t in range(1, len(errors) - 1):
            e_now = errors[t][k] if k < len(errors[t]) else Fraction(0)
            e_next = errors[t + 1][k] if k < len(errors[t + 1]) else Fraction(0)
            if e_next == 0:
                continue  # reached exact zero (or stayed there)
            if e_now == 0 or e_now < ratio_floor * e_next:
                ok = False
                worst = {"coeff": k, "step": t}
                break
        if not ok:
            break
    params = {"n": n, "gamma0": format_rational(gamma0), "halvings": halvings,
              "degrees": [f.degree for f in fs]}
    if worst:
        params["violation"] = worst
    return _report("cas-imag.classical-limit", ok,
                   "scaled Casoratian errors", "first-order-or-faster decay",
                   params, dict(fs=fs, gamma0=gamma0, halvings=halvings))


# ---------------------------------------------------------------------------
# Check registry: how each check id is drawn, encoded and replayed
# ---------------------------------------------------------------------------

# The element arguments of each identity shape, in checker call order.
KINDS = {
    "quotient": ("f", "g"),
    "one-reduction": ("fs",),
    "gauge": ("fs", "g"),
    "nesting": ("fs", "g"),
    "theorem": ("fs", "us"),
    "corollary": ("fs", "us", "v"),
}


@dataclass(frozen=True)
class Check:
    """Registry row of one check id.  Lab rows only replay: their lab
    modules write their witnesses and their CLI runners draw their inputs."""

    replay: Callable[[dict], CheckReport]         # witness inputs -> report
    run: Callable[[dict], CheckReport] | None = None  # checker inputs -> report
    encode: Callable[[dict], dict] | None = None  # checker inputs -> witness inputs
    draw: Callable | None = None                  # (rng, config) -> checker inputs


def _codecs(element: type) -> dict[str, tuple[Callable, Callable]]:
    """Witness key -> (encode, decode) for the inputs of this module's checkers."""
    one = (element.serialize, element.deserialize)
    many = (lambda xs: [x.serialize() for x in xs],
            lambda ds: [element.deserialize(d) for d in ds])
    number = (format_rational, rational)
    count = (int, int)
    return {"f": one, "g": one, "v": one, "fs": many, "us": many,
            "gamma": number, "gamma0": number, "halvings": count, "j_max": count}


def _checker_row(checker: str, element: type = Poly, draw: Callable | None = None,
                 family: str | None = None) -> Check:
    """Row of a checker in this module; its witness keys are its parameter
    names.  A shape checker's row passes it the family name first."""
    codecs = _codecs(element)
    bound = (family,) if family else ()

    def run(inputs: dict) -> CheckReport:
        # Looked up at call time, so a patched checker is the one that runs.
        return globals()[checker](*bound, **inputs)

    def encode(inputs: dict) -> dict:
        return {key: codecs[key][0](value) for key, value in inputs.items()
                if value is not None}

    def replay(data: dict) -> CheckReport:
        try:
            inputs = {key: codecs[key][1](value) for key, value in data.items()}
            inspect.signature(globals()[checker]).bind(*bound, **inputs)
        except TypeError as exc:
            raise ValueError(f"malformed witness inputs: {exc}") from None
        return run(inputs)

    return Check(replay, run, encode, draw)


def _family_draw(family: Family, args: tuple[str, ...]) -> Callable:
    """Seeded draw in a fixed order: n, m, gamma (if drawn), fs (the first
    nonzero), g (nonzero), us, then f or v when the shape takes one."""
    def draw(rng, cfg: SamplerConfig) -> dict:
        def element(nonzero=False):
            return family.draw(rng, cfg.max_degree, cfg.coefficient_bound, nonzero)
        n = rng.randint(*cfg.n_range)
        m = rng.randint(*cfg.m_range)
        drawn = {"gamma": random_gamma(rng)} if family.gamma else {}
        drawn["fs"] = [element(i == 0) for i in range(n)]
        drawn["g"] = element(nonzero=True)
        drawn["us"] = [element() for _ in range(m)]
        for last in ("f", "v"):
            if last in args:
                drawn[last] = element()
        return {key: drawn[key] for key in args + ("gamma",) * family.gamma}
    return draw


def _shape_args(family: str, kind: str) -> tuple[str, ...]:
    # The imaginary-shift corollary has no two-path ratio, hence no v.
    return KINDS[kind][:2] if (family, kind) == ("cas-imag", "corollary") else KINDS[kind]


def _draw_classical_limit(rng, cfg: SamplerConfig) -> dict:
    fs = [random_poly(rng, 3, cfg.coefficient_bound, nonzero=True) for _ in range(3)]
    return dict(fs=fs, gamma0=Fraction(1), halvings=4)


def _polys(data) -> list[Poly]:
    return [Poly.deserialize(d) for d in data]


def _potential(d: dict) -> RationalFn:
    return RationalFn(Poly.deserialize(d["v_num"]), Poly.deserialize(d["v_den"]))


def _replay_oqm_two_path(d: dict) -> CheckReport:
    model = oqm.build_harmonic_model(max(d["d_e"] + [d["n"]]) + 2, max(d["d_v"] + [0]) + 1)
    return oqm.two_path_compare(model, d["d_v"], d["d_e"], d["n"])


def _replay_idqm_two_path(d: dict) -> CheckReport:
    return idqm.two_path_compare_idqm(_potential(d), _polys(d["dv"]), _polys(d["de"]),
                                      Poly.deserialize(d["v_state"]), rational(d["gamma"]),
                                      Poly.deserialize(d["mu"]))


def _replay_idqm_prefactor(d: dict) -> CheckReport:
    return idqm.check_prefactor_gg(_potential(d), rational(d["gamma"]), d["l"], d["m"])


def _replay_idqm_potential(d: dict) -> CheckReport:
    return idqm.check_potential_product_identity(_potential(d), _polys(d["seeds"]),
                                                 rational(d["gamma"]), d["m"],
                                                 Poly.deserialize(d["mu"]))


def _meixner_model(d: dict) -> rdqm.RdqmModel:
    return rdqm.build_meixner_model(d["beta"], d["c"], n_max=d["n_max"], x_max=d["window"],
                                    precision_bits=d["precision_bits"])


def _replay_rdqm_two_path(d: dict) -> CheckReport:
    return rdqm.two_path_compare_rdqm(_meixner_model(d), d["dv_energies"], d["de_labels"],
                                      d["n"], d["tolerance"], compare_up_to=d["compare_up_to"])


def _replay_rdqm_step(d: dict) -> CheckReport:
    return rdqm.darboux_step_replay(_meixner_model(d), d["dv_energies"], d["de_labels"],
                                    d["n"], d["s"], d["tolerance"],
                                    compare_up_to=d["compare_up_to"])


def _identity_row(family: str, kind: str) -> Check:
    """A shape checker bound to the family, or the family's own corollary."""
    row = FAMILIES[family]
    draw = _family_draw(row, _shape_args(family, kind))
    if kind == "corollary":
        return _checker_row(f"check_{family}_corollary".replace("-", "_"), row.element, draw)
    return _checker_row(f"check_{kind}".replace("-", "_"), row.element, draw, family)


CHECKS: dict[str, Check] = {
    f"{family}.{kind}": _identity_row(family, kind) for family in FAMILIES for kind in KINDS
}
CHECKS.update({
    "cas-imag.classical-limit": _checker_row("check_classical_limit", Poly, _draw_classical_limit),
    "cas-imag.sum-formula": _checker_row("check_sum_formula"),
    "oqm.two-path": Check(_replay_oqm_two_path),
    "idqm.two-path": Check(_replay_idqm_two_path),
    "idqm.prefactor-gg": Check(_replay_idqm_prefactor),
    "idqm.potential-product": Check(_replay_idqm_potential),
    "rdqm.two-path": Check(_replay_rdqm_two_path),
    "rdqm.step-replay": Check(_replay_rdqm_step),
})

IDENTITY_IDS = tuple(sorted(f"{family}.{kind}" for family in FAMILIES for kind in KINDS))


def replay_witness(witness) -> CheckReport:
    """Re-run the check a witness records: registry lookup, decode, call.

    A witness that is not an object with ``identityId`` and ``inputs``, names
    no registered check or lacks an input raises ValueError.
    """
    if not (isinstance(witness, dict) and "identityId" in witness
            and isinstance(witness.get("inputs"), dict)):
        raise ValueError("a witness is a JSON object with identityId and inputs")
    check = CHECKS.get(witness["identityId"])
    if check is None:
        raise ValueError(f"cannot replay witness kind: {witness['identityId']}")
    try:
        return check.replay(witness["inputs"])
    except KeyError as exc:
        raise ValueError(f"witness inputs lack or misname {exc}") from None


def draw_trial(identity_id: str, config: SamplerConfig, trial: int) -> tuple[dict, CheckReport]:
    """Inputs and report of one seeded trial; degenerate draws (zero Wronskian
    denominators) are redrawn from the same stream a bounded number of times."""
    check = CHECKS[identity_id]
    rng = trial_rng(config, identity_id, trial)
    for _ in range(20):
        inputs = check.draw(rng, config)
        try:
            return inputs, check.run(inputs)
        except ZeroDivisionError:
            continue
    raise RuntimeError(f"could not draw a nondegenerate instance for {identity_id}")


def run_single_trial(identity_id: str, config: SamplerConfig, trial: int) -> CheckReport:
    """One seeded trial, tagged with its trial index and seed."""
    report = draw_trial(identity_id, config, trial)[1]
    report.params["trial"] = trial
    report.params["seed"] = f"{config.master_seed}:{identity_id}:{trial}"
    return report


def run_identity_suite(config: SamplerConfig, include_extras: bool = True) -> list[CheckReport]:
    """All checkers, config.trials seeded trials each, canonically ordered."""
    reports = []
    for identity_id in IDENTITY_IDS:
        for trial in range(config.trials):
            reports.append(run_single_trial(identity_id, config, trial))
    if include_extras:
        reports.append(check_sum_formula(10))
        for trial in range(min(config.trials, 50)):
            rep = draw_trial("cas-imag.classical-limit", config, trial)[1]
            rep.params["trial"] = trial
            reports.append(rep)
    return sort_reports(reports)
