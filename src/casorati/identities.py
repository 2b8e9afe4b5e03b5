"""Executable checkers for the determinant identities, and the check registry.

Each checker compares two independently computed exact objects and returns a
CheckReport; quotient and square-root identities are verified in
cross-multiplied / squared polynomial form so that every comparison stays
inside exact arithmetic.

The three families share one structure, so quotient, one-reduction, gauge,
nesting and theorem are written once each (``check_quotient`` ...
``check_theorem``, each taking a family name) over the algebra a
``FAMILIES`` row holds: the determinant, the one-reduction operator D and
its unit, and the row points with evaluation at a point.  The theorem at
m = 2 is the paper's two-column identity, so ``check_theorem`` with two us
checks it.  The corollaries stay per family; the two Casoratian ones share
the squared form, and the real-shift one reads its sign samples by
``Poly.sign_at``.

``CHECKS`` holds the row of each of the 29 check ids: its checker, its
arguments as witness keys and, for the identity rows, a seeded draw.
``report.check_report`` writes every witness; ``replay_witness`` decodes one
by ``DECODERS``, which check each key's JSON type, and re-runs it.
``run_identity_suite`` drives seeded sweeps over the identity rows and
``idqm_trial`` draws idQM's; both redraw a degenerate draw in one loop.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Sequence

from . import idqm, oqm, rdqm
from .determinants import (
    casoratian_imag,
    casoratian_real,
    imag_shift,
    imag_shift_points,
    over_base_power,
    wronskian,
    wronskian_operator,
)
from .poly import ExpPoly, Poly, RationalFn, poly_products_equal
from .report import CheckReport, check_report, sort_reports
from .sampling import (
    M_RANGE,
    N_RANGE,
    SamplerConfig,
    random_exp_poly,
    random_gamma,
    random_poly,
    trial_rng,
)
from .scalars import format_rational, i_power, rational, require_at_most


# ---------------------------------------------------------------------------
# The family table: each determinant family's algebra
# ---------------------------------------------------------------------------

def _d_imag(f: Poly, gamma: Fraction) -> Poly:
    """Df(x) = f(x - i gamma/2) - f(x + i gamma/2)."""
    return imag_shift(f, -1, gamma) - imag_shift(f, 1, gamma)


@dataclass(frozen=True)
class Family:
    """One determinant family: how its inputs are drawn and decoded, and the
    algebra the shape checkers are written in.

    Row points are offsets from x.  The Wronskian is the gamma -> 0 limit of
    the imaginary-shift family: every row point collapses onto x, where
    evaluation is the identity.  The callables look up the determinant
    functions by module global at call time, so a patched one is the one
    that runs.
    """

    draw: Callable            # element drawer: random_exp_poly or random_poly
    element: type             # ExpPoly or Poly: its one() and the decoder of its witness values
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
        points=lambda n, gamma: range(n),
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
    return check_report(f"{family}.{kind}", passed, lhs, rhs, params, dict(inputs, gamma=gamma))


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

    outer = wronskian_operator(nums, w0)
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

    return check_report("wronskian.corollary", ok1 and ok2,
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
    return check_report("cas-imag.corollary", passed,
                        "A^2 P (cross-multiplied)", "C^2 B (cross-multiplied)",
                        {"l": len(fs), "m": len(us), "gamma": format_rational(gamma),
                         "degrees": [f.degree for f in list(fs) + list(us)]},
                        dict(fs=fs, us=us, gamma=gamma))


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
                w_signs = {w0.sign_at(x0 + k) for k in range(m + 2)}
                if w_signs not in ({1}, {-1}):
                    continue  # premise: definite sign on every used argument
                eps = w_signs.pop()
                sgn = {"a_v": a_v.sign_at(x0), "a0": a.sign_at(x0), "a1": a.sign_at(x0 + 1),
                       "c_v": c_v.sign_at(x0), "c0": c.sign_at(x0), "c1": c.sign_at(x0 + 1)}
                if None in sgn.values():
                    continue
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
    return check_report("cas-real.corollary", passed,
                        "squared/4th-power cross-multiplied LHS",
                        "squared/4th-power cross-multiplied RHS",
                        {"l": len(fs), "m": m,
                         "degrees": [f.degree for f in list(fs) + list(us)]},
                        dict(fs=fs, us=us, v=v), note=note)


# ---------------------------------------------------------------------------
# The imaginary-shift extras: sum formula and classical limit
# ---------------------------------------------------------------------------

# Upper bounds of the two checkers' sizes: j_max = 40 takes 0.4 s, and the work grows
# as about j_max^3; 32 halvings take gamma0 down to gamma0 / 2^32 (the suite takes 4).
MAX_J_MAX, MAX_HALVINGS = 40, 32


def check_sum_formula(j_max: int) -> CheckReport:
    """sum_r (-1)^r C(j-1, r) (r - (j-1)/2)^s == (-1)^{j-1} (j-1)! delta_{s,j-1},
    for j = 1..j_max; j_max above MAX_J_MAX raises ValueError."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    require_at_most("j_max", j_max, MAX_J_MAX)
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
    return check_report("cas-imag.sum-formula", not failures,
                        "binomial sums", "factorial deltas",
                        {"j_max": j_max, "failures": failures}, dict(j_max=j_max))


def check_classical_limit(fs: Sequence[Poly], gamma0, halvings: int) -> CheckReport:
    """gamma^{-n(n-1)/2} W_gamma[fs] -> W[fs] with decay order >= 1.

    Errors are tracked coefficientwise as exact squared magnitudes; each
    nonzero error must shrink by at least 3/2 per halving (ratio^2 >= 9/4),
    with exact zeros allowed at any stage.  halvings above MAX_HALVINGS
    raises ValueError.
    """
    gamma0 = rational(gamma0)
    if gamma0 <= 0:
        raise ValueError("gamma0 must be positive")
    require_at_most("halvings", halvings, MAX_HALVINGS)
    n = len(fs)
    target = wronskian([ExpPoly(f) for f in fs]).p
    scale_power = (n * (n - 1)) // 2
    errors: list[list[Fraction]] = []
    gamma = gamma0
    max_len = 0
    for _ in range(halvings + 1):
        scaled = casoratian_imag(fs, gamma) * (Fraction(1) / gamma ** scale_power)
        diff = scaled - target
        row = [Fraction(r * r + m * m, diff.den ** 2) for r, m in zip(diff.re, diff.im)]
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
    return check_report("cas-imag.classical-limit", ok,
                        "scaled Casoratian errors", "first-order-or-faster decay",
                        params, dict(fs=fs, gamma0=gamma0, halvings=halvings))


# ---------------------------------------------------------------------------
# Check registry: how each check id is drawn, run and replayed
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


def _json(kind: type, value):
    """``value``, if its JSON type is ``kind`` (a bool is no int)."""
    if type(value) is not kind:
        raise ValueError(f"{value!r} is not a JSON {kind.__name__}")
    return value


def _count(value) -> int:
    """A count or a label: a non-negative int."""
    if _json(int, value) < 0:
        raise ValueError(f"{value} is negative")
    return value


def _list(decode: Callable) -> Callable:
    return lambda value: [decode(item) for item in _json(list, value)]


def _rational(value) -> Fraction:
    return rational(_json(str, value))


def _poly(value) -> Poly:
    return Poly.deserialize([_json(str, item) for item in _json(list, value)])


def _exp_poly(value) -> ExpPoly:
    if sorted(_json(dict, value)) != ["a", "b", "p"]:
        raise ValueError(f"{value!r} is not an object of p, a and b")
    return ExpPoly(_poly(value["p"]), _rational(value["a"]), _rational(value["b"]))


def _decoders(element: Callable) -> dict[str, Callable]:
    """Witness key -> decoder of its JSON value; the identity checkers'
    elements (f, g, v, fs, us) are decoded by ``element``."""
    counts, polys, elements = _list(_count), _list(_poly), _list(element)
    text = partial(_json, str)
    return {"f": element, "g": element, "v": element, "fs": elements, "us": elements,
            "gamma": _rational, "gamma0": _rational, "halvings": _count, "j_max": _count,
            "d_v": counts, "d_e": counts, "n": _count, "n_max": _count, "l": _count,
            "m": _count, "v_num": _poly, "v_den": _poly, "v_state": _poly, "mu": _poly,
            "seeds": polys, "dv": polys, "de": polys, "beta": _rational, "c": _rational,
            "window": _count, "precision_bits": _count, "dv_energies": _list(_rational),
            "de_labels": counts, "s": _count, "violated": text,
            "tolerance": lambda value: rdqm.tolerance_text(text(value), "tolerance"),
            "compare_up_to": _count, "truncation": _count, "eigen_count": _count}


DECODERS = {Poly: _decoders(_poly), ExpPoly: _decoders(_exp_poly)}


class Built(NamedTuple):
    """A checker argument built from decoded witness inputs: a model or idQM's V."""

    name: str
    keys: tuple[str, ...]
    build: Callable[[dict], object]


HARMONIC_MODEL = Built("model", ("d_v", "d_e"), lambda d: oqm.harmonic_model_for(
    d["d_v"], d["d_e"], max(d.get("n_max", 0), d.get("n", -1) + 1), 0))
MEIXNER_MODEL = Built("model", ("beta", "c", "n_max", "window", "precision_bits"),
                      lambda d: rdqm.build_meixner_model(
                          d["beta"], d["c"], n_max=d["n_max"], x_max=d["window"],
                          precision_bits=d["precision_bits"]))
IDQM_V = Built("v", ("v_num", "v_den"), lambda d: RationalFn(d["v_num"], d["v_den"]))


@dataclass(frozen=True)
class Check:
    """Registry row of one check id.  Its checker is looked up in ``module``
    at call time, so a patched one is the one that runs, and is called with
    ``bound`` and then ``args`` by name, each a witness key or ``Built``.  A
    witness holds exactly the keys the row reads, bar ``optional`` ones."""

    module: object
    checker: str
    args: tuple
    optional: tuple[str, ...] = ()     # a None input, or only recorded
    bound: tuple = ()
    element: type = Poly               # decodes f, g, v, fs and us
    draw: Callable | None = None       # (rng, config) -> checker inputs

    def run(self, inputs: dict) -> CheckReport:
        args = {getattr(arg, "name", arg): arg.build(inputs) if isinstance(arg, Built)
                else inputs.get(arg) for arg in self.args}
        return getattr(self.module, self.checker)(*self.bound, **args)

    def replay(self, data: dict) -> CheckReport:
        """Decode witness inputs and run them; keys not the row's, a value of
        another JSON type and a degenerate instance raise ValueError."""
        keys = {key for arg in self.args for key in getattr(arg, "keys", (arg,))}
        if not keys - set(self.optional) <= set(data) <= keys | set(self.optional):
            raise ValueError(f"witness inputs {sorted(data)} are not the keys {sorted(keys)}")
        inputs = {}
        for key, value in data.items():
            try:
                inputs[key] = DECODERS[self.element][key](value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"witness input {key}: {exc}") from None
        try:
            return self.run(inputs)
        except ZeroDivisionError as exc:
            raise ValueError(f"degenerate witness inputs: {exc}") from None


def _family_draw(family: Family, keys: tuple[str, ...]) -> Callable:
    """Seeded draw in a fixed order: n, m, gamma (if drawn), fs (the first
    nonzero), g (nonzero), us, then f or v when the shape takes one."""
    def draw(rng, cfg: SamplerConfig) -> dict:
        def element(nonzero=False):
            return family.draw(rng, cfg.max_degree, cfg.coefficient_bound, nonzero)
        n = rng.randint(*N_RANGE)
        m = rng.randint(*M_RANGE)
        drawn = {"gamma": random_gamma(rng)} if family.gamma else {}
        drawn["fs"] = [element(i == 0) for i in range(n)]
        drawn["g"] = element(nonzero=True)
        drawn["us"] = [element() for _ in range(m)]
        for last in ("f", "v"):
            if last in keys:
                drawn[last] = element()
        return {key: drawn[key] for key in keys}
    return draw


def _draw_classical_limit(rng, cfg: SamplerConfig) -> dict:
    fs = [random_poly(rng, 3, cfg.coefficient_bound, nonzero=True) for _ in range(3)]
    return dict(fs=fs, gamma0=Fraction(1), halvings=4)


def _identity_row(family: str, kind: str) -> Check:
    """A shape checker bound to the family, or the family's own corollary:
    the imaginary-shift one has no two-path ratio, hence no v, and the
    real-shift one's v is optional."""
    row = FAMILIES[family]
    keys = KINDS[kind][:2] if (family, kind) == ("cas-imag", "corollary") else KINDS[kind]
    keys += ("gamma",) * row.gamma
    checker, bound = ((f"check_{family}_corollary", ()) if kind == "corollary"
                      else (f"check_{kind}", (family,)))
    return Check(_MODULE, checker.replace("-", "_"), keys,
                 ("v",) * ((family, kind) == ("cas-real", "corollary")), bound, row.element,
                 _family_draw(row, keys))


def _spectrum(**args) -> CheckReport:
    """The rdqm.spectrum report, without the spectrum that ``--csv`` writes."""
    return rdqm.spectrum_report(**args)[0]


_MODULE = sys.modules[__name__]
CHECKS: dict[str, Check] = {
    f"{family}.{kind}": _identity_row(family, kind) for family in FAMILIES for kind in KINDS
}
CHECKS.update({
    "cas-imag.classical-limit": Check(_MODULE, "check_classical_limit",
                                      ("fs", "gamma0", "halvings"), draw=_draw_classical_limit),
    "cas-imag.sum-formula": Check(_MODULE, "check_sum_formula", ("j_max",)),
    "oqm.two-path": Check(oqm, "two_path_compare", (HARMONIC_MODEL, "d_v", "d_e", "n")),
    "oqm.degree-census": Check(oqm, "census_check", (HARMONIC_MODEL, "d_v", "d_e", "n_max")),
    "idqm.two-path": Check(idqm, "two_path_compare_idqm",
                           (IDQM_V, "dv", "de", "v_state", "gamma", "mu")),
    "idqm.prefactor-gg": Check(idqm, "check_prefactor_gg", (IDQM_V, "gamma", "l", "m")),
    "idqm.potential-product": Check(idqm, "check_potential_product_identity",
                                    (IDQM_V, "seeds", "gamma", "m", "mu")),
    "rdqm.two-path": Check(rdqm, "two_path_compare_rdqm",
                           (MEIXNER_MODEL, "dv_energies", "de_labels", "n", "tolerance",
                            "compare_up_to"), ("compare_up_to",)),
    "rdqm.step-replay": Check(rdqm, "darboux_step_replay",
                              (MEIXNER_MODEL, "dv_energies", "de_labels", "n", "s", "tolerance",
                               "compare_up_to"), ("compare_up_to", "violated")),
    "rdqm.sign-conjecture": Check(rdqm, "sign_conjecture_check",
                                  (MEIXNER_MODEL, "dv_energies", "de_labels")),
    "rdqm.spectrum": Check(_MODULE, "_spectrum", (MEIXNER_MODEL, "dv_energies", "de_labels",
                                                  "truncation", "eigen_count")),
})

IDENTITY_IDS = tuple(sorted(f"{family}.{kind}" for family in FAMILIES for kind in KINDS))


def replay_witness(witness) -> CheckReport:
    """Re-run the check a witness records: registry lookup, decode, call.  A
    witness that is not an object with a text ``identityId`` and an object
    ``inputs``, or that its row does not decode, raises ValueError."""
    if not (isinstance(witness, dict) and isinstance(witness.get("identityId"), str)
            and isinstance(witness.get("inputs"), dict)):
        raise ValueError("a witness is a JSON object with identityId and inputs")
    check = CHECKS.get(witness["identityId"])
    if check is None:
        raise ValueError(f"cannot replay witness kind: {witness['identityId']!r}")
    return check.replay(witness["inputs"])


def _redrawn(draw: Callable[[], dict], run: Callable[[dict], object], what: str):
    """(inputs, run(inputs)) of the first of at most 20 draws whose run
    divides by no zero (a degenerate Wronskian denominator)."""
    for _ in range(20):
        inputs = draw()
        try:
            return inputs, run(inputs)
        except ZeroDivisionError:
            continue
    raise RuntimeError(f"could not draw a nondegenerate instance for {what}")


def draw_trial(identity_id: str, config: SamplerConfig, trial: int) -> tuple[dict, CheckReport]:
    """Inputs and report of one seeded trial; degenerate draws are redrawn
    from the same stream."""
    check = CHECKS[identity_id]
    rng = trial_rng(config, identity_id, trial)
    return _redrawn(lambda: check.draw(rng, config), check.run, identity_id)


def idqm_trial(master_seed: int, trial: int, gamma: Fraction, l_max: int, m_max: int,
               max_degree: int) -> list[CheckReport]:
    """The three idQM checks of one seeded trial, tagged with its index: V, l, m, the
    G-products and the prefactor check once, one stage per draw of seeds, state and mu."""
    rng = trial_rng(SamplerConfig(master_seed=master_seed), "idqm.sweep", trial)
    v = RationalFn(random_poly(rng, max_degree, 5, nonzero=True))
    l_count = rng.randint(0, l_max)
    m_count = rng.randint(1, m_max)
    g4 = idqm.row_col_products(idqm.vv_product(v, gamma, l_count, 0, l_count - 1), m_count, gamma)
    prefactor = idqm.check_prefactor_gg(v, gamma, l_count, m_count, g4)

    def draw() -> dict:
        return dict(dv=[random_poly(rng, 3, 5, nonzero=True) for _ in range(l_count)],
                    de=[random_poly(rng, 3, 5, nonzero=True) for _ in range(m_count)],
                    v_state=random_poly(rng, 3, 5, nonzero=True),
                    mu=random_poly(rng, 2, 5, nonzero=True))

    def run(d: dict) -> list[CheckReport]:
        stage = idqm.draw_stage(v, gamma=gamma, **d)
        return [prefactor,
                idqm.check_potential_product_identity(v, d["dv"], gamma, m_count, d["mu"], stage),
                idqm.two_path_compare_idqm(v, gamma=gamma, stage=stage, g4=g4, **d)]

    reports = _redrawn(draw, run, "idqm.sweep")[1]
    for report in reports:
        report.params["trial"] = trial
    return reports


def run_single_trial(identity_id: str, config: SamplerConfig, trial: int) -> CheckReport:
    """One seeded trial, tagged with its trial index and seed."""
    report = draw_trial(identity_id, config, trial)[1]
    report.params["trial"] = trial
    report.params["seed"] = f"{config.master_seed}:{identity_id}:{trial}"
    return report


def run_identity_suite(config: SamplerConfig) -> list[CheckReport]:
    """All checkers, config.trials seeded trials each, the sum formula and up
    to 50 classical-limit trials, canonically ordered."""
    reports = []
    for identity_id in IDENTITY_IDS:
        for trial in range(config.trials):
            reports.append(run_single_trial(identity_id, config, trial))
    reports.append(check_sum_formula(10))
    for trial in range(min(config.trials, 50)):
        rep = draw_trial("cas-imag.classical-limit", config, trial)[1]
        rep.params["trial"] = trial
        reports.append(rep)
    return sort_reports(reports)
