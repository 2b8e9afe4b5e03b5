"""Radical-tracked verification of the imaginary-shift deformation algebra.

The pure-imaginary-shift system is verified at the level its equalities are
actually provable with exact arithmetic: polynomial stand-ins for the
wavefunctions and a rational potential function V.  Square roots never get
evaluated.  They ride along as the factors of one container, PowerProduct,
with exponents in (1/8)Z: a deformed potential is cof * rad^(1/2), a deformed
eigenfunction a longer product.  Every comparison is made on a power that
clears the radicals (the square for the potential product, the 8th power for
the eigenfunctions; an exact rational-function identity), plus, for the
eigenfunctions, a sign check at admissible real sample points, where all
tracked radicands are strictly positive, each factor's sign read by
``RationalFn.sign_at``.  Each check hands its inputs to
``report.check_report`` by their witness keys, V as ``v_num`` and ``v_den``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .determinants import casoratian_imag, imag_shift_points
from .poly import Poly, RationalFn, as_rational_fn, poly_products_equal
from .report import CheckReport, check_report
from .scalars import format_rational, imaginary, rational, require_at_most

HALF = Fraction(1, 2)

# Upper bound of check_prefactor_gg's l and m: the degree of its 8th powers grows
# with l + m, and l = m = 6 takes 0.5 s on a quadratic V, l = m = 8 2.3 s.
MAX_SEED_COUNT = 6


def vv_product(v: RationalFn, gamma, total, j_lo: int, j_hi: int) -> RationalFn:
    """prod_{j=j_lo}^{j_hi} V(x + i(total/2 - j) gamma) V*(x - i(total/2 - j) gamma)."""
    gamma = rational(gamma)
    total = rational(total)
    out = RationalFn.one()
    v_star = v.star()
    for j in range(j_lo, j_hi + 1):
        delta = (total * HALF - j) * gamma
        out = out * v.shift(imaginary(delta)) * v_star.shift(imaginary(-delta))
    return out


class PowerProduct:
    """Product of RationalFn factors raised to exponents in (1/8)Z.

    The one radical-tracking container of the imaginary-shift lab: a deformed
    potential is cof^1 * rad^(1/2), a deformed eigenfunction a product of
    V-product and Casoratian factors.  The k-th power is a plain rational
    function once every exponent times k is an integer; it is compared
    exactly, and the sign at a real sample point is the product of
    integer-exponent factor signs once every fractional-exponent radicand
    checks out strictly positive there.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[tuple[RationalFn, Fraction]] = ()):
        object.__setattr__(self, "factors", tuple(factors))

    def __setattr__(self, name, value):
        raise AttributeError("PowerProduct is immutable")

    def times(self, fn, exponent) -> "PowerProduct":
        exponent = rational(exponent)
        if (exponent * 8).denominator != 1:
            raise ValueError("exponents must be multiples of 1/8")
        return PowerProduct(self.factors + ((as_rational_fn(fn), exponent),))

    def shift(self, delta) -> "PowerProduct":
        return PowerProduct((fn.shift(delta), e) for fn, e in self.factors)

    def star(self) -> "PowerProduct":
        """The *-operation on every factor (exponents are real)."""
        return PowerProduct((fn.star(), e) for fn, e in self.factors)

    def power(self, k: int) -> tuple[list, list]:
        """The k-th power as two factor lists of (Poly, exponent >= 0), its
        numerator's and its denominator's, unexpanded; ValueError if some
        exponent times k is not an integer.  A factor with a negative
        exponent puts its numerator in the denominator's list."""
        tops, bottoms = [], []
        for fn, exponent in self.factors:
            ek = exponent * k
            if ek.denominator != 1:
                raise ValueError(f"exponent {exponent} times {k} is not an integer")
            top, bottom = (fn.num, fn.den) if ek > 0 else (fn.den, fn.num)
            tops.append((top, abs(int(ek))))
            bottoms.append((bottom, abs(int(ek))))
        return tops, bottoms

    def equals_power(self, other: "PowerProduct", k: int) -> bool:
        """Exact equality of the k-th powers, cross-multiplied:
        num * other_den == other_num * den, with both sides handed to
        ``poly_products_equal`` as factor lists, so factors common to both
        sides cancel unexpanded.  A factor that vanishes identically under a
        negative exponent leaves a zero denominator, which the comparison
        treats like any other zero factor."""
        tops, bottoms = self.power(k)
        other_tops, other_bottoms = other.power(k)
        return poly_products_equal(tops + other_bottoms, other_tops + bottoms)

    def sign_at(self, sample) -> int | None:
        """Sign at a real sample; None when it cannot be fixed there.

        Fractional-exponent factors are conjugate-symmetric real units by
        construction (products over conjugate-paired shifts), so each is
        nonnegative at real arguments; the sign is well defined once every
        one is strictly positive (the radicand positivity premise) and every
        integer-exponent factor is real and nonzero.
        """
        sign = 1
        for fn, exponent in self.factors:
            factor_sign = fn.sign_at(sample)
            if not factor_sign or (factor_sign < 0 and exponent.denominator != 1):
                return None     # a pole, a zero or non-real value, a negative radicand
            if factor_sign < 0 and exponent.numerator % 2:
                sign = -sign
        return sign


def deformed_potential_vd(v: RationalFn, seeds: Sequence[Poly], gamma,
                          mu_state: Poly, w: Poly) -> PowerProduct:
    """The deformed potential function of the imaginary-shift system,
    cof * rad^(1/2), with w = W_g[seeds] from the caller:

    rad  = V(x - i M gamma/2) V*(x - i (M+2) gamma/2)
    cof  = [W_g[seeds](x + i g/2) / W_g[seeds](x - i g/2)]
           * [W_g[seeds, mu](x - i g) / W_g[seeds, mu](x)]
    """
    gamma = rational(gamma)
    m_total = len(seeds)
    w_mu = casoratian_imag(list(seeds) + [mu_state], gamma)
    if w.is_zero() or w_mu.is_zero():
        raise ZeroDivisionError("seed Casoratian vanishes identically")
    rad = (v.shift(imaginary(-m_total * gamma * HALF))
           * v.star().shift(imaginary(-(m_total + 2) * gamma * HALF)))
    cof = (RationalFn(w.shift(imaginary(gamma * HALF)), w.shift(imaginary(-gamma * HALF)))
           * RationalFn(w_mu.shift(imaginary(-gamma)), w_mu))
    return PowerProduct().times(cof, 1).times(rad, HALF)


def conjugate_pair_product(v_dv: PowerProduct, m: int, gamma) -> PowerProduct:
    """prod_{j=0}^{m-1} V_Dv(x+i(m/2-j)g) V_Dv*(x-i(m/2-j)g), multiplied
    factor by factor: each factor is a conjugate-symmetric product with real
    coefficients, |...|^2-shaped at real points."""
    v_dv_star = v_dv.star()
    out = PowerProduct()
    for j in range(m):
        delta = (Fraction(m, 2) - j) * gamma
        plus = v_dv.shift(imaginary(delta))
        minus = v_dv_star.shift(imaginary(-delta))
        for (fn_plus, exponent), (fn_minus, _) in zip(plus.factors, minus.factors):
            out = out.times(fn_plus * fn_minus, exponent)
    return out


def _require_nonzero_potential(v: RationalFn) -> None:
    """Every tracked radicand is a V-product, so V = 0 is inadmissible."""
    if v.is_zero():
        raise ValueError("V vanishes identically")


def check_prefactor_gg(v: RationalFn, gamma, l: int, m: int) -> CheckReport:
    """Prefactor collapse for the staged route, verified to the 8th power.

    G(x) = (prod_{j=0}^{l-1} V(x+i(l/2-j)g) V*(x-i(l/2-j)g))^{1/4};
    the claim rewrites prod G(x_j^{(m+1)}) / sqrt(prod G(x_j - ig/2) G(x_j + ig/2))
    as an eighth root of explicit V-products.  l or m above MAX_SEED_COUNT
    raises ValueError.
    """
    gamma = rational(gamma)
    if l < 0 or m < 1:
        raise ValueError("need l >= 0 and m >= 1")
    require_at_most("l", l, MAX_SEED_COUNT)
    require_at_most("m", m, MAX_SEED_COUNT)
    _require_nonzero_potential(v)
    g4 = vv_product(v, gamma, l, 0, l - 1)
    lhs8 = RationalFn.one()
    for delta in imag_shift_points(m + 1, gamma):
        shifted = g4.shift(delta)
        lhs8 = lhs8 * shifted * shifted
    for delta in imag_shift_points(m, gamma):
        lhs8 = lhs8 / (g4.shift(delta + imaginary(-gamma * HALF))
                       * g4.shift(delta + imaginary(gamma * HALF)))
    rhs8 = (vv_product(v, gamma, l + m, 0, l - 1)
            * vv_product(v, gamma, l + m, m, l + m - 1))
    return check_report("idqm.prefactor-gg", lhs8 == rhs8,
                        "G-product to the 8th power", "V-product to the 8th power",
                        {"l": l, "m": m, "gamma": format_rational(gamma),
                         "deg_v": v.reduce().num.degree},
                        dict(v_num=v.num, v_den=v.den, gamma=gamma, l=l, m=m))


def check_potential_product_identity(v: RationalFn, seeds: Sequence[Poly], gamma,
                                     m: int, mu: Poly | None = None) -> CheckReport:
    """Squared form of the staged-potential product collapse.

    prod_{j=0}^{m-1} V_Dv(x+i(m/2-j)g) V_Dv*(x-i(m/2-j)g) equals a square
    root of explicit V-products times the four-point seed-Casoratian ratio;
    both sides are squared, eliminating every radical.
    """
    gamma = rational(gamma)
    if m < 1:
        raise ValueError("need m >= 1")
    _require_nonzero_potential(v)
    l = len(seeds)
    mu = Poly.one() if mu is None else mu
    w = casoratian_imag(seeds, gamma)
    lhs = conjugate_pair_product(deformed_potential_vd(v, seeds, gamma, mu, w), m, gamma)
    shifted = [w.shift(imaginary(k * gamma * HALF)) for k in (-(m + 1), -(m - 1), m + 1, m - 1)]
    four_point = RationalFn(*shifted[:2]) * RationalFn(*shifted[2:])
    rhs = (PowerProduct().times(four_point, 1)
           .times(vv_product(v, gamma, l + m, 0, m - 1)
                  * vv_product(v, gamma, l + m, l, l + m - 1), HALF))
    return check_report("idqm.potential-product", lhs.equals_power(rhs, 2),
                        "squared staged-potential product",
                        "squared V-product times Casoratian ratio",
                        {"l": l, "m": m, "gamma": format_rational(gamma)},
                        dict(v_num=v.num, v_den=v.den, gamma=gamma, seeds=seeds, mu=mu, m=m))


DEFAULT_SAMPLES = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2),
                   Fraction(3), Fraction(-1), Fraction(5), Fraction(-3))


def one_shot_idqm(v: RationalFn, seeds: Sequence[Poly], v_state: Poly,
                  gamma) -> PowerProduct:
    """Radical-tracked deformed eigenfunction, all seeds at once:
    (V-products)^{1/4} W_g[seeds, v](x) / sqrt(W_g[seeds](x-ig/2) W_g[seeds](x+ig/2))."""
    gamma = rational(gamma)
    m_total = len(seeds)
    w = casoratian_imag(seeds, gamma)
    w_v = casoratian_imag(list(seeds) + [v_state], gamma)
    if w.is_zero():
        raise ZeroDivisionError("seed Casoratian vanishes identically")
    return (PowerProduct()
            .times(vv_product(v, gamma, m_total, 0, m_total - 1), Fraction(1, 4))
            .times(RationalFn(w_v), 1)
            .times(RationalFn(w.shift(imaginary(-gamma * HALF)) * w.shift(imaginary(gamma * HALF))),
                   Fraction(-1, 2)))


def staged_idqm(v: RationalFn, dv_seeds: Sequence[Poly], de_seeds: Sequence[Poly],
                v_state: Poly, gamma, mu_state: Poly, w0: Poly) -> PowerProduct:
    """Radical-tracked staged route: virtual stand-ins first, then the
    eigen stand-ins of the intermediate system; w0 = W_g[dv_seeds], from the
    caller.

    Intermediate levels are G * W_g[f, u] / w; rows of the second-stage
    Casoratians factor out (G/w) at the shifted arguments by multilinearity,
    leaving Casoratians of the inner determinants.
    """
    gamma = rational(gamma)
    l = len(dv_seeds)
    m = len(de_seeds)
    g4 = vv_product(v, gamma, l, 0, l - 1)
    if w0.is_zero():
        raise ZeroDivisionError("virtual-seed Casoratian vanishes identically")
    w2 = RationalFn(w0.shift(imaginary(-gamma * HALF)) * w0.shift(imaginary(gamma * HALF)))
    inner = [casoratian_imag(list(dv_seeds) + [u], gamma) for u in de_seeds]
    inner_v = casoratian_imag(list(dv_seeds) + [v_state], gamma)

    out = PowerProduct()
    # Fractional-exponent factors are assembled as conjugate-symmetric real
    # units so that each tracked radicand is |...|^2-shaped at real points.
    # prefactor: (prod_j V_Dv(x+i(m/2-j)g) V_Dv*(x-i(m/2-j)g))^{1/4}
    v_dv = deformed_potential_vd(v, dv_seeds, gamma, mu_state, w0)
    for fn, exponent in conjugate_pair_product(v_dv, m, gamma).factors:
        out = out.times(fn, exponent / 4)
    # second-stage numerator Casoratian: rows factor (G/w)(x_j^{(m+1)})
    g4_rows = RationalFn.one()
    w2_rows = RationalFn.one()
    for delta in imag_shift_points(m + 1, gamma):
        g4_rows = g4_rows * g4.shift(delta)
        w2_rows = w2_rows * w2.shift(delta)
    out = out.times(g4_rows, Fraction(1, 4)).times(w2_rows, Fraction(-1, 2))
    num_det = casoratian_imag(inner + [inner_v], gamma)
    out = out.times(RationalFn(num_det), 1)
    # second-stage denominator: sqrt(W[phi_e..](x-ig/2) W[phi_e..](x+ig/2))
    den_det = casoratian_imag(inner, gamma)
    if den_det.is_zero():
        raise ZeroDivisionError("intermediate Casoratian vanishes identically")
    out = out.times(RationalFn(den_det.shift(imaginary(-gamma * HALF))
                               * den_det.shift(imaginary(gamma * HALF))),
                    Fraction(-1, 2))
    g4_cols = RationalFn.one()
    w2_cols = RationalFn.one()
    for y_off in (imaginary(-gamma * HALF), imaginary(gamma * HALF)):
        for delta in imag_shift_points(m, gamma):
            g4_cols = g4_cols * g4.shift(delta + y_off)
            w2_cols = w2_cols * w2.shift(delta + y_off)
    out = out.times(g4_cols, Fraction(-1, 8)).times(w2_cols, Fraction(1, 4))
    return out


def two_path_compare_idqm(v: RationalFn, dv: Sequence[Poly], de: Sequence[Poly],
                          v_state: Poly, gamma, mu: Poly | None = None) -> CheckReport:
    """One-shot versus staged eigenfunction in radical-tracked form.

    Passes iff the 8th powers agree exactly (zero tolerance) and the signs
    agree at the first sample point where every tracked radicand of both
    sides is strictly positive.  No admissible sample is a distinct
    inconclusive outcome, not a failure.
    """
    gamma = rational(gamma)
    _require_nonzero_potential(v)
    mu = Poly.one() if mu is None else mu
    path_one = one_shot_idqm(v, list(dv) + list(de), v_state, gamma)
    w_first = casoratian_imag(dv, gamma)
    path_two = staged_idqm(v, dv, de, v_state, gamma, mu, w_first)
    exact = path_one.equals_power(path_two, 8)
    sign_note = ""
    inconclusive = False
    signs_agree = True
    if exact:
        # Admissibility mirrors the positivity premise of the real-shift
        # corollary: the first-stage seed Casoratian must be positive at the
        # real sample (virtual-state Casoratians are sign-definite in the
        # physical setting), in addition to every tracked radicand.
        for sample in DEFAULT_SAMPLES:
            if w_first.sign_at(sample) != 1:
                continue
            s1 = path_one.sign_at(sample)
            s2 = path_two.sign_at(sample)
            if s1 is None or s2 is None:
                continue
            signs_agree = s1 == s2
            sign_note = f"signs compared at x={sample}"
            break
        else:
            inconclusive = True
            sign_note = "no admissible sample point (inconclusive sign)"
    return check_report("idqm.two-path", exact and signs_agree,
                        "one-shot radical-tracked eigenfunction (8th power)",
                        "staged radical-tracked eigenfunction (8th power)",
                        {"l": len(dv), "m": len(de), "gamma": format_rational(gamma)},
                        dict(v_num=v.num, v_den=v.den, gamma=gamma, dv=dv, de=de,
                             v_state=v_state, mu=mu),
                        inconclusive, sign_note)
