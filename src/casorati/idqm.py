"""Radical-tracked verification of the imaginary-shift deformation algebra.

The pure-imaginary-shift system is verified at the level its equalities are
actually provable with exact arithmetic: polynomial stand-ins for the
wavefunctions and a rational potential function V.  Square roots never get
evaluated.  They ride along as the factors of one container, PowerProduct,
with exponents in (1/8)Z: a deformed potential is cof * rad^(1/2), a deformed
eigenfunction a longer product.  A factor is a ``Shifted``, a quotient of
atom products kept unexpanded, an ``Atom`` being a Poly at x + i k gamma/2,
its coefficients conjugated when starred.  Every shift is a whole number k
of half steps, made by ``imag_shift``, and it and ``star`` rewrite atom
indices only: star(f(x + i delta)) = f*(x - i delta), so a conjugate pair
f(x + i delta) f*(x - i delta) is s * s.star() of one shift s.  Every
comparison is made on a power that clears the radicals (the square for the
potential product, the 8th power for the eigenfunctions; an exact
rational-function identity): the atoms both sides share cancel by index, and
only the rest is shifted, once, and compared by ``poly_products_equal``.  The
eigenfunctions add a sign check at admissible real sample points, where all
tracked radicands are strictly positive, each factor's sign read off its
atoms' exact values there.  Each check hands its inputs to
``report.check_report`` by their witness keys, V as ``v_num`` and ``v_den``.
A seeded trial builds the G-products (``row_col_products``) and the prefactor
check once, and per draw one ``draw_stage`` that the other two checks share;
a check called without them, as a replay is, builds its own.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import prod
from typing import NamedTuple, Sequence

from .determinants import casoratian_imag
from .poly import Poly, RationalFn, _horner, as_rational_fn, poly_products_equal
from .report import CheckReport, check_report
from .scalars import GaussianRational, format_rational, rational, require_at_most

HALF = Fraction(1, 2)

# Upper bound of check_prefactor_gg's l and m: the degree of its 8th powers grows
# with l + m, and l = m = 6 takes 0.5 s on a quadratic V, l = m = 8 2.3 s.
MAX_SEED_COUNT = 6


class Atom(NamedTuple):
    """base(x + i k gamma/2), base's coefficients conjugated when ``star``.

    Equal atoms are equal polynomials: a real base is never starred, and an
    unshifted atom (k = 0, as a constant always is) has gamma 0."""

    base: Poly
    star: bool
    k: int
    gamma: Fraction | int

    def shifted(self, k: int, gamma) -> "Atom":
        """The atom k half steps i gamma/2 further along."""
        if len(self.base.re) < 2:
            return self
        if self.k and self.gamma != gamma:
            raise ValueError("one atom shifted by half steps of two gammas")
        k += self.k
        return Atom(self.base, self.star, k, gamma if k else 0)

    def starred(self) -> "Atom":
        return Atom(self.base, self.star != any(self.base.im), -self.k, self.gamma)

    def __hash__(self):
        return hash((len(self.base.re), self.star, self.k))

    def poly(self) -> Poly:
        """The atom multiplied out: its base, conjugated if starred, shifted once."""
        base = self.base.conjugate_coeffs() if self.star else self.base
        return base.shift(GaussianRational(0, Fraction(self.k, 2) * self.gamma))

    def value_at(self, sample) -> tuple[int, int]:
        """A positive multiple of the value at a real sample p/q, as a
        Gaussian integer: ``poly._horner`` at x = (xr + i xi)/xd, which is
        1 + (xr - xd + i xi)/xd as ``Poly._at`` reads it, on the base at
        sample + i k gamma/2, or conjugated at sample - i k gamma/2 if starred."""
        (p, q), (gn, gd) = ((n.numerator, n.denominator) for n in (sample, self.gamma))
        xd, xi = 2 * q * gd, (-self.k if self.star else self.k) * gn * q
        re, im = _horner(self.base.re, self.base.im, (2 * p * gd - xd, xi, xd), 0, 1)
        return (re, -im) if self.star else (re, im)


def _products_equal(lhs: Counter, rhs: Counter) -> bool:
    """prod lhs == prod rhs over atom -> exponent counts.  The atoms both
    sides share cancel by index; only the rest is shifted, once, and handed to
    ``poly_products_equal``, which decides zero sides first, so an atom of the
    zero Poly never cancels."""
    common = Counter({atom: e for atom, e in (lhs & rhs).items() if atom.base.re})
    return poly_products_equal([(atom.poly(), e) for atom, e in (lhs - common).items()],
                               [(atom.poly(), e) for atom, e in (rhs - common).items()])


class Shifted:
    """A quotient of two atom products, num / den, never multiplied out:
    ``*`` and ``/`` concatenate the atom tuples, ``imag_shift`` and ``star``
    rewrite the atoms, ``==`` cross-multiplies and cancels by index, and
    ``expand`` gives the RationalFn.  ``of`` takes a scalar, a Poly or a
    RationalFn as unshifted atoms, a factor 1 as none."""

    __slots__ = ("num", "den")

    def __init__(self, num: tuple = (), den: tuple = ()):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Shifted is immutable")

    @staticmethod
    def of(fn) -> "Shifted":
        if isinstance(fn, Shifted):
            return fn
        fn = as_rational_fn(fn)
        return Shifted(*[() if p == Poly.one() else (Atom(p, False, 0, 0),)
                         for p in (fn.num, fn.den)])

    def __mul__(self, other) -> "Shifted":
        other = Shifted.of(other)
        return Shifted(self.num + other.num, self.den + other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Shifted":
        other = Shifted.of(other)
        return Shifted(self.num + other.den, self.den + other.num)

    def __eq__(self, other) -> bool:
        other = Shifted.of(other)
        return _products_equal(Counter(self.num + other.den), Counter(other.num + self.den))

    def star(self) -> "Shifted":
        return Shifted(tuple(a.starred() for a in self.num), tuple(a.starred() for a in self.den))

    def expand(self) -> RationalFn:
        return RationalFn(*[prod((a.poly() for a in atoms), start=Poly.one())
                            for atoms in (self.num, self.den)])

    def sign_at(self, sample) -> int | None:
        """The sign at a real sample, read off num * conj(den) there, a
        positive multiple of the value: -1, 0 or 1; None at a pole of the
        pair or where the value is not real."""
        dens = [atom.value_at(sample) for atom in self.den]
        if (0, 0) in dens:
            return None
        re, im = 1, 0
        for ar, ai in [atom.value_at(sample) for atom in self.num] + [(r, -m) for r, m in dens]:
            re, im = re * ar - im * ai, re * ai + im * ar
        return None if im else (re > 0) - (re < 0)


def imag_shift(f, k: int, gamma) -> Shifted:
    """f(x + i k gamma/2), for f a Shifted or anything ``Shifted.of`` takes:
    every atom moves k half steps, and nothing is shifted or multiplied.
    Every half step of the lab goes through this name."""
    f = Shifted.of(f)
    return Shifted(tuple(a.shifted(k, gamma) for a in f.num),
                   tuple(a.shifted(k, gamma) for a in f.den))


def vv_product(v: RationalFn, gamma, total: int, j_lo: int, j_hi: int) -> Shifted:
    """prod_{j=j_lo}^{j_hi} V(x + i(total/2 - j) gamma) V*(x - i(total/2 - j) gamma),
    each pair s * s.star() of one shift s."""
    v, out = Shifted.of(v), Shifted()
    for j in range(j_lo, j_hi + 1):
        s = imag_shift(v, total - 2 * j, gamma)
        out = out * s * s.star()
    return out


class PowerProduct:
    """Product of Shifted factors raised to exponents in (1/8)Z.

    The one radical-tracking container of the imaginary-shift lab: a deformed
    potential is cof^1 * rad^(1/2), a deformed eigenfunction a product of
    V-product and Casoratian factors.  The k-th power is a plain rational
    function once every exponent times k is an integer; it is compared
    exactly, atoms cancelled by index, and the sign at a real sample point is
    the product of integer-exponent factor signs once every
    fractional-exponent radicand checks out strictly positive there.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[tuple[Shifted, Fraction]] = ()):
        object.__setattr__(self, "factors", tuple(factors))

    def __setattr__(self, name, value):
        raise AttributeError("PowerProduct is immutable")

    def times(self, fn, exponent) -> "PowerProduct":
        exponent = rational(exponent)
        if (exponent * 8).denominator != 1:
            raise ValueError("exponents must be multiples of 1/8")
        return PowerProduct(self.factors + ((Shifted.of(fn), exponent),))

    def power(self, k: int) -> tuple[Counter, Counter]:
        """The k-th power's numerator and denominator, unexpanded, as
        atom -> exponent counts; ValueError if some exponent times k is not
        an integer.  A factor with a negative exponent puts its numerator's
        atoms in the denominator's count."""
        tops, bottoms = Counter(), Counter()
        for fn, exponent in self.factors:
            ek, rest = divmod(exponent.numerator * k, exponent.denominator)
            if rest:
                raise ValueError(f"exponent {exponent} times {k} is not an integer")
            top, bottom = (fn.num, fn.den) if ek > 0 else (fn.den, fn.num)
            for atoms, counts in ((top, tops), (bottom, bottoms)):
                for atom in atoms:
                    counts[atom] += abs(ek)
        return tops, bottoms

    def equals_power(self, other: "PowerProduct", k: int) -> bool:
        """Exact equality of the k-th powers, cross-multiplied:
        num * other_den == other_num * den, the atoms both sides share
        cancelled by index.  A factor that vanishes identically under a
        negative exponent leaves a zero denominator, which the comparison
        treats like any other zero factor."""
        tops, bottoms = self.power(k)
        other_tops, other_bottoms = other.power(k)
        return _products_equal(tops + other_bottoms, other_tops + bottoms)

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
    rad = imag_shift(v, -m_total, gamma) * imag_shift(v, m_total + 2, gamma).star()
    cof = (imag_shift(w, 1, gamma) / imag_shift(w, -1, gamma)
           * (imag_shift(w_mu, -2, gamma) / w_mu))
    return PowerProduct().times(cof, 1).times(rad, HALF)


def conjugate_pair_product(v_dv: PowerProduct, m: int, gamma) -> PowerProduct:
    """prod_{j=0}^{m-1} V_Dv(x+i(m/2-j)g) V_Dv*(x-i(m/2-j)g), multiplied
    factor by factor: each factor is a conjugate-symmetric product with real
    coefficients, |...|^2-shaped at real points, s * s.star() of one shift s."""
    out = PowerProduct()
    for j in range(m):
        for fn, exponent in v_dv.factors:
            s = imag_shift(fn, m - 2 * j, gamma)
            out = out.times(s * s.star(), exponent)
    return out


def _require_nonzero_potential(v: RationalFn) -> None:
    """Every tracked radicand is a V-product, so V = 0 is inadmissible."""
    if v.is_zero():
        raise ValueError("V vanishes identically")


def _half_shift_pair(p: Poly, gamma) -> Shifted:
    """p(x - ig/2) p(x + ig/2)."""
    return imag_shift(p, -1, gamma) * imag_shift(p, 1, gamma)


def row_col_products(fn: Shifted, m: int, gamma) -> tuple[Shifted, Shifted]:
    """fn multiplied over the m + 1 row points x_j^{(m+1)}, and over the 2m column
    points x_j^{(m)} -+ ig/2: for fn = G^4 = vv_product(v, gamma, l, 0, l - 1), a trial's.
    In half steps i g/2 the rows are m, m - 2, ..., -m and the columns
    m - 2, ..., -m (the - ig/2 side) and m, ..., 2 - m (the + ig/2 side)."""
    rows = cols = Shifted()
    for k in range(m, -m - 1, -2):
        rows = rows * imag_shift(fn, k, gamma)
    for k in [*range(m - 2, -m - 1, -2), *range(m, 1 - m, -2)]:
        cols = cols * imag_shift(fn, k, gamma)
    return rows, cols


class Stage(NamedTuple):
    """What a draw's potential-product and two-path checks share."""

    w: Poly                         # W_g[dv]
    pairs: PowerProduct             # conjugate_pair_product(V_Dv, len(de), gamma)
    one_shot: tuple[Poly, Poly]     # W_g[dv, de], W_g[dv, de, v_state]
    staged: tuple[Poly, Poly]       # the second stage's numerator, denominator


def draw_stage(v: RationalFn, dv: Sequence[Poly], de: Sequence[Poly], v_state: Poly,
               gamma, mu: Poly) -> Stage:
    """Each Casoratian of one draw, computed once by the identity of its seeds
    and with W_g[f] = f (so with no virtual seed the staged Casoratians are the
    one-shot ones); a vanishing one raises ZeroDivisionError before any product."""
    gamma = rational(gamma)
    done = {}

    def cas(seeds: list) -> Poly:
        key = tuple(map(id, seeds))
        if key not in done:
            done[key] = seeds[0] if len(seeds) == 1 else casoratian_imag(seeds, gamma)
        return done[key]

    dv, de = list(dv), list(de)
    w_all = cas(dv + de)
    if w_all.is_zero():
        raise ZeroDivisionError("seed Casoratian vanishes identically")
    inner = [cas(dv + [u]) for u in de]
    if cas(inner).is_zero():
        raise ZeroDivisionError("intermediate Casoratian vanishes identically")
    v_dv = deformed_potential_vd(v, dv, gamma, mu, cas(dv))
    return Stage(cas(dv), conjugate_pair_product(v_dv, len(de), gamma),
                 (w_all, cas(dv + de + [v_state])),
                 (cas(inner + [cas(dv + [v_state])]), cas(inner)))


def check_prefactor_gg(v: RationalFn, gamma, l: int, m: int,
                       g4: tuple[Shifted, Shifted] | None = None) -> CheckReport:
    """Prefactor collapse for the staged route, verified to the 8th power.

    G(x) = (prod_{j=0}^{l-1} V(x+i(l/2-j)g) V*(x-i(l/2-j)g))^{1/4};
    the claim rewrites prod G(x_j^{(m+1)}) / sqrt(prod G(x_j - ig/2) G(x_j + ig/2))
    as an eighth root of explicit V-products; the left side's 8th power is
    rows^2 / cols of ``row_col_products``.  l or m above MAX_SEED_COUNT raises ValueError.
    """
    gamma = rational(gamma)
    if l < 0 or m < 1:
        raise ValueError("need l >= 0 and m >= 1")
    require_at_most("l", l, MAX_SEED_COUNT)
    require_at_most("m", m, MAX_SEED_COUNT)
    _require_nonzero_potential(v)
    rows, cols = g4 or row_col_products(vv_product(v, gamma, l, 0, l - 1), m, gamma)
    rhs8 = (vv_product(v, gamma, l + m, 0, l - 1)
            * vv_product(v, gamma, l + m, m, l + m - 1))
    return check_report("idqm.prefactor-gg", rows * rows / cols == rhs8,
                        "G-product to the 8th power", "V-product to the 8th power",
                        {"l": l, "m": m, "gamma": format_rational(gamma),
                         "deg_v": v.reduce().num.degree},
                        dict(v_num=v.num, v_den=v.den, gamma=gamma, l=l, m=m))


def check_potential_product_identity(v: RationalFn, seeds: Sequence[Poly], gamma,
                                     m: int, mu: Poly | None = None,
                                     stage: Stage | None = None) -> CheckReport:
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
    w = stage.w if stage else casoratian_imag(seeds, gamma)
    lhs = (stage.pairs if stage
           else conjugate_pair_product(deformed_potential_vd(v, seeds, gamma, mu, w), m, gamma))
    shifted = [imag_shift(w, k, gamma) for k in (-(m + 1), -(m - 1), m + 1, m - 1)]
    four_point = shifted[0] / shifted[1] * (shifted[2] / shifted[3])
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


def one_shot_idqm(v: RationalFn, gamma, seed_count: int, w: Poly, w_v: Poly) -> PowerProduct:
    """Radical-tracked deformed eigenfunction, all seeds at once, from w = W_g[seeds]
    and w_v = W_g[seeds, v]: (V-products)^{1/4} w_v(x) / sqrt(w(x-ig/2) w(x+ig/2))."""
    return (PowerProduct()
            .times(vv_product(v, gamma, seed_count, 0, seed_count - 1), Fraction(1, 4))
            .times(w_v, 1)
            .times(_half_shift_pair(w, gamma), Fraction(-1, 2)))


def staged_idqm(gamma, m: int, g4: tuple[Shifted, Shifted], stage: Stage) -> PowerProduct:
    """Radical-tracked staged route from a draw's stage and its trial's G-products:
    virtual stand-ins first, then the eigen stand-ins of the intermediate system.

    Intermediate levels are G * W_g[f, u] / w; rows of the second-stage
    Casoratians factor out (G/w) at the shifted arguments by multilinearity,
    leaving Casoratians of the inner determinants.
    """
    w2_rows, w2_cols = row_col_products(_half_shift_pair(stage.w, gamma), m, gamma)
    (g4_rows, g4_cols), (num_det, den_det) = g4, stage.staged
    # Fractional-exponent factors are assembled as conjugate-symmetric real
    # units so that each tracked radicand is |...|^2-shaped at real points.
    # prefactor: (prod_j V_Dv(x+i(m/2-j)g) V_Dv*(x-i(m/2-j)g))^{1/4}
    out = PowerProduct((fn, exponent / 4) for fn, exponent in stage.pairs.factors)
    # second-stage numerator Casoratian: rows factor (G/w)(x_j^{(m+1)})
    out = (out.times(g4_rows, Fraction(1, 4)).times(w2_rows, Fraction(-1, 2))
           .times(num_det, 1))
    # second-stage denominator: sqrt(W[phi_e..](x-ig/2) W[phi_e..](x+ig/2)),
    # its columns factoring (G/w) at x_j^{(m)} -+ ig/2
    return (out.times(_half_shift_pair(den_det, gamma), Fraction(-1, 2))
            .times(g4_cols, Fraction(-1, 8)).times(w2_cols, Fraction(1, 4)))


def two_path_compare_idqm(v: RationalFn, dv: Sequence[Poly], de: Sequence[Poly],
                          v_state: Poly, gamma, mu: Poly | None = None,
                          stage: Stage | None = None,
                          g4: tuple[Shifted, Shifted] | None = None) -> CheckReport:
    """One-shot versus staged eigenfunction in radical-tracked form.

    Passes iff the 8th powers agree exactly (zero tolerance) and the signs
    agree at the first sample point where every tracked radicand of both
    sides is strictly positive.  No admissible sample is a distinct
    inconclusive outcome, not a failure.
    """
    gamma = rational(gamma)
    _require_nonzero_potential(v)
    mu = Poly.one() if mu is None else mu
    stage = stage or draw_stage(v, dv, de, v_state, gamma, mu)
    g4 = g4 or row_col_products(vv_product(v, gamma, len(dv), 0, len(dv) - 1), len(de), gamma)
    path_one = one_shot_idqm(v, gamma, len(dv) + len(de), *stage.one_shot)
    path_two = staged_idqm(gamma, len(de), g4, stage)
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
            if stage.w.sign_at(sample) != 1:
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
