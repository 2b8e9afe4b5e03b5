import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import casorati.cli as cli_mod
import casorati.identities as identities_mod
import casorati.idqm as idqm_mod
from casorati.idqm import (
    DEFAULT_SAMPLES,
    HALF,
    Atom,
    PowerProduct,
    Shifted,
    check_potential_product_identity,
    check_prefactor_gg,
    deformed_potential_vd,
    imag_shift,
    two_path_compare_idqm,
    vv_product,
)
from casorati.determinants import casoratian_imag
from casorati.poly import Poly, RationalFn, as_rational_fn, poly_products_equal
from casorati.sampling import random_poly
from casorati.scalars import GaussianRational, rational
from test_poly import rational_sign_at

x = Poly([0, 1])
i = GaussianRational(0, 1)


def rf_shift(fn: RationalFn, delta) -> RationalFn:
    return RationalFn(fn.num.shift(delta), fn.den.shift(delta))


def rf_star(fn: RationalFn) -> RationalFn:
    """Coefficientwise conjugation of numerator and denominator."""
    return RationalFn(fn.num.conjugate_coeffs(), fn.den.conjugate_coeffs())


class RefPowerProduct:
    """The reference for PowerProduct: the container as it was while its
    factors were RationalFns, multiplied out by every product, shift
    (``rf_shift``) and star (``rf_star``), each factor's sign read by
    ``rational_sign_at``."""

    def __init__(self, factors=()):
        self.factors = tuple(factors)

    def times(self, fn, exponent) -> "RefPowerProduct":
        return RefPowerProduct(self.factors + ((as_rational_fn(fn), rational(exponent)),))

    def power(self, k: int) -> tuple[list, list]:
        tops, bottoms = [], []
        for fn, exponent in self.factors:
            ek = exponent * k
            if ek.denominator != 1:
                raise ValueError(f"exponent {exponent} times {k} is not an integer")
            top, bottom = (fn.num, fn.den) if ek > 0 else (fn.den, fn.num)
            tops.append((top, abs(int(ek))))
            bottoms.append((bottom, abs(int(ek))))
        return tops, bottoms

    def equals_power(self, other: "RefPowerProduct", k: int) -> bool:
        tops, bottoms = self.power(k)
        other_tops, other_bottoms = other.power(k)
        return poly_products_equal(tops + other_bottoms, other_tops + bottoms)

    def sign_at(self, sample) -> int | None:
        sign = 1
        for fn, exponent in self.factors:
            factor_sign = rational_sign_at(fn, sample)
            if not factor_sign or (factor_sign < 0 and exponent.denominator != 1):
                return None
            if factor_sign < 0 and exponent.numerator % 2:
                sign = -sign
        return sign


def expanded(power) -> tuple[Poly, Poly]:
    """A ``PowerProduct.power`` pair of atom counts, multiplied out."""
    def product(counts):
        out = Poly.one()
        for atom, e in counts.items():
            out = out * atom.poly() ** e
        return out
    return tuple(product(side) for side in power)


def test_star_examples():
    f = Shifted.of(x + i)
    assert f.star() == Shifted.of(x - i) and f.star().expand() == RationalFn(x - i)
    real = Shifted.of(RationalFn(x * x + 2, x + 1))
    assert real.star() == real
    rng = random.Random(1)
    for _ in range(10):
        a = RationalFn(random_poly(rng, 3, 5), random_poly(rng, 2, 5, nonzero=True))
        b = RationalFn(random_poly(rng, 3, 5) + random_poly(rng, 3, 5) * i,
                       random_poly(rng, 2, 5, nonzero=True) + random_poly(rng, 2, 5) * i)
        sa, sb = Shifted.of(a), Shifted.of(b)
        assert (sa * sb).star() == sa.star() * sb.star()
        assert (sa * sb).star().expand() == rf_star(a * b)
        assert sa.star().star() == sa and sb.star().star() == sb
        shifted = imag_shift(sb, 3, HALF)
        assert shifted.star() == imag_shift(sb.star(), -3, HALF)
        assert shifted.star().expand() == rf_star(rf_shift(b, GaussianRational(0, Fraction(3, 4))))


def test_vv_product_is_star_invariant():
    v = RationalFn(x * x + x + 1, x + 3)
    out = vv_product(v, Fraction(1, 2), 3, 0, 2)
    assert out.star() == out   # conjugation-symmetric product has real coefficients


def test_deformed_potential_vd_m0(model_v=RationalFn(x + 2)):
    vd = deformed_potential_vd(model_v, [], Fraction(1), Poly.one(), Poly.one())
    (cof, cof_exponent), (rad, rad_exponent) = vd.factors
    assert (cof_exponent, rad_exponent) == (1, HALF)
    assert cof == RationalFn(1)
    assert rad == model_v * rf_shift(rf_star(model_v), GaussianRational(0, -1))


def test_deformed_potential_vd_trivial_v():
    vd = deformed_potential_vd(RationalFn(Poly.one()), [x * x], Fraction(1), Poly.one(),
                               casoratian_imag([x * x], 1))
    (cof, _), (rad, _) = vd.factors
    assert rad == RationalFn(1)
    # pure Casoratian ratio survives
    assert cof != RationalFn(1)


def test_power_product_shift_and_star():
    a = PowerProduct().times(RationalFn(x + i, x - 2), 1).times(RationalFn(x + 1), HALF)
    # x -> x + i is two half steps of gamma = 1
    shifted = PowerProduct((imag_shift(fn, 2, 1), e) for fn, e in a.factors)
    assert [e for _, e in shifted.factors] == [1, HALF]
    assert [fn for fn, _ in shifted.factors] == [RationalFn(x + 2 * i, x + i - 2),
                                                 RationalFn(x + 1 + i)]
    # each shifted factor's star is the starred factor at the conjugated shift
    assert ([fn.star() for fn, _ in shifted.factors]
            == [imag_shift(fn.star(), -2, 1) for fn, _ in a.factors]
            == [rf_shift(rf_star(fn.expand()), -i) for fn, _ in a.factors])
    # a shift and its inverse give the unshifted atoms back, so they cancel by index
    assert all((back.num, back.den) == (fn.num, fn.den) for (fn, _), back
               in zip(a.factors, (imag_shift(fn, -2, 1) for fn, _ in shifted.factors)))


def test_power_product_powers_and_sign():
    a = PowerProduct().times(RationalFn(x), 1).times(RationalFn(x + 1), HALF)
    assert expanded(a.power(2)) == (x * x * (x + 1), Poly.one())
    assert a.times(2, 1).times(RationalFn(x + 1), HALF).equals_power(
        PowerProduct().times(4 * x * x * (x + 1) ** 2, HALF), 2)
    assert a.equals_power(PowerProduct().times(RationalFn(x * x * (x + 1)), HALF), 2)
    assert not a.equals_power(PowerProduct().times(RationalFn(-x * x * (x + 1)), HALF), 2)
    assert expanded(PowerProduct().times(RationalFn(x + 1, x), Fraction(-3, 8)).power(8)) == (
        x ** 3, (x + 1) ** 3)
    with pytest.raises(ValueError):
        a.power(1)            # (x + 1)^(1/2) is no rational function
    assert a.sign_at(Fraction(1)) == 1
    assert a.sign_at(Fraction(-1, 2)) == -1
    assert a.sign_at(Fraction(-3)) is None   # radicand negative there
    assert a.sign_at(Fraction(-1)) is None   # radicand zero there
    assert a.sign_at(Fraction(0)) is None    # integer-exponent factor zero there


def test_power_product_power_lists():
    """power(k) counts each factor's atoms, its numerator's on top for a
    positive exponent and below for a negative one; with exponent 0 they are
    counted at 0, and a factor 1 has no atom."""
    fn = RationalFn(x + 1, x - 2)
    tops, bottoms = (PowerProduct().times(fn, HALF).times(fn, Fraction(-1, 8))
                     .times(RationalFn(x), 0).power(8))
    atom = {p: Atom(p, False, 0, 0) for p in (x + 1, x - 2, x)}
    assert dict(tops) == {atom[x + 1]: 4, atom[x - 2]: 1}
    assert dict(bottoms) == {atom[x - 2]: 4, atom[x + 1]: 1, atom[x]: 0}


def reference_equals_power(a: PowerProduct, b: PowerProduct, k: int) -> bool:
    """equals_power with both k-th powers expanded and cross-multiplied."""
    num, den = expanded(a.power(k))
    other_num, other_den = expanded(b.power(k))
    return num * other_den == other_num * den


def test_equals_power_cancels_shared_factors():
    i = GaussianRational(0, 1)
    v = RationalFn(x * x + i, x + 3)
    w = RationalFn(x - 2, x * x + 1)
    a = PowerProduct().times(v, HALF).times(w, Fraction(-3, 8)).times(x + 1, 1)
    # the same factors in another order, one of them split in two
    b = (PowerProduct().times(x + 1, 1).times(w, Fraction(-1, 4)).times(v, HALF)
         .times(w, Fraction(-1, 8)))
    assert a.equals_power(b, 8) and b.equals_power(a, 8)
    # a factor moved from the top of one side to the bottom of the other
    assert a.times(w, 1).equals_power(b.times(RationalFn(w.den, w.num), -1), 8)
    # negative controls: one coefficient of one copy of a shared factor, a scalar
    v_bent = RationalFn(x * x + i + Fraction(1, 10 ** 9), x + 3)
    bent = PowerProduct(((Shifted.of(v_bent), HALF),) + b.factors[:2] + b.factors[3:])
    assert not a.equals_power(bent, 8)
    assert not a.equals_power(b.times(2, Fraction(1, 8)), 8)
    zero = RationalFn(Poly.zero())
    cases = [
        (a, b), (a.times(v, 1), b), (a, b.times(x, 0)),
        # zero numerators, zero denominators (a zero factor under a negative
        # exponent), on one side and on both
        (a.times(zero, 1), b.times(zero, HALF)), (a.times(zero, 1), b),
        (a.times(zero, -1), b.times(zero, Fraction(-1, 8))), (a.times(zero, -1), b),
        (a.times(zero, 1), b.times(zero, -1)), (a.times(zero, 0), b),
        (PowerProduct(), PowerProduct()), (PowerProduct(), PowerProduct().times(1, 1)),
        (PowerProduct().times(v, 1), PowerProduct().times(v, 1)),
    ]
    for lhs, rhs in cases:
        assert lhs.equals_power(rhs, 8) == reference_equals_power(lhs, rhs, 8), (lhs, rhs)
    assert a.times(zero, 1).equals_power(b.times(zero, HALF), 8)
    assert not a.times(zero, -1).equals_power(b, 8)
    assert a.times(zero, 0).equals_power(b, 8)
    with pytest.raises(ValueError):
        a.equals_power(b.times(w, Fraction(1, 8)), 4)


def test_atom_sign_reader_cases():
    """Shifted.sign_at reads num * conj(den) off the atoms' values: the
    real-point cases of rational_sign_at's table (poles and 0/0 included),
    then shifted and starred atoms of non-real bases."""
    cases = [(RationalFn(x, x - 1), 1, None), (RationalFn(x - 1, x - 1), 1, None),
             (RationalFn(Poly.zero(), x - 1), 1, 0), (RationalFn(1, x + i), 0, None),
             (RationalFn(i, x + i), 0, 1), (RationalFn(x, 1 - x), 2, -1)]
    for fn, sample, sign in cases:
        assert Shifted.of(fn).sign_at(sample) == rational_sign_at(fn, sample) == sign
    up = imag_shift(x - i, 2, 1)                   # x - i + i = x
    down = imag_shift(x + i, 2, 1).star()          # star(x + 2i) = x - 2i
    assert [up.sign_at(t) for t in (2, 0, -1)] == [1, 0, -1]
    assert down.sign_at(0) is None and (down * down.star()).sign_at(0) == 1
    assert (Shifted() / up).sign_at(0) is None     # a pole at a shifted atom
    assert (imag_shift(x + i, -2, 1).star() / 3).sign_at(-1) == -1   # star(x - i + i) = x


gaussian_coeffs = st.builds(GaussianRational, st.integers(-3, 3),
                            st.one_of(st.just(0), st.integers(-3, 3)))
gaussian_bases = st.builds(lambda low, lead: Poly(low + [lead]),
                           st.lists(gaussian_coeffs, min_size=1, max_size=2),
                           st.builds(GaussianRational, st.sampled_from([1, -1, 2, -3]),
                                     st.integers(-3, 3)))
# A term of a drawn product: base index, half steps, star, conjugate pair,
# exponent numerator (over the drawn power k), and how the second product
# reaches it (0: as the first does, 1: by two shifts, 2: moved across the fraction).
terms = st.tuples(st.integers(0, 3), st.integers(-6, 6), st.booleans(), st.booleans(),
                  st.integers(-8, 8), st.integers(0, 2))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_atoms_agree_with_the_expanded_reference(data):
    """Products of shifted, starred and conjugate-paired atoms of a
    Gaussian-coefficient V, seeds and their Casoratian, at gamma in
    {1/2, 1, 2}, agree with the RationalFn-expanded reference: equals_power
    at k = 2 and 8 against a reordered, regrouped second product (one term a
    half step off in some draws), the sign at every default sample, and each
    term's star of a shift against the shift of its star."""
    gamma = data.draw(st.sampled_from([HALF, Fraction(1), Fraction(2)]))
    k = data.draw(st.sampled_from([2, 8]))
    v = RationalFn(data.draw(gaussian_bases), data.draw(gaussian_bases))
    seeds = data.draw(st.lists(gaussian_bases, min_size=1, max_size=2))
    bases = [v, *seeds, casoratian_imag(seeds, gamma)][:4]
    drawn = data.draw(st.lists(terms, min_size=1, max_size=4))
    off = data.draw(st.sampled_from([None, *range(len(drawn))]))

    def build(order, regroup):
        out, ref = PowerProduct(), RefPowerProduct()
        for n in order:
            b, steps, star, pair, e, how = drawn[n]
            fn = bases[b % len(bases)]
            steps += regroup and n == off
            s = (imag_shift(imag_shift(fn, 1, gamma), steps - 1, gamma) if regroup and how == 1
                 else imag_shift(fn, steps, gamma))
            r = rf_shift(as_rational_fn(fn), GaussianRational(0, Fraction(steps, 2) * gamma))
            if star:
                s, r = s.star(), rf_star(r)
            if pair or Fraction(e, k).denominator != 1:
                s, r = s * s.star(), r * rf_star(r)
            if regroup and how == 2 and not r.is_zero():
                s, r, e = Shifted() / s, RationalFn(r.den, r.num), -e
            out, ref = out.times(s, Fraction(e, k)), ref.times(r, Fraction(e, k))
            assert imag_shift(s, 3, gamma).star() == imag_shift(s.star(), -3, gamma)
            assert imag_shift(s, 3, gamma).star().expand() == rf_star(
                rf_shift(r, GaussianRational(0, Fraction(3, 2) * gamma)))
        return out, ref

    lhs, ref_lhs = build(range(len(drawn)), False)
    rhs, ref_rhs = build(data.draw(st.permutations(range(len(drawn)))), True)
    for power in sorted({k, 8}):
        equal = lhs.equals_power(rhs, power)
        assert equal == ref_lhs.equals_power(ref_rhs, power)
        assert equal or off is not None
    for sample in DEFAULT_SAMPLES:
        assert lhs.sign_at(sample) == ref_lhs.sign_at(sample)


def test_prefactor_gg_cases():
    assert check_prefactor_gg(RationalFn(x), Fraction(1), 0, 1).passed
    assert check_prefactor_gg(RationalFn(x), Fraction(1), 1, 1).passed
    rng = random.Random(3)
    for trial in range(6):
        v = RationalFn(random_poly(rng, 2, 5, nonzero=True),
                       random_poly(rng, 1, 5, nonzero=True))
        gamma = rng.choice([Fraction(1), Fraction(1, 2)])
        l_count, m_count = rng.randint(0, 3), rng.randint(1, 3)
        assert check_prefactor_gg(v, gamma, l_count, m_count).passed, (trial, l_count, m_count)


def test_potential_product_cases():
    assert check_potential_product_identity(RationalFn(x + 1), [], Fraction(1), 1).passed
    assert check_potential_product_identity(RationalFn(x + 1), [x * x], Fraction(1), 1).passed
    rng = random.Random(5)
    done = 0
    while done < 6:
        v = RationalFn(random_poly(rng, 2, 5, nonzero=True))
        seeds = [random_poly(rng, 3, 5, nonzero=True) for _ in range(rng.randint(0, 2))]
        mu = random_poly(rng, 2, 5, nonzero=True)
        gamma = rng.choice([Fraction(1), Fraction(1, 2)])
        m_count = rng.randint(1, 2)
        try:
            assert check_potential_product_identity(v, seeds, gamma, m_count, mu).passed
        except ZeroDivisionError:
            continue
        done += 1


def test_potential_product_compares_squares(monkeypatch):
    """Negating one of the two V-products under the square root negates the
    squared right side only: the squares differ, while their 8th powers
    would agree."""
    vv = idqm_mod.vv_product
    monkeypatch.setattr(idqm_mod, "vv_product",
                        lambda v, g, total, lo, hi: (-1) ** (lo == 0) * vv(v, g, total, lo, hi))
    report = check_potential_product_identity(RationalFn(x + 1), [x * x], Fraction(1), 1)
    assert not report.passed and report.witness is not None


def test_two_path_trivial_cases():
    v = RationalFn(x + 2)
    assert two_path_compare_idqm(v, [], [x * x], x ** 3, Fraction(1)).passed
    assert two_path_compare_idqm(v, [x + 3], [], x ** 3, Fraction(1)).passed
    report = two_path_compare_idqm(v, [x * x], [x + 1], x ** 3, Fraction(1))
    assert report.passed and not report.inconclusive


def test_two_path_random_sweep():
    rng = random.Random(29)
    done = 0
    while done < 20:
        v = RationalFn(random_poly(rng, 2, 5, nonzero=True))
        dv = [random_poly(rng, 3, 5, nonzero=True) for _ in range(rng.randint(0, 2))]
        de = [random_poly(rng, 3, 5, nonzero=True) for _ in range(rng.randint(0, 2))]
        v_state = random_poly(rng, 3, 5, nonzero=True)
        mu = random_poly(rng, 2, 5, nonzero=True)
        gamma = rng.choice([Fraction(1), Fraction(1, 2)])
        try:
            report = two_path_compare_idqm(v, dv, de, v_state, gamma, mu)
        except ZeroDivisionError:
            continue
        done += 1
        assert report.passed, report.note


def test_two_path_inconclusive_distinct_from_failure():
    """A broken pairing must FAIL (8th powers differ); an unpinnable sign is
    only inconclusive."""
    v = RationalFn(x + 2)
    good = two_path_compare_idqm(v, [x * x], [x + 1], x ** 3, Fraction(1))
    assert good.passed
    # corrupt path one by comparing against a different v_state
    one = two_path_compare_idqm(v, [x * x], [x + 1], x ** 3 + 1, Fraction(1))
    assert one.passed  # internally consistent, still an identity instance


def test_power_product_exponent_validation():
    with pytest.raises(ValueError):
        PowerProduct().times(RationalFn(x), Fraction(1, 3))


def test_star_compatibility_real_values():
    """Real-coefficient inputs: every squared identity object is real at
    real points."""
    v = RationalFn(x * x + 1, x + 2)
    vd = deformed_potential_vd(v, [x + 1], Fraction(1), Poly.one(), casoratian_imag([x + 1], 1))
    square = RationalFn(*expanded(vd.power(2)))
    atoms = Shifted(*(tuple(side.elements()) for side in vd.power(2)))
    assert atoms == square
    for sample in (Fraction(0), Fraction(1), Fraction(5, 2)):
        assert rational_sign_at(square * rf_star(square), sample) is not None
        assert (atoms * atoms.star()).sign_at(sample) is not None


def test_idqm_run_builds_each_shared_object_once(monkeypatch, tmp_path):
    """`casorati idqm --trials 10 --seed 42`: within a trial no nonempty
    (seeds, gamma) Casoratian is computed twice, the prefactor check runs
    once, and a draw whose Casoratian vanishes reaches no 8th-power or
    squared comparison before it is redrawn."""
    log = []

    def logged(event, fn, key=lambda *a: None):
        def wrapper(*args, **kwargs):
            log.append((event, key(*args)))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli_mod, "idqm_trial", logged("trial", cli_mod.idqm_trial))
    monkeypatch.setattr(idqm_mod, "casoratian_imag",
                        logged("cas", idqm_mod.casoratian_imag,
                               lambda fs, gamma: (tuple(fs), Fraction(gamma))))
    monkeypatch.setattr(idqm_mod, "check_prefactor_gg",
                        logged("prefactor", idqm_mod.check_prefactor_gg))
    monkeypatch.setattr(PowerProduct, "equals_power",
                        logged("compare", PowerProduct.equals_power))
    redrawn = identities_mod._redrawn

    def marked_redrawn(draw, run, what):
        def marked_run(inputs):
            log.append(("draw", None))
            try:
                return run(inputs)
            except ZeroDivisionError:
                log.append(("degenerate", None))
                raise
        return redrawn(draw, marked_run, what)

    monkeypatch.setattr(identities_mod, "_redrawn", marked_redrawn)
    assert cli_mod.main(["idqm", "--trials", "10", "--seed", "42",
                         "--out", str(tmp_path / "r.json")]) in (0, 3)
    trials, draws = [], []
    for event, key in log:
        if event == "trial":
            trials.append([])
        if event == "draw":
            draws.append([])
        trials[-1].append((event, key))
        if draws:
            draws[-1].append(event)
    assert len(trials) == 10
    for events in trials:
        computed = [key for event, key in events if event == "cas" and key[0]]
        assert len(computed) == len(set(computed))
        assert sum(event == "prefactor" for event, _ in events) == 1
    degenerate = [events for events in draws if "degenerate" in events]
    assert degenerate and len(draws) > 10
    assert all("compare" not in events for events in degenerate)


def test_vanishing_seed_casoratian_raises_before_any_comparison(monkeypatch):
    """Linearly dependent virtual seeds (W_g[dv] = 0) raise out of both draw
    checks before any product is compared."""
    compared = []
    monkeypatch.setattr(PowerProduct, "equals_power", lambda *a: compared.append(a))
    v, dv = RationalFn(x + 2), [x + 1, 2 * x + 2]
    assert casoratian_imag(dv, 1).is_zero()
    with pytest.raises(ZeroDivisionError):
        check_potential_product_identity(v, dv, Fraction(1), 1, x)
    with pytest.raises(ZeroDivisionError):
        two_path_compare_idqm(v, dv, [x * x], x ** 3, Fraction(1), x)
    assert not compared


def test_trial_comparisons_expand_only_casoratian_atoms(monkeypatch):
    """Over seeded idQM trials at the CLI defaults, every atom that
    prefactor-gg and potential-product compare cancels by index, so
    ``poly_products_equal`` gets two empty sides from them; two-path hands it
    atoms of the draw's Casoratians and seeds only, never one of V."""
    check, handed, bases, casoratians = [None], [], [], []

    def tagged(name, fn):
        def wrapper(*args, **kwargs):
            check[0] = name
            return fn(*args, **kwargs)
        return wrapper

    for name in ("check_prefactor_gg", "check_potential_product_identity",
                 "two_path_compare_idqm"):
        monkeypatch.setattr(idqm_mod, name, tagged(name, getattr(idqm_mod, name)))
    compare, poly = idqm_mod.poly_products_equal, Atom.poly
    cas = idqm_mod.casoratian_imag
    monkeypatch.setattr(idqm_mod, "poly_products_equal",
                        lambda lhs, rhs: handed.append((check[0], lhs, rhs)) or compare(lhs, rhs))
    monkeypatch.setattr(Atom, "poly",
                        lambda atom: bases.append((check[0], atom.base)) or poly(atom))
    monkeypatch.setattr(idqm_mod, "casoratian_imag",
                        lambda fs, gamma: casoratians.extend([*fs, cas(fs, gamma)])
                        or casoratians[-1])
    expanded_any = False
    for trial in range(12):
        for log in (handed, bases, casoratians):
            log.clear()
        identities_mod.idqm_trial(42, trial, Fraction(1), 2, 2, 2)
        checks = Counter(name for name, _, _ in handed)
        assert checks["check_prefactor_gg"] == checks["check_potential_product_identity"] == 1
        assert checks["two_path_compare_idqm"] == 1
        assert all(lhs == rhs == [] for name, lhs, rhs in handed
                   if name != "two_path_compare_idqm")
        expanded_bases = [base for name, base in bases if name == "two_path_compare_idqm"]
        assert len(expanded_bases) == len(bases)
        assert all(any(base is c for c in casoratians) for base in expanded_bases)
        expanded_any = expanded_any or bool(expanded_bases)
    assert expanded_any
