"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines with timings.
"""

import time
from fractions import Fraction

import mpmath
import pytest

import casorati.identities as identities_mod
import casorati.rdqm as rdqm_mod
from casorati.determinants import casoratian_imag, casoratian_real, wronskian
from casorati.identities import (
    IDENTITY_IDS,
    check_classical_limit,
    check_sum_formula,
    check_theorem,
    replay_witness,
    run_identity_suite,
    run_single_trial,
)
from casorati.idqm import (
    check_potential_product_identity,
    check_prefactor_gg,
    two_path_compare_idqm,
)
from casorati.oqm import (
    build_harmonic_model,
    deformed_eigenfunction,
    deformed_potential,
    degree_census,
    two_path_compare,
    verify_schrodinger,
)
from casorati.poly import ExpPoly, Poly, RationalFn
from casorati.report import CheckReport
from casorati.sampling import SamplerConfig, random_poly, trial_rng
from casorati.rdqm import (
    build_meixner_model,
    darboux_chain_replay,
    residual,
    spectrum_check,
    two_path_compare_rdqm,
)

x = Poly([0, 1])


def _announce(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} -- {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_identity_suite_200_trials():
    """18 checkers x 200 seeded exact trials, zero tolerance, <= 120 s."""
    started = time.monotonic()
    config = SamplerConfig(trials=200, master_seed=42, max_degree=5, coefficient_bound=9)
    reports = [r for r in run_identity_suite(config) if r.identity_id in IDENTITY_IDS]
    elapsed = time.monotonic() - started
    failures = [r for r in reports if not r.passed]
    assert len(IDENTITY_IDS) == 18
    assert len(reports) == 18 * 200
    _announce(1, not failures and elapsed <= 120,
              f"{len(reports)} exact checks, {len(failures)} failures, {elapsed:.1f}s")


def test_criterion_2_m2_specializations():
    """Theorem m = 2 rows reproduce the three two-column identities, with
    the distinctive x+1 shift in the real-shift right-hand factor."""
    rng = trial_rng(SamplerConfig(master_seed=42), "acceptance.m2", 0)
    ok = True
    for _ in range(25):
        n = rng.randint(0, 3)
        fs = [random_poly(rng, 4, 9, nonzero=(i == 0)) for i in range(n)]
        g, h = random_poly(rng, 4, 9), random_poly(rng, 4, 9)
        ok &= check_theorem("wronskian", [ExpPoly(f, a=-1) for f in fs],
                            [ExpPoly(g, a=-1), ExpPoly(h, a=-1)]).passed
        gamma = rng.choice([Fraction(1), Fraction(1, 2), Fraction(2)])
        ok &= check_theorem("cas-imag", fs, [g, h], gamma).passed
        report = check_theorem("cas-real", fs, [g, h])
        ok &= report.passed
        # the x+1 shift is load-bearing wherever it is observable
        w0 = casoratian_real(fs)
        big = casoratian_real(fs + [g, h])
        ok &= report.rhs == str(w0.shift(1) * big)
        if w0 != w0.shift(1) and not big.is_zero():
            ok &= report.rhs != str(w0 * big)
    _announce(2, ok, "Eqs of the two-column form match the theorems exactly")


def test_criterion_3_sum_formula():
    report = check_sum_formula(10)
    _announce(3, report.passed, "binomial sum formula exact for all j <= 10")


def test_criterion_4_classical_limit_50_triples():
    ok = True
    for trial in range(50):
        rng = trial_rng(SamplerConfig(master_seed=42), "acceptance.limit", trial)
        fs = [random_poly(rng, 3, 9, nonzero=True) for _ in range(3)]
        report = check_classical_limit(fs, Fraction(1), 4)
        ok &= report.passed
    _announce(4, ok, "gamma-scaled Casoratian -> Wronskian, order >= 1, 50 triples")


def test_criterion_5_oqm_pipeline():
    started = time.monotonic()
    model = build_harmonic_model(n_max=6, v_max=3)
    ok = True
    details = []
    for d_v in [(), (0,), (1,), (0, 1)]:
        d_e = (1, 2)
        seeds = model.seed_list(d_v, d_e)
        u_d = deformed_potential(model, seeds)
        for n in (0, 3, 4):
            phi = deformed_eigenfunction(model, seeds, n)
            exact_eq = verify_schrodinger(u_d, phi, model.raw_energy(model.eigen_energy(n)))
            two_path = two_path_compare(model, d_v, d_e, n).passed
            ok &= exact_eq and two_path
            if not (exact_eq and two_path):
                details.append((d_v, n))
        census_one = degree_census(model, d_v, d_e, 6)
        census_two = degree_census(model, d_v, d_e, 6, staged=True)
        ok &= census_one == census_two
    elapsed = time.monotonic() - started
    ok &= elapsed <= 60
    _announce(5, ok, f"harmonic pipeline exact (a,b,c) for dV subsets, {elapsed:.1f}s"
              + (f"; failures {details}" if details else ""))


@pytest.fixture(scope="module")
def meixner_acceptance():
    return build_meixner_model(Fraction(2), Fraction(1, 3), n_max=8, x_max=80,
                               precision_bits=256)


def test_criterion_6_rdqm_pipeline(meixner_acceptance):
    started = time.monotonic()
    model = meixner_acceptance
    tol = mpmath.mpf(10) ** -25
    dv = [Fraction(-3, 5), Fraction(-17, 10)]
    de = [1, 2]

    worst = max(residual(model, model.eigen(n), n) for n in range(model.n_max + 1))
    part_a = worst <= mpmath.mpf(10) ** -30

    part_b = True
    part_c = True
    for n in (0, 3):
        report = two_path_compare_rdqm(model, dv, de, n, tol, compare_up_to=40)
        part_b &= report.passed and mpmath.mpf(report.params["max_relative_deviation"]) <= tol
        part_c &= report.params["sign_identity_all_orderings"]

    spectrum = spectrum_check(model, dv, de, 60, 5,
                              mpmath.mpf(10) ** -8, mpmath.mpf(10) ** -9)
    part_d = (spectrum["matched"] and not spectrum["inconclusive"]
              and spectrum["expected"] == ["0", "3", "4", "5", "6"])

    part_e = True
    for n in (0, 3):
        chain = darboux_chain_replay(model, dv, de, n, tol)
        part_e &= all(r.passed for r in chain)

    elapsed = time.monotonic() - started
    ok = part_a and part_b and part_c and part_d and part_e and elapsed <= 300
    _announce(6, ok,
              f"Meixner pipeline: residuals<=1e-30 {part_a}, two-path<=1e-25 {part_b}, "
              f"sign identity {part_c}, spectrum {part_d}, replay {part_e}, {elapsed:.1f}s")


def test_criterion_7_idqm_algebra():
    ok = True
    for trial in range(50):
        rng = trial_rng(SamplerConfig(master_seed=42), "acceptance.idqm", trial)
        gamma = rng.choice([Fraction(1), Fraction(1, 2)])
        l_count = rng.randint(0, 2)
        m_count = rng.randint(1, 2)
        v = RationalFn(random_poly(rng, 2, 9, nonzero=True))
        for _ in range(20):
            try:
                seeds = [random_poly(rng, 3, 9, nonzero=True) for _ in range(l_count)]
                de = [random_poly(rng, 3, 9, nonzero=True) for _ in range(m_count)]
                v_state = random_poly(rng, 3, 9, nonzero=True)
                mu = random_poly(rng, 2, 9, nonzero=True)
                r1 = check_prefactor_gg(v, gamma, l_count, m_count)
                r2 = check_potential_product_identity(v, seeds, gamma, m_count, mu)
                r3 = two_path_compare_idqm(v, seeds, de, v_state, gamma, mu)
                break
            except ZeroDivisionError:
                continue
        else:
            raise RuntimeError("no nondegenerate draw")
        ok &= r1.passed and r2.passed and r3.passed
    _announce(7, ok, "50 exact trials each: prefactor, potential product, two-path")


def test_criterion_8_negative_controls(monkeypatch, meixner_acceptance):
    outcomes = []

    # (i) corrupt a single Casoratian entry inside the imaginary-shift engine
    original = identities_mod.casoratian_imag

    def corrupted_casoratian(fs, gamma):
        out = original(fs, gamma)
        if len(fs) == 2:   # hit exactly the inner two-point determinants
            return out + Poly.constant(Fraction(1, 3))
        return out

    monkeypatch.setattr(identities_mod, "casoratian_imag", corrupted_casoratian)
    bad = run_single_trial("cas-imag.theorem", SamplerConfig(trials=1, master_seed=42), 0)
    replayed = identities_mod.replay_witness(bad.witness) if bad.witness else None
    outcomes.append(("casoratian-entry", not bad.passed
                     and replayed is not None and not replayed.passed
                     and replayed.lhs == bad.lhs and replayed.rhs == bad.rhs))
    monkeypatch.setattr(identities_mod, "casoratian_imag", original)

    # (ii) corrupt the pairwise-energy sign factor parity
    model = meixner_acceptance
    true_sign = rdqm_mod.sign_factor
    monkeypatch.setattr(rdqm_mod, "sign_factor",
                        lambda energies: -true_sign(energies))
    tol = mpmath.mpf(10) ** -25
    bad_sign = two_path_compare_rdqm(model, [Fraction(-3, 5), Fraction(-17, 10)],
                                     [1, 2], 0, tol, compare_up_to=30)
    outcomes.append(("epsilon-parity", not bad_sign.passed
                     and bad_sign.witness is not None))
    monkeypatch.setattr(rdqm_mod, "sign_factor", true_sign)

    # (iii) corrupt the x+1 shift of the real-shift two-column identity,
    # on an instance where the shift is observable
    rng = trial_rng(SamplerConfig(master_seed=42), "acceptance.controls", 0)
    while True:
        fs = [random_poly(rng, 3, 9, nonzero=True) for _ in range(2)]
        g, h = random_poly(rng, 3, 9, nonzero=True), random_poly(rng, 3, 9, nonzero=True)
        w0 = casoratian_real(fs)
        if w0 != w0.shift(1) and not casoratian_real(fs + [g, h]).is_zero():
            break
    lhs = check_theorem("cas-real", fs, [g, h]).rhs
    unshifted = casoratian_real(fs) * casoratian_real(fs + [g, h])
    shift_report = CheckReport(
        identity_id="cas-real.two-column-shift",
        passed=lhs == str(unshifted),
        lhs=lhs, rhs=str(unshifted),
        witness={"identityId": "cas-real.two-column-shift",
                 "inputs": {"fs": [f.serialize() for f in fs],
                            "g": g.serialize(), "h": h.serialize()}})
    replay_fs = [Poly.deserialize(d) for d in shift_report.witness["inputs"]["fs"]]
    replay_gh = [Poly.deserialize(shift_report.witness["inputs"][key]) for key in "gh"]
    replay_lhs = check_theorem("cas-real", replay_fs, replay_gh).rhs
    replay_unshifted = casoratian_real(replay_fs) * casoratian_real(replay_fs + replay_gh)
    outcomes.append(("x+1-shift", not shift_report.passed
                     and (replay_lhs == str(replay_unshifted)) == shift_report.passed))

    ok = all(flag for _, flag in outcomes)
    _announce(8, ok, "; ".join(f"{name}: {'caught' if flag else 'MISSED'}"
                               for name, flag in outcomes))
