import itertools
import json
from fractions import Fraction

import pytest

import casorati.determinants as det_mod
import casorati.oqm as oqm_mod
from casorati.cli import main
from casorati.determinants import WronskianOperator, wronskian
from casorati.identities import replay_witness
from casorati.oqm import (
    CensusResult,
    OqmModel,
    SeedDependenceError,
    StateDeletedError,
    build_harmonic_model,
    deformed_eigenfunction,
    deformed_potential,
    degree_census,
    staged_eigenfunction,
    two_path_compare,
    verify_schrodinger,
)
from casorati.poly import ExpPoly, ExpRatio, Poly, RationalFn
from casorati.seeds import krein_adler_check

x = Poly([0, 1])


@pytest.fixture(scope="module")
def model() -> OqmModel:
    return build_harmonic_model(n_max=6, v_max=3)


def test_model_construction_verified(model):
    # load-time checks passed (construction would have raised otherwise)
    assert model.eigen_energy(0) == 0
    assert [model.eigen_energy(n) for n in range(4)] == [0, 2, 4, 6]
    assert [energy for energy, _ in model.aux[:3]] == [-2, -4, -6]
    assert model.eigen(1).p.degree == 1      # first excited level is linear
    assert all(energy < 0 for energy, _ in model.aux)


def test_verify_schrodinger_examples(model):
    phi0 = model.eigen(0)
    assert verify_schrodinger(model.potential, phi0, 1)          # pre-shift
    assert not verify_schrodinger(model.potential, phi0, 3)      # wrong eigenvalue
    assert verify_schrodinger(Poly([-2, 0, 1]), ExpPoly(x, a=-1), 1)
    assert verify_schrodinger(model.potential, model.aux_state(0), -1)


def test_deformed_potential_examples(model):
    assert deformed_potential(model, [model.aux_state(0)]) == RationalFn(Poly([-2, 0, 1]))
    assert deformed_potential(model, []) == RationalFn(model.potential)
    with pytest.raises(SeedDependenceError):
        deformed_potential(model, [model.eigen(0), 2 * model.eigen(0)])


def test_deformed_eigenfunction_examples(model):
    psi0 = model.aux_state(0)
    u_d = deformed_potential(model, [psi0])
    phi_d0 = deformed_eigenfunction(model, [psi0], 0)
    reduced = phi_d0.reduce()
    assert reduced.q.num == -2 * x or reduced.q.num == Poly([0, 1])  # -2x up to normalization
    assert verify_schrodinger(u_d, phi_d0, model.raw_energy(0))
    assert deformed_eigenfunction(model, [], 2).q == RationalFn(model.eigen(2).p)
    with pytest.raises(StateDeletedError):
        deformed_eigenfunction(model, [model.eigen(1)], 1)
    # single eigenstate seed: remaining levels stay exact solutions
    u_d1 = deformed_potential(model, [model.eigen(1)])
    for n in (0, 2, 3):
        phi = deformed_eigenfunction(model, [model.eigen(1)], n)
        assert verify_schrodinger(u_d1, phi, model.raw_energy(model.eigen_energy(n)))


def test_krein_adler_examples():
    assert krein_adler_check([1, 2])
    assert not krein_adler_check([2])
    for n0 in range(4):
        assert krein_adler_check(list(range(n0 + 1)))   # prefix sets always pass
    assert krein_adler_check([])


def test_two_path_trivial_cases(model):
    assert two_path_compare(model, (), (1, 2), 0).passed     # no virtual seeds
    assert two_path_compare(model, (0,), (), 3).passed       # no eigen seeds
    assert two_path_compare(model, (0, 1), (), 4).passed


def test_two_path_mixed_cases(model):
    for d_v, d_e, n in [((0,), (1, 2), 0), ((0, 1), (1, 2), 0),
                        ((0, 1), (1, 2), 3), ((1,), (0, 1), 2)]:
        report = two_path_compare(model, d_v, d_e, n)
        assert report.passed, (d_v, d_e, n)


def test_two_path_full_sweep(model):
    """All (d_v, d_e) with M_v <= 2, M_e <= 2, n <= 4."""
    v_choices = [(), (0,), (1,), (0, 1)]
    e_choices = [(), (1, 2), (0, 1), (2, 3)]
    for d_v, d_e in itertools.product(v_choices, e_choices):
        for n in range(5):
            if n in d_e:
                continue
            assert two_path_compare(model, d_v, d_e, n).passed, (d_v, d_e, n)


def test_seed_order_invariance(model):
    seeds = [model.aux_state(0), model.eigen(1), model.eigen(2)]
    permuted = [model.eigen(2), model.aux_state(0), model.eigen(1)]
    assert deformed_potential(model, seeds) == deformed_potential(model, permuted)
    lhs = deformed_eigenfunction(model, seeds, 0).reduce()
    rhs = deformed_eigenfunction(model, permuted, 0).reduce()
    assert lhs.q.num == rhs.q.num and lhs.q.den == rhs.q.den
    # the Wronskian itself only flips sign under a transposition
    w1 = wronskian(seeds)
    w2 = wronskian([seeds[1], seeds[0], seeds[2]])
    assert w2.p == -w1.p


def test_degree_census_examples(model):
    empty = degree_census(model, (), (), 5)
    assert empty.missing == () and empty.classification == "case-1"
    virtual_only = degree_census(model, (0,), (), 5)
    assert virtual_only.missing == (0,) and virtual_only.classification == "case-1"
    deleted = degree_census(model, (), (1, 2), 6)
    assert deleted.missing == (1, 2) and deleted.classification == "case-2"
    staged = degree_census(model, (), (1, 2), 6, staged=True)
    assert staged == deleted


def test_degree_census_path_independent(model):
    for d_v, d_e in [((0,), (1, 2)), ((0, 1), (1, 2)), ((1,), ())]:
        one = degree_census(model, d_v, d_e, 6)
        two = degree_census(model, d_v, d_e, 6, staged=True)
        assert one == two, (d_v, d_e)


def reduced_census_reference(model, d_v, d_e, n_max, staged=False) -> CensusResult:
    """degree_census read from gcd-reduced quotients, as it was computed
    before the census read them unreduced."""
    seeds = model.seed_list(d_v, d_e)
    k_anchor = wronskian(seeds).p.degree
    degrees = []
    for n in range(n_max + 1):
        if n in d_e:
            continue
        ratio = (staged_eigenfunction(model, d_v, d_e, n) if staged
                 else deformed_eigenfunction(model, seeds, n)).reduce()
        degrees.append(ratio.q.num.degree - ratio.q.den.degree + k_anchor)
    top = max(degrees, default=-1)
    missing = tuple(sorted(set(range(top + 1)) - set(degrees)))
    return CensusResult(tuple(degrees), missing,
                        "case-1" if missing == tuple(range(len(missing))) else "case-2")


def test_census_of_unreduced_quotients_matches_reduced_reference(model):
    """Every admissible {k, k+1} deletion with k <= 3 (and none), 0-3
    virtual labels from {0..3} and n_max <= 6: both paths' census equals
    the reduced-quotient reference."""
    deletions = [()] + [(k, k + 1) for k in range(4)]
    labels = [c for r in range(4) for c in itertools.combinations(range(4), r)]
    classes = set()
    for d_e, d_v in itertools.product(deletions, labels):
        assert krein_adler_check(d_e)
        for n_max in range(7):
            for staged in (False, True):
                got = degree_census(model, d_v, d_e, n_max, staged)
                assert got == reduced_census_reference(model, d_v, d_e, n_max, staged), (
                    d_v, d_e, n_max, staged)
                classes.add(got.classification)
    assert classes == {"case-1", "case-2"}


def test_oqm_run_reduces_only_its_compared_quotients(monkeypatch, tmp_path):
    """`oqm --dv 0 --de 1,2 --n 0` gcd-reduces the two quotients its
    two-path check compares and nothing else: its census of levels 0..6
    reads the unreduced ones."""
    reduce = RationalFn.reduce
    reduced = []

    def counted(self):
        if not self.reduced:
            reduced.append(self)
        return reduce(self)

    monkeypatch.setattr(RationalFn, "reduce", counted)
    out = tmp_path / "oqm.json"
    assert main(["oqm", "--dv", "0", "--de", "1,2", "--n", "0", "--out", str(out)]) == 0
    assert len(reduced) == 2
    checks = {c["identityId"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["oqm.degree-census"]["lhs"] == checks["oqm.degree-census"]["rhs"]


def test_staged_deletion_guard(model):
    with pytest.raises(StateDeletedError):
        staged_eigenfunction(model, (0,), (1, 2), 2)


def test_regularity_probe_reported(model):
    report = two_path_compare(model, (0,), (1, 2), 0)
    assert "denominator_sign_change" in report.params


def test_verify_schrodinger_poly_path_matches_ratio_path(model):
    """A model state checked as an ExpPoly under the Poly potential and as
    an ExpRatio under the RationalFn potential gets the same verdict, at
    the state's raw energy and at wrong ones."""
    states = ([(phi, model.raw_energy(e)) for e, phi in model.levels]
              + [(psi, model.raw_energy(e)) for e, psi in model.aux])
    as_ratio = RationalFn(model.potential)
    for phi, energy in states:
        for trial in (energy, energy + 2, energy - Fraction(1, 3)):
            fast = verify_schrodinger(model.potential, phi, trial)
            slow = verify_schrodinger(as_ratio, ExpRatio.from_exp_polys(phi, ExpPoly.one()), trial)
            assert fast == slow == (trial == energy), (phi, trial)


@pytest.mark.parametrize("sign, label", [(-1, "eigenstate 3"), (1, "negative-energy solution 3")])
def test_perturbed_hermite_state_fails_the_load_time_check(monkeypatch, sign, label):
    """One coefficient of one stored polynomial off by 1/7 makes the
    Schrodinger check reject the state at model build."""
    hermite = oqm_mod.hermite_polynomials

    def perturbed(n_max, s):
        polys = hermite(n_max, s)
        if s == sign:
            polys[3] = polys[3] + Poly([0, Fraction(1, 7)])
        return polys

    monkeypatch.setattr(oqm_mod, "hermite_polynomials", perturbed)
    with pytest.raises(ArithmeticError, match=f"{label} failed the load-time check"):
        build_harmonic_model(6, 4)


@pytest.mark.parametrize("d_v, d_e, n", [((0,), (1, 2), 0), ((0, 1), (1, 2), 0),
                                         ((1,), (3, 4), 2), ((), (1,), 0)])
def test_two_path_quotients_reduce_to_their_value(model, d_v, d_e, n):
    """Both quotients ``oqm.two-path`` reduces equal their reduced forms,
    cross-multiplied: the two paths share ``reduce``, so only this
    comparison sees a reduce that changes a quotient's value."""
    for ratio in (deformed_eigenfunction(model, model.seed_list(d_v, d_e), n),
                  staged_eigenfunction(model, d_v, d_e, n)):
        assert ratio.q.reduce() == ratio.q


@pytest.mark.parametrize("d_v", [(), (0,), (1,), (0, 1)])
def test_verify_schrodinger_rejects_wrong_energy_on_deformed_levels(model, d_v):
    """Acceptance criterion 5's deformed levels solve the deformed equation
    at their raw energy and at no wrong one (E + 2, E - 1/3): a negative
    control of the rational-part check."""
    seeds = model.seed_list(d_v, (1, 2))
    u_d = deformed_potential(model, seeds)
    for n in (0, 3, 4):
        phi = deformed_eigenfunction(model, seeds, n)
        energy = model.raw_energy(model.eigen_energy(n))
        assert verify_schrodinger(u_d, phi, energy), n
        assert not verify_schrodinger(u_d, phi, energy + 2), n
        assert not verify_schrodinger(u_d, phi, energy - Fraction(1, 3)), n


def counted_oqm_run(monkeypatch, tmp_path):
    """`oqm --dv 0,1 --de 1,2 --n 0` through the CLI, recording the size of
    each exact determinant: each minor that the kernel's entry point
    (``maximal_minors``) returns, whichever elimination takes it, and each
    cofactor expansion: (exit code, kernel sizes, cofactor sizes, report)."""
    kernel_sizes, cofactor_sizes = [], []
    minors, cofactor = det_mod.maximal_minors, det_mod.cofactor_det

    def counted_minors(matrix, points=None):
        out = minors(matrix, points)
        kernel_sizes.extend([len(matrix[0]) if matrix else 0] * len(out))
        return out

    def counted_cofactor(matrix):
        cofactor_sizes.append(len(matrix))
        return cofactor(matrix)

    monkeypatch.setattr(det_mod, "maximal_minors", counted_minors)
    monkeypatch.setattr(det_mod, "cofactor_det", counted_cofactor)
    out = tmp_path / "oqm.json"
    code = main(["oqm", "--dv", "0,1", "--de", "1,2", "--n", "0", "--out", str(out)])
    return code, kernel_sizes, cofactor_sizes, json.loads(out.read_text())


def test_oqm_run_takes_few_bareiss_calls(monkeypatch, tmp_path):
    """Each Wronskian of a run is computed once, as minors of the kernel's
    entry point: the k + 1 minors of the four-seed operator, of the
    two-virtual-seed operator and of the operator over its base, each set
    from one shared expansion.  One determinant per Wronskian and per level
    took 38, six at size 5; the over-base Wronskians took 6 cofactor
    expansions besides 8 Bareiss calls."""
    code, sizes, cofactor_sizes, _ = counted_oqm_run(monkeypatch, tmp_path)
    assert code == 0
    assert cofactor_sizes == []
    assert len(sizes) + len(cofactor_sizes) <= 11
    assert max(sizes) <= 4


def test_flipped_operator_cofactor_fails_and_replays(monkeypatch, tmp_path):
    """Negative control: one cofactor of each operator with no base flipped
    fails the run, and the two-path witness replays to the same failure."""
    operator = oqm_mod.wronskian_operator

    def flipped(seeds, base=None):
        op = operator(seeds, base)
        if base is not None or len(op.cofactors) == 1:
            return op
        return WronskianOperator((-op.cofactors[0],) + op.cofactors[1:], op.seed_wronskian)

    monkeypatch.setattr(oqm_mod, "wronskian_operator", flipped)
    code, _, _, payload = counted_oqm_run(monkeypatch, tmp_path)
    assert code == 1
    checks = {c["identityId"]: c for c in payload["checks"]}
    two_path = checks["oqm.two-path"]
    assert not two_path["pass"]
    replayed = replay_witness(two_path["witness"]).to_dict()
    for key in ("pass", "lhs", "rhs", "params"):
        assert replayed[key] == two_path[key]
