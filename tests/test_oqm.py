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

x = Poly.x()


@pytest.fixture(scope="module")
def model() -> OqmModel:
    return build_harmonic_model(n_max=6, v_max=3)


def test_model_construction_verified(model):
    # load-time checks passed (construction would have raised otherwise)
    assert model.eigen_energy(0) == 0
    assert [model.eigen_energy(n) for n in range(4)] == [0, 2, 4, 6]
    assert [model.aux_energy(v) for v in range(3)] == [-2, -4, -6]
    assert model.eigen(1).p.degree == 1      # first excited level is linear
    assert all(model.aux_energy(v) < 0 for v in range(4))


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


def test_staged_deletion_guard(model):
    with pytest.raises(StateDeletedError):
        staged_eigenfunction(model, (0,), (1, 2), 2)


def test_regularity_probe_reported(model):
    report = two_path_compare(model, (0,), (1, 2), 0)
    assert "denominator_sign_change" in report.params


def test_verify_schrodinger_poly_path_matches_ratio_path(model):
    """The ExpPoly/Poly check of a model state agrees with the ExpRatio
    check, at the state's raw energy and at wrong ones."""
    states = ([(phi, model.raw_energy(e)) for e, phi in model.levels]
              + [(psi, model.raw_energy(e)) for e, psi in model.aux])
    as_ratio = RationalFn(model.potential)
    for phi, energy in states:
        for trial in (energy, energy + 2, energy - Fraction(1, 3)):
            fast = verify_schrodinger(model.potential, phi, trial)
            slow = verify_schrodinger(as_ratio, ExpRatio.from_exp_polys(phi, ExpPoly.one()), trial)
            assert fast == slow == (trial == energy), (phi, trial)


def counted_oqm_run(monkeypatch, tmp_path):
    """`oqm --dv 0,1 --de 1,2 --n 0` through the CLI, recording the size of
    each exact determinant, Bareiss and cofactor: (exit code, Bareiss
    sizes, cofactor sizes, report)."""
    sizes = {"fraction_free_det": [], "cofactor_det": []}
    for name, calls in sizes.items():
        routine = getattr(det_mod, name)

        def counted(matrix, routine=routine, calls=calls):
            calls.append(len(matrix))
            return routine(matrix)

        monkeypatch.setattr(det_mod, name, counted)
    out = tmp_path / "oqm.json"
    code = main(["oqm", "--dv", "0,1", "--de", "1,2", "--n", "0", "--out", str(out)])
    return code, sizes["fraction_free_det"], sizes["cofactor_det"], json.loads(out.read_text())


def test_oqm_run_takes_few_bareiss_calls(monkeypatch, tmp_path):
    """Each Wronskian of a run is computed once, and all of them by Bareiss:
    the k + 1 minors of the four-seed operator, of the two-virtual-seed
    operator and of the operator over its base.  One Bareiss determinant per
    Wronskian and per level took 38, six at size 5; the over-base Wronskians
    took 6 cofactor expansions besides 8 Bareiss calls."""
    code, sizes, cofactor_sizes, _ = counted_oqm_run(monkeypatch, tmp_path)
    assert code == 0
    assert cofactor_sizes == []
    assert len(sizes) + len(cofactor_sizes) <= 11
    assert max(sizes) <= 4


def test_flipped_operator_cofactor_fails_and_replays(monkeypatch, tmp_path):
    """Negative control: one cofactor of each operator with sign flipped
    fails the run, and the two-path witness replays to the same failure."""
    operator = oqm_mod.wronskian_operator

    def flipped(seeds):
        op = operator(seeds)
        if len(op.cofactors) == 1:
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
