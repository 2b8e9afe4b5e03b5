"""The check registry: every check id encodes its inputs into a witness that
replays, on its own, to the same report."""

import dataclasses
import json
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import casorati.identities as identities_mod
import casorati.idqm as idqm_mod
import casorati.oqm as oqm_mod
import casorati.rdqm as rdqm_mod
from casorati.cli import main
from casorati.identities import (
    CHECKS,
    IDENTITY_IDS,
    draw_trial,
    replay_witness,
    run_single_trial,
)
from casorati.poly import ExpRatio, Poly, RationalFn
from casorati.report import encode
from casorati.sampling import SamplerConfig

COMPARED = ("pass", "inconclusive", "lhs", "rhs", "note")


def untagged(params):
    return {k: v for k, v in params.items() if k not in ("trial", "seed")}


def assert_same(got: dict, want: dict):
    """Same verdict, sides, note and params, apart from the trial tags."""
    for key in COMPARED:
        assert got.get(key) == want.get(key), key
    assert untagged(got["params"]) == untagged(want["params"])


def assert_same_report(replayed, original):
    assert_same(replayed.to_dict(), original.to_dict())


def replay_json(witness):
    """Replay a witness as it reads back from a file."""
    return replay_witness(json.loads(json.dumps(witness)))


def test_registry_covers_every_witness_kind():
    assert set(IDENTITY_IDS) < set(CHECKS)
    assert set(CHECKS) - set(IDENTITY_IDS) == {
        "cas-imag.classical-limit", "cas-imag.sum-formula", "oqm.two-path",
        "oqm.degree-census", "idqm.two-path", "idqm.prefactor-gg",
        "idqm.potential-product", "rdqm.two-path", "rdqm.step-replay",
        "rdqm.sign-conjecture", "rdqm.spectrum"}
    assert len(CHECKS) == 29


def test_every_check_of_a_full_run_is_registered(tmp_path):
    """Every check id that `casorati all` emits has a registry row, so any
    of its witnesses can be replayed."""
    out = tmp_path / "report.json"
    main(["all", "--trials", "1", "--out", str(out)])
    emitted = {check["identityId"] for check in json.loads(out.read_text())["checks"]}
    assert emitted == set(CHECKS)


@pytest.mark.parametrize("master_seed", [1, 2, 3])
@pytest.mark.parametrize("identity_id", [*IDENTITY_IDS, "cas-imag.classical-limit"])
def test_seeded_draw_replays_from_its_witness(identity_id, master_seed):
    config = SamplerConfig(trials=1, master_seed=master_seed, max_degree=3)
    inputs, report = draw_trial(identity_id, config, 0)
    witness = {"identityId": identity_id, "inputs": encode(inputs)}
    assert_same_report(replay_json(witness), report)


def test_checkers_are_looked_up_at_call_time(monkeypatch):
    """Sweeps and replays call the checker bound in the module now, so a
    wrapped checker (as a tracer installs) sees every call."""
    calls = []
    original = identities_mod.check_theorem

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(identities_mod, "check_theorem", counted)
    inputs, _ = draw_trial("cas-real.theorem", SamplerConfig(trials=1), 0)
    run_single_trial("cas-real.theorem", SamplerConfig(trials=1), 0)
    replay_witness({"identityId": "cas-real.theorem",
                    "inputs": encode(inputs)})
    assert calls == [("cas-real",)] * 3


def test_every_checker_is_reachable(monkeypatch):
    """Every check_* function runs from a CHECKS row or from the suite
    runner itself, so a tracer that wraps each check_* by name sees them all."""
    called = set()
    for name, fn in list(vars(identities_mod).items()):
        if name.startswith("check_") and callable(fn):
            def wrapper(*args, _name=name, _fn=fn, **kwargs):
                called.add(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(identities_mod, name, wrapper)
    identities_mod.run_identity_suite(SamplerConfig(trials=1, master_seed=3))
    assert called == {name for name in vars(identities_mod) if name.startswith("check_")}


def test_sum_formula_replays_from_its_witness():
    report = CHECKS["cas-imag.sum-formula"].run({"j_max": 6})
    witness = {"identityId": "cas-imag.sum-formula",
               "inputs": encode({"j_max": 6})}
    assert_same_report(replay_json(witness), report)


@pytest.fixture(scope="module")
def lab_witnessed_checks(tmp_path_factory):
    """Checks with a witness from CLI runs of the idqm and rdqm labs."""
    out = tmp_path_factory.mktemp("labs") / "report.json"
    checks = []
    runs = [(["idqm", "--trials", "24", "--gamma", "1/2"], 3),
            (["rdqm", "--beta", "3", "--tolerance", "1e-76", "--dv=-0.6,-1.7",
              "--de=1,2", "--n", "0", "--window", "60", "--truncation", "40"], 1),
            (["rdqm", "--de=1,2", "--n", "0", "--window", "40", "--truncation", "30",
              "--precision-bits", "128", "--tolerance", "1e-20"], 1)]
    for argv, code in runs:
        assert main([*argv, "--out", str(out)]) == code
        checks += [c for c in json.loads(out.read_text())["checks"] if "witness" in c]
    return checks


@pytest.mark.parametrize("identity_id", ["idqm.two-path", "rdqm.two-path", "rdqm.step-replay"])
def test_lab_witnesses_replay(identity_id, lab_witnessed_checks):
    checks = [c for c in lab_witnessed_checks if c["identityId"] == identity_id]
    assert checks
    for check in checks:
        assert_same(replay_json(check["witness"]).to_dict(), check)


def test_lab_checks_that_never_fail_still_replay(monkeypatch):
    """A corrupted helper makes each check fail; its witness then replays,
    under the same corruption, to the same failure."""
    x = Poly([0, 1])
    v = RationalFn(x * x + 2, x + 3)
    staged = oqm_mod.staged_eigenfunction

    def doubled(*a):
        phi = staged(*a)
        return ExpRatio(phi.q * 2, *phi.pair)

    monkeypatch.setattr(oqm_mod, "staged_eigenfunction", doubled)
    half_steps = idqm_mod.imag_shift
    monkeypatch.setattr(idqm_mod, "imag_shift", lambda f, k, g: half_steps(f, k + 1, g))
    vd = idqm_mod.deformed_potential_vd
    monkeypatch.setattr(idqm_mod, "deformed_potential_vd", lambda *a: vd(*a).times(2, 1))
    model = oqm_mod.build_harmonic_model(4, 2)
    reports = [oqm_mod.two_path_compare(model, [0], [1, 2], 0),
               idqm_mod.check_prefactor_gg(v, 1, 1, 2),
               idqm_mod.check_potential_product_identity(v, [x + 1], 1, 1, x - 2)]
    for report in reports:
        assert not report.passed and report.witness is not None
        assert_same_report(replay_json(report.witness), report)


def test_corrupted_deformed_potential_fails_through_the_trial_path(monkeypatch):
    """A seeded idQM trial hands its checks one shared stage; the stage is
    built through the module's helpers, so a corrupted V_Dv fails the
    potential-product and two-path checks of the trial, and each witness
    replays, under the same corruption, to the same failure."""
    vd = idqm_mod.deformed_potential_vd
    monkeypatch.setattr(idqm_mod, "deformed_potential_vd", lambda *a: vd(*a).times(2, 1))
    prefactor, potential, two_path = identities_mod.idqm_trial(42, 0, Fraction(1), 2, 2, 2)
    assert prefactor.passed
    for report in (potential, two_path):
        assert not report.passed and report.witness is not None
        assert_same_report(replay_json(report.witness), report)


def test_rdqm_two_path_library_witness_replays(monkeypatch):
    """Acceptance criterion 8's epsilon-parity control calls
    two_path_compare_rdqm as a library function; its witness carries the
    model and tolerance, so it replays, under the same corruption, to the
    same failure."""
    true_sign = rdqm_mod.sign_factor
    monkeypatch.setattr(rdqm_mod, "sign_factor", lambda energies: -true_sign(energies))
    model = rdqm_mod.build_meixner_model(Fraction(2), Fraction(1, 3), n_max=8, x_max=80,
                                         precision_bits=256)
    report = rdqm_mod.two_path_compare_rdqm(model, [Fraction(-3, 5), Fraction(-17, 10)],
                                            [1, 2], 0, mpmath.mpf(10) ** -25,
                                            compare_up_to=30)
    assert not report.passed and report.witness is not None
    assert_same_report(replay_json(report.witness), report)


STEP_MODEL = dict(beta=Fraction(2), c=Fraction(1, 3), n_max=8, x_max=80, precision_bits=256)


@pytest.mark.parametrize("dv,flip_parity", [
    (["-0.6", "-1.7"], True),     # every step fails
    ([], False),                  # the anchor assumption is violated
])
def test_rdqm_step_replay_library_witness(monkeypatch, tmp_path, dv, flip_parity):
    """darboux_step_replay called as a library function writes the witness the
    CLI writes for the same run, and it replays to the same report.  The
    first case flips the parity of the sign factor (a corruption under which
    every step fails); the second violates the sgn W_C anchor assumption."""
    if flip_parity:
        true_sign = rdqm_mod.sign_factor
        monkeypatch.setattr(rdqm_mod, "sign_factor",
                            lambda energies: true_sign(energies) * (-1) ** len(energies))
    argv = ["rdqm", "--dv=" + ",".join(dv), "--de=1,2", "--n", "0"]
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 1
    cli_steps = {c["params"]["s"]: c for c in json.loads(out.read_text())["checks"]
                 if c["identityId"] == "rdqm.step-replay" and "witness" in c}
    assert sorted(cli_steps) == (list(range(4)) if flip_parity else [0, 1])
    model = rdqm_mod.build_meixner_model(**STEP_MODEL)
    for s, check in cli_steps.items():
        report = rdqm_mod.darboux_step_replay(model, dv, [1, 2], 0, s, "1e-25",
                                              compare_up_to=40)
        assert report.witness == check["witness"]
        assert replay_json(report.witness).to_dict() == report.to_dict()


def _census_disagrees(monkeypatch):
    """The staged degree census gains a degree the one-shot one lacks."""
    census = oqm_mod.degree_census

    def disagreeing(model, d_v, d_e, n_max, staged=False):
        result = census(model, d_v, d_e, n_max, staged)
        return dataclasses.replace(result, degrees=result.degrees + (99,)) if staged else result

    monkeypatch.setattr(oqm_mod, "degree_census", disagreeing)


def _sign_conjecture_false(monkeypatch):
    true_sign = rdqm_mod.sign_factor
    monkeypatch.setattr(rdqm_mod, "sign_factor", lambda energies: -true_sign(energies))


def _spectrum_truncation_sensitive(monkeypatch):
    """The second, larger truncation's eigenvalues move by 1e-6; the first's stay."""
    eigenvalues = rdqm_mod.lowest_eigenvalues

    def moved(diag, off, k):
        values = eigenvalues(diag, off, k)
        return values if len(diag) <= TRUNCATION else [v + mpmath.mpf(10) ** -6 for v in values]

    monkeypatch.setattr(rdqm_mod, "lowest_eigenvalues", moved)


TRUNCATION = 20
SMALL_RDQM = ["--window", "40", "--truncation", str(TRUNCATION), "--precision-bits", "128",
              "--tolerance", "1e-20"]


@pytest.mark.parametrize("identity_id, argv, corrupt, note", [
    ("oqm.degree-census", ["oqm", "--dv", "0", "--de", "1,2", "--n", "0"],
     _census_disagrees, None),
    ("rdqm.sign-conjecture", ["rdqm", "--dv=-0.6", "--n", "0", *SMALL_RDQM],
     _sign_conjecture_false, "sign conjecture violated on window (reported, not failed)"),
    ("rdqm.spectrum", ["rdqm", "--dv=-0.6,-1.7", "--de=1,2", "--n", "0", *SMALL_RDQM],
     _spectrum_truncation_sensitive, "truncation-sensitive"),
])
def test_cli_checks_replay_under_negative_control(monkeypatch, tmp_path, capsys,
                                                 identity_id, argv, corrupt, note):
    """A corruption makes the census fail, or the sign conjecture or the
    spectrum inconclusive; the report then carries a witness, which replays,
    under the same corruption, to the same report through replay_witness and
    through `casorati <lab> --replay`."""
    corrupt(monkeypatch)
    out = tmp_path / "report.json"
    main([*argv, "--out", str(out)])
    (check,) = [c for c in json.loads(out.read_text())["checks"]
                if c["identityId"] == identity_id]
    assert (not check["pass"]) if note is None else (check["inconclusive"] and
                                                      check["note"] == note)
    assert check["witness"]["identityId"] == identity_id
    assert replay_json(check["witness"]).to_dict() == check
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(check["witness"]))
    capsys.readouterr()
    assert main([argv[0], "--replay", str(path)]) == (3 if check["pass"] else 1)
    assert json.loads(capsys.readouterr().out) == check


def test_cas_real_corollary_witness_without_v_replays():
    """check_cas_real_corollary takes v = None, which its witness leaves out."""
    inputs, _ = draw_trial("cas-real.corollary", SamplerConfig(trials=1), 0)
    report = CHECKS["cas-real.corollary"].run({**inputs, "v": None})
    witness = {"identityId": "cas-real.corollary",
               "inputs": encode({**inputs, "v": None})}
    assert "v" not in witness["inputs"]
    assert replay_json(witness).to_dict() == report.to_dict()


def test_rdqm_library_witness_without_compare_up_to_replays(monkeypatch):
    """A None input is left out of the witness; the replay reads the absent
    compare_up_to as None again."""
    true_sign = rdqm_mod.sign_factor
    monkeypatch.setattr(rdqm_mod, "sign_factor", lambda energies: -true_sign(energies))
    model = rdqm_mod.build_meixner_model(Fraction(2), Fraction(1, 3), n_max=4, x_max=24,
                                         precision_bits=128)
    report = rdqm_mod.two_path_compare_rdqm(model, [Fraction(-3, 5), Fraction(-17, 10)],
                                            [1, 2], 0, "1e-20")
    assert not report.passed and "compare_up_to" not in report.witness["inputs"]
    assert replay_json(report.witness).to_dict() == report.to_dict()


SMALL_RDQM_MODEL = {"beta": "2", "c": "1/3", "n_max": 4, "window": 24, "precision_bits": 128,
                    "dv_energies": ["-3/5"], "de_labels": []}
IDQM_V = {"v_num": ["3", "1"], "v_den": ["1"], "gamma": "1"}
LAB_WITNESS_INPUTS = {
    "oqm.two-path": {"d_v": [0], "d_e": [1, 2], "n": 0},
    "oqm.degree-census": {"d_v": [0], "d_e": [1, 2], "n_max": 4},
    "idqm.prefactor-gg": {**IDQM_V, "l": 1, "m": 1},
    "idqm.potential-product": {**IDQM_V, "seeds": [["1", "1"]], "mu": ["-2", "1"], "m": 1},
    "idqm.two-path": {**IDQM_V, "dv": [["0", "1"]], "de": [["1", "1"]],
                      "v_state": ["0", "0", "1"], "mu": ["1"]},
    "rdqm.two-path": {**SMALL_RDQM_MODEL, "n": 0, "tolerance": "1e-20", "compare_up_to": 10},
    "rdqm.step-replay": {**SMALL_RDQM_MODEL, "n": 0, "s": 0, "tolerance": "1e-20",
                         "compare_up_to": 10},
    "rdqm.sign-conjecture": SMALL_RDQM_MODEL,
    "rdqm.spectrum": {**SMALL_RDQM_MODEL, "truncation": 10, "eigen_count": 3},
    "cas-imag.sum-formula": {"j_max": 3},
}


def valid_witness_inputs(identity_id: str) -> dict:
    """Inputs of a witness that replays without error: a seeded draw for the
    identity rows, a small instance for the others."""
    if identity_id in LAB_WITNESS_INPUTS:
        return LAB_WITNESS_INPUTS[identity_id]
    config = SamplerConfig(trials=1, master_seed=1, max_degree=2)
    return encode(draw_trial(identity_id, config, 0)[0])


# Any JSON value, kept small: replay inputs have no upper bounds yet, and a
# large count (j_max = 10**11, say) would run for hours.
SCALARS = (st.integers(-3, 12) | st.booleans() | st.floats(allow_nan=False, allow_infinity=False)
           | st.text(max_size=4) | st.none())
JSON_VALUES = (SCALARS | st.lists(SCALARS | st.lists(st.text(max_size=3), max_size=2), max_size=3)
               | st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))


@pytest.mark.parametrize("identity_id", sorted(CHECKS))
def test_replay_of_any_one_drawn_value_exits_cleanly(identity_id, tmp_path, capsys):
    """One key of a valid witness takes any small JSON value: the replay
    passes, fails, is inconclusive or is one configuration-error line, and
    never raises out of main."""
    inputs = valid_witness_inputs(identity_id)
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"identityId": identity_id, "inputs": inputs}))
    assert main(["identities", "--replay", str(path)]) in (0, 1, 3)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(key=st.sampled_from(sorted(inputs)), value=JSON_VALUES)
    def replay_with(key, value):
        path.write_text(json.dumps({"identityId": identity_id,
                                    "inputs": {**inputs, key: value}}))
        capsys.readouterr()
        code = main(["identities", "--replay", str(path)])
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert capsys.readouterr().err.count("\n") == 1

    replay_with()
