import hashlib
import json
import os
import subprocess
import sys

import pytest

import casorati.determinants as det_mod
from casorati import cli, oqm
from casorati.cli import main, parse_list, read_config_file
from casorati.scalars import rational

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def run_cli(args, env=None):
    proc = subprocess.run([sys.executable, "-m", "casorati.cli", *args],
                          capture_output=True, text=True, env=env or ENV)
    return proc


def test_identities_small_run(tmp_path):
    out = tmp_path / "report.json"
    code = main(["identities", "--trials", "4", "--seed", "42", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["total"] == 18 * 4 + 1 + 4   # suite + sum formula + limits
    assert payload["config"]["trials"] == 4


def test_report_determinism_modulo_timestamp(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["identities", "--trials", "3", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["identities", "--trials", "3", "--seed", "7", "--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    for payload in (a, b):
        payload.pop("timestamp")
        payload.pop("wall_clock_seconds")
    assert a == b


def test_oqm_subcommand(tmp_path):
    out = tmp_path / "oqm.json"
    code = main(["oqm", "--dv", "0", "--de", "1,2", "--n", "0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    ids = {c["identityId"] for c in payload["checks"]}
    assert ids == {"oqm.two-path", "oqm.degree-census"}


def test_rdqm_subcommand_with_csv(tmp_path):
    out = tmp_path / "rdqm.json"
    csv_path = tmp_path / "spectra.csv"
    # leading-dash option values use the --flag=value form; the window must
    # be deep enough for a truncation-insensitive spectrum
    code = main(["rdqm", "--beta", "2", "--c", "1/3", "--dv=-0.6,-1.7",
                 "--de", "1,2", "--n", "0", "--window", "80", "--truncation", "60",
                 "--precision-bits", "192", "--tolerance", "1e-20",
                 "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["failed"] == 0
    text = csv_path.read_text()
    assert "spectrum (bits=192)" in text and "phi_0" in text


def test_unknown_flag_exit_2():
    proc = run_cli(["identities", "--nonsense"])
    assert proc.returncode == 2


def test_unreadable_config_exit_2(tmp_path):
    code = main(["identities", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 3\nseed = 9\n# a comment\n")
    out = tmp_path / "r.json"
    assert main(["identities", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["trials"] == 3 and payload["config"]["seed"] == 9
    # explicit flag beats the file
    assert main(["identities", "--config", str(cfg), "--trials", "2",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["trials"] == 2


@pytest.fixture
def identities_runs(monkeypatch):
    """The args of each run_identities call; the runner runs no suite."""
    seen = []
    monkeypatch.setattr(cli, "run_identities", lambda args: seen.append(args) or [])
    return seen


def test_config_file_explicit_flag_equal_to_default_wins(tmp_path, identities_runs):
    """A flag given on the command line beats the file even when it equals
    the flag's default; the file fills in the flags not given."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 3\nmax-degree = 4\n")
    out = str(tmp_path / "r.json")
    assert main(["identities", "--config", str(cfg), "--trials", "200", "--out", out]) == 0
    assert [(args.trials, args.max_degree) for args in identities_runs] == [(200, 4)]


def test_config_file_values_do_not_outlive_their_run(tmp_path, identities_runs):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 3\n")
    out = str(tmp_path / "r.json")
    assert main(["identities", "--config", str(cfg), "--out", out]) == 0
    assert main(["identities", "--out", out]) == 0
    assert [args.trials for args in identities_runs] == [3, 200]


@pytest.mark.parametrize("text, message", [
    ("nonsense = 1\n", "unknown config key: nonsense"),
    ("beta = 2\n", "unknown config key: beta"),
    ("command = oqm\n", "unknown config key: command"),
    ("trials = abc\n", "{cfg}: argument --trials: invalid int value: 'abc'"),
    ("max-degree = 1.5\n", "{cfg}: argument --max-degree: invalid int value: '1.5'"),
])
def test_config_file_errors_exit_2(tmp_path, identities_runs, capsys, text, message):
    """An unknown key or a value the flag's type rejects is one
    configuration-error line and exit 2, before any suite runs."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["identities", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message.format(cfg=cfg)}\n"
    assert identities_runs == []


def test_runners_are_looked_up_at_call_time(tmp_path, monkeypatch):
    """main calls the run_<command> bound in the module now, for a
    subcommand and under "all", so a wrapped runner (as the benchmark's
    tracer installs) sees every call."""
    calls = []
    original = cli.run_oqm

    def counted(args):
        calls.append((args.dv, args.de, args.n, args.seed))
        return original(args)

    monkeypatch.setattr(cli, "run_oqm", counted)
    for name in ("identities", "idqm", "rdqm"):
        monkeypatch.setattr(cli, f"run_{name}", lambda args: [])
    out = str(tmp_path / "r.json")
    assert main(["oqm", "--de", "1", "--out", out]) == 0
    assert main(["all", "--seed", "5", "--out", out]) == 0
    assert calls == [("", "1", 0, 42), ("0", "1,2", 0, 5)]


def test_replay_reproduces_failure(tmp_path):
    """A witness from a corrupted instance replays to the same failure."""
    from casorati.identities import check_theorem, replay_witness
    from casorati.poly import Poly
    
    x = Poly([0, 1])
    good = check_theorem("cas-real", [x], [Poly.one(), x * x])
    assert good.passed
    # build a witness whose recorded inputs cannot satisfy the identity by
    # swapping lhs/rhs roles: fabricate one via the corrupted-expression route
    witness = {"identityId": "cas-real.theorem",
               "inputs": {"fs": [x.serialize()],
                          "us": [Poly.one().serialize(), (x * x).serialize()]}}
    report = replay_witness(witness)
    assert report.passed  # the instance itself is valid

    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    code = main(["identities", "--replay", str(path)])
    assert code == 0


def test_config_file_precision(tmp_path):
    """The config file's precision-bits sets the rdQM working precision; the
    flag beats it."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("precision-bits = 192\n")
    argv = ["rdqm", "--config", str(cfg), "--dv", "", "--de", "", "--n", "0",
            "--window", "30", "--truncation", "20", "--n-max", "4", "--tolerance", "1e-15"]
    out = tmp_path / "cfg.json"
    # 3 is legitimate here: the small window flags truncation sensitivity
    assert main([*argv, "--out", str(out)]) in (0, 3)
    payload = json.loads(out.read_text())
    assert payload["config"]["precision_bits"] == 192
    assert payload["summary"]["failed"] == 0
    assert main([*argv, "--precision-bits", "128", "--out", str(out)]) in (0, 3)
    assert json.loads(out.read_text())["config"]["precision_bits"] == 128


def test_parse_helpers(tmp_path):
    from fractions import Fraction
    assert parse_list("-0.6,-1.7", rational) == [Fraction(-3, 5), Fraction(-17, 10)]
    assert parse_list("", rational) == []
    assert parse_list('"0, 2"', int) == [0, 2]
    with pytest.raises(ValueError):
        parse_list("1,1.5", int)
    assert main(["oqm", "--de", "1.5"]) == 2
    cfg = tmp_path / "c.cfg"
    cfg.write_text("beta = 5/2\n")
    assert read_config_file(str(cfg)) == {"beta": "5/2"}
    cfg.write_text("not a pair\n")
    with pytest.raises(ValueError):
        read_config_file(str(cfg))


# sha256 of each report without its timestamp and wall_clock_seconds fields,
# recorded from the code before the check registry (identities, oqm) and
# before the Newton-polished spectrum (rdqm); refactors must keep them.
PINNED_REPORTS = [
    (["identities", "--trials", "5", "--seed", "42"],
     "c1b50219fb26f0d44ac4f8b11e91b3675e6696789d6a66b450a4b63dd81e7185"),
    (["oqm", "--dv", "0", "--de", "1,2", "--n", "0"],
     "334d7eaa81a837e1cc895b873d90d4b2a5089aed6e323c528fa6926d6f0428a0"),
    (["rdqm", "--dv=-0.6,-1.7", "--de=1,2", "--n", "0,3"],
     "9950bd354711edd9bfb62d614f27fafc0a8539155b13af810e146bf70bffc16c"),
    (["rdqm", "--dv=-0.6", "--n", "0"],
     "71ca634ff480301fc45241f731bcb858925c8ee1ab7d9ab990562410d3be1caa"),
    (["identities", "--trials", "200", "--seed", "42"],
     "54e19fd263c479842a44f4ae9fba3fcad05edc01b6f0492da51e29a445ba367a"),
    # recorded from the code before the Darboux-Crum operator and the oqm
    # run memo: deeper seed sets, a case-2 census, n above --n-max
    (["oqm", "--dv", "0,1,2", "--de", "2,3", "--n", "5"],
     "a254e318a3e450ee7fa0240594ca5eea23e039fd1dd1b80204c92f717b9f1aa9"),
    (["oqm", "--dv", "0,1,2,3", "--n", "4"],
     "0e1e320f883cb54f80a39c10839c1c2953e181fd5c8f62cb6708d815ae39bd89"),
    (["oqm", "--de", "1", "--n", "0"],
     "555a12ef9cd57a58386d5cf295d353f0bd60d9def86e6190615a4da70567667c"),
    (["oqm", "--de", "1,2", "--n", "7"],
     "f0bf0ccea9577a99d2f1d7bef3d0971f1ffb80672974fb1339ac0e0fb746c1b5"),
    (["oqm", "--dv", "3", "--n", "0"],
     "dee2057d888fc94c3b56e06de313f650f55d4bab5c41c2df8271f3d1193c6036"),
    # recorded from the code before the rdQM layer ran on raw mpf tuples:
    # five seeds (6-column Casoratians) at two levels, and 512 bits
    (["rdqm", "--dv=-0.6,-1.2,-1.7", "--de=1,2", "--n", "0,3"],
     "a8dbfc0ad1e66535e990de2125b749fd1e3322bcc0f13540d3a5c014e854f32c"),
    (["rdqm", "--precision-bits", "512", "--dv=-0.6,-1.7", "--de=1,2", "--n", "0,3"],
     "2311891f3049125b8ab6d7f8e77330e339d83201b59f30301bf5b9585af6bc00"),
]

SPECTRUM_REPRODUCER = ["rdqm", "--dv=-0.6", "--n", "0,2", "--precision-bits", "192",
                       "--window", "60", "--truncation", "40"]
# Its report as recorded before rdqm.spectrum carried a witness.
SPECTRUM_UNWITNESSED = "47d740c0186e447c5b3dd1a5daad42a5c1c771f9db0d57f044fd9f74e7c43da0"

# Runs whose reports carry witnesses: (argv, exit code, witnesses, sha256 as
# above), recorded before the idQM and rdQM witness writers were folded.
PINNED_WITNESS_REPORTS = [
    (["idqm", "--trials", "30", "--gamma", "1/2"], 3, 8,
     "49266d0fdfb9035331e25fa07eaf162c2a9a1231a0408cd9104488940abf232e"),
    (["rdqm", "--de=1,2", "--n", "0"], 1, 2,
     "5f98852cae819a15b9ed61bb37aadda42029cf686a72ba90970a78bbad0241d1"),
    # a truncation-sensitive spectrum (its digest without the witness is
    # SPECTRUM_UNWITNESSED)
    (SPECTRUM_REPRODUCER, 3, 1,
     "fec0372b626d0235684ab066b1dfd67dcd7ae5f5c1e56037c1e764618809693b"),
    # recorded from the code before the rdQM layer ran on raw mpf tuples: a
    # pair deletion with no virtual seed, and another model at 128 bits
    (["rdqm", "--de=2,3", "--n", "0"], 1, 2,
     "e609b76fa9edc2e15e6ceac6b7a7b7a5dace58a524749b6c5969bff884eca6c2"),
    (["rdqm", "--beta", "3", "--c", "1/2", "--precision-bits", "128", "--dv=-0.6,-1.7",
      "--n", "0,2"], 3, 1,
     "a02f7a50530ac484597541507db564040d8fcf1068bbca9293bae276dd8785a5"),
]

# An rdqm --csv export, byte for byte (sha256), recorded with the pins above.
PINNED_CSV = (["rdqm", "--dv=-0.6,-1.7", "--de=1,2", "--n", "0", "--window", "40",
               "--truncation", "20", "--precision-bits", "192"], 3,
              "74ffae78a1bd5860b2d56e525f747a603814fe9c3549bc923a63e302f71ea662")

# Runs that end in a configuration error: (argv, stderr), all exit 2.
PINNED_ERRORS = [
    (["oqm", "--dv", "0,0"], "configuration error: seed Wronskian vanishes identically\n"),
    (["oqm", "--de=1", "--n", "1"], "configuration error: level 1 is deleted by the seed set\n"),
    # residual gates of the model build and of the seed solve, and the sign premise
    (["rdqm", "--dv=-0.6", "--n", "0", "--precision-bits", "8"],
     "configuration error: eigenpair 1 residual 0.02 above 1e-2\n"),
    (["rdqm", "--dv=-0.6", "--n", "0", "--precision-bits", "40"],
     "configuration error: seed residual 1.9227119016e-10 above tolerance\n"),
    (["rdqm", "--de=1", "--n", "0"], "configuration error: W_C(x)W_C(x+1) not positive "
     "at x = 0 (sign premise violated)\n"),
    # a model input above its upper bound, rejected before any big-float work
    (["rdqm", "--dv=-0.6", "--n", "0", "--window", "1001"],
     "configuration error: window x_max 1001 is above its bound 1000\n"),
    # a zero denominator in a rational flag, and in the tolerance
    (["idqm", "--trials", "1", "--gamma", "1/0"],
     "configuration error: rational text '1/0' has a zero denominator\n"),
    (["rdqm", "--tolerance", "1/0"],
     "configuration error: --tolerance 1/0 has a zero denominator\n"),
    # a trial count and a degree just above their bounds
    (["identities", "--trials", "2001"],
     "configuration error: trials 2001 is above its bound 2000\n"),
    (["idqm", "--trials", "1", "--max-degree", "21"],
     "configuration error: max_degree 21 is above its bound 20\n"),
    # a precision below its lower bound, where the gates' tolerance is not below 1
    (["rdqm", "--dv=-0.6", "--n", "0", "--precision-bits", "-5"],
     "configuration error: precision_bits -5 is below its bound 4\n"),
    (["rdqm", "--dv=-0.6", "--n", "0", "--precision-bits", "0"],
     "configuration error: precision_bits 0 is below its bound 4\n"),
    (["rdqm", "--dv=-0.6", "--n", "0", "--precision-bits", "3"],
     "configuration error: precision_bits 3 is below its bound 4\n"),
]


def pinned_run(tmp_path, argv) -> tuple[int, dict, str]:
    """Exit code, report and digest of a run, the digest taken without the
    report's timestamp and wall_clock_seconds."""
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    payload = json.loads(out.read_text())
    for key in ("timestamp", "wall_clock_seconds"):
        payload.pop(key)
    text = json.dumps(payload, indent=2, sort_keys=True)
    return code, payload, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", PINNED_REPORTS)
def test_report_bytes_pinned(tmp_path, argv, digest):
    assert pinned_run(tmp_path, argv)[::2] == (0, digest)


@pytest.mark.parametrize("argv,code,witnesses,digest", PINNED_WITNESS_REPORTS)
def test_witness_report_bytes_pinned(tmp_path, argv, code, witnesses, digest):
    got_code, payload, got_digest = pinned_run(tmp_path, argv)
    assert (got_code, got_digest) == (code, digest)
    assert sum("witness" in check for check in payload["checks"]) == witnesses


def test_csv_bytes_pinned(tmp_path):
    argv, code, digest = PINNED_CSV
    path = tmp_path / "spectra.csv"
    assert main([*argv, "--out", os.devnull, "--csv", str(path)]) == code
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv,stderr", PINNED_ERRORS)
def test_error_runs_pinned(tmp_path, capsys, argv, stderr):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == stderr
    assert not out.exists()


def test_determinant_over_budget_exits_2(tmp_path, capsys, monkeypatch):
    """A determinant over COEFF_BIT_BUDGET leaves main as one configuration
    error line and exit 2, from a run and from a replay, with no report."""
    monkeypatch.setattr(det_mod, "COEFF_BIT_BUDGET", 8)
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({"identityId": "cas-real.quotient", "inputs": {
        "f": ["1/9", "-5", "2", "2/7"], "g": ["-3/2", "3/7"]}}))
    out = tmp_path / "report.json"
    for argv in (["identities", "--trials", "1"], ["identities", "--replay", str(witness)]):
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "configuration error: coefficient size exceeded 8 bits\n"
        assert not captured.out and not out.exists()


def test_main_twice_in_one_process_same_digest(tmp_path):
    """The process's one parser serves every call; the reports stay equal."""
    argv, digest = PINNED_REPORTS[1]
    assert [pinned_run(tmp_path, argv)[::2] for _ in range(2)] == [(0, digest)] * 2
    assert cli._parser() is cli._parser()


def replay_check(tmp_path, capsys, command, check):
    """Replay a report check's witness through the CLI: (exit code, report)."""
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(check["witness"]))
    capsys.readouterr()
    code = main([command, "--replay", str(path)])
    return code, json.loads(capsys.readouterr().out)


def test_replay_writes_its_report_to_out(tmp_path, capsys):
    """With --out, a replay writes the report it prints without one, and
    prints nothing."""
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"identityId": "cas-real.theorem",
                                "inputs": {"fs": [["0", "1"]], "us": [["1"], ["0", "0", "1"]]}}))
    capsys.readouterr()
    assert main(["identities", "--replay", str(path)]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(["identities", "--replay", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed and json.loads(printed)["pass"]


def test_replay_idqm_inconclusive_witness_exits_3(tmp_path, capsys):
    out = tmp_path / "idqm.json"
    assert main(["idqm", "--trials", "24", "--gamma", "1/2", "--out", str(out)]) == 3
    check = next(c for c in json.loads(out.read_text())["checks"]
                 if c["identityId"] == "idqm.two-path" and c["params"]["trial"] == 23)
    assert check["inconclusive"] and "mu" in check["witness"]["inputs"]
    code, replayed = replay_check(tmp_path, capsys, "idqm", check)
    assert code == 3
    for key in ("pass", "inconclusive", "lhs", "rhs", "note"):
        assert replayed[key] == check[key]


def test_replay_spectrum_reproducer_exits_3(tmp_path, capsys):
    """The truncation-sensitive spectrum's witness replays through the CLI
    to the same inconclusive report; without the witness, the report is the
    one recorded before the spectrum had one."""
    payload = pinned_run(tmp_path, SPECTRUM_REPRODUCER)[1]
    check = next(c for c in payload["checks"] if "witness" in c)
    assert check["identityId"] == "rdqm.spectrum"
    witness = check.pop("witness")
    text = json.dumps(payload, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SPECTRUM_UNWITNESSED
    check["witness"] = witness
    assert check["witness"]["inputs"] == {
        "beta": "2", "c": "1/3", "n_max": 8, "window": 60, "precision_bits": 192,
        "dv_energies": ["-3/5"], "de_labels": [], "truncation": 40, "eigen_count": 5}
    assert replay_check(tmp_path, capsys, "rdqm", check) == (3, check)


def test_replay_rdqm_witness_carries_its_config(tmp_path, capsys):
    out = tmp_path / "rdqm.json"
    assert main(["rdqm", "--beta", "3", "--tolerance", "1e-76", "--dv=-0.6,-1.7",
                 "--de=1,2", "--n", "0", "--window", "60", "--truncation", "40",
                 "--out", str(out)]) == 1
    check = next(c for c in json.loads(out.read_text())["checks"]
                 if c["identityId"] == "rdqm.two-path")
    inputs = check["witness"]["inputs"]
    assert (inputs["beta"], inputs["tolerance"], inputs["window"],
            inputs["compare_up_to"]) == ("3", "1e-76", 60, 30)
    # the rdqm flags keep their defaults (beta 2, tolerance 1e-25) on replay
    code, replayed = replay_check(tmp_path, capsys, "rdqm", check)
    assert code == 1
    for key in ("pass", "lhs", "rhs", "params"):
        assert replayed[key] == check[key]


@pytest.mark.parametrize("text", [
    "[1, 2]",
    '{"inputs": {}}',
    '{"identityId": "cas-real.theorem"}',
    '{"identityId": "cas-real.unknown", "inputs": {}}',
    '{"identityId": "cas-real.theorem", "inputs": {"fs": []}}',
    '{"identityId": "rdqm.two-path", "inputs": {"n": 0}}',
    '{"identityId": "cas-imag.theorem", "inputs": {"fs": ["1"], "us": ["0", "1"]}}',
    '{"identityId": "cas-real.theorem", "inputs": {"fs": ["1"], "us": ["0", "1"], "gamma": "1"}}',
    '{"identityId": "idqm.prefactor-gg", "inputs": {"v_num": [], "v_den": ["1"],'
    ' "gamma": "1", "l": 1, "m": 1}}',
    '{"identityId": "idqm.potential-product", "inputs": {"v_num": [], "v_den": ["1"],'
    ' "seeds": [["0", "1"]], "mu": ["1"], "gamma": "1", "m": 1}}',
    '{"identityId": "idqm.two-path", "inputs": {"v_num": [], "v_den": ["1"],'
    ' "dv": [["0", "1"]], "de": [["1", "1"]], "v_state": ["0", "0", "1"], "mu": ["1"],'
    ' "gamma": "1"}}',
    '{"identityId": ',
])
def test_replay_malformed_witness_exit_2(tmp_path, capsys, text):
    path = tmp_path / "witness.json"
    path.write_text(text)
    assert main(["identities", "--replay", str(path)]) == 2
    assert capsys.readouterr().err.count("\n") == 1


SMALL_MODEL = {"beta": "2", "c": "1/3", "n_max": 8, "window": 40, "precision_bits": 128}


@pytest.mark.parametrize("identity_id, inputs, message", [
    # a label outside the model, a negative label, a label as text
    ("rdqm.sign-conjecture", {**SMALL_MODEL, "dv_energies": ["-3/5"], "de_labels": [20]},
     "level 20 is outside the model's 0..8"),
    ("rdqm.sign-conjecture", {**SMALL_MODEL, "dv_energies": ["-3/5"], "de_labels": [-1]},
     "witness input de_labels: -1 is negative"),
    ("oqm.two-path", {"d_v": [-1], "d_e": [], "n": 0}, "witness input d_v: -1 is negative"),
    ("oqm.two-path", {"d_v": [0], "d_e": [], "n": "0"},
     "witness input n: '0' is not a JSON int"),
    ("oqm.two-path", {"d_v": [0], "d_e": [], "n": True},
     "witness input n: True is not a JSON int"),
    ("idqm.prefactor-gg", {"v_num": ["1"], "v_den": ["1"], "gamma": "1", "l": "1", "m": 1},
     "witness input l: '1' is not a JSON int"),
    # an element that is not a list of text, a list that is text
    ("cas-real.gauge", {"fs": [[1]], "g": ["1"]}, "witness input fs: 1 is not a JSON str"),
    ("cas-real.gauge", {"fs": "12", "g": ["1"]}, "witness input fs: '12' is not a JSON list"),
    # a key that no row reads, for every row
    ("rdqm.two-path", {**SMALL_MODEL, "dv_energies": ["-3/5"], "de_labels": [], "n": 0,
                       "tolerance": "1e-20", "compare_up_to": 20, "bogus": 1},
     "witness inputs ['beta', 'bogus', 'c', 'compare_up_to', 'de_labels', 'dv_energies', "
     "'n', 'n_max', 'precision_bits', 'tolerance', 'window'] are not the keys "),
    ("cas-real.gauge", {"fs": [["1"]], "g": ["1"], "bogus": 1},
     "witness inputs ['bogus', 'fs', 'g'] are not the keys ['fs', 'g']"),
    # v is optional only where the checker takes v = None
    ("wronskian.corollary", {"fs": [{"p": ["1"], "a": "0", "b": "0"}], "us": []},
     "witness inputs ['fs', 'us'] are not the keys ['fs', 'us', 'v']"),
    # a degenerate instance, which a sweep would redraw
    ("idqm.prefactor-gg", {"v_num": ["1"], "v_den": [], "gamma": "1", "l": 1, "m": 1},
     "degenerate witness inputs: RationalFn with zero denominator"),
    # a model input above its upper bound
    ("rdqm.sign-conjecture", {**SMALL_MODEL, "n_max": 61, "dv_energies": ["-3/5"],
                              "de_labels": []}, "n_max 61 is above its bound 60"),
    ("rdqm.spectrum", {**SMALL_MODEL, "precision_bits": 10 ** 6, "dv_energies": [],
                       "de_labels": [], "truncation": 20, "eigen_count": 5},
     "precision_bits 1000000 is above its bound 8192"),
    # a checker's size, an oQM label or a rational text just above its upper bound
    ("cas-imag.sum-formula", {"j_max": 41}, "j_max 41 is above its bound 40"),
    ("cas-imag.classical-limit", {"fs": [["1"], ["0", "1"]], "gamma0": "1", "halvings": 33},
     "halvings 33 is above its bound 32"),
    ("idqm.prefactor-gg", {"v_num": ["1"], "v_den": ["1"], "gamma": "1", "l": 7, "m": 1},
     "l 7 is above its bound 6"),
    ("idqm.prefactor-gg", {"v_num": ["1"], "v_den": ["1"], "gamma": "1", "l": 0, "m": 7},
     "m 7 is above its bound 6"),
    ("oqm.two-path", {"d_v": [0], "d_e": [], "n": 40}, "n_max 41 is above its bound 40"),
    ("oqm.two-path", {"d_v": [40], "d_e": [], "n": 0}, "v_max 41 is above its bound 40"),
    ("cas-real.gauge", {"fs": [["1" * 1001]], "g": ["1"]},
     "witness input fs: rational text digit count 1001 is above its bound 1000"),
    ("cas-real.gauge", {"fs": [["1e1001"]], "g": ["1"]},
     "witness input fs: rational text exponent size 1001 is above its bound 1000"),
    ("cas-real.gauge", {"fs": [["1"]], "g": ["3/2e-1001"]},
     "witness input g: rational text exponent size 1001 is above its bound 1000"),
    # a tolerance that the run's --tolerance check rejects, decoded by that check
    ("rdqm.step-replay", {**SMALL_MODEL, "dv_energies": ["-3/5"], "de_labels": [], "n": 0,
                          "s": 0, "tolerance": "1/0"},
     "witness input tolerance: tolerance 1/0 has a zero denominator"),
    ("rdqm.two-path", {**SMALL_MODEL, "dv_energies": ["-3/5"], "de_labels": [], "n": 0,
                       "tolerance": "0/0", "compare_up_to": 20},
     "witness input tolerance: tolerance 0/0 has a zero denominator"),
    # a model precision below its lower bound
    ("rdqm.spectrum", {**SMALL_MODEL, "precision_bits": 3, "dv_energies": [],
                       "de_labels": [], "truncation": 20, "eigen_count": 5},
     "precision_bits 3 is below its bound 4"),
])
def test_replay_inadmissible_witness_exit_2(tmp_path, capsys, identity_id, inputs, message):
    """Each input is decoded by its JSON type before any check runs, so an
    inadmissible witness is one configuration-error line, never a traceback
    and never a replay of some other instance."""
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"identityId": identity_id, "inputs": inputs}))
    assert main(["identities", "--replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["oqm", "--n-max", "41"], "n_max 41 is above its bound 40"),
    (["oqm", "--dv", "0", "--v-max", "41"], "v_max 41 is above its bound 40"),
    (["idqm", "--gamma", "1e1001", "--trials", "0"],
     "rational text exponent size 1001 is above its bound 1000"),
    (["identities", "--trials", "1", "--max-degree", "21"], "max_degree 21 is above its bound 20"),
    (["idqm", "--trials", "2001"], "trials 2001 is above its bound 2000"),
    (["all", "--trials", "2001"], "trials 2001 is above its bound 2000"),
    (["rdqm", "--beta", "1/0"], "rational text '1/0' has a zero denominator"),
    (["rdqm", "--dv=1/0"], "rational text '1/0' has a zero denominator"),
    (["rdqm", "--c", "0/0"], "rational text '0/0' has a zero denominator"),
])
def test_flags_above_their_bounds_exit_2(capsys, argv, message):
    assert main([*argv, "--out", os.devnull]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_idqm_seed_counts_above_four_exit_2(capsys):
    """Five or more seeds of degree <= 3 have a vanishing Casoratian, so no
    trial that draws them could be run; the flags are rejected up front."""
    assert main(["idqm", "--trials", "40", "--gamma", "2", "--l-max", "3", "--m-max", "3"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: --l-max 3 + --m-max 3 is above 4: five or more seeds of "
        "degree <= 3 have a vanishing Casoratian\n")
    assert main(["idqm", "--trials", "40", "--gamma", "2", "--l-max", "3", "--m-max", "1",
                 "--out", os.devnull]) == 3


def test_rdqm_duplicate_eigenstate_labels_exit_2(capsys):
    assert main(["rdqm", "--de=1,1", "--n", "0"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: eigenstate labels must be mutually distinct\n")


@pytest.mark.parametrize("argv, message", [
    (["--dv=-0.6", "--n", "99"], "--n level 99 is outside 0..8 (--n-max)"),
    (["--dv=-0.6", "--n", "0,9"], "--n level 9 is outside 0..8 (--n-max)"),
    (["--dv=-0.6", "--n=-1"], "--n level -1 is outside 0..8 (--n-max)"),
    (["--de=9,10", "--n", "0"], "--de label 9 is outside 0..8 (--n-max)"),
    (["--de=-1", "--n", "0"], "--de label -1 is outside 0..8 (--n-max)"),
    (["--de=4,5", "--n", "0", "--n-max", "4"], "--de label 5 is outside 0..4 (--n-max)"),
])
def test_rdqm_level_outside_model_exit_2(monkeypatch, capsys, argv, message):
    """Rejected as a configuration error before the model is built."""
    def no_model(*args, **kwargs):
        raise AssertionError("model built for an invalid configuration")

    monkeypatch.setattr(cli, "build_meixner_model", no_model)
    assert main(["rdqm", *argv]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["--n=-1"], "--n level -1 is negative"),
    (["--dv=-1"], "--dv label -1 is negative"),
    (["--dv=0,-2", "--n", "1"], "--dv label -2 is negative"),
    (["--de=-1"], "--de label -1 is negative"),
    (["--de=1,-3", "--n", "0"], "--de label -3 is negative"),
])
def test_oqm_negative_label_exit_2(monkeypatch, capsys, argv, message):
    """Rejected as a configuration error before the model is built; Python's
    negative indexing would otherwise run the top level or aux state."""
    def no_model(*args, **kwargs):
        raise AssertionError("model built for an invalid configuration")

    monkeypatch.setattr(oqm, "build_harmonic_model", no_model)
    assert main(["oqm", *argv]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
