"""Regenerate or check ``tests/corpus.json``, the report corpus.

Each entry is a CLI argv, the input files it names (``files``, name ->
text, only where it reads one), its exit code, the sha256 of its JSON report
and, on exit 2, its one stderr line.  A run's working directory is a fresh
temporary one that holds its files.  A report is the ``--out`` file, a
``--replay`` run's too; it is hashed as ``json.dumps(report, indent=2,
sort_keys=True)`` without its ``timestamp`` and ``wall_clock_seconds``
fields (the digest of ``bench/workloads.report_digest`` and of the pinned
reports), and without every key named by ``--drop-fields`` at any depth.

The argvs are the first jobs of the seed-42 ``meixner-lattice`` and
``exact-darboux`` benchmark job lists (``bench/workloads.py``), short
``identities`` runs at three seeds, the ROADMAP reproducers, rdQM runs at
other models, windows and precisions, and every ``PINNED_ERRORS`` argv.
After them come ``all`` at two seeds, one ``--config`` run per command (the
flags of a ``CONFIG_TWINS`` row moved to a file, which must give the twin's
digest), one ``--replay`` per check id, an ``rdqm --csv`` run and the oQM
run that reaches Bareiss (ten determinants of 9 columns).

    PYTHONPATH=src python tests/regen_corpus.py            # rewrite the file
    PYTHONPATH=src python tests/regen_corpus.py --check    # list moved entries, exit 1
    PYTHONPATH=src python tests/regen_corpus.py --check --drop-fields status,profile

``--check`` compares every run with the file and prints each argv whose
exit code, digest or stderr line moved.  A change that rewrites the file
lists those argvs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

TESTS = Path(__file__).resolve().parent
CORPUS = TESTS / "corpus.json"
ALWAYS_DROPPED = ("timestamp", "wall_clock_seconds")

REPRODUCERS = [
    ["rdqm", "--de=1,2", "--n", "0"],
    ["rdqm", "--de=1", "--n", "0"],
    ["rdqm", "--precision-bits", "8"],
    ["rdqm", "--precision-bits", "40"],
    ["idqm", "--trials", "50", "--gamma", "1/2"],
    ["rdqm", "--dv=-0.6", "--n", "0,2", "--precision-bits", "192", "--window", "60",
     "--truncation", "40"],
]
# rdQM models, windows and precisions away from the CLI defaults: the model
# build's eigenpair gates are certified at some of them and computed at others.
RDQM_VARIANTS = [
    ["rdqm", "--dv=-0.6", "--n", "0", "--precision-bits", "53"],
    ["rdqm", "--dv=-0.6", "--n", "0", "--precision-bits", "64"],
    ["rdqm", "--dv=-0.6", "--n", "0,1", "--precision-bits", "128"],
    ["rdqm", "--dv=-0.6,-1.7", "--n", "0", "--precision-bits", "96"],
    ["rdqm", "--dv=-0.6", "--de=2,3", "--n", "1", "--window", "30", "--truncation", "14"],
    ["rdqm", "--beta", "1/2", "--c", "3/4", "--dv=-0.4", "--n", "0", "--window", "40",
     "--truncation", "20"],
    ["rdqm", "--beta", "3", "--c", "9/10", "--n", "0", "--n-max", "4", "--window", "12",
     "--truncation", "6", "--eigen-count", "3"],
    ["rdqm", "--beta", "5/2", "--c", "1/5", "--dv=-1.1", "--n", "2", "--n-max", "12",
     "--precision-bits", "320"],
]

ALL_RUNS = [["all", "--trials", "2", "--seed", str(seed)] for seed in (42, 7)]
# One row of each command whose flags a config file repeats.
CONFIG_TWINS = [
    ["identities", "--trials", "20", "--seed", "7"],
    ["oqm", "--dv", "0", "--de", "", "--n", "5"],
    ["idqm", "--trials", "1", "--seed", "168972004"],
    ["rdqm", "--dv=-0.6", "--n", "0", "--precision-bits", "53"],
    ALL_RUNS[1],
]
CSV_RUN = ["rdqm", "--dv=-0.6", "--n", "0", "--window", "30", "--truncation", "14",
           "--csv", "spectrum.csv"]
BAREISS_RUN = ["oqm", "--dv", "0,1,2,3,4", "--de", "1,2,3,4", "--n", "0"]
# The small rdQM model and seeds of the rdqm witnesses.
RDQM_INPUTS = {"beta": Fraction(2), "c": Fraction(1, 3), "n_max": 4, "window": 60,
               "precision_bits": 64, "dv_energies": [Fraction(-3, 5)], "de_labels": [1, 2]}


def as_config(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    """The run of ``argv`` with its flags moved to a config file: the argv
    and its files."""
    command, *flags = argv
    lines = []
    while flags:
        flag = flags.pop(0)[2:]
        key, value = flag.split("=", 1) if "=" in flag else (flag, flags.pop(0))
        lines.append(f"{key} = {value}\n")
    return [command, "--config", "run.cfg"], {"run.cfg": "".join(lines)}


def witness_inputs(check_id: str) -> dict:
    """The inputs of the replayed witness of ``check_id``: a seeded draw for
    the identity rows and idQM, small fixed inputs for oQM, rdQM and the sum
    formula."""
    from casorati.identities import CHECKS, draw_trial
    from casorati.sampling import SamplerConfig, random_poly, trial_rng

    config = SamplerConfig(trials=1)
    if CHECKS[check_id].draw is not None:
        return draw_trial(check_id, config, 0)[0]
    rng = trial_rng(config, check_id, 0)
    draw = lambda count, degree=3: [random_poly(rng, degree, 5, nonzero=True)
                                    for _ in range(count)]
    v = dict(zip(("v_num", "v_den"), draw(2, 2)))
    return {"cas-imag.sum-formula": lambda: {"j_max": 6},
            "oqm.two-path": lambda: {"d_v": [0], "d_e": [1, 2], "n": 0},
            "oqm.degree-census": lambda: {"d_v": [0], "d_e": [1, 2], "n_max": 6},
            "idqm.prefactor-gg": lambda: {**v, "gamma": Fraction(1), "l": 1, "m": 2},
            "idqm.potential-product": lambda: {**v, "seeds": draw(1), "gamma": Fraction(1),
                                               "m": 1, "mu": draw(1)[0]},
            "idqm.two-path": lambda: {**v, "dv": draw(1), "de": draw(1), "v_state": draw(1)[0],
                                      "gamma": Fraction(1), "mu": draw(1)[0]},
            "rdqm.two-path": lambda: {**RDQM_INPUTS, "n": 0, "tolerance": "1e-10",
                                      "compare_up_to": 15},
            "rdqm.step-replay": lambda: {**RDQM_INPUTS, "n": 0, "s": 0, "tolerance": "1e-10",
                                         "compare_up_to": 15},
            "rdqm.sign-conjecture": lambda: RDQM_INPUTS,
            "rdqm.spectrum": lambda: {**RDQM_INPUTS, "truncation": 50, "eigen_count": 3},
            }[check_id]()


def replay_row(check_id: str) -> tuple[list[str], dict[str, str]]:
    """A ``--replay`` run of the witness of ``check_id``, under its lab's command."""
    from casorati.report import encode

    witness = {"identityId": check_id, "inputs": encode(witness_inputs(check_id))}
    lab = check_id.split(".")[0]
    command = lab if lab in ("oqm", "idqm", "rdqm") else "identities"
    return [command, "--replay", "witness.json"], {"witness.json": json.dumps(witness)}


def corpus_rows() -> list[tuple[list[str], dict[str, str]]]:
    """Every (argv, files) of the corpus, in a fixed order."""
    sys.path.insert(0, str(TESTS.parent / "bench"))
    sys.path.insert(0, str(TESTS))
    import casorati.seeds
    import workloads
    from casorati.identities import CHECKS
    from test_cli import PINNED_ERRORS

    argvs = [workloads.job_argv(job)
             for job in workloads.make_jobs("meixner-lattice", 42, casorati)[:48]]
    for job in workloads.make_jobs("exact-darboux", 42, casorati)[:20]:
        argvs += [workloads.job_argv(run) for run in job["runs"]]
    argvs += [["identities", "--trials", "20", "--seed", str(seed)] for seed in (1, 7, 42)]
    argvs += REPRODUCERS + RDQM_VARIANTS + [argv for argv, _ in PINNED_ERRORS]
    rows = [(argv, {}) for i, argv in enumerate(argvs) if argv not in argvs[:i]]
    rows += [(argv, {}) for argv in ALL_RUNS]
    rows += [as_config(argv) for argv in CONFIG_TWINS]
    rows += [replay_row(check_id) for check_id in CHECKS]
    return rows + [(CSV_RUN, {}), (BAREISS_RUN, {})]


def dropped(value, keys: frozenset):
    """``value`` without the dict keys in ``keys``, at every depth."""
    if isinstance(value, dict):
        return {k: dropped(v, keys) for k, v in value.items() if k not in keys}
    if isinstance(value, list):
        return [dropped(v, keys) for v in value]
    return value


def run_entry(argv: list[str], drop_fields=(), files=None) -> dict:
    """Run the CLI in process on argv, in a temporary directory that holds
    ``files``: its exit code, report digest and, on exit 2, its stderr line."""
    from casorati import cli

    keys = frozenset(ALWAYS_DROPPED) | frozenset(drop_fields)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, text in (files or {}).items():
                Path(name).write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--out", "report.json"])
            report = Path("report.json").read_text() if os.path.exists("report.json") else None
        finally:
            os.chdir(cwd)
    entry = {"argv": argv, **({"files": files} if files else {}), "exit": code,
             "sha256": None}
    if report is not None:
        text = json.dumps(dropped(json.loads(report), keys), indent=2, sort_keys=True)
        entry["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    if code == 2:
        entry["stderr"] = err.getvalue()
    return entry


def load_corpus() -> list[dict]:
    with open(CORPUS) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--drop-fields", default="",
                        help="comma-separated report keys left out of every digest")
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed file instead of rewriting it")
    args = parser.parse_args(argv)
    drop = [key for key in args.drop_fields.split(",") if key]
    if args.check:
        moved = [entry["argv"] for entry in load_corpus()
                 if run_entry(entry["argv"], drop, entry.get("files")) != entry]
        for moved_argv in moved:
            print("moved:", " ".join(moved_argv))
        print(f"{len(moved)} moved")
        return 1 if moved else 0
    entries = [run_entry(argv, drop, files) for argv, files in corpus_rows()]
    CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"wrote {len(entries)} entries to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
