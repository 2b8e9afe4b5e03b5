"""Regenerate or check ``tests/corpus.json``, the report corpus.

Each entry is a CLI argv, its exit code, the sha256 of its JSON report and,
on exit 2, its one stderr line.  A report is hashed as ``json.dumps(report,
indent=2, sort_keys=True)`` without its ``timestamp`` and
``wall_clock_seconds`` fields (the digest of ``bench/workloads.report_digest``
and of the pinned reports), and without every key named by
``--drop-fields`` at any depth.

The argvs are the first jobs of the seed-42 ``meixner-lattice`` and
``exact-darboux`` benchmark job lists (``bench/workloads.py``), short
``identities`` runs at three seeds, the ROADMAP reproducers, rdQM runs at
other models, windows and precisions, and every ``PINNED_ERRORS`` argv.

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


def corpus_argvs() -> list[list[str]]:
    """Every argv of the corpus, in a fixed order."""
    sys.path.insert(0, str(TESTS.parent / "bench"))
    sys.path.insert(0, str(TESTS))
    import casorati.seeds
    import workloads
    from test_cli import PINNED_ERRORS

    argvs = [workloads.job_argv(job)
             for job in workloads.make_jobs("meixner-lattice", 42, casorati)[:48]]
    for job in workloads.make_jobs("exact-darboux", 42, casorati)[:20]:
        argvs += [workloads.job_argv(run) for run in job["runs"]]
    argvs += [["identities", "--trials", "20", "--seed", str(seed)] for seed in (1, 7, 42)]
    argvs += REPRODUCERS + RDQM_VARIANTS + [argv for argv, _ in PINNED_ERRORS]
    return [argv for i, argv in enumerate(argvs) if argv not in argvs[:i]]


def dropped(value, keys: frozenset):
    """``value`` without the dict keys in ``keys``, at every depth."""
    if isinstance(value, dict):
        return {k: dropped(v, keys) for k, v in value.items() if k not in keys}
    if isinstance(value, list):
        return [dropped(v, keys) for v in value]
    return value


def run_entry(argv: list[str], drop_fields=()) -> dict:
    """Run the CLI in process on argv: its exit code, report digest and,
    on exit 2, its stderr line."""
    from casorati import cli

    keys = frozenset(ALWAYS_DROPPED) | frozenset(drop_fields)
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "report.json")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out", out])
        entry = {"argv": argv, "exit": code, "sha256": None}
        if os.path.exists(out):
            with open(out) as fh:
                text = json.dumps(dropped(json.load(fh), keys), indent=2, sort_keys=True)
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
                 if run_entry(entry["argv"], drop) != entry]
        for moved_argv in moved:
            print("moved:", " ".join(moved_argv))
        print(f"{len(moved)} moved")
        return 1 if moved else 0
    entries = [run_entry(item, drop) for item in corpus_argvs()]
    CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"wrote {len(entries)} entries to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
