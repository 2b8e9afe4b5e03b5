"""The report corpus: every run in ``tests/corpus.json`` keeps its exit
code, its report bytes (bar ``timestamp`` and ``wall_clock_seconds``) and,
on exit 2, its stderr line.  ``tests/regen_corpus.py`` rewrites the file,
and with ``--check --drop-fields`` compares reports without named keys."""

import json

from casorati.identities import CHECKS
from regen_corpus import CONFIG_TWINS, as_config, load_corpus, run_entry


def test_corpus_reports_unchanged():
    corpus = load_corpus()
    assert len(corpus) >= 96 and {entry["exit"] for entry in corpus} == {0, 1, 2, 3}
    moved = [(entry["argv"], run) for entry in corpus
             if (run := run_entry(entry["argv"], files=entry.get("files"))) != entry]
    assert not moved, f"{len(moved)} corpus runs moved, the first: {moved[0]}"


def test_config_files_give_their_twins_reports():
    """A config file that holds a row's flags gives that row's exit code and
    report digest, for every command."""
    runs = {json.dumps([entry["argv"], entry.get("files", {})]): entry
            for entry in load_corpus()}
    assert sorted({argv[0] for argv in CONFIG_TWINS}) == ["all", "identities", "idqm", "oqm",
                                                           "rdqm"]
    for twin in CONFIG_TWINS:
        config, flags = runs[json.dumps(list(as_config(twin)))], runs[json.dumps([twin, {}])]
        assert (config["exit"], config["sha256"]) == (flags["exit"], flags["sha256"])


def test_every_check_id_replays_in_the_corpus():
    replayed = [json.loads(entry["files"]["witness.json"])["identityId"]
                for entry in load_corpus() if "--replay" in entry["argv"]]
    assert sorted(replayed) == sorted(CHECKS)
