"""The report corpus: every run in ``tests/corpus.json`` keeps its exit
code, its report bytes (bar ``timestamp`` and ``wall_clock_seconds``) and,
on exit 2, its stderr line.  ``tests/regen_corpus.py`` rewrites the file,
and with ``--check --drop-fields`` compares reports without named keys."""

from regen_corpus import load_corpus, run_entry


def test_corpus_reports_unchanged():
    corpus = load_corpus()
    assert len(corpus) >= 96 and {entry["exit"] for entry in corpus} == {0, 1, 2, 3}
    moved = [(entry["argv"], run) for entry in corpus
             if (run := run_entry(entry["argv"])) != entry]
    assert not moved, f"{len(moved)} corpus runs moved, the first: {moved[0]}"
