"""The line budget of the package: src/casorati/*.py may not grow unnoticed."""

from pathlib import Path

# Lines of src/casorati/*.py, as `wc -l` counts them, and of cli.py alone:
# the CLI parses flags, runs the labs' checks and prints their reports, and
# builds no check of its own.
LINE_BUDGET = 4736
CLI_LINE_BUDGET = 299

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "casorati"


def test_package_within_line_budget():
    counts = {path.name: len(path.read_bytes().splitlines())
              for path in sorted(PACKAGE.glob("*.py"))}
    total = sum(counts.values())
    assert total <= LINE_BUDGET, (
        f"src/casorati/*.py has {total} lines, over the budget of {LINE_BUDGET} "
        f"(per module: {counts}).  A change that adds lines raises LINE_BUDGET "
        f"in tests/test_line_budget.py and states its delta, with what it "
        f"removed, in CHANGES.md (ROADMAP item 7).")


def test_cli_within_line_budget():
    lines = len((PACKAGE / "cli.py").read_bytes().splitlines())
    assert lines <= CLI_LINE_BUDGET, (
        f"cli.py has {lines} lines, over its budget of {CLI_LINE_BUDGET}.  A check "
        f"and its witness belong in its lab module and a replay row in "
        f"identities.CHECKS, not in the CLI.")
