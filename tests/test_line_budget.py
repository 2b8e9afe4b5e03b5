"""The line budget of the package: src/casorati/*.py may not grow unnoticed."""

from pathlib import Path

# Lines of src/casorati/*.py, as `wc -l` counts them.
LINE_BUDGET = 4278

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "casorati"


def test_package_within_line_budget():
    counts = {path.name: len(path.read_bytes().splitlines())
              for path in sorted(PACKAGE.glob("*.py"))}
    total = sum(counts.values())
    assert total <= LINE_BUDGET, (
        f"src/casorati/*.py has {total} lines, over the budget of {LINE_BUDGET} "
        f"(per module: {counts}).  A change that adds lines raises LINE_BUDGET "
        f"in tests/test_line_budget.py and states its delta, with what it "
        f"removed, in CHANGES.md (ROADMAP item 9).")
