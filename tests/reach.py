"""List the functions of ``src/casorati`` that no corpus run calls.

Runs the rows of ``tests/corpus.json`` in process, as ``regen_corpus.py
--check`` does, under a ``sys.setprofile`` hook that records the code object
of every call, and prints each function and method defined in the package's
modules (nested ones included) whose code no run entered, with its line
count, then the totals.  A function that only the import of a module calls
counts as reached.

    PYTHONPATH=src python tests/reach.py
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
from pathlib import Path


def defined_functions(package: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (module.qualified name, line count) of every
    def in the package, the first line being its first decorator's, as a
    code object's ``co_firstlineno`` reads."""
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[str(path), first] = (f"{path.stem}.{name}", child.end_lineno - first + 1)
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix + child.name + "." if isinstance(child, ast.ClassDef)
                      else prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), "")
    return found


def main() -> int:
    package = Path(importlib.util.find_spec("casorati").origin).parent
    functions = defined_functions(package)
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(hook)
    try:
        from regen_corpus import load_corpus, run_entry
        rows = load_corpus()
        for entry in rows:
            run_entry(entry["argv"], files=entry.get("files"))
    finally:
        sys.setprofile(None)
    reached = {(os.path.realpath(path), line) for path, line in entered}
    missed = sorted(functions[key] for key in functions.keys() - reached)
    for name, lines in missed:
        print(f"{name}  {lines} lines")
    print(f"{len(missed)} of {len(functions)} functions ({sum(n for _, n in missed)} lines) "
          f"are called by none of {len(rows)} corpus rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
