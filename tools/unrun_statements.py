"""List every statement of ``src/surgnet`` that the tier-1 tests never run.

    python tools/unrun_statements.py

Runs the tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace``, recording the lines run in ``src/surgnet`` only,
then prints ``file:line`` for each statement whose first line never ran.
Docstrings, ``global``/``nonlocal`` (they emit no line event) and the
body of ``if __name__ == "__main__":`` are not statements here. Exits 1
when a test fails or a statement is listed, else 0. Standard library
and pytest only; no coverage package.
"""

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "surgnet"


def statements(tree):
    """The first line of each statement of ``tree`` that should run."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            skip.add(node.body[0])
        if isinstance(node, ast.If) \
                and ast.unparse(node.test) == "__name__ == '__main__'":
            skip.update(n for stmt in node.body for n in ast.walk(stmt))
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node not in skip
            and not isinstance(node, (ast.Global, ast.Nonlocal))}


def main():
    ran = defaultdict(set)
    prefix = os.path.join(PKG, "")

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors",
                              "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                              str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted(PKG.glob("*.py"))
             for line in sorted(statements(ast.parse(path.read_text())))
             if line not in ran[str(path)]]
    print("\n".join(unrun) or "every statement ran")
    return 1 if status != 0 or unrun else 0


if __name__ == "__main__":
    sys.exit(main())
