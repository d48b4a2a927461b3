"""Every statement of src/latticewalks/ runs in some Tier-1 test.

Runs pytest in this process with a line tracer on every thread
(``sys.settrace`` and ``threading.settrace``), traced only in frames of
src/latticewalks/, then checks each statement there that the compiler
gives code (docstrings and ``global`` have none) against the lines that
ran.  Any statement that no test runs fails the check.  From the
repository root:

    python tools/statement_coverage.py [pytest arguments]

Exits with pytest's code if a test fails, else 1 if a statement is unrun,
else 0.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "latticewalks"
ran: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(f"{SRC}{os.sep}") else None


def statements(path: Path):
    """(line, function, source) of each statement of path that has code."""
    text = path.read_text()
    lines, code = set(), [compile(text, str(path), "exec")]
    while code:
        c = code.pop()
        lines |= {line for *_, line in c.co_lines()}
        code += [k for k in c.co_consts if hasattr(k, "co_lines")]
    source = text.splitlines()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and child.lineno in lines:
                yield child.lineno, scope, source[child.lineno - 1].strip()
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    return sorted(set(visit(ast.parse(text), "")))


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC.parent))
    import pytest

    threading.settrace(_call)
    sys.settrace(_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code:
        return code
    unrun = [(p.name, line, function or "<module>", text)
             for p in sorted(SRC.glob("*.py"))
             for line, function, text in statements(p)
             if (str(p), line) not in ran]
    for name, line, function, text in unrun:
        print(f"no test runs {name}:{line} in {function}: {text}")
    print(f"{len(unrun)} statements unrun")
    return int(bool(unrun))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
