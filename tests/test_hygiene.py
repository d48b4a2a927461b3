"""Static checks on the source tree, run with the tests because no linter
runs in CI: no module under ``src/`` or ``tests/`` imports a name it never
uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read, as
    ``"line: name"``; a name listed in a string of ``__all__`` counts as
    read, and ``from __future__`` imports are skipped."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used.update(c.value for c in ast.walk(node.value)
                            if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import xml.dom\n"
              "from json import dumps as to_json, loads\n"
              "from math import comb\n"
              "__all__ = ['comb']\n"
              "print(sys.argv, loads)\n")
    assert unused_imports(source) == ["2: os", "3: xml", "4: to_json"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
