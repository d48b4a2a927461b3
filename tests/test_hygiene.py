"""Static checks on the source tree, run with the tests because no linter
runs in CI: no module under ``src/`` or ``tests/`` imports a name it never
uses, no private module-level name under ``src/`` goes unread, no field of
a record class under ``src/`` goes unread, no cache under ``src/`` is
unbounded, the modules ``src/latticewalks/*.py`` hold at most 2,600 lines
together (as ``wc -l`` counts them), and the README lists exactly the
flags the command-line parser takes and the lattice kinds ``walks`` takes,
with their products and folds, and its ``python`` examples run."""

import argparse
import ast
import re
from pathlib import Path

import pytest

from latticewalks import cli, walks

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/**/*.py"))
MODULES = sorted([*SOURCES, *ROOT.glob("tests/**/*.py")])


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


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private names (one leading underscore) that a module of ``sources``
    defines at its top level by ``def``, ``class`` or assignment and that
    no module of ``sources`` reads, as ``"module:line: name"``.  A read is
    a loaded name, a loaded attribute of that name, or an import of it."""
    defined: list[tuple[str, int, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{module}:{line}: {name}" for module, line, name in defined
            if name not in read]


def test_scan_finds_dead_private_names():
    sources = {"a": ("_LIMIT = 3\n"
                     "_unused_table = {}\n"
                     "__version__ = '1'\n"
                     "def _helper():\n"
                     "    return _LIMIT\n"
                     "def _stale():\n"
                     "    _local = 1\n"
                     "class _Gone:\n"
                     "    pass\n"),
               "b": ("from a import _helper\n"
                     "import a\n"
                     "print(_helper(), a._stale)\n")}
    assert dead_private_names(sources) == ["a:2: _unused_table", "a:8: _Gone"]


def test_no_dead_private_names():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    assert dead_private_names(sources) == []


def unread_fields(declared: dict[str, str], readers: list[str]) -> list[str]:
    """Fields of the dataclasses and ``NamedTuple`` classes that a module
    of ``declared`` defines and that no source of ``readers`` loads as an
    attribute, as ``"module:line: Class.field"``.  A class is such a record
    when a decorator is named ``dataclass`` or a base ``NamedTuple``, called
    or dotted or not; its fields are the annotated names of its body."""
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    out = []
    for module, source in declared.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            marks = {ast.unparse(node).partition("(")[0].rpartition(".")[2]
                     for node in [*cls.decorator_list, *cls.bases]}
            if marks & {"dataclass", "NamedTuple"}:
                out += [f"{module}:{node.lineno}: {cls.name}.{node.target.id}"
                        for node in cls.body if isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)
                        and node.target.id not in read]
    return out


def test_scan_finds_unread_fields():
    declared = {"a": ("import dataclasses, typing\n"
                      "@dataclasses.dataclass(frozen=True)\n"
                      "class Point:\n"
                      "    x: int\n"
                      "    y: int\n"
                      "    def norm(self):\n"
                      "        return abs(self.x)\n"
                      "class Pair(typing.NamedTuple):\n"
                      "    left: int\n"
                      "    right: int = 0\n"
                      "class Plain:\n"
                      "    tag: str\n")}
    readers = [*declared.values(), "def f(p):\n    p.right = 1\n    return p.tag\n"]
    # p.right is a store, not a read
    assert unread_fields(declared, readers) == ["a:5: Point.y", "a:9: Pair.left",
                                                "a:10: Pair.right"]


def test_no_unread_fields():
    declared = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    readers = [p.read_text() for p in [*MODULES, *ROOT.glob("bench/**/*.py")]]
    assert unread_fields(declared, readers) == []


def unbounded_caches(source: str) -> list[str]:
    """The ``functools`` caches of ``source`` that may grow without bound,
    as ``"line: name"``.  An ``lru_cache`` must be called with a ``maxsize``
    that is an int literal or a module-level name bound to one, and
    ``cache`` may only decorate a function that takes no arguments."""
    tree = ast.parse(source)
    ints = {t.id: node.value.value for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant) and type(node.value.value) is int
            for t in node.targets if isinstance(t, ast.Name)}
    names, modules = {}, {"functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")

    def kind(node):
        # "lru_cache" or "cache" for a reference to the functools one
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            return node.attr
        return None

    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    # the decorators of functions that take no arguments
    nullary = {id(d) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not any([node.args.posonlyargs, node.args.args, node.args.vararg,
                            node.args.kwonlyargs, node.args.kwarg])
               for d in node.decorator_list}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and kind(node.func) == "lru_cache":
            sizes = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
            size = sizes[0] if sizes else None
            if isinstance(size, ast.Name):
                size = ints.get(size.id)
            elif isinstance(size, ast.Constant):
                size = size.value
            if type(size) is not int:
                out.append((node.lineno, "lru_cache"))
        elif kind(node) == "lru_cache" and id(node) not in called:
            out.append((node.lineno, "lru_cache"))
        elif kind(node) == "cache" and id(node) not in nullary:
            out.append((node.lineno, "cache"))
    return [f"{line}: {name}" for line, name in sorted(out)]


def test_scan_finds_unbounded_caches():
    source = ("import functools\n"
              "import functools as ft\n"
              "from functools import cache, lru_cache as lru\n"
              "_SIZE = 8\n"
              "@lru(maxsize=_SIZE, typed=True)\n"
              "def a(x): return x\n"
              "@functools.lru_cache(16)\n"
              "def b(x): return x\n"
              "@cache\n"
              "def c(): return 1\n"
              "@lru\n"
              "def d(x): return x\n"
              "@ft.lru_cache(maxsize=None)\n"
              "def e(x): return x\n"
              "@functools.cache\n"
              "def f(x): return x\n"
              "g = cache(len)\n"
              "h = lru(maxsize=_LIMIT)(len)\n")
    assert unbounded_caches(source) == ["11: lru_cache", "13: lru_cache", "15: cache",
                                        "17: cache", "18: lru_cache"]


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unbounded_caches(path):
    assert unbounded_caches(path.read_text()) == []


def readme_flags(readme: str) -> set[str]:
    """The ``--flags`` of the "Flags:" paragraph of the README's "Command
    line" section."""
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    paragraph = section.split("\nFlags:", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"--[a-z][a-z-]*", paragraph))


#: The most lines the modules of ``src/latticewalks`` may hold together.
SRC_LINE_BUDGET = 2567


def test_src_within_line_budget():
    counts = {p.name: p.read_text().count("\n")
              for p in sorted(ROOT.glob("src/latticewalks/*.py"))}
    assert sum(counts.values()) <= SRC_LINE_BUDGET, \
        f"{sum(counts.values())} lines > {SRC_LINE_BUDGET}: {counts}"


def parser_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Option strings of every subcommand of ``parser``, without help."""
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    return {flag for sub in subs.choices.values() for action in sub._actions
            for flag in action.option_strings} - {"-h", "--help"}


def test_readme_lists_the_parser_flags():
    readme = (ROOT / "README.md").read_text()
    assert readme_flags(readme) == parser_flags(cli.build_parser())


def readme_walk_kinds(readme: str) -> list[tuple[str, tuple[str, ...], str, str]]:
    """(kind, flags, product, fold) of each row of the README's "Lattice
    kinds for `walks`" table, in order, from its first three columns, such
    as ``| `strip` (`--n`) | `Z ⊗ P_n` | `strip` r=6 |``; a product or
    fold cell without a backquoted name reads as ``""``, and a fold reads
    as its name and radius, such as ``"strip r=6"``."""
    table = readme.split("\nLattice kinds for `walks`:\n\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:4] for line in table.splitlines()[2:]]
    return [(re.search(r"`([a-z0-9-]+)`", kind).group(1),
             tuple(re.findall(r"--[a-z]+", kind)),
             "".join(re.findall(r"`([^`]+)`", product)),
             " ".join(re.findall(r"`[a-z]+` r=[0-9]+", fold)).replace("`", ""))
            for kind, product, fold in rows]


def test_readme_lists_the_walk_kinds():
    readme = (ROOT / "README.md").read_text()
    kinds = map(walks.lattice_kind, walks.lattice_walk_kinds())
    assert readme_walk_kinds(readme) == [
        (lk.key, tuple("--" + p for p in lk.requires), lk.product,
         "{} r={}".format(*lk.fold) if lk.fold else "")
        for lk in kinds]


README_EXAMPLES = re.findall(r"\n```python\n(.*?)\n```\n", (ROOT / "README.md").read_text(),
                             re.DOTALL)


def test_readme_has_examples():
    assert len(README_EXAMPLES) >= 4


@pytest.mark.parametrize("code", README_EXAMPLES,
                         ids=[f"example{i}" for i in range(len(README_EXAMPLES))])
def test_readme_example_runs(code):
    exec(compile(code, "README.md", "exec"), {})
