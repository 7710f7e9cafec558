"""The package's modules import one another without a cycle, no module or
test imports a name it never reads, every exported name has a reader, and
importing the CLI leaves out the modules that only slow its start."""

import ast
import importlib.util
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import strictpat

PACKAGE = Path(strictpat.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TRACING = ROOT / "perfbench" / "tracing.py"
ENTRY_POINTS = "Other entry points, by module:"


def imported_modules(path: Path) -> set:
    """The package modules that path imports by a relative import anywhere,
    function bodies included: ``from .m import x`` and ``from . import m``;
    a name that is no module of the package stands for ``__init__``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(a.name for a in node.names)
    return {n if (path.parent / f"{n}.py").is_file() else "__init__"
            for n in names}


def import_graph(package: Path = PACKAGE) -> dict:
    return {p.stem: imported_modules(p) for p in sorted(package.glob("*.py"))}


def find_cycle(graph: dict):
    """One cycle of graph as a list of nodes, first repeated last; None
    when the graph is acyclic."""
    state, path = {}, []

    def visit(n):
        state[n] = "open"
        path.append(n)
        for m in sorted(graph.get(n, ())):
            if state.get(m) == "open":
                return path[path.index(m):] + [m]
            if m not in state:
                found = visit(m)
                if found:
                    return found
        state[n] = "done"
        path.pop()
        return None

    for n in sorted(graph):
        if n not in state:
            found = visit(n)
            if found:
                return found
    return None


def test_function_level_imports_make_a_cycle(tmp_path):
    (tmp_path / "m.py").write_text("def f():\n    from .n import g\n")
    (tmp_path / "n.py").write_text("from . import m\n")
    (tmp_path / "o.py").write_text("from .m import f\n")
    graph = import_graph(tmp_path)
    assert graph == {"m": {"n"}, "n": {"m"}, "o": {"m"}}
    assert find_cycle(graph) == ["m", "n", "m"]
    assert find_cycle({"m": {"n"}, "n": set(), "o": {"m"}}) is None


def test_package_has_no_import_cycle():
    graph = import_graph()
    assert {"syntax", "patterns", "algebra", "cli"} <= set(graph)
    assert "patterns" in graph["algebra"]
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def unused_imports(path: Path) -> list:
    """The names path imports and never reads: no ``Name`` node loads them
    and, in a package ``__init__``, ``__all__`` does not list them.
    ``from __future__`` imports are features, not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_unused_imports_are_found(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("from __future__ import annotations\n"
                 "import os.path, sys\n"
                 "from json import dumps as d, loads\n"
                 "__all__ = ['loads']\n"
                 "print(os.sep)\n")
    assert unused_imports(p) == [(2, "sys"), (3, "d")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py"))
                         + sorted(Path(__file__).parent.glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def names_read(path: Path) -> set:
    """The names path reads (``Name`` loads), leaving out the reads of a
    function's or class's own name inside its definition, such as a
    recursive call."""
    found = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id not in defining:
            found.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def readme_entry_points() -> set:
    """The names in backquotes in the README's entry-point list: the
    paragraph after the line ``ENTRY_POINTS``."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rest = lines[lines.index(ENTRY_POINTS) + 1:]
    block = itertools.takewhile(
        str.strip, itertools.dropwhile(lambda line: not line.strip(), rest))
    return set(re.findall(r"`(\w+)`", "\n".join(block)))


def traced_names() -> list:
    """The (module, function) pairs that the benchmark's tracer looks up in
    strictpat, from its ``SPANS`` and ``COUNTS`` tables; the file is loaded
    by path, as it is no package module."""
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(mod, fn) for _, mod, fn, *_ in tracing.SPANS + tracing.COUNTS]


def test_names_read_leave_out_a_definition_reading_its_own_name(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("def f(n):\n    return f(n - 1) if n else g\n"
                 "def g():\n    return f(3)\n"
                 "class C:\n    x = C\n")
    assert names_read(p) == {"f", "g", "n"}


def test_every_traced_name_exists():
    missing = [f"{mod}.{fn}" for mod, fn in traced_names()
               if not hasattr(importlib.import_module(f"strictpat.{mod}"), fn)]
    assert missing == []


def test_every_exported_name_earns_its_place():
    # read by a package module, listed in the README, or traced
    earned = set().union(*map(names_read, PACKAGE.glob("*.py")))
    earned |= readme_entry_points() | {fn for _, fn in traced_names()}
    assert [name for name in strictpat.__all__ if name not in earned] == []


def test_importing_the_cli_loads_no_dataclasses_inspect_or_json():
    # every command is a fresh process that pays for each module it
    # imports: dataclasses (which imports inspect) is replaced by
    # syntax._record, only --format json needs json, and only selftest
    # needs strictpat.selftest; a fresh interpreter reports what the
    # import adds to sys.modules
    code = ("import sys\nbefore = set(sys.modules)\nimport strictpat.cli\n"
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    r = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True, text=True, timeout=60)
    loaded = set(r.stdout.split())
    assert "strictpat.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "json",
                     "strictpat.selftest"} == set()
