"""The package's modules import one another without a cycle, and no module
or test imports a name it never reads."""

import ast
from pathlib import Path

import pytest

import strictpat

PACKAGE = Path(strictpat.__file__).parent


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
