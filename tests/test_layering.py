"""The package's import layering, read from the source with ast.

Every import of a kgraphlab module sits at module level, and the graph of
imports between the package's modules has no cycle.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kgraphlab"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _package_targets(node, modules):
    """The package modules an import statement names."""
    if isinstance(node, ast.Import):
        dotted = [a.name for a in node.names]
    else:
        module = ".".join(filter(None, ["kgraphlab" if node.level else "", node.module]))
        dotted = [module] + [f"{module}.{a.name}" for a in node.names]
    return {d.split(".")[1] for d in dotted if d.startswith("kgraphlab.")} & set(modules)


@pytest.fixture(scope="module")
def trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def test_sources_found(trees):
    assert {"dynsys", "duality", "groupoid"} <= set(trees)


def test_imports_sit_at_module_level(trees):
    nested = [(name, node.lineno) for name, tree in trees.items()
              for node in _imports(tree) if node not in tree.body]
    assert nested == []


def test_module_imports_have_no_cycle(trees):
    graph = {name: set().union(*(_package_targets(n, trees) for n in _imports(tree)))
             for name, tree in trees.items()}
    assert graph["dynsys"] <= {"errors", "reporting", "shapes"}
    # depth-first search: a module met again while still on the stack closes a cycle
    state, stack = {}, []

    def visit(name):
        state[name] = "open"
        stack.append(name)
        for dep in sorted(graph[name]):
            assert state.get(dep) != "open", f"import cycle: {' -> '.join(stack + [dep])}"
            if dep not in state:
                visit(dep)
        stack.pop()
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            visit(name)
