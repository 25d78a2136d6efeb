"""The package's import layering and callers, read from the source with ast.

Every import of a kgraphlab module sits at module level, the graph of
imports between the package's modules has no cycle, attributes are set
only on self or cls, a path table is made only by its graph, every
definition has a caller outside the tests, and every attribute a class sets
has a reader outside the tests, or a listed reason to stay.
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


def test_only_kgraph_converts_between_names_and_codes(trees):
    """Edge names and code words meet in kgraph alone: no other module reads its conversions."""
    conversions = {"_decode", "_code", "_names"}
    readers = sorted((name, node.lineno) for name, tree in trees.items() if name != "kgraph"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr in conversions)
    assert readers == []


def test_no_module_sets_an_attribute_of_another_object(trees):
    """Every attribute store or delete in the package is on self or cls.

    An object's state is set by its own class, so no layer keeps its data
    on another layer's objects (as graph._window = window once did).  A
    write through a subscript, table.canonical[key] = form, stores into a
    container the object exposes and is no attribute store.
    """
    stores = sorted((name, node.lineno) for name, tree in trees.items() for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))
                    and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")))
    assert stores == []


def _calls(tree, name):
    """The enclosing class and function names, dotted, of each call to name in a module."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == name or getattr(f, "attr", None) == name:
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_only_a_graph_makes_its_path_table(trees):
    """PathTable is called only in KGraph.__init__: each graph makes its one table.

    Every evaluation on a graph's paths runs in that table, so no layer
    makes a table of its own, not even one that dies after a call.
    """
    makers = [(name, where) for name, tree in trees.items() for where in _calls(tree, "PathTable")]
    assert makers == [("kgraph", "KGraph.__init__")]


# definitions no code in src/ or bench/ names, each with its reason to stay
_DUALITY = "for the Λ/Λᵒᵖ duality groupoid's checks (ROADMAP); it goes if they never land"
UNCALLED = {
    "coeff": "the only public reader of a convolution element's values",
    "act": "the public reader of an operator's image on one basis vector, as coeff is for a "
           "convolution element",
    "theta_twist": _DUALITY,
    "theta_untwist": _DUALITY,
    "two_sided_cocycle": _DUALITY,
    "star": "the involution that the Cuntz-like relation S₁*S₂ = S₂S₁* needs (ROADMAP item "
            "20); it goes if that item never lands",
}


def _outside_tests():
    """The parsed modules of src/ and bench/."""
    root = PACKAGE.parents[1]
    paths = [*root.joinpath("src").rglob("*.py"), *root.joinpath("bench").rglob("*.py")]
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _body(fn) -> list:
    return fn.body if isinstance(fn.body, list) else [fn.body]  # a lambda's is one expression


def _locals(fn):
    """A function's parameters and the names its own body assigns, less global or nonlocal ones."""
    args = fn.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a}
    declared, todo = set(), list(_body(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):  # nested scopes keep their own
            todo.extend(ast.iter_child_nodes(node))
    return names - declared


def _spelled(tree) -> set:
    """The names a module spells as an attribute, an import, or a bare name of no function's.

    A bare name that is a parameter or local of an enclosing function names
    that variable, so it calls nothing.
    """
    named = set()

    def visit(node, shadowed):
        if isinstance(node, ast.Name) and node.id not in shadowed:
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.rpartition(".")[2])
        inner, body = shadowed, ()
        if isinstance(node, _FUNCTIONS):
            inner, body = shadowed | _locals(node), _body(node)
        for child in ast.iter_child_nodes(node):  # decorators and defaults run outside
            visit(child, inner if child in body else shadowed)

    visit(tree, frozenset())
    return named


def test_every_definition_has_a_caller(trees):
    """Every function, method and class of the package is named outside tests.

    A definition counts as called when some Attribute or import in src/ or
    bench/ spells its name, or some bare Name that is no parameter or local
    of an enclosing function (dunders are called by the language).  The
    check is by name only: a name shared with another definition hides an
    orphan, so it can miss one, but it never flags a name in use.
    """
    named = set().union(*map(_spelled, _outside_tests()))
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    assert sorted(defined - named) == sorted(UNCALLED)


def test_a_local_of_the_same_name_is_no_caller():
    # a loop variable, parameter or assignment shadows the definition inside its function
    orphan = "def act(): pass\n"
    for body in ("for act in atoms:\n        act()", "act = atoms[0]\n    act()"):
        assert "act" not in _spelled(ast.parse(f"{orphan}def pool(atoms):\n    {body}\n"))
    assert "act" not in _spelled(ast.parse(f"{orphan}pool = lambda act: act()\n"))
    assert "act" in _spelled(ast.parse(f"{orphan}def pool(atoms):\n    act()\n"))
    assert "act" in _spelled(ast.parse(f"{orphan}def pool(atoms, f=act):\n    f()\n"))


# attributes no code in src/ or bench/ reads, each with its reason to stay
UNREAD = {
    "FixtureError.line": "the message carries the location; tests assert it field by field",
    "FixtureError.column": "the message carries the location; tests assert it field by field",
    "DomainError.point": "the point outside the domain, for a caller that catches the error",
    "DiagonalAlgebra.projections": "each word's fixed set, what the algebra is generated from",
    "KernelFiltration.labels": "the cocycle itself; tests check that it is additive",
}


def _set_attributes(tree):
    """(class, attribute) for each field and instance attribute a class of the module sets.

    Fields are the annotated names of a class body; instance attributes are
    the self.x stores and object.__setattr__(self, "x", ...) calls of its
    methods.
    """
    found = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                found.add((cls.name, stmt.target.id))
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    found.add((cls.name, node.attr))
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "__setattr__" and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)):
                    found.add((cls.name, node.args[1].value))
    return found


def test_every_attribute_has_a_reader(trees):
    """Every attribute a package class sets is read as .name outside tests.

    Like the caller check, this goes by name only: an unread field with a
    name that other code reads, such as source or coords, passes unseen.
    """
    read = {node.attr for tree in _outside_tests() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {f"{cls}.{attr}" for tree in trees.values()
              for cls, attr in _set_attributes(tree) if attr not in read}
    assert sorted(unread) == sorted(UNREAD)
