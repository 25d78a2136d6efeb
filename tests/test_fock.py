"""Creation-operator layer tests.

Expected vectors are rebuilt in this file by hand (shape arithmetic, explicit
path composition, explicit span predicates) and compared against the lazy
operator evaluation, so the operator tree is never trusted to check itself.
"""

import dataclasses
import operator
import random
from fractions import Fraction

import pytest

from kgraphlab import fock
from kgraphlab.errors import ConfigError, GraphError, ShapeError
from kgraphlab.fock import (
    VACUUM,
    DiagonalAlgebra,
    FixedSetAlgebra,
    PartialMap,
    Product,
    Sum,
    creation_commutation,
    diagonal_algebra,
    fock_basis,
    left_creation,
    level_projection,
    mixed_range_projection,
    obstruction_report,
    operators_agree,
    right_creation,
    shape_floor_projection,
    source_projection,
    target_projection,
    verify_identity,
    verify_shape_floor,
    RELATION_NAMES,
)
from kgraphlab.kgraph import (
    KGraph,
    Path,
    PathTable,
    flip_graph,
    grid_graph,
    one_loop_per_color_graph,
    single_vertex_graph,
)
from kgraphlab.shapes import INF, ExtendedShape, Shape

from conftest import index_entries


@pytest.fixture(scope="module")
def rank1():
    return single_vertex_graph((2,), name="two_loops")


def unique_path(graph, shape):
    paths = graph.enumerate_paths(Shape(*shape))
    assert len(paths) == 1
    return paths[0]


def _partial_injection_witness(op, basis):
    """The first (b, evidence) where op is not a partial injection on basis, or None."""
    hit = {}
    for b in basis:
        out = op.act(b)
        if not out:
            continue
        if len(out) != 1 or next(iter(out.values())) != 1:
            return b, out
        img = next(iter(out))
        if img in hit:
            return b, hit[img]
        hit[img] = b
    return None


def _moved(op, basis):
    """The basis elements op neither fixes nor kills, with their images."""
    return [(b, out) for b in basis if (out := op.act(b)) and out != {b: 1}]


def _fixed_set(op, basis):
    return frozenset(b for b in basis if op.act(b) == {b: 1})


def _combine(pairs):
    """The sum of c * vector over (vector, c) pairs, zero entries dropped."""
    out = {}
    for vec, c in pairs:
        for b, v in vec.items():
            out[b] = out.get(b, 0) + c * v
    return {b: v for b, v in out.items() if v}


def _reference_act(op, b):
    """Vector evaluation as it was before operators became partial maps.

    Products apply their factors to whole vectors, right to left, sums add
    their (coefficient, term) pairs' vectors, and the annihilations go
    through the public factorize after a Shape dominance test; creations and
    projections act through their own act.
    """
    if isinstance(op, Product):
        vec = {b: 1}
        for f in reversed(op.factors):
            vec = _combine((_reference_act(f, x), c) for x, c in vec.items())
        return vec
    if isinstance(op, Sum):
        return _combine((_reference_act(t, b), c) for c, t in op.terms)
    if not isinstance(op, fock.PathOperator) or op.create:
        return op.act(b)
    p, left = op.path, op.left
    if b is VACUUM:
        return {VACUUM: 1} if not p.codes else {}
    if not p.shape <= b.shape:
        return {}
    head, tail = p.graph.factorize(b, p.shape if left else b.shape - p.shape)
    kept, rest = (head, tail) if left else (tail, head)
    if kept != p:
        return {}
    return {VACUUM: 1} if not rest.codes else {rest: 1}


# -- basic actions ---------------------------------------------------------------


def test_creations_on_vacuum(n2graph):
    lam = unique_path(n2graph, (1, 0))
    assert left_creation(n2graph, lam).act(VACUUM) == {lam: 1}
    assert right_creation(n2graph, lam).act(VACUUM) == {lam: 1}


def test_annihilation_returns_vacuum(n2graph):
    lam = unique_path(n2graph, (1, 1))
    assert left_creation(n2graph, lam).adjoint().act(lam) == {VACUUM: 1}
    assert right_creation(n2graph, lam).adjoint().act(lam) == {VACUUM: 1}
    assert left_creation(n2graph, lam).adjoint().act(VACUUM) == {}


def test_annihilation_factor_mismatch(flip22):
    a0 = flip22.path(["a0"])
    a1 = flip22.path(["a1"])
    # a1/b0 has left blue factor a1, not a0
    mu = flip22.compose(a1, flip22.path(["b0"]))
    assert left_creation(flip22, a0).adjoint().act(mu) == {}
    assert left_creation(flip22, a1).adjoint().act(mu) == {flip22.path(["b0"]): 1}


def test_endpoint_mismatch_gives_zero(grid11):
    # a1.00 runs v10 -> v00, so prepending it needs target v10
    lam = grid11.path(["a1.00"])
    good = [p for p in grid11.all_paths(Shape(1, 1)) if p.target == "v10"]
    bad = [p for p in grid11.all_paths(Shape(1, 1)) if p.target != "v10"]
    L = left_creation(grid11, lam)
    assert good and bad
    for p in good:
        assert L.act(p) == {grid11.compose(lam, p): 1}
    for p in bad:
        assert L.act(p) == {}


def test_vertex_creation_acts_as_projection(grid11):
    a = "v01"
    va = grid11.vertex(a)
    L = left_creation(grid11, va)
    P = target_projection(grid11, a)
    assert L.act(VACUUM) == {VACUUM: 1}
    for b in fock_basis(grid11, Shape(2, 1)):
        assert L.act(b) == P.act(b)
        assert L.adjoint().act(b) == P.act(b)


def test_vertex_creation_is_its_span_projection(grid11):
    # prepending a vertex keeps the paths with that target, appending it those
    # with that source; each is a SpanProjection and its own adjoint
    basis = fock_basis(grid11, Shape(1, 1)) + tuple(map(grid11.vertex, grid11.vertices))
    for v in grid11.vertices:
        for create, project, end in ((left_creation, target_projection, "target"),
                                     (right_creation, source_projection, "source")):
            C = create(grid11, grid11.vertex(v))
            assert isinstance(C, fock.SpanProjection) and C.adjoint() is C
            assert repr(C) == f"proj[{end}={v}]"
            assert [C.act(b) for b in basis] == [project(grid11, v).act(b) for b in basis]


def test_two_sided_concatenation_on_n2(n2graph):
    # appending the vertical loop and prepending the horizontal one lands on
    # the unique path one step up in both coordinates
    L = left_creation(n2graph, unique_path(n2graph, (1, 0)))
    R = right_creation(n2graph, unique_path(n2graph, (0, 1)))
    RL = Product((R, L))
    assert RL.act(VACUUM) == {unique_path(n2graph, (1, 1)): 1}
    for p, q in [(1, 0), (0, 1), (2, 1), (1, 3), (2, 2)]:
        start = unique_path(n2graph, (p, q))
        want = unique_path(n2graph, (p + 1, q + 1))
        assert RL.act(start) == {want: 1}


def test_operator_arithmetic(n2graph):
    lam = unique_path(n2graph, (1, 0))
    L = left_creation(n2graph, lam)
    basis = fock_basis(n2graph, Shape(2, 2))
    two = 2 * L
    diff = L - L
    for b in basis:
        image = L.act(b)
        assert two.act(b) == {k: 2 * v for k, v in image.items()}
        assert diff.act(b) == {}
    with pytest.raises(ConfigError):
        Sum(((1.5, L),))


def test_operators_are_immutable(n2graph):
    lam = unique_path(n2graph, (1, 0))
    L = left_creation(n2graph, lam)
    for op in (L, L.adjoint(), right_creation(n2graph, lam), 2 * L, L + L, L * L,
               level_projection(n2graph, 1), Product(())):
        assert not hasattr(op, "__dict__")
        with pytest.raises(AttributeError):
            op.path = lam


# -- structural invariants -------------------------------------------------------


def test_atoms_are_partial_injections(graph_family):
    for g in graph_family:
        basis = fock_basis(g, Shape(2, 2))
        for e in g.edges:
            p = g.path([e.name])
            for op in (left_creation(g, p), left_creation(g, p).adjoint(),
                       right_creation(g, p), right_creation(g, p).adjoint()):
                witness = _partial_injection_witness(op, basis)
                assert witness is None, (g.name, op, witness)


def test_catalog_projections_fix_or_kill(graph_family):
    for g in graph_family:
        basis = fock_basis(g, Shape(2, 2))
        ops = [level_projection(g, 1), level_projection(g, 2),
               shape_floor_projection(g, Shape(1, 1))]
        for a in g.vertices:
            ops += [target_projection(g, a), source_projection(g, a),
                    Product((target_projection(g, a), level_projection(g, 1))),
                    Product((source_projection(g, a), level_projection(g, 2)))]
        for P in ops:
            moved = _moved(P, basis)
            assert not moved, (g.name, P, moved)
            # projections square to themselves and are self-adjoint
            for twin in (Product((P, P)), P.adjoint()):
                agree, _, bad = operators_agree(twin, P, basis)
                assert agree, (g.name, P, twin, bad)


def test_adjoint_involution(flip22):
    lam = flip22.path(["a0"])
    mu = flip22.path(["b1"])
    L = left_creation(flip22, lam)
    R = right_creation(flip22, mu)
    basis = fock_basis(flip22, Shape(2, 2))
    for op in (L, R, Product((L.adjoint(), R)), L - 2 * R,
               Product((R.adjoint(), L, L.adjoint(), R))):
        agree, _, bad = operators_agree(op.adjoint().adjoint(), op, basis)
        assert agree, (op, bad)


def test_adjoint_moves_across_inner_product(flip22):
    def dot(u, v):
        return sum(c * v.get(b, 0) for b, c in u.items())

    lam = flip22.path(["a0"])
    mu = flip22.path(["b0"])
    L = left_creation(flip22, lam)
    R = right_creation(flip22, mu)
    basis = fock_basis(flip22, Shape(1, 1))
    for T in (L, R, Product((L.adjoint(), R)), L + R):
        Tstar = T.adjoint()
        for u in basis:
            for v in basis:
                assert dot(Tstar.act(u), {v: 1}) == dot({u: 1}, T.act(v))


def test_catalog_instances_match_the_reference_evaluation(graph_family):
    for g in graph_family:
        basis = fock_basis(g, Shape(2, 2))
        a = g.enumerate_paths(Shape(1, 0))[0]
        L, R = left_creation(g, a), right_creation(g, a)
        mixed = [("mixed", (L - 2 * R) * L.adjoint(),
                  R.adjoint() * (Product(()) - L * L.adjoint()))]
        for name in RELATION_NAMES:
            for label, lhs, rhs in [*fock._CATALOG[name](g._table, Shape(2, 2)), *mixed]:
                for b in basis:
                    assert lhs.act(b) == _reference_act(lhs, b), (g.name, name, label, b)
                    assert rhs.act(b) == _reference_act(rhs, b), (g.name, name, label, b)


def test_products_are_partial_maps_exactly_when_their_factors_are(n2graph):
    lam = unique_path(n2graph, (1, 0))
    L, R = left_creation(n2graph, lam), right_creation(n2graph, lam)
    assert isinstance(Product((L.adjoint(), target_projection(n2graph, "u"), R, Product(()))),
                      PartialMap)
    assert isinstance(Product((L, Product((R, R.adjoint())))), PartialMap)
    for factor in (L + R, 2 * R, 1 * R):
        with pytest.raises(ConfigError):
            Product((L, factor))
        assert not isinstance(L * factor, PartialMap)


def _random_operator(rng, atoms, depth):
    """A random expression over atoms: products, sums, differences, multiples, adjoints."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(atoms)
    kind = rng.choice(("product", "sum", "difference", "multiple", "adjoint"))
    a = _random_operator(rng, atoms, depth - 1)
    if kind == "multiple":
        return rng.choice((0, -1, 2, 3)) * a
    if kind == "adjoint":
        return a.adjoint()
    b = _random_operator(rng, atoms, depth - 1)
    return {"product": operator.mul, "sum": operator.add, "difference": operator.sub}[kind](a, b)


def _in_normal_form(op):
    """A partial map, or a Sum of (int, partial map) terms with no zero coefficient."""
    return isinstance(op, PartialMap) or (isinstance(op, Sum) and all(
        type(c) is int and c and isinstance(t, PartialMap) for c, t in op.terms))


def test_random_expressions_keep_the_normal_form(graph_family):
    # the algebra is checked against vector arithmetic on its operands' actions
    rng = random.Random(2008)
    for g in graph_family:
        basis = fock_basis(g, Shape(2, 2))
        atoms = [op for e in g.edges for create in (left_creation, right_creation)
                 for op in (create(g, g.path([e.name])), create(g, g.path([e.name])).adjoint())]
        for _ in range(30):
            A, B, C = (_random_operator(rng, atoms, 3) for _ in range(3))
            k = rng.choice((0, -1, 2))
            assert all(map(_in_normal_form, (A, B, C, A * B, A + B, A - B, k * A, A.adjoint())))
            for b in basis:
                a, c = A.act(b), B.act(b)
                assert a == _reference_act(A, b), (g.name, A, b)
                assert (A * B).act(b) == _combine((A.act(x), n) for x, n in c.items())
                assert (A + B).act(b) == _combine([(a, 1), (c, 1)])
                assert (A - B).act(b) == _combine([(a, 1), (c, -1)])
                assert (k * A).act(b) == _combine([(a, k)])
            # the adjoint moves across the inner product
            images = {v: A.act(v) for v in basis}
            for u in basis:
                back = A.adjoint().act(u)
                assert all(back.get(v, 0) == images[v].get(u, 0) for v in basis), (g.name, A, u)
            agree, _, bad = operators_agree((A + B) * C, A * C + B * C, basis)
            assert agree, (g.name, A, B, C, bad)
            with pytest.raises(ConfigError):
                Product((C, A + B))
            with pytest.raises(ConfigError):
                Sum(((Fraction(1, 2), rng.choice(atoms)),))


def _table_state(table):
    """What a table keeps: ids and their keys, compositions (its left rows' entries), splits
    (its head columns'), enumerated shapes, Path objects, canonical forms and bases.

    A right row or tail column holds only answers its left rows or head
    columns hold too, since it reads through them.
    """
    return (len(table.words), len(table._ids), len(index_entries(table.left_rows)),
            len(index_entries(table.head_columns)), len(table._paths), len(table._objects),
            len(table.canonical), len(table.bases))


def _graph_state(g):
    """What a graph keeps, its kernel passes left out."""
    return {name: len(v) if isinstance(v, dict) else _table_state(v)
            if isinstance(v, PathTable) else v
            for name, v in vars(g).items() if name != "_passes"}


def test_window_evaluation_matches_the_reference(graph_family):
    """Random expressions evaluated over a second PathTable of the graph match _reference_act.

    The reference evaluates each basis vector on its own: products and sums
    as whole vectors, annihilations through the public factorize, and
    creations through act, in a table of their own.

    Each operator maps the whole list of basis ids at once, to one image per
    id: None for zero, an id for a single vector with coefficient 1, and an
    {id: coefficient} dict otherwise.  The shared table keeps every
    composition and split it has made, across all the operators evaluated
    in it; images whose shape leaves the bound are interned too and must
    read back as the same paths.  operators_agree keeps its public
    contract, (ok, checked, [(basis element, vector, vector)]), and an
    evaluation on a basis the caller supplies keeps what it makes in the
    graph's own table and nowhere else on the graph: the table keeps no new
    basis.  The reference's factorize answers from the graph's table, so it
    runs after.
    """
    rng = random.Random(2014)
    bound = Shape(2, 2)
    outside = {}  # graph -> compared images with a path whose shape leaves the bound
    for g in graph_family:
        basis = fock_basis(g, bound)
        atoms = [op for e in g.edges for create in (left_creation, right_creation)
                 for op in (create(g, g.path([e.name])), create(g, g.path([e.name])).adjoint())]
        algebra = diagonal_algebra(g, 2, Shape(1, 1))  # built in the graph's table
        state = _graph_state(g)
        table = PathTable(g)
        ids = fock._ids(table, basis)
        assert ids[0] == fock.VAC and table.graph is g
        ops = [_random_operator(rng, atoms, 3) for _ in range(30)]
        evaluated = [A.on(table)(ids) for A in ops]
        a = g.enumerate_paths(Shape(1, 0))[0]
        lhs, rhs = left_creation(g, a), right_creation(g, a) - left_creation(g, a)
        ok, checked, failures = operators_agree(lhs, rhs, basis)
        obstruction_report(g, a, a, algebra=algebra)
        after = _graph_state(g)  # the bases are the last entry of a table's state
        assert after.pop("_table")[-1] == state.pop("_table")[-1] and after == state, g.name

        outside[g.name] = 0
        for A, images in zip(ops, evaluated):
            assert len(images) == len(basis)
            for b, image in zip(basis, images):
                want = _reference_act(A, b)
                assert fock._vector_out(table, image) == want, (g.name, A, b)
                if isinstance(image, dict):
                    assert len(want) > 1 or set(want.values()) != {1}, (g.name, A, b)
                outside[g.name] += any(x is not VACUUM and not x.shape <= bound for x in want)
        assert not ok and type(checked) is int and type(failures) is list
        assert 0 < len(failures) <= 3 and checked <= len(basis)
        for b, lv, rv in failures:
            assert b in basis and all(x is VACUUM or isinstance(x, Path) for x in (*lv, *rv))
            assert (lv, rv) == (_reference_act(lhs, b), _reference_act(rhs, b))
    # every path of the 1x1 grid has shape <= (1, 1); the loop graphs leave the bound
    assert [name for name, n in outside.items() if n] == ["free_abelian_2", "flip2x2"]


def test_relation_work_counts_are_pinned(monkeypatch):
    """Kernel work per relation report: each distinct input once per graph.

    A report joins each distinct (path, path) composition once (a vertex
    operand needs none) and splits each distinct (path, head grade) once.
    On a fresh flip graph, R1 at (2,2) asks for 4,704 compositions, 2,304
    of them distinct and of two edge words, and 4,800 splits, 2,400
    distinct: a left strip and a right one can ask for the same split.  R4
    at (3,3) asks for 47,600 splits; the terms of a range sum share one per
    vector, the table answers a right strip's negative grade without the
    kernel, and 3,584 reach the kernel, which answers None where a left
    strip's grade does not fit.  The reports on one graph share its path
    table: after R1, commutation makes 2,816 of its 3,520 joins, and after
    both R4 makes 512 joins and 2,496 splits; a second, identical round
    makes none.  "_sort"
    counts the passes the graph sorts, and "moves" the square moves they
    make.  Fock work over ids makes no Path object the table keeps beyond
    the paths it enumerated.
    """
    counts = {}
    for name in ("_join", "_split", "_sort"):
        def counted(*args, _name=name, _inner=getattr(KGraph, name)):
            counts[_name] = counts.get(_name, 0) + 1
            return _inner(*args)
        monkeypatch.setattr(KGraph, name, counted)

    class CountedMoves(dict):
        def __getitem__(self, key):
            counts["moves"] = counts.get("moves", 0) + 1
            return super().__getitem__(key)

    def counted_flip():
        g = flip_graph()
        g._moves = CountedMoves(g._moves)
        return g

    # relation, bound, checked, work on a fresh graph, work in the shared first round
    expected = [
        ("R1", (2, 2), 4802, {"_join": 2304, "_split": 2400, "_sort": 72, "moves": 200},
         {"_join": 2304, "_split": 2400, "_sort": 72, "moves": 200}),
        ("commutation", (2, 2), 3136, {"_join": 3520, "_sort": 52, "moves": 132},
         {"_join": 2816, "_sort": 32, "moves": 96}),
        ("R4", (3, 3), 6750, {"_join": 1952, "_split": 3584, "_sort": 392, "moves": 2312},
         {"_join": 512, "_split": 2496, "_sort": 288, "moves": 2016}),
    ]
    for name, bound, checked, fresh, _ in expected:
        counts.clear()
        report = verify_identity(counted_flip(), name, bound)
        assert (report.ok, report.checked, counts) == (True, checked, fresh), name
    g = counted_flip()
    for first in (True, False):
        for name, bound, checked, _, shared in expected:
            counts.clear()
            report = verify_identity(g, name, bound)
            assert (report.ok, report.checked, counts) == (True, checked, shared if first else {})
    assert len(g._passes) == 72 + 32 + 288
    table = g._table
    enumerated = [p for paths in table._paths.values() for p in paths]
    assert list(table._objects.values()) == enumerated and not table.canonical


def test_the_path_layer_answers_from_the_reports_rows(monkeypatch):
    """The path layer and the Fock layer share one store of the graph's paths.

    After flip's R1 report at (1,1), KGraph.compose on every pair the report
    composed, and KGraph.factorize on every split it made, runs no kernel
    join or split, and answers with the report's ids.
    """
    g = flip_graph()
    assert verify_identity(g, "R1", (1, 1)).ok
    table = g._table
    composed = [entry for entry in index_entries(table.left_rows) if entry[2] is not None]
    splits = [(x, grade, s) for grade, x, s in index_entries(table.head_columns) if s is not None]
    assert len(composed) == 64 and len(splits) == 80
    calls = []
    for name in ("_join", "_split"):
        monkeypatch.setattr(KGraph, name, lambda *args, _name=name: calls.append(_name))
    for i, j, y in composed:
        assert g.compose(table.path(i), table.path(j)) is table.path(y)
    for x, grade, (head, tail) in splits:
        got = g.factorize(table.path(x), grade)
        assert [table.id_of(p) if p.codes else fock.VAC for p in got] == [head, tail]
    assert calls == []


def test_graph_keeps_its_passes_and_one_table():
    """Every flip relation at (3,3) leaves the graph its kernel passes and one PathTable.

    The passes are the (left word, right word) pairs a join or a split
    sorts: 456 of them on flip at (3,3), a few KiB.  The table holds the
    reports' one basis, its 15 enumerated nonzero shapes as 224 Paths of
    its own, and the ids, compositions and splits they made: 16,128 ids,
    most of them R1's composites of shape up to (6,6), 61,952 compositions
    and 51,808 splits.
    """
    g = flip_graph()
    attributes = set(vars(g))
    for name in RELATION_NAMES:
        assert verify_identity(g, name, Shape(3, 3)).ok, name
    assert set(vars(g)) == attributes
    assert isinstance(g._table, PathTable) and g._table.graph is g
    assert _table_state(g._table) == (16128, 16128, 61952, 51808, 15, 224, 0, 1)
    assert len(g._passes) == 456


@pytest.mark.parametrize("right_first", [True, False], ids=["right-or-tail-first",
                                                            "left-or-head-first"])
def test_the_indexes_answer_as_the_kernel_once_per_question(monkeypatch, right_first):
    """Creations and strips read through a table's indexes are the kernel's own answers.

    On fresh flip, n2 and grid2x2 graphs at (2,2) and the rank-1 two-loop
    graph at (2,), every basis path creates and strips, on both sides, on
    every basis id and on None, reading one inner dict per operator with
    map: the right rows and tail columns first, or the left rows and head
    columns first.  Each answer is _join's or _split's on the words, and
    each distinct question reaches the kernel exactly once, whichever side
    asks first: a right row reads through its operand's left row and a
    tail column through a head column, and a tail shape that does not fit
    asks nothing.  The right rows and tail columns keep only answers the
    left rows and head columns keep too.
    """
    join, split = KGraph._join, KGraph._split
    asked = []
    monkeypatch.setattr(KGraph, "_join", lambda g, p, q: asked.append(("join", p, q))
                        or join(g, p, q))
    monkeypatch.setattr(KGraph, "_split", lambda g, w, n, k: asked.append(("split", w, k))
                        or split(g, w, n, k))
    for g, bound in ((flip_graph(), (2, 2)), (one_loop_per_color_graph(2), (2, 2)),
                     (grid_graph((2, 2)), (2, 2)), (single_vertex_graph((2,)), (2,))):
        asked.clear()
        table, basis = g._table, fock_basis(g, bound)
        xs, words, coords = [*fock._ids(table, basis), None], table.words, table.coords
        got = {}
        for left in (False, True) if right_first else (True, False):
            rows, columns = ((table.left_rows, table.head_columns) if left
                             else (table.right_rows, table.tail_columns))
            for p in (b._id for b in basis[1:]):
                row, column = rows[p], columns[coords[p]]
                got[left, p] = list(map(row.__getitem__, xs)), list(map(column.__getitem__, xs))

        questions = set()
        for (left, p), (created, stripped) in got.items():
            for x, c, s in zip(xs, created, stripped):
                if x is None or x == fock.VAC:
                    assert (c, s) == (None if x is None else p, None), (g.name, p, x)
                    continue
                a, b = (p, x) if left else (x, p)
                if table.sources[a] == table.targets[b]:
                    questions.add(("join", words[a], words[b]))
                    assert words[c] == join(g, words[a], words[b]), (g.name, left, p, x)
                else:
                    assert c is None, (g.name, left, p, x)
                grade = coords[p] if left else tuple(map(operator.sub, coords[x], coords[p]))
                cut = None
                if min(grade) >= 0:
                    questions.add(("split", words[x], grade))
                    cut = split(g, words[x], coords[x], grade)
                assert (s and tuple(() if i == fock.VAC else words[i] for i in s)) == cut, (
                    g.name, left, p, x)
        assert len(asked) == len(set(asked)) and set(asked) == questions, g.name
        lefts = {(i, x): y for i, x, y in index_entries(table.left_rows)}
        heads = {(m, x): s for m, x, s in index_entries(table.head_columns)}
        assert all(lefts[x, j] == y for j, x, y in index_entries(table.right_rows)), g.name
        assert all(s is (None if min(m) < 0 else heads[m, x])
                   for n, x, s in index_entries(table.tail_columns)
                   for m in [tuple(map(operator.sub, coords[x], n))]), g.name


def test_a_callers_basis_runs_in_the_graphs_table():
    """Evaluations on a basis or element the caller supplies run in the graph's table.

    A report given basis=, operators_agree, act and obstruction_report each
    keep their compositions and splits there.  The same reports without a
    basis build their basis from (graph, bound) and give the same answers,
    finding every composition and split they need already kept.
    """
    g = flip_graph()
    a0, b1 = g.path(["a0"]), g.path(["b1"])
    algebra = diagonal_algebra(g, 2, Shape(1, 1))
    basis = fock_basis(g, (2, 2))
    assert fock_basis(g, Shape(2, 2)) is basis
    a0b1 = g.path(["a0", "b1"])
    before = _table_state(g._table)
    supplied = (verify_shape_floor(g, (1, 1), (2, 2), basis),
                creation_commutation(g, a0, b1, (2, 2), basis))
    assert all(supplied)
    assert operators_agree(left_creation(g, a0), left_creation(g, a0), basis)[0]
    assert left_creation(g, a0).act(b1) == {a0b1: 1}
    assert obstruction_report(g, a0, a0, algebra=algebra).in_one_sided
    after = _table_state(g._table)
    assert after != before
    built = (verify_shape_floor(g, (1, 1), (2, 2)), creation_commutation(g, a0, b1, (2, 2)))
    assert built == supplied and _table_state(g._table) == after


def test_a_callers_basis_reuses_the_reports_compositions(monkeypatch):
    """After R1 at (2,2), its isometries on the (2,2) basis supplied by hand run no kernel.

    operators_agree evaluates in the graph's table, where the report kept
    every composition and split the isometries make.
    """
    g = flip_graph()
    assert verify_identity(g, "R1", (2, 2))
    basis, calls = fock_basis(g, (2, 2)), []
    for name in ("_join", "_split"):
        kernel = getattr(KGraph, name)
        monkeypatch.setattr(KGraph, name, lambda self, *args, name=name, kernel=kernel:
                            calls.append(name) or kernel(self, *args))
    for mu in g.all_paths((2, 2)):
        for create, project, end in ((left_creation, target_projection, mu.source),
                                     (right_creation, source_projection, mu.target)):
            C = create(g, mu)
            assert operators_agree(C.adjoint() * C, project(g, end), basis)[0], mu
    assert calls == []


def test_operands_of_two_graphs_raise():
    """An evaluation that meets paths of two graphs raises GraphError, whatever the route."""
    flip, n2 = flip_graph(), one_loop_per_color_graph(2)
    basis, a0 = fock_basis(flip, (1, 1)), flip.path(["a0"])
    lam = n2.enumerate_paths((1, 0))[0]
    with pytest.raises(GraphError):
        operators_agree(left_creation(n2, lam), left_creation(n2, lam), basis)
    with pytest.raises(GraphError):
        creation_commutation(n2, lam, lam, (1, 1), basis)
    with pytest.raises(GraphError):
        left_creation(flip, a0).act(lam)
    with pytest.raises(GraphError):
        (left_creation(flip, a0) * left_creation(n2, lam)).act(VACUUM)


def test_shape_arguments_take_a_coordinate_tuple():
    """Every shape-taking name of fock gives one answer for a Shape and for its coordinates.

    A Shape bound and a tuple bound share one basis in the graph's table.
    """
    g = flip_graph()
    lam = g.path(["a0"])
    for name in RELATION_NAMES:
        assert verify_identity(g, name, (2, 1)) == verify_identity(g, name, Shape(2, 1)), name
    assert list(g._table.bases) == [(2, 1)]
    assert fock_basis(g, (2, 1)) is fock_basis(g, Shape(2, 1))
    assert (verify_shape_floor(g, (1, 1), (2, 1))
            == verify_shape_floor(g, Shape(1, 1), Shape(2, 1)))
    assert (creation_commutation(g, lam, lam, (2, 1))
            == creation_commutation(g, lam, lam, Shape(2, 1)))
    assert diagonal_algebra(g, 2, (1, 1)) == diagonal_algebra(g, 2, Shape(1, 1))
    assert list(g._table.bases) == [(2, 1), (1, 1)]
    basis = fock_basis(g, (2, 1))
    assert ([shape_floor_projection(g, (1, 1)).act(b) for b in basis]
            == [shape_floor_projection(g, Shape(1, 1)).act(b) for b in basis])


@pytest.mark.parametrize("bad", [(INF, 1), ExtendedShape(1, INF), (1,), (0,), (1, 1, 1), (1, 0, 0)],
                         ids=["inf", "extended-inf", "rank-1", "rank-1-zero", "rank-3",
                              "rank-3-unit"])
def test_bad_bounds_raise_shape_error_and_keep_nothing(bad):
    """An INF or wrong-rank bound raises ShapeError on every call, before anything is kept.

    It raises with a basis supplied too, which the bound would not select;
    a fresh graph's table stays empty, and a used one keeps what it held.
    An INF or wrong-rank shape floor k raises ShapeError as well, before
    any basis is built; a zero k of the graph's rank keeps its ConfigError
    (test_shape_floor_rejects_zero).
    """
    fresh, used = flip_graph(), flip_graph()
    basis = fock_basis(used, (1, 1))
    a0s = {g: g.path(["a0"]) for g in (fresh, used)}
    held = {g: _table_state(g._table) for g in (fresh, used)}
    for g, a0 in a0s.items():
        calls = [lambda name=name: verify_identity(g, name, bad) for name in RELATION_NAMES]
        calls += [
            lambda: fock_basis(g, bad),
            lambda: diagonal_algebra(g, 1, bad),
            lambda: verify_shape_floor(g, (1, 0), bad),
            lambda: verify_shape_floor(g, (1, 0), bad, basis),
            lambda: creation_commutation(g, a0, a0, bad),
            lambda: creation_commutation(g, a0, a0, bad, basis),
            lambda: shape_floor_projection(g, bad),
            lambda: verify_shape_floor(g, bad, (1, 1)),
            lambda: verify_shape_floor(g, bad, (1, 1), basis),
        ]
        for call in calls * 2:
            with pytest.raises(ShapeError):
                call()
    assert held[fresh] == (1, 2, 0, 0, 0, 1, 0, 0)  # a0's id, keyed by word and name, and Path
    assert all(_table_state(g._table) == state for g, state in held.items())


def test_product_applies_right_to_left(n2graph):
    lam = unique_path(n2graph, (1, 0))
    L = left_creation(n2graph, lam)
    # L* then L fixes the vacuum; L then L* annihilates it
    assert Product((L.adjoint(), L)).act(VACUUM) == {VACUUM: 1}
    assert Product((L, L.adjoint())).act(VACUUM) == {}


# -- the relation catalog ----------------------------------------------------------


@pytest.mark.parametrize("name", RELATION_NAMES)
def test_relation_catalog_holds(graph_family, name):
    for g in graph_family:
        report = verify_identity(g, name, Shape(2, 2))
        assert report.ok, (g.name, name, report.counterexamples)
        assert report.checked > 0
        assert bool(report)


def test_unknown_relation_rejected(n2graph):
    with pytest.raises(ConfigError):
        verify_identity(n2graph, "R9", Shape(1, 1))


def test_level_projections_reject_bad_colors(flip22):
    # the R2 and R3 instances are built from these projections
    for j in (0, 3):
        with pytest.raises(ConfigError):
            level_projection(flip22, j)


def test_catalog_failing_reports_are_pinned():
    """A square table that is not a bijection breaks the catalog in fixed ways.

    The expected reports were captured from the catalog before it was folded
    into one table and one runner; they pin the verdict, the count and the
    first three counterexamples, in order, of a failing relation.
    """
    g = single_vertex_graph([2, 2], {(1, 2): {
        ("b0", "a0"): ("a1", "b0"), ("b0", "a1"): ("a1", "b0"),
        ("b1", "a0"): ("a0", "b1"), ("b1", "a1"): ("a1", "b1")}})

    def vec(v):
        return {b.display(): c for b, c in v.items()}

    r1 = verify_identity(g, "R1", (2, 2))
    assert r1.relation == "R1"
    assert (r1.ok, r1.checked, bool(r1)) == (False, 2618, False)
    assert [(label, b.display(), vec(lv), vec(rv))
            for label, b, lv, rv in r1.counterexamples] == [
        ("mu=b0", "a0", {"a1": 1}, {"a0": 1}),
        ("mu=b0", "a0/b0", {"a1/b0": 1}, {"a0/b0": 1}),
        ("mu=b0", "a0/b1", {"a1/b1": 1}, {"a0/b1": 1}),
    ]
    comm = verify_identity(g, "commutation", (2, 2))
    assert (comm.ok, comm.checked, comm.counterexamples) == (True, 3136, ())
    for name in ("R2", "R3", "R4"):
        with pytest.raises(GraphError, match="no inverse square for word a0,b0"):
            verify_identity(g, name, (2, 2))


def test_checks_stop_before_a_raising_vector_past_the_failures():
    """A vector that raises after the CAP+1st failure is never evaluated.

    On this table (b1,a0 has no square) the isometry of b0 fails at a1, then
    at a1/b0 and a1/b1 and a fourth vector, and only later reaches a word
    whose normal form needs the missing square.  Checked vector by vector,
    the check stops at the fourth failure and reports; the pinned figures
    are the per-vector answer.
    """
    g = single_vertex_graph([2, 2], {(1, 2): {
        ("b0", "a0"): ("a1", "b0"), ("b0", "a1"): ("a1", "b1"), ("b1", "a1"): ("a1", "b1")}})
    C = left_creation(g, g.path(["b0"]))
    ok, checked, failures = operators_agree(
        C.adjoint() * C, target_projection(g, "u"), fock_basis(g, Shape(2, 2)))
    assert (ok, checked) == (False, 18)
    assert [(b.display(), lv, {x.display(): c for x, c in rv.items()})
            for b, lv, rv in failures] == [
        ("a1", {}, {"a1": 1}), ("a1/b0", {}, {"a1/b0": 1}), ("a1/b1", {}, {"a1/b1": 1})]
    with pytest.raises(GraphError, match="no square for word b1,a0"):
        verify_identity(g, "R1", (2, 2))


def test_level_complement_fixed_sets(n2graph):
    # both one-sided color-1 range sums leave exactly the vertical spans fixed
    report = verify_identity(n2graph, "R3", Shape(3, 3))
    assert report.ok
    basis = fock_basis(n2graph, Shape(3, 3))
    expected = frozenset(
        b for b in basis
        if b is VACUUM or b.shape.coord(1) == 0)
    assert _fixed_set(level_projection(n2graph, 1), basis) == expected
    assert expected == frozenset(
        [VACUUM] + [unique_path(n2graph, (0, q)) for q in (1, 2, 3)])


def test_shape_floor_sums_match_flip(flip22):
    # left and right range sums at one blue step agree with the explicit span
    report = verify_shape_floor(flip22, Shape(1, 0), Shape(2, 2))
    assert report.ok
    basis = fock_basis(flip22, Shape(2, 2))
    floor = shape_floor_projection(flip22, Shape(1, 0))
    assert _fixed_set(floor, basis) == frozenset(
        b for b in basis if b is not VACUUM and b.shape.coord(1) >= 1)


def test_shape_floor_rejects_zero(flip22):
    with pytest.raises(ConfigError):
        shape_floor_projection(flip22, Shape(0, 0))
    with pytest.raises(ConfigError):
        verify_shape_floor(flip22, Shape(0, 0), Shape(1, 1))


def test_vertex_sum_counterexample_free_on_grid(grid11):
    for j in (1, 2):
        report = verify_identity(grid11, "R2", Shape(2, 2))
        assert report.ok, report.counterexamples


# -- commutation -------------------------------------------------------------------


def test_commutation_composable_pair(grid11):
    # a1.00: v10 -> v00, a2.00: v00 -> v01 reversed; pick a genuinely
    # composable pair by scanning
    paths = [p for p in grid11.all_paths(Shape(1, 1)) if not p.shape.is_zero]
    lam = next(p for p in paths for q in paths if p.source == q.target)
    mu = next(q for q in paths if lam.source == q.target)
    report = creation_commutation(grid11, lam, mu, Shape(2, 2))
    assert report.ok
    both = Product((left_creation(grid11, lam), right_creation(grid11, mu))).act(VACUUM)
    assert both == {grid11.compose(lam, mu): 1}


def test_commutation_brute_force_against_compose(flip22):
    lam = flip22.path(["a0"])
    mu = flip22.path(["b1"])
    L = left_creation(flip22, lam)
    R = right_creation(flip22, mu)
    for b in fock_basis(flip22, Shape(2, 2)):
        if b is VACUUM:
            want = {flip22.compose(lam, mu): 1}
        else:
            want = {flip22.compose(lam, flip22.compose(b, mu)): 1}
        assert Product((L, R)).act(b) == want
        assert Product((R, L)).act(b) == want


def test_vertex_projection_vacuum_asymmetry(grid11):
    # vertex creations are projections, and projections do not commute with
    # opposite-side creations at the vacuum; this pins why the commutation
    # catalog quantifies over nonzero shapes only
    mu = grid11.path(["a1.00"])  # target v00
    other = next(a for a in grid11.vertices if a != mu.target)
    P = target_projection(grid11, other)
    R = right_creation(grid11, mu)
    assert Product((R, P)).act(VACUUM) == {mu: 1}
    assert Product((P, R)).act(VACUUM) == {}
    report = creation_commutation(grid11, grid11.vertex(other), mu, Shape(1, 1))
    assert not report.ok
    label, where, lhs, rhs = report.counterexamples[0]
    assert where is VACUUM


def test_commutation_scan_all_small_pairs(graph_family):
    for g in graph_family:
        report = verify_identity(g, "commutation", Shape(2, 2))
        assert report.ok, (g.name, report.counterexamples)


# -- diagonal fixed-set algebra ------------------------------------------------------


def test_fixed_set_algebra_on_toy_data():
    algebra = FixedSetAlgebra(range(1, 7), [frozenset({1, 2}), frozenset({2, 3})])
    assert frozenset(map(frozenset, [{1}, {2}, {3}, {4, 5, 6}])) == algebra.atoms
    assert len(algebra) == 16
    assert {1, 3} in algebra
    assert {1, 2, 3} in algebra
    assert {4, 5} not in algebra
    assert {7} not in algebra
    assert set() in algebra
    same = FixedSetAlgebra(range(1, 7), [frozenset({1}), frozenset({2}), frozenset({3})])
    assert same == algebra and hash(same) == hash(algebra)


def test_rank1_mixed_words_collapse(rank1):
    algebra = diagonal_algebra(rank1, 4, Shape(4))
    assert isinstance(algebra, DiagonalAlgebra)
    assert algebra.full == algebra.one_sided
    assert algebra.projections["1"] == frozenset(algebra.basis)
    # every collected fixed set is closed into the algebra
    for fix in algebra.projections.values():
        assert fix in algebra.full


def test_n2_left_and_right_coincide(n2graph):
    # with one loop per color the two creation families are literally equal
    algebra = diagonal_algebra(n2graph, 4, Shape(2, 2))
    assert algebra.left_only == algebra.right_only
    assert algebra.full == algebra.one_sided
    lam = unique_path(n2graph, (1, 0))
    basis = fock_basis(n2graph, Shape(2, 2))
    agree, _, bad = operators_agree(left_creation(n2graph, lam),
                                    right_creation(n2graph, lam), basis)
    assert agree, bad


@pytest.fixture(scope="module")
def flip_algebra(flip22):
    return diagonal_algebra(flip22, 4, Shape(3, 2))


def test_flip_edge_probes_stay_one_sided(flip22, flip_algebra):
    for color_shape in [(1, 0), (0, 1), (1, 1)]:
        for lam in flip22.enumerate_paths(Shape(*color_shape)):
            for mu in flip22.enumerate_paths(Shape(*color_shape)):
                report = obstruction_report(flip22, lam, mu, algebra=flip_algebra)
                assert report.in_one_sided, (lam, mu)


def test_flip_deep_probes_escape_one_sided(flip22, flip_algebra):
    # every same-shape pair one blue and two red steps deep separates
    paths = flip22.enumerate_paths(Shape(1, 2))
    assert len(paths) == 8
    hits = 0
    for lam in paths:
        for mu in paths:
            report = obstruction_report(flip22, lam, mu, algebra=flip_algebra)
            assert not report.in_one_sided, (lam, mu)
            hits += 1
    assert hits == 64
    one = obstruction_report(flip22, paths[0], paths[0], algebra=flip_algebra)
    assert one.fixed_set
    assert one.fixed_set not in flip_algebra.one_sided


def test_flip_projection_labels_are_pinned(flip22):
    algebra = diagonal_algebra(flip22, 2, Shape(2, 2))
    assert list(algebra.projections) == [
        "l-a1 l+a0", "l+a0 l-a0", "l+a1 l-a1", "l+b0 l-b0", "l+b1 l-b1",
        "r+a0 r-a0", "r+a1 r-a1", "r+b0 r-b0", "r+b1 r-b1", "1"]


def test_one_sided_pools_keep_their_vertex_projections():
    # at word length 1 the one-sided pools hold only the vertex projections: p@ left, q@ right
    algebra = diagonal_algebra(grid_graph(Shape(2, 1)), 1, Shape(1, 1))
    sizes = [len(a.atoms) for a in (algebra.full, algebra.one_sided,
                                    algebra.left_only, algebra.right_only)]
    assert sizes == [10, 10, 6, 6]


def test_obstruction_report_acts_once_per_basis_vector(flip22, monkeypatch):
    # one compile of the mixed projection, in one table, then its images of all basis ids at once
    algebra = diagonal_algebra(flip22, 2, Shape(2, 2))
    lam = flip22.enumerate_paths(Shape(1, 2))[0]
    tables, calls = [], []
    on = Product.on

    def counted_on(op, table):
        tables.append(table)
        image = on(op, table)
        return lambda xs: calls.append([fock._vector_out(table, x) for x in xs]) or image(xs)

    monkeypatch.setattr(Product, "on", counted_on)
    monkeypatch.setattr(Product, "act", lambda op, b: pytest.fail("act per basis vector"))
    report = obstruction_report(flip22, lam, lam, algebra=algebra)
    assert len(tables) == 1 and tables[0] is flip22._table
    assert calls == [[{b: 1} for b in algebra.basis]]
    monkeypatch.undo()
    assert report.fixed_set == _fixed_set(mixed_range_projection(flip22, lam, lam), algebra.basis)
    assert sorted(map(repr, report.fixed_set)) == [
        "<a0/a0/b0/b0>", "<a0/a0/b0/b1>", "<a0/a0/b0>", "<a0/a0>", "<a0/b0/b0>",
        "<a0/b0>", "<a0>", "<b0/b0>", "<b0>", "<vacuum>"]
    assert not report.in_one_sided


def test_obstruction_report_names_the_first_moved_vector(flip22, monkeypatch):
    # an annihilator fixes nothing and moves <a0>, the first basis vector it does not kill
    algebra = diagonal_algebra(flip22, 2, Shape(2, 2))
    monkeypatch.setattr(fock, "mixed_range_projection",
                        lambda graph, lam, mu: left_creation(graph, lam).adjoint())
    a0 = flip22.path(["a0"])
    with pytest.raises(ConfigError) as err:
        obstruction_report(flip22, a0, a0, algebra=algebra)
    assert str(err.value) == "mixed projection is not a partial identity: (<a0>, {<vacuum>: 1})"


def test_flip_short_words_alone_do_not_separate(flip_algebra):
    # at word length 4 the mixed pool adds nothing: the separation above
    # needs deeper probe paths than the surveyed words can spell
    assert flip_algebra.full == flip_algebra.one_sided


def test_mixed_projections_are_partial_identities(flip22):
    basis = fock_basis(flip22, Shape(2, 2))
    lam = flip22.path(["a0"])
    mu = flip22.path(["a1"])
    L, R = left_creation(flip22, lam), right_creation(flip22, mu)
    level = level_projection(flip22, 2)
    level_conjugated = Product((level, L.adjoint(), R, R.adjoint(), L, level))
    for op in (mixed_range_projection(flip22, lam, mu), level_conjugated):
        moved = _moved(op, basis)
        assert not moved, moved
        agree, _, bad = operators_agree(op.adjoint(), op, basis)
        assert agree, bad


def test_obstruction_report_fields(flip22, flip_algebra):
    lam = flip22.enumerate_paths(Shape(1, 2))[0]
    report = obstruction_report(flip22, lam, lam, algebra=flip_algebra)
    assert [f.name for f in dataclasses.fields(report)] == ["fixed_set", "in_one_sided"]
    with pytest.raises(TypeError):
        obstruction_report(flip22, lam, lam)


def test_identity_operator_everywhere(graph_family):
    one = Product(())
    for g in graph_family:
        for b in fock_basis(g, Shape(1, 1)):
            assert one.act(b) == one.adjoint().act(b) == {b: 1}
        table = PathTable(g)
        ids = fock._ids(table, fock_basis(g, Shape(2, 2)))
        assert one.on(table)(ids) == one.adjoint().on(table)(ids) == ids
