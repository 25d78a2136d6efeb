"""Graph/path layer tests.

Derived expectations are computed by independent brute force inside this file
(word rewriting closures, lattice-pair counts, compose-based factorization
search) and then compared against the library's answers.
"""

import itertools

import pytest

from kgraphlab.errors import GraphError, NotComposable, ShapeError
from kgraphlab.kgraph import (
    Edge,
    KGraph,
    compose,
    factorize,
    flip_graph,
    grid_graph,
    one_loop_per_color_graph,
    single_vertex_graph,
)
from kgraphlab.shapes import Shape, shapes_below


# -- independent oracles -----------------------------------------------------------


def rewrite_closure(g, word):
    """All edge words reachable from `word` by square moves, by brute-force BFS."""
    seen = {tuple(word)}
    frontier = [tuple(word)]
    while frontier:
        w = frontier.pop()
        for p in range(len(w) - 1):
            ca, cb = g.edge(w[p]).color, g.edge(w[p + 1]).color
            if ca > cb:
                table = g._to_normal[(cb, ca)]
            elif ca < cb:
                table = g._to_anti[(ca, cb)]
            else:
                continue
            if (w[p], w[p + 1]) not in table:
                continue
            nxt = list(w)
            nxt[p], nxt[p + 1] = table[(w[p], w[p + 1])]
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def sorted_members(g, words):
    def ascending(w):
        cols = [g.edge(n).color for n in w]
        return cols == sorted(cols)

    return {w for w in words if ascending(w)}


def all_raw_words(g, length):
    """Every composable edge word of the given length (any color order)."""
    out = []

    def extend(word, cur):
        if len(word) == length:
            out.append(tuple(word))
            return
        for e in sorted(g.edges, key=lambda e: e.name):
            if cur is None or e.target == cur:
                word.append(e.name)
                extend(word, e.source)
                word.pop()

    extend([], None)
    return out


def brute_factorizations(g, p, k):
    """All (head, tail) with shape(head) = k and head·tail = p, by enumeration."""
    rest = p.shape - k
    found = []
    for h in g.enumerate_paths(k, target=p.target):
        for t in g.enumerate_paths(rest, source=p.source, target=h.source):
            if compose(h, t) == p:
                found.append((h, t))
    return found


# -- normal form and confluence ------------------------------------------------------


@pytest.mark.parametrize("length", [2, 3, 4])
def test_normal_form_confluence_flip(flip22, length):
    for w in all_raw_words(flip22, length):
        cls = rewrite_closure(flip22, w)
        normals = sorted_members(flip22, cls)
        assert len(normals) == 1
        assert flip22._normal_word(w) == next(iter(normals))


@pytest.mark.parametrize("length", [2, 3, 4])
def test_normal_form_confluence_grid3(length):
    g = grid_graph(Shape(1, 1, 1))
    for w in all_raw_words(g, length):
        cls = rewrite_closure(g, w)
        normals = sorted_members(g, cls)
        assert len(normals) == 1
        assert g._normal_word(w) == next(iter(normals))


def test_normal_form_idempotent_and_ascending(flip22):
    for w in all_raw_words(flip22, 3):
        n = flip22._normal_word(w)
        cols = [flip22.edge(x).color for x in n]
        assert cols == sorted(cols)
        assert flip22._normal_word(n) == n


# -- composition -----------------------------------------------------------------------


def test_compose_basic(n2graph):
    e, f = n2graph.path(["a0"]), n2graph.path(["b0"])
    p = compose(e, f)
    assert p.shape == Shape(1, 1)
    assert p.word == ("a0", "b0")
    assert compose(f, e) == p  # commuting squares in this graph
    u = n2graph.vertex("u")
    assert compose(u, p) == p and compose(p, u) == p


def test_compose_shape_additivity_and_endpoints(grid11):
    paths = grid11.all_paths(Shape(1, 1))
    for p in paths:
        for q in paths:
            if p.source == q.target and (p.shape + q.shape) <= Shape(1, 1):
                pq = compose(p, q)
                assert pq.shape == p.shape + q.shape
                assert pq.target == p.target and pq.source == q.source


def test_compose_endpoint_mismatch(grid11):
    a, b = grid11.path(["a1.00"]), grid11.path(["a1.01"])
    with pytest.raises(NotComposable) as e:
        compose(a, b)
    assert e.value.source == "v10" and e.value.target == "v01"


def test_compose_associative_samples(flip22):
    paths = [flip22.path([n]) for n in ("a0", "a1", "b0", "b1")]
    for p, q, r in itertools.product(paths, repeat=3):
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


# -- factorization ----------------------------------------------------------------------


def test_factorize_matches_brute_force_and_is_unique(graph_family):
    for g in graph_family:
        cap = Shape(1, 1) if g.name.startswith("grid") else Shape(2, 2)
        for p in g.all_paths(cap):
            for k in shapes_below(p.shape):
                h, t = factorize(p, k)
                assert h.shape == k and compose(h, t) == p
                assert brute_factorizations(g, p, k) == [(h, t)]


def test_factorize_out_of_range(n2graph):
    p = n2graph.path(["a0"])
    with pytest.raises(ShapeError):
        factorize(p, Shape(0, 1))
    with pytest.raises(ShapeError):
        factorize(p, Shape(2, 0))


def test_factorize_degenerate_ends(flip22):
    p = flip22.path(["a0", "b1"])
    h, t = factorize(p, Shape.zero(2))
    assert h.is_vertex and t == p
    h, t = factorize(p, p.shape)
    assert h == p and t.is_vertex


# -- enumeration ---------------------------------------------------------------------------


def grid_pair_count(m):
    """Independent census for lattice-interval graphs: pairs n <= n' <= m."""
    pts = list(itertools.product(*[range(c + 1) for c in m]))
    return sum(1 for a in pts for b in pts if all(x <= y for x, y in zip(a, b)))


def test_grid_morphism_census(grid11):
    assert grid11.validate(Shape(1, 1)).ok
    per_shape, _ = grid11.census(Shape(1, 1))
    assert sum(per_shape.values()) == grid_pair_count((1, 1)) == 9
    assert per_shape[(0, 0)] == 4 and per_shape[(1, 1)] == 1


def test_grid3_census():
    g = grid_graph(Shape(1, 1, 1))
    assert g.validate(Shape(1, 1, 1)).ok
    per_shape, _ = g.census(Shape(1, 1, 1))
    assert sum(per_shape.values()) == grid_pair_count((1, 1, 1)) == 27


def test_one_loop_graph_is_free_abelian_monoid(n2graph):
    # exactly one path per shape, and composition adds shapes
    for n in shapes_below(Shape(3, 3)):
        assert len(n2graph.enumerate_paths(n)) == 1
    p = n2graph.enumerate_paths(Shape(2, 1))[0]
    q = n2graph.enumerate_paths(Shape(1, 2))[0]
    assert compose(p, q) == n2graph.enumerate_paths(Shape(3, 3))[0]


def test_flip_block_counts(flip22):
    for n in shapes_below(Shape(2, 2)):
        expect = 2 ** n.coord(1) * 2 ** n.coord(2) if not n.is_zero else 1
        assert len(flip22.enumerate_paths(n)) == expect


def test_enumerate_respects_endpoints(grid11):
    sel = grid11.enumerate_paths(Shape(1, 1), source="v11", target="v00")
    assert len(sel) == 1
    assert grid11.enumerate_paths(Shape(1, 0), source="v11") == [grid11.path(["a1.01"])]
    assert grid11.enumerate_paths(Shape(0, 0), source="v01") == [grid11.vertex("v01")]


def test_enumeration_is_deterministic(flip22):
    a = [p.word for p in flip22.all_paths(Shape(2, 2))]
    b = [p.word for p in flip22.all_paths(Shape(2, 2))]
    assert a == b


# -- validation -------------------------------------------------------------------------------


def test_validate_reports_square_bijectivity_defect():
    # two anti-normal words sent to the same normal word
    edges = [Edge("a0", 1, "u", "u"), Edge("a1", 1, "u", "u"), Edge("b0", 2, "u", "u")]
    squares = {(1, 2): {("b0", "a0"): ("a0", "b0"), ("b0", "a1"): ("a0", "b0")}}
    g = KGraph(2, ["u"], edges, squares)
    rep = g.validate()
    assert not rep.ok
    bij = next(c for c in rep.checks if c.name == "square-bijectivity[1,2]")
    assert not bij.ok
    assert bij.witness[0] == ("b0", "a0") and bij.witness[1] == ("b0", "a1")


def test_validate_reports_missing_square():
    edges = [Edge("a0", 1, "u", "u"), Edge("b0", 2, "u", "u")]
    g = KGraph(2, ["u"], edges, {(1, 2): {}})
    rep = g.validate()
    tot = next(c for c in rep.checks if c.name == "square-totality[1,2]")
    assert not tot.ok and ("b0", "a0") in tot.witness[0]
    with pytest.raises(GraphError):
        g.path(["b0", "a0"])


def test_validate_cube_failure():
    # flips on pairs (1,2) and (1,3) with commuting (2,3) squares break the
    # two-route comparison; squares alone stay bijective
    def loop(j, idx):
        return f"{chr(ord('a') + j - 1)}{idx}"

    tables = {}
    for (i, j), rule in (((1, 2), "flip"), ((1, 3), "flip"), ((2, 3), "commute")):
        t = {}
        for q in range(2):
            for p in range(2):
                val = (loop(i, q), loop(j, p)) if rule == "flip" else (loop(i, p), loop(j, q))
                t[(loop(j, q), loop(i, p))] = val
        tables[(i, j)] = t
    edges = [Edge(loop(j, i), j, "u", "u") for j in (1, 2, 3) for i in range(2)]
    g = KGraph(3, ["u"], edges, tables)
    rep = g.validate(Shape(1, 1, 1))
    assert not rep.ok
    cube = next(c for c in rep.checks if c.name == "cube")
    assert not cube.ok and cube.witness is not None
    for c in rep.checks:
        if c.name.startswith("square-"):
            assert c.ok


def test_validate_condition_f_is_informational(grid11):
    assert grid11.validate(Shape(1, 1)).ok
    # the extreme corners admit no strictly incoming/outgoing edge words
    _, void = grid11.census(Shape(1, 1))
    assert ((1, 0), "v11", "target") in void
    assert ((1, 0), "v00", "source") in void


def test_validate_clean_on_loop_graphs(n2graph, flip22):
    assert n2graph.validate(Shape(2, 2)).ok
    assert flip22.validate(Shape(2, 2)).ok
    assert not flip22.census(Shape(2, 2))[1]


def test_constructor_rejections():
    with pytest.raises(GraphError):
        KGraph(0, ["u"], [])
    with pytest.raises(GraphError):
        KGraph(1, ["u", "u"], [])
    with pytest.raises(GraphError):
        KGraph(1, ["u"], [Edge("e", 2, "u", "u")])
    with pytest.raises(GraphError):
        KGraph(1, ["u"], [Edge("e", 1, "u", "w")])
    with pytest.raises(GraphError):
        single_vertex_graph([2, 3], "flip")


# -- opposite ------------------------------------------------------------------------------------


def test_opposite_reverses_endpoints(grid11):
    op = grid11.opposite()
    e, eo = grid11.edge("a1.00"), op.edge("a1.00")
    assert (eo.source, eo.target) == (e.target, e.source)


def test_opposite_involution(graph_family):
    for g in graph_family:
        opop = g.opposite().opposite()
        assert {e.name: (e.color, e.source, e.target) for e in opop.edges} == \
               {e.name: (e.color, e.source, e.target) for e in g.edges}
        assert opop._to_normal == g._to_normal


def test_opposite_transports_squares(graph_family):
    # a normal word in g, reversed, must normalize in op(g) to the reverse of
    # some word equal to it in g; check by comparing rewrite closures
    for g in graph_family:
        op = g.opposite()
        assert op.validate().ok
        for p in g.all_paths(Shape(1, 1)):
            if len(p.word) < 2:
                continue
            rev = tuple(reversed(p.word))
            cls_g = rewrite_closure(g, p.word)
            cls_op = rewrite_closure(op, rev)
            assert {tuple(reversed(w)) for w in cls_op} == cls_g


def test_path_value_semantics(flip22):
    assert flip22.path(["b0", "a1"]) == flip22.path(["a0", "b1"])
    assert flip22.path(["a0"]) != flip22.path(["a1"])
    other = flip_graph()
    assert other.path(["a0"]) != flip22.path(["a0"])  # graph-identity scoped
    # ... while the hash leaves the graph out, so it is address independent
    assert hash(other.path(["a0"])) == hash(flip22.path(["a0"]))
    assert hash(other.vertex("u")) == hash(flip22.vertex("u"))


def test_path_rejects_unknown_edge_names(flip22):
    for word in (["zz"], ["a0", "zz"], ["zz", "a0"]):
        with pytest.raises(GraphError, match="unknown edge 'zz'"):
            flip22.path(word)
