"""Graph/path layer tests.

Derived expectations are computed by independent brute force inside this file
(word rewriting closures, lattice-pair counts, compose-based factorization
search) and then compared against the library's answers.
"""

import itertools
import random

import pytest

import kgraphlab
from kgraphlab import fock
from kgraphlab.duality import RationalInfinitePath, boundary_points
from kgraphlab.errors import GraphError, NotComposable, ShapeError
from kgraphlab.kgraph import (
    Edge,
    KGraph,
    Path,
    PathTable,
    compose,
    factorize,
    flip_graph,
    grid_graph,
    one_loop_per_color_graph,
    single_vertex_graph,
)
from kgraphlab.shapes import INF, ExtendedShape, Shape, shapes_below


# -- independent oracles -----------------------------------------------------------


def inverse(table):
    """A square table read backwards; when two keys share a value, the later one wins."""
    return {val: key for key, val in table.items()}


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
                table = inverse(g._to_normal[(ca, cb)])
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


def moves_endpoints(g, before, after):
    """Whether a square move from the pair before to the pair after moves its outer endpoints."""
    return (g.edge(before[0]).target, g.edge(before[1]).source) != \
        (g.edge(after[0]).target, g.edge(after[1]).source)


def leftmost_normal(g, word, broke=None):
    """Reference normal form: rewrite the leftmost color-descending pair until none is left.

    Appends to broke, when given, each move that moves its pair's outer endpoints.
    """
    w = list(word)
    while True:
        cols = [g.edge(nm).color for nm in w]
        p = next((p for p in range(len(w) - 1) if cols[p] > cols[p + 1]), None)
        if p is None:
            return tuple(w)
        table = g._to_normal[(cols[p + 1], cols[p])]
        if (w[p], w[p + 1]) not in table:
            raise GraphError(f"no square for word {w[p]},{w[p+1]} (colors {cols[p]},{cols[p+1]})")
        if broke is not None and moves_endpoints(g, w[p:p + 2], table[(w[p], w[p + 1])]):
            broke.append((w[p], w[p + 1]))
        w[p], w[p + 1] = table[(w[p], w[p + 1])]


def pull_split(g, word, coords, broke=None):
    """Reference split of a normal word: pull each head edge to the front, lowest color first.

    Appends to broke, when given, each move that moves its pair's outer endpoints.
    """
    head, rest = [], list(word)
    for j, n in enumerate(coords, 1):
        for _ in range(n):
            idx = next(idx for idx, nm in enumerate(rest) if g.edge(nm).color == j)
            for p in range(idx, 0, -1):
                lo_c = g.edge(rest[p - 1]).color
                table = inverse(g._to_normal[(lo_c, j)])
                if (rest[p - 1], rest[p]) not in table:
                    raise GraphError(
                        f"no inverse square for word {rest[p-1]},{rest[p]} (colors {lo_c},{j})")
                if broke is not None and moves_endpoints(g, rest[p - 1:p + 1],
                                                         table[(rest[p - 1], rest[p])]):
                    broke.append((rest[p - 1], rest[p]))
                rest[p - 1], rest[p] = table[(rest[p - 1], rest[p])]
            head.append(rest.pop(0))
    return tuple(head), tuple(rest)


def outcome(f, *args):
    """f's answer, or the text of the GraphError it raises."""
    try:
        return f(*args)
    except GraphError as err:
        return str(err)


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
        assert flip22.path(w).word == next(iter(normals))


@pytest.mark.parametrize("length", [2, 3, 4])
def test_normal_form_confluence_grid3(length):
    g = grid_graph(Shape(1, 1, 1))
    for w in all_raw_words(g, length):
        cls = rewrite_closure(g, w)
        normals = sorted_members(g, cls)
        assert len(normals) == 1
        assert g.path(w).word == next(iter(normals))


def test_normal_form_idempotent_and_ascending(flip22):
    for w in all_raw_words(flip22, 3):
        n = flip22.path(w)
        cols = [flip22.edge(x).color for x in n.word]
        assert cols == sorted(cols)
        assert flip22.path(n.word) == n


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
    assert str(e.value).endswith("source v10 != target v01")


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


def _kernel_answer(g, kind, p, arg):
    """compose(p, arg) by a whole-word sort, or factorize(p, arg) by a fresh split."""
    if kind == "compose":
        if not (p.codes and arg.codes):
            return arg if not p.codes else p
        return Path(g, g._normal(p.codes + arg.codes))
    head, tail = g._split(p.codes, p.shape.coords, arg)
    head = Path(g, head) if head else g.vertex(p.target)
    return head, Path(g, tail) if tail else g.vertex(head.source)


def test_memoized_answers_are_the_kernel_answers():
    """Seeded compose and factorize questions, each asked twice in a random order.

    The first answer equals a fresh kernel answer, the second is the same
    object (a factorization, the same two objects), and flip and its
    opposite, asked the same edge words, each answer on their own graph.
    """
    rng = random.Random(21)
    flip = flip_graph()
    opposite = flip.opposite()
    for g in (flip, one_loop_per_color_graph(2), grid_graph((1, 1)), opposite):
        paths = g.all_paths((1, 1) if g.name.startswith("grid") else (2, 2))
        pairs = [(p, q) for p, q in itertools.product(paths, repeat=2) if p.source == q.target]
        questions = [("compose", p, q) for p, q in rng.sample(pairs, min(len(pairs), 60))]
        questions += [("factorize", p, tuple(k.coords)) for p in paths
                      for k in shapes_below(p.shape)]
        questions *= 2
        rng.shuffle(questions)
        first = {}
        for kind, p, arg in questions:
            key = (kind, p.word or p.base, arg if kind == "factorize" else arg.word or arg.base)
            got = g.compose(p, arg) if kind == "compose" else g.factorize(p, arg)
            if key in first:
                if kind == "compose":
                    assert got is first[key], key
                else:
                    assert type(got) is tuple and list(map(id, got)) == list(map(id, first[key]))
                continue
            first[key] = got
            assert got == _kernel_answer(g, kind, p, arg), key
    for u, v in itertools.product(["a0", "a1", "b0", "b1"], repeat=2):
        mine, theirs = flip.path([u]), opposite.path([u])
        ans = flip.compose(mine, flip.path([v]))
        op_ans = opposite.compose(theirs, opposite.path([v]))
        assert ans.graph is flip and op_ans.graph is opposite and ans != op_ans
        assert ans == flip.path((u, v)) and op_ans == opposite.path((u, v))


def test_memoized_questions_raise_every_time():
    """A kernel error is raised every time and never stored in the graph's table.

    A grade that does not fit keeps the table's answer None, and factorize
    raises on it every time.
    """
    edges = [Edge("a0", 1, "u", "u"), Edge("b0", 2, "u", "u")]
    g = KGraph(2, ["u"], edges, {(1, 2): {}})  # the one square entry dropped
    b, a, ab = g.path(["b0"]), g.path(["a0"]), g.path(["a0", "b0"])
    for call, match in ((lambda: g.compose(b, a), "no square"),
                        (lambda: g.factorize(ab, (0, 1)), "no inverse square")):
        messages = []
        for _ in range(2):
            with pytest.raises(GraphError, match=match) as e:
                call()
            messages.append(str(e.value))
        assert messages[0] == messages[1]
    assert not any(g._table._composed) and not any(g._table._splits)
    p = flip_graph().path(["a0", "a1"])
    for _ in range(2):
        with pytest.raises(ShapeError, match="not dominated"):
            p.graph.factorize(p, (1, 1))
    assert [row for row in p.graph._table._splits if row] == [{(1, 1): None}]


def test_path_is_memoized_per_graph(monkeypatch):
    """The same edge names give the same Path, normalized once; a bad word raises every time."""
    normalized = []
    inner = KGraph._normal
    monkeypatch.setattr(KGraph, "_normal",
                        lambda g, w: normalized.append(g._decode(w)) or inner(g, w))
    g = flip_graph()
    p = g.path(["b0", "a1"])
    assert g.path(("b0", "a1")) is p and g.path(iter(["b0", "a1"])) is p
    assert p.word == ("a0", "b1") and normalized == [("b0", "a1")]
    grid = grid_graph((1, 1))
    for graph, names, error in ((g, ["a0", "zz"], GraphError), (g, [], GraphError),
                                (grid, ["a1.00", "a1.01"], NotComposable)):
        messages = []
        for _ in range(2):
            with pytest.raises(error) as e:
                graph.path(names)
            messages.append(str(e.value))
        assert messages[0] == messages[1]
    table = g._table
    assert table.words == [p.codes] and table._ids == {("b0", "a1"): 0, p.codes: 0}
    assert not grid._table._ids


def test_rank3_sort_matches_reference_routes():
    """Every kernel route gives the reference words, or its error text, on partial tables.

    Seeded random rank-3 tables on one vertex with two loops per color: each
    color pair's squares are a random bijection with some entries dropped.
    KGraph.path, KGraph.compose and fock's creations in a PathTable match
    the leftmost rewriting of the concatenated words; split, factorize and
    fock's left and right strips match pulling the head's edges to the
    front.
    """
    rng = random.Random(17)
    names = {j: [f"{'abc'[j - 1]}{i}" for i in range(2)] for j in (1, 2, 3)}
    edges = [Edge(nm, j, "u", "u") for j in (1, 2, 3) for nm in names[j]]
    errors = 0
    for _ in range(40):
        tables = {}
        for i, j in itertools.combinations((1, 2, 3), 2):
            normal = [(lo, hi) for lo in names[i] for hi in names[j]]
            rng.shuffle(normal)
            anti = [(hi, lo) for hi in names[j] for lo in names[i]]
            tables[(i, j)] = {k: v for k, v in zip(anti, normal) if rng.random() > 0.15}
        g = KGraph(3, ["u"], edges, tables)
        for w in rng.sample(all_raw_words(g, 4), 60):
            got = outcome(lambda: g.path(w).word)
            assert got == outcome(leftmost_normal, g, w), w
            errors += isinstance(got, str)
        paths = g.all_paths(Shape(1, 2, 1))
        table = PathTable(g)

        def word(i):
            return () if i == fock.VAC else table.path(i).word

        def created(a, b, left):
            return word(fock._creations(table, table.id_of(a), [table.id_of(b)], left)[0])

        def split(p, grade):
            return tuple(map(g._decode, g._split(p.codes, p.shape.coords, grade)))

        def stripped(p, m, left):
            kept, rest = fock._strips(table, [table.id_of(p)], m, left)[0]
            return (word(kept), word(rest)) if left else (word(rest), word(kept))

        for p, q in (rng.sample(paths, 2) for _ in range(60)):
            want = outcome(leftmost_normal, g, p.word + q.word)
            assert outcome(lambda: g.compose(p, q).word) == want, (p, q)
            assert outcome(created, p, q, True) == outcome(created, q, p, False) == want, (p, q)
            errors += isinstance(want, str)
        for p in paths:
            for k in shapes_below(p.shape):
                want = outcome(pull_split, g, p.word, k.coords)
                assert outcome(split, p, k.coords) == want, (p, k)
                assert outcome(lambda: tuple(x.word for x in g.factorize(p, k))) == want, (p, k)
                assert outcome(stripped, p, k.coords, True) == want, (p, k)
                assert outcome(stripped, p, tuple(p.shape - k), False) == want, (p, k)
                errors += isinstance(want, str)
    assert errors  # the dropped entries are met


def test_factorize_out_of_range(n2graph):
    p = n2graph.path(["a0"])
    with pytest.raises(ShapeError):
        factorize(p, Shape(0, 1))
    with pytest.raises(ShapeError):
        factorize(p, Shape(2, 0))


def test_factorize_degenerate_ends(flip22):
    p = flip22.path(["a0", "b1"])
    h, t = factorize(p, Shape.zero(2))
    assert not h.codes and t == p
    h, t = factorize(p, p.shape)
    assert h == p and not t.codes


def test_factorize_takes_a_coordinate_tuple(flip22):
    p = flip22.path(["a0", "a1", "b1"])
    for split in (factorize, kgraphlab.factorize):
        assert split(p, (1, 0)) == split(p, Shape(1, 0))
        assert split(p, (2, 1)) == (p, flip22.vertex("u"))
        for bad in ((1, -1), ExtendedShape(INF, 0), (1,), (1, 0, 0), Shape(1), (0, 2),
                    Shape(3, 0)):
            with pytest.raises(ShapeError):
                split(p, bad)


def test_bounds_take_a_coordinate_tuple(flip22):
    def verdicts(check):
        return [(c.name, c.ok, c.witness, c.info) for c in (check, *check.checks)]

    assert list(shapes_below((1, 2))) == list(shapes_below(Shape(1, 2)))
    assert flip22.all_paths((1, 1)) == flip22.all_paths(Shape(1, 1))
    assert flip22.census((1, 1)) == flip22.census(Shape(1, 1))
    assert verdicts(flip22.validate((1, 1))) == verdicts(flip22.validate(Shape(1, 1)))
    for bad in (ExtendedShape(INF, 1), (1, -1)):
        with pytest.raises(ShapeError):
            list(shapes_below(bad))
    with pytest.raises(ShapeError):
        flip22.validate(ExtendedShape(INF, 1))


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
    assert not tot.ok and ("b0", "a0") in tot.witness
    with pytest.raises(GraphError):
        g.path(["b0", "a0"])


def test_square_breaking_outer_endpoints_is_caught_when_normalizing():
    # b.a at u is sent to c.d at v: each side chains, the outer endpoints do
    # not, so the move that would take x.b.a to x.c.d raises
    edges = [Edge("a", 1, "u", "u"), Edge("b", 2, "u", "u"), Edge("c", 1, "v", "v"),
             Edge("d", 2, "v", "v"), Edge("x", 1, "u", "v")]
    g = KGraph(2, ["u", "v"], edges, {(1, 2): {("b", "a"): ("c", "d")}})
    ends = next(c for c in g.validate().checks if c.name == "square-endpoints[1,2]")
    assert not ends.ok and ends.witness == (("b", "a"), ("c", "d"))
    with pytest.raises(NotComposable,
                       match="^square b,a -> c,d moves the outer endpoints u,u to v,v$"):
        g.path(["x", "b", "a"])


def test_squares_that_move_endpoints_raise_at_the_move():
    """Loops a, b at u and c, d at v, with squares b.a -> c.d and d.c -> a.b.

    Every route through either square raises NotComposable naming it:
    compose, path, factorize and fock's creations and strips in a PathTable.
    """
    edges = [Edge("a", 1, "u", "u"), Edge("b", 2, "u", "u"),
             Edge("c", 1, "v", "v"), Edge("d", 2, "v", "v")]
    g = KGraph(2, ["u", "v"], edges, {(1, 2): {("b", "a"): ("c", "d"), ("d", "c"): ("a", "b")}})
    a, b, ab = g.path(["a"]), g.path(["b"]), g.path(["a", "b"])
    square = "^square b,a -> c,d moves the outer endpoints u,u to v,v$"
    inverse_square = "^inverse square a,b -> d,c moves the outer endpoints u,u to v,v$"
    table = PathTable(g)
    for route, message in [
        (lambda: g.compose(b, a), square),
        (lambda: g.path(("b", "a")), square),
        (lambda: g.factorize(ab, (0, 1)), inverse_square),
        (lambda: fock._creations(table, table.id_of(b), [table.id_of(a)], True), square),
        (lambda: fock._creations(table, table.id_of(a), [table.id_of(b)], False), square),
        (lambda: fock._strips(table, [table.id_of(ab)], (0, 1), True), inverse_square),
        (lambda: fock._strips(table, [table.id_of(ab)], (1, 0), False), inverse_square),
    ]:
        with pytest.raises(NotComposable, match=message):
            route()
    assert g.factorize(ab, (1, 0)) == (a, b)  # no move, so no error


def kernel_against_reference(kernel, reference, *args):
    """Whether the reference made a move that moves its pair's outer endpoints.

    The kernel must raise NotComposable naming the first such move exactly
    when there was one, and give the reference's word or error text otherwise.
    """
    broke = []
    want = outcome(reference, *args, broke)
    if not broke:
        assert outcome(kernel) == want, args
        return False
    with pytest.raises(NotComposable, match=f"square {broke[0][0]},{broke[0][1]} -> "):
        kernel()
    return True


def test_endpoint_moves_raise_exactly_when_the_reference_makes_one():
    """Seeded random rank-2 tables on two vertices, with squares that move endpoints.

    Three edges per color get random endpoints in u, v; each chaining
    anti-normal word is paired with a distinct chaining normal word, one
    that keeps its outer endpoints when the draw says so and one is left,
    so some entries move endpoints and some are missing.  KGraph.path,
    compose and factorize raise NotComposable exactly when the leftmost
    rewriting or the pull-front split makes an endpoint-moving move.
    """
    rng = random.Random(24)
    seen = {False: 0, True: 0}
    for _ in range(30):
        edges = [Edge(f"{'ab'[j - 1]}{i}", j, rng.choice("uv"), rng.choice("uv"))
                 for j in (1, 2) for i in range(3)]
        g = KGraph(2, ["u", "v"], edges)
        words = all_raw_words(g, 2)
        anti = [w for w in words if g.edge(w[0]).color == 2 and g.edge(w[1]).color == 1]
        normal = [w for w in words if g.edge(w[0]).color == 1 and g.edge(w[1]).color == 2]
        rng.shuffle(normal)
        table = {}
        for key in anti:
            keep = [w for w in normal if not moves_endpoints(g, key, w)]
            pool = keep if keep and rng.random() < 0.7 else normal
            if pool:
                table[key] = pool[0]
                normal.remove(pool[0])
        g = KGraph(2, ["u", "v"], edges, {(1, 2): table})
        for w in rng.sample(all_raw_words(g, 3), min(30, len(all_raw_words(g, 3)))):
            seen[kernel_against_reference(lambda: g.path(w).word, leftmost_normal, g, w)] += 1
        paths = g.all_paths(Shape(2, 2))
        for p, q in itertools.product(paths, repeat=2):
            if p.source == q.target and len(p) + len(q) <= 4:
                seen[kernel_against_reference(lambda: g.compose(p, q).word,
                                              leftmost_normal, g, p.word + q.word)] += 1
        for p in paths:
            for k in shapes_below(p.shape):
                seen[kernel_against_reference(lambda: tuple(x.word for x in g.factorize(p, k)),
                                              pull_split, g, p.word, k.coords)] += 1
    assert min(seen.values()) > 100, seen


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
    assert not cube.ok
    assert cube.witness == (("c0", "b0", "a1"), ("a0", "b0", "c1"), ("a0", "b1", "c0"))
    for c in rep.checks:
        if c.name.startswith("square-"):
            assert c.ok


def test_validate_cube_with_a_missing_square():
    # (2,3) lacks c0.b0, so both routes of c0.b0.a0 end at the missing square
    tables = {(1, 2): {("b0", "a0"): ("a0", "b0")}, (1, 3): {("c0", "a0"): ("a0", "c0")},
              (2, 3): {}}
    rep = single_vertex_graph([1, 1, 1], tables).validate()
    cube = next(c for c in rep.checks if c.name == "cube")
    assert not cube.ok and cube.witness == (("c0", "b0", "a0"), None, None)


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
    # the square-table rejections validate() relies on: every key and value
    # that gets in is a chaining word of the pair's colors
    edges = [Edge("a", 1, "u", "u"), Edge("b", 2, "u", "u"), Edge("x", 1, "v", "v")]
    for squares, match in [
        ({(1, 2): {("b", "zz"): ("a", "b")}}, "unknown edge 'zz'"),
        ({(2, 1): {}}, "must have 1 <= i < j <= rank"),
        ({(1, 2): {("a", "b"): ("a", "b")}}, "wrong colors"),
        ({(1, 2): {("b", "x"): ("a", "b")}}, "square key b,x is not composable"),
        ({(1, 2): {("b", "a"): ("x", "b")}}, "square value x,b is not composable"),
    ]:
        with pytest.raises(GraphError, match=match):
            KGraph(2, ["u", "v"], edges, squares)


def test_the_first_fault_in_input_order_is_reported():
    # each input holds two faults; the constructor names the first, edges in
    # input order before squares, square entries in table order
    a, b, x = Edge("a", 1, "u", "u"), Edge("b", 2, "u", "u"), Edge("x", 1, "v", "v")
    red, stray = Edge("c", 3, "u", "u"), Edge("w", 1, "u", "zz")
    for edges, squares, message in [
        ([a, a, red], {}, "duplicate edge name 'a'"),
        ([a, red, a], {}, "edge 'c' has color 3, rank is 2"),
        ([stray, a, a], {}, "edge 'w' has unknown endpoint"),
        ([a, b, a], {(1, 2): {("b", "zz"): ("a", "b")}}, "duplicate edge name 'a'"),
        ([a, b, x], {(1, 2): {("b", "zz"): ("a", "b"), ("a", "b"): ("a", "b")}},
         "square entry refers to unknown edge 'zz'"),
        ([a, b, x], {(1, 2): {("a", "b"): ("a", "b"), ("b", "zz"): ("a", "b")}},
         "square entry a,b -> a,b has wrong colors for pair (1, 2)"),
        ([a, b, x], {(1, 2): {("b", "x"): ("a", "b"), ("b", "a"): ("x", "b")}},
         "square key b,x is not composable"),
        ([a, b, x], {(1, 2): {("b", "a"): ("x", "b"), ("b", "x"): ("a", "b")}},
         "square value x,b is not composable"),
        ([a, b, x], {(1, 2): {("x", "zz"): ("a", "b")}}, "square entry refers to unknown edge 'zz'"),
    ]:
        with pytest.raises(GraphError) as err:
            KGraph(2, ["u", "v"], edges, squares)
        assert str(err.value) == message


def test_edges_are_listed_by_color_then_name():
    g = grid_graph((1, 1))
    assert [e.name for e in g.edges] == ["a1.00", "a1.01", "a2.00", "a2.10"]
    assert [(e.color, e.source, e.target) for e in g.edges] == [
        (1, "v10", "v00"), (1, "v11", "v01"), (2, "v01", "v00"), (2, "v11", "v10")]
    assert g.edges == tuple(map(g.edge, g._names))


def test_a_graph_holds_no_edge_record(graph_family):
    # edges live only as codes; edge() and edges build Edge records on demand
    def edges_in(value):
        if isinstance(value, Edge):
            return 1
        if isinstance(value, dict):
            return sum(edges_in(k) + edges_in(v) for k, v in value.items())
        if isinstance(value, (tuple, list, set, frozenset)):
            return sum(map(edges_in, value))
        return 0

    for g in (*graph_family, single_vertex_graph([2, 3]).opposite()):
        g.all_paths(Shape(1, 1))
        assert len(g.edges) == len(g._names) and not hasattr(g, "_edges")
        assert {name: edges_in(value) for name, value in vars(g).items() if edges_in(value)} == {}


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


def _names_by_key(p):
    """The order the edge-name spelling gives a path: shape, then names, then vertex."""
    return (tuple(p.shape.coords), p.word, p.base or "")


def test_code_order_is_name_order(grid11, n2graph, flip22):
    """Paths keep code words, but sort, compare and hash as their edge names do.

    The first graph names its edges against their colors: color-1 loops
    z0, z1 and color-2 loops a0, a1, with flip squares.
    """
    edges = [Edge(f"{c}{i}", color, "u", "u") for c, color in (("z", 1), ("a", 2))
             for i in range(2)]
    squares = {(1, 2): {(f"a{q}", f"z{p}"): (f"z{q}", f"a{p}")
                        for q in range(2) for p in range(2)}}
    names_against_colors = KGraph(2, ["u"], edges, squares, name="zflip")
    for g in (names_against_colors, flip22, n2graph, grid11):
        paths = g.all_paths((1, 1) if g is grid11 else (2, 2))
        assert sorted(paths, key=Path.sort_key) == sorted(paths, key=_names_by_key), g.name
        for p, q in itertools.product(paths, repeat=2):
            assert (p == q) == (_names_by_key(p) == _names_by_key(q)), (p, q)
        for p in paths:
            again = g.path(p.word) if p.word else g.vertex(p.base)
            assert again == p and hash(again) == hash(p), p
        ys = boundary_points(g, prefix_cap=(1, 1), cycle_cap=(2, 1))
        assert ys == sorted(ys, key=lambda y: (_names_by_key(y.prefix), _names_by_key(y.cycle)))
        for y in ys:
            prefix = g.path(y.prefix.word) if y.prefix.word else g.vertex(y.prefix.base)
            again = RationalInfinitePath(prefix, g.path(y.cycle.word))
            assert again == y and hash(again) == hash(y), y
        assert bool(ys) != (g is grid11)


def test_path_rejects_unknown_edge_names(flip22):
    for word in (["zz"], ["a0", "zz"], ["zz", "a0"]):
        with pytest.raises(GraphError, match="unknown edge 'zz'"):
            flip22.path(word)
