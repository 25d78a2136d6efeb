"""Rational infinite paths, paired-point shifts, the covering map, and twists."""

import functools
import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from kgraphlab import duality
from kgraphlab.duality import (
    RationalInfinitePath,
    ZPoint,
    boundary_points,
    boundary_subsystem,
    lift_fiber,
    path_space_system,
    phi,
    phi_section,
    s_shift,
    shift_infinite,
    t_shift,
    theta_twist,
    theta_untwist,
    two_sided_cocycle,
    two_sided_shift,
    two_sided_shift_inverse,
    v_shift,
    w_shift,
    zpoint_system,
)
from kgraphlab.dynsys import MGDS, PartialMap, grid_system
from kgraphlab.errors import (
    ConfigError,
    DomainError,
    NotComposable,
    ShapeError,
    WitnessError,
)
from kgraphlab.groupoid import GroupoidElement, build_semidirect
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
from kgraphlab.shapes import INF, ExtendedShape, Shape, shapes_below

from conftest import composable_pairs, index_entries


@pytest.fixture(scope="module")
def rank1():
    return single_vertex_graph((2,), name="two_loops")


@pytest.fixture(scope="module")
def two_cycle():
    # two vertices joined into a single directed 2-cycle, rank one
    return KGraph(
        1, ("u", "v"),
        (Edge("p", 1, "v", "u"), Edge("q", 1, "u", "v")),
        {}, name="two_cycle",
    )


def rational(graph, prefix_names, cycle_names, vertex="u"):
    prefix = graph.path(prefix_names) if prefix_names else graph.vertex(vertex)
    return RationalInfinitePath(prefix, graph.path(cycle_names))


def random_rational(rng, graph, prefix_cap, cycle_cap):
    prefix = rng.choice(list(graph.all_paths(prefix_cap)))
    shapes = [s for s in shapes_below(cycle_cap) if all(c >= 1 for c in s.coords)]
    cycles = []
    while not cycles:
        cycles = list(graph.enumerate_paths(
            rng.choice(shapes), source=prefix.source, target=prefix.source))
    return RationalInfinitePath(prefix, rng.choice(cycles))


def random_zpoint(rng, graph, x_cap, prefix_cap, cycle_cap):
    y = random_rational(rng, graph, prefix_cap, cycle_cap)
    xs = [p for p in graph.all_paths(x_cap) if p.source == y.target]
    return ZPoint(rng.choice(xs), y)


# -- construction and normalization ------------------------------------------------


def test_cycle_must_close(two_cycle):
    with pytest.raises(NotComposable):
        RationalInfinitePath(two_cycle.vertex("u"), two_cycle.path(("p",)))


def test_prefix_must_meet_cycle(two_cycle):
    with pytest.raises(NotComposable):
        RationalInfinitePath(two_cycle.vertex("v"), two_cycle.path(("p", "q")))


def test_cycle_shape_strictly_positive(n2graph):
    with pytest.raises(ConfigError):
        RationalInfinitePath(n2graph.vertex("u"), n2graph.path(("a0",)))


def test_coordinates_must_share_graph(rank1, n2graph):
    with pytest.raises(ConfigError):
        ZPoint(rank1.vertex("u"),
               RationalInfinitePath(n2graph.vertex("u"), n2graph.path(("a0", "b0"))))


def test_power_cycle_reduced(rank1):
    y = rational(rank1, (), ("a0", "a0"))
    assert y.cycle == rank1.path(("a0",))
    assert y == rational(rank1, ("a0",), ("a0", "a0", "a0"))


def test_rotation_absorbed_into_cycle(rank1):
    y = rational(rank1, ("a0",), ("a1", "a0"))
    assert not y.prefix.codes
    assert y.cycle == rank1.path(("a0", "a1"))


def test_flip_prefix_absorbed(flip22):
    bare = rational(flip22, (), ("a0", "b0"))
    dressed = rational(flip22, ("b0",), ("a0", "b0"))
    assert dressed == bare
    assert (dressed.prefix, dressed.cycle) == (bare.prefix, bare.cycle)


def test_flip_dominated_period_reduced(flip22):
    # (a0 a0 b0)-forever braids into alignment with the (1,1)-cycle a0 b0
    y = rational(flip22, (), ("a0", "a0", "b0"))
    assert y.cycle.shape == Shape((1, 1))
    assert y == rational(flip22, (), ("a0", "b0"))


def test_flip_equal_points_with_incomparable_periods(flip22):
    # The same infinite path has minimal periods (2,1) and (1,2): the
    # period monoid of a flip-square path is not meet-closed, so no
    # (primitive cycle, minimal prefix) form is unique here.  The diagonal
    # form is: both presentations canonicalize to one (3,3) cycle.
    left = rational(flip22, (), ("a0", "a0", "b1"))
    right = rational(flip22, (), ("a0", "b0", "b1"))
    assert left == right
    assert hash(left) == hash(right)
    assert (left.prefix, left.cycle) == (right.prefix, right.cycle)


def test_repr_mentions_both_parts(n2graph):
    y = rational(n2graph, (), ("a0", "b0"))
    assert "a0" in repr(y) and "inf" in repr(y)


# -- the canonical form, validated against bounded unrolling ------------------------


def _family(graph, prefixes, cycle_shapes):
    vertexes = {p.source for p in prefixes}
    cycles = [c for s in cycle_shapes for v in sorted(vertexes)
              for c in graph.enumerate_paths(s, source=v, target=v)]
    return [RationalInfinitePath(p, c) for p in prefixes for c in cycles
            if p.source == c.target]


def _proven_bound(p1, c1, p2, c2):
    """Heads agreeing up to (p1 v p2) + s1 + s2 decide equality of the paths.

    The tails at n = p1 v p2 are s1- and s2-periodic and agree up to
    s1 + s2, so shifting the first by s2 gives an s1-periodic path with
    the same block, that is the first tail itself; both tails are then
    s2-periodic with equal blocks, hence equal.
    """
    return p1.shape.join(p2.shape) + c1.shape + c2.shape


def _decision_stable(y1, y2, extra):
    bound = _proven_bound(y1.prefix, y1.cycle, y2.prefix, y2.cycle)
    wide = Shape(tuple(b + e for b, e in zip(bound.coords, extra)))
    return (y1 == y2) == (y1.head(wide) == y2.head(wide))


def test_equality_bound_rank1(rank1):
    fam = _family(rank1, list(rank1.all_paths(Shape((2,)))),
                  [Shape((1,)), Shape((2,))])
    assert len(fam) == 42
    for i, y1 in enumerate(fam):
        for y2 in fam[i:]:
            assert _decision_stable(y1, y2, (10,))
            # free loops admit a genuine normal form; equality is syntactic
            assert (y1 == y2) == ((y1.prefix, y1.cycle) == (y2.prefix, y2.cycle))
            if y1 == y2:
                assert hash(y1) == hash(y2)


def test_equality_bound_flip(flip22):
    prefixes = [p for p in flip22.all_paths(Shape((1, 1)))
                if sum(p.shape.coords) <= 1]
    fam = _family(flip22, prefixes, [Shape((1, 1)), Shape((2, 1))])
    assert len(fam) == 60
    for i, y1 in enumerate(fam):
        for y2 in fam[i:]:
            assert _decision_stable(y1, y2, (6, 6))
            assert (y1 == y2) == ((y1.prefix, y1.cycle) == (y2.prefix, y2.cycle))
            if y1 == y2:
                assert hash(y1) == hash(y2)


def _head(prefix, cycle, bound):
    """Grade-bound head of prefix.cycle.cycle..., by composing and factorizing only."""
    word = prefix
    while not bound <= word.shape:
        word = compose(word, cycle)
    return factorize(word, bound)[0]


def _two_vertex_graph():
    # a color-1 two-cycle with two color-2 loops at each vertex; squares
    # through p swap the loop index, squares through q keep it (rank 2 has
    # no cube condition, so any such bijection is a 2-graph)
    edges = [Edge("p", 1, "v", "u"), Edge("q", 1, "u", "v")]
    edges += [Edge(f"b{k}{x}", 2, x, x) for x in "uv" for k in range(2)]
    table = {}
    for e, s, t in (("p", "v", "u"), ("q", "u", "v")):
        for k in range(2):
            k2 = 1 - k if e == "p" else k
            table[(f"b{k}{t}", e)] = (e, f"b{k2}{s}")
    return KGraph(2, ("u", "v"), edges, {(1, 2): table}, name="two_vertex")


DIFFERENTIAL_GRAPHS = (
    flip_graph(),
    single_vertex_graph([2, 2], "commute"),
    single_vertex_graph([2, 1, 2], "commute"),
    _two_vertex_graph(),
)


@st.composite
def presentations(draw):
    """Two (prefix, cycle) pairs on one graph, the second often a
    re-presentation of the first: cut at a later grade, cycle repeated."""
    graph = draw(st.sampled_from(DIFFERENTIAL_GRAPHS))
    rank = graph.rank
    prefix_cap, cycle_cap = Shape((1,) * rank), Shape((2, 2) + (1,) * (rank - 2))
    cycle_shapes = [s for s in shapes_below(cycle_cap) if all(c >= 1 for c in s.coords)]

    def draw_pair():
        prefix = draw(st.sampled_from(graph.all_paths(prefix_cap)))
        cycles = [c for s in cycle_shapes for c in graph.enumerate_paths(
            s, source=prefix.source, target=prefix.source)]
        return prefix, draw(st.sampled_from(cycles))

    p1, c1 = draw_pair()
    if draw(st.booleans()):
        return (p1, c1), draw_pair()
    cut = p1.shape + Shape(tuple(draw(st.integers(0, 2)) for _ in range(rank)))
    period = c1.shape * draw(st.integers(1, 2))
    p2 = _head(p1, c1, cut)
    c2 = factorize(_head(p1, c1, cut + period), cut)[1]
    return (p1, c1), (p2, c2)


@settings(max_examples=300, deadline=None)
@given(presentations())
def test_canonical_form_matches_bounded_unrolling(case):
    (p1, c1), (p2, c2) = case
    y1, y2 = RationalInfinitePath(p1, c1), RationalInfinitePath(p2, c2)
    bound = _proven_bound(p1, c1, p2, c2)
    assert (y1 == y2) == (_head(p1, c1, bound) == _head(p2, c2, bound))
    if y1 == y2:
        assert hash(y1) == hash(y2)
    # the canonical pair presents the input path, and is its own canonical form
    for (p, c), y in (((p1, c1), y1), ((p2, c2), y2)):
        own = _proven_bound(p, c, y.prefix, y.cycle)
        assert _head(y.prefix, y.cycle, own) == _head(p, c, own)
        again = RationalInfinitePath(y.prefix, y.cycle)
        assert (again.prefix, again.cycle) == (y.prefix, y.cycle)


def _path_canonical(prefix, cycle):
    """The diagonal canonical form on Path objects, by public compose and factorize only.

    The oracle for duality._canonical, which runs the same steps on the ids
    of the graph's path table.
    """
    ones, s = Shape((1,) * prefix.graph.rank), cycle.shape
    start = ones * max(prefix.shape.coords)  # least diagonal grade above the prefix
    word = prefix
    while not start + s <= word.shape:
        word = compose(word, cycle)
    head, block = factorize(factorize(word, start + s)[0], start)
    blocks = []
    while head.codes:
        d, head = factorize(head, ones)
        blocks.append(d)
    first_seen = {}
    while block not in first_seen:
        first_seen[block] = len(blocks)
        d, rest = factorize(compose(block, block), ones)
        blocks.append(d)
        block = factorize(rest, s)[0]
    lo, hi = first_seen[block], len(blocks)
    while lo and blocks[lo - 1] == blocks[hi - 1]:
        lo, hi = lo - 1, hi - 1
    return (functools.reduce(compose, blocks[:lo], prefix.graph.vertex(prefix.target)),
            functools.reduce(compose, blocks[lo:hi]))


def test_canonical_form_matches_the_path_level_oracle(flip22, n2graph, two_cycle, rank1):
    """The id-level canonical form is the Path-level one, and is its own canonical form.

    Every (prefix, cycle) with both of shape at most 2 in every color, the
    cycle strictly positive and closing where the prefix ends.
    """
    checked = {}
    for graph in (flip22, n2graph, two_cycle, rank1):
        cap, table = Shape((2,) * graph.rank), graph._table
        window = graph.all_paths(cap)
        cycles = [c for c in window if min(c.shape.coords) >= 1 and c.source == c.target]
        pairs = [(p, c) for p in window for c in cycles if c.target == p.source]
        for prefix, cycle in pairs:
            form = duality._canonical(table, prefix._id, cycle._id)
            assert tuple(map(table.path, form)) == _path_canonical(prefix, cycle)
            assert duality._canonical(table, *form) == form
        checked[graph.name] = len(pairs)
    assert checked == {"flip2x2": 1764, "free_abelian_2": 36, "two_cycle": 6, "two_loops": 42}


def test_points_on_a_graph_and_its_opposite_differ():
    """Equality needs the same graph: the same id pair on flip and on its opposite is two points."""
    g = flip_graph()
    op = g.opposite()
    y, y_op = (RationalInfinitePath(h.path(("a0",)), h.path(("a0", "b0"))) for h in (g, op))
    assert y.ids == y_op.ids
    assert y != y_op and hash(y) == hash(y_op)
    x, x_op = g.path(("b1",)), op.path(("b1",))
    assert x._id == x_op._id and ZPoint(x, y) != ZPoint(x_op, y_op)


def test_presentations_of_one_point_hash_equal(flip22):
    left = rational(flip22, (), ("a0", "a0", "b1"))
    right = rational(flip22, ("a0",), ("a0", "b1", "a0", "b0", "b1", "a0"))
    assert left == right and hash(left) == hash(right)
    x = flip22.path(("a0", "b1"))
    same_x = next(p for p in flip22.enumerate_paths(Shape((1, 1))) if p.codes == x.codes)
    assert same_x is not x
    assert ZPoint(x, left) == ZPoint(same_x, right)
    assert hash(ZPoint(x, left)) == hash(ZPoint(same_x, right))
    assert ZPoint(x, left) != ZPoint(flip22.path(("a1", "b0")), left)


def test_a_points_hash_does_not_depend_on_table_history():
    """The same point on two fresh flip graphs, after different prior work, hashes the same."""
    busy, fresh = flip_graph(), flip_graph()
    boundary_points(busy, prefix_cap=Shape((1, 1)), cycle_cap=Shape((2, 1)))
    x_words, prefix_words, cycle_words = ("a1", "b0"), ("b1",), ("a0", "b1", "a1", "b0")
    points = []
    for g in (busy, fresh):
        y = RationalInfinitePath(g.path(prefix_words), g.path(cycle_words))
        points.append((y, ZPoint(g.path(x_words), y)))
    (y1, z1), (y2, z2) = points
    assert y1.ids != y2.ids and y1 != y2  # other ids, and other graphs
    assert repr(y1) == repr(y2) and hash(y1) == hash(y2)
    assert repr(z1) == repr(z2) and hash(z1) == hash(z2)


def test_differential_two_vertex_graph_validates():
    assert DIFFERENTIAL_GRAPHS[-1].validate().ok


# -- segments and shifts ------------------------------------------------------------


def test_segment_and_unroll(n2graph):
    y = rational(n2graph, (), ("a0", "b0"))
    assert y.head(Shape((3, 2))).shape == Shape((3, 2))
    block = factorize(y.head(Shape((2, 2))), Shape((1, 0)))[1]
    assert block.shape == Shape((1, 2))
    with pytest.raises(ShapeError):
        factorize(y.head(Shape((1, 1))), Shape((2, 0)))


def test_shape_is_all_infinite(n2graph):
    y = rational(n2graph, (), ("a0", "b0"))
    assert y.shape == ExtendedShape((INF, INF))
    assert y.shape.infinite_support() == frozenset({1, 2})


def test_shift_zero_is_identity(flip22):
    rng = random.Random(11)
    for _ in range(20):
        y = random_rational(rng, flip22, Shape((1, 1)), Shape((2, 1)))
        assert shift_infinite(Shape.zero(2), y) == y


def test_shift_adds(rank1, flip22, n2graph):
    rng = random.Random(12)
    graphs = [rank1, flip22, n2graph]
    for _ in range(100):
        g = rng.choice(graphs)
        cap = Shape((2,)) if g.rank == 1 else Shape((1, 1))
        ccap = Shape((2,)) if g.rank == 1 else Shape((2, 1))
        y = random_rational(rng, g, cap, ccap)
        k = rng.choice(list(shapes_below(cap)))
        l = rng.choice(list(shapes_below(cap)))
        assert shift_infinite(k + l, y) == shift_infinite(k, shift_infinite(l, y))


def test_shift_bookkeeping_example(n2graph):
    # dropping the grade-(1,0) head relabels the presentation only;
    # unrolled segments line up exactly
    y = rational(n2graph, (), ("a0", "b0"))
    shifted = shift_infinite(Shape((1, 0)), y)
    assert shifted.head(Shape((3, 3))) == factorize(y.head(Shape((4, 3))), Shape((1, 0)))[1]


# -- boundary enumeration -----------------------------------------------------------


def test_boundary_n2_collapses_to_one_point(n2graph):
    assert len(boundary_points(n2graph)) == 1
    assert len(boundary_points(n2graph, prefix_cap=Shape((2, 2)))) == 1


def test_boundary_flip_counts(flip22):
    assert len(boundary_points(flip22)) == 4
    window = boundary_points(flip22, prefix_cap=Shape((1, 1)),
                             cycle_cap=Shape((1, 1)))
    assert len(window) == 16


def test_boundary_grid_empty(grid11):
    assert boundary_points(grid11) == []


def test_boundary_deterministic(flip22):
    a = boundary_points(flip22, prefix_cap=Shape((1, 0)))
    b = boundary_points(flip22, prefix_cap=Shape((1, 0)))
    assert a == b


def test_path_space_system_with_boundary(n2graph):
    # the boundary of n2's path space is one point, shiftable forever
    sys = boundary_subsystem(n2graph)
    assert len(sys.carrier) == 1
    assert sys.check_commuting().ok
    assert sys.exit_time(sys.carrier[0]) == ExtendedShape((INF, INF))


def test_path_space_carrier_is_the_window(grid11, n2graph, flip22):
    for graph, cap in ((grid11, Shape((1, 1))), (n2graph, Shape((2, 2))), (flip22, Shape((1, 1)))):
        assert path_space_system(graph, cap).carrier == tuple(graph.all_paths(cap))


def test_boundary_carrier_is_the_window(flip22, n2graph):
    caps = ((flip22, None, None), (n2graph, None, None), (flip22, Shape((1, 1)), Shape((1, 1))))
    for graph, prefix_cap, cycle_cap in caps:
        window = boundary_points(graph, prefix_cap=prefix_cap, cycle_cap=cycle_cap)
        assert boundary_subsystem(graph, prefix_cap, cycle_cap).carrier == tuple(window)


def test_boundary_subsystem_flip(flip22):
    sys = boundary_subsystem(flip22)
    assert len(sys.carrier) == 4
    assert sys.check_commuting().ok and sys.check_dc().ok


def test_boundary_subsystem_rejects_grid(grid11):
    with pytest.raises(ConfigError):
        boundary_subsystem(grid11)


# -- the boundary shift's groupoid is the Kumjian-Pask groupoid ---------------------


def kumjian_pask_window(system, bound):
    """The triples (lam.w, d(lam) - d(mu), mu.w) with d(lam), d(mu) <= bound, both ends in the carrier.

    Points are carrier indices, translations coordinate tuples.  lam.w is
    built one edge at a time, e.x being the rational path with prefix
    e.prefix(x) and cycle cycle(x), so the oracle composes paths and never
    shifts one.  No step leaves the carrier: each partial product is a
    shift of lam.w, and the carrier is closed under the shifts.  Returned as
    a dict of triples, in build order.
    """
    points, graph = system.carrier, system.carrier[0].graph
    index = {x: i for i, x in enumerate(points)}
    prepend = []  # per point x: (e.x, d(e)) for the edges e with e.x in the carrier
    for x in points:
        steps = []
        for j in range(1, graph.rank + 1):
            for e in graph.enumerate_paths(Shape.unit(graph.rank, j), source=x.target):
                ex = index.get(RationalInfinitePath(compose(e, x.prefix), x.cycle))
                if ex is not None:
                    steps.append((ex, e.shape.coords))
        prepend.append(steps)
    window = {}
    for w in range(len(points)):
        ends = {(w, (0,) * graph.rank)}  # (lam.w, d(lam)) for every lam that lands in the carrier
        todo = list(ends)
        while todo:
            x, m = todo.pop()
            for ex, d in prepend[x]:
                end = (ex, tuple(a + b for a, b in zip(m, d)))
                if end not in ends and all(a <= b for a, b in zip(end[1], bound.coords)):
                    ends.add(end)
                    todo.append(end)
        for (x, m), (y, n) in itertools.product(sorted(ends), repeat=2):
            window[x, tuple(a - b for a, b in zip(m, n)), y] = True
    return window


def first_difference(triples, window):
    """The first of triples outside window, else the first of window outside triples."""
    return (next((t for t in triples if t not in window), None)
            or next((t for t in window if t not in triples), None))


def test_boundary_groupoid_is_the_kumjian_pask_window():
    """build_semidirect of the boundary shifts equals the Kumjian-Pask window, arrow by arrow.

    An arrow (x, m - n, y) with witness (m, n) is (lam.w, d(lam) - d(mu), mu.w)
    for w = T^m x = T^n y, lam = x(0, m) and mu = y(0, n); conversely a
    Kumjian-Pask triple has witness (d(lam), d(mu)).  So below a witness bound
    the two windows hold the same triples, and with them the same cocycle
    d(lam) - d(mu).  inverse swaps lam and mu, and compose is the
    Kumjian-Pask product (x, k, y)(y, l, z) = (x, k + l, z): on every
    composable pair of a window under 500 arrows, and from every 50th arrow
    of a larger one.

    Swapping the two shifts must break the equality on the aperiodic
    single-vertex graphs, with the first differing triple as the witness,
    and so must a wrong-block shift: sigma^(e1 + e2) in place of either
    unit shift.
    On flip it changes nothing: flip is periodic, and its two unit shifts
    agree on every boundary point.
    """
    graphs = [flip_graph(), one_loop_per_color_graph(2), single_vertex_graph([2]),
              single_vertex_graph([2, 2]), single_vertex_graph([2, 3])]
    graphs += [g.opposite() for g in graphs]
    sizes, swapped_differs = {}, {}  # by graph name: arrows, first triple a swapped window gets wrong
    wrong_block_differs = {}  # by graph name and replaced shift: the first triple it gets wrong
    for graph in graphs:
        one, bound = Shape((1,) * graph.rank), Shape((2,) * graph.rank)
        system = boundary_subsystem(graph, prefix_cap=one, cycle_cap=one)
        index = {x: i for i, x in enumerate(system.carrier)}

        def triples(G):
            return {(index[g.x], g.z, index[g.y]): True for g in G}

        G = build_semidirect(system, witness_bound=bound)
        window = kumjian_pask_window(system, bound)
        assert first_difference(triples(G), window) is None, graph.name
        sizes[graph.name] = len(G)
        for g in G:
            assert g.z == g.witness[0].diff(g.witness[1])  # d(lam) - d(mu)
            inv = G.inverse(g)
            assert (inv.x, inv.z, inv.y) == (g.y, tuple(-c for c in g.z), g.x) and inv in G
        by_range = {}
        for h in G:
            by_range.setdefault(h.x, []).append(h)
        for g in G.elements if len(G) < 500 else G.elements[::50]:
            for h in by_range.get(g.y, ()):
                gh = G.compose(g, h)
                assert (gh.x, gh.z, gh.y) == (g.x, tuple(a + b for a, b in zip(g.z, h.z)), h.y)
        if graph.name in ("flip2x2", "single2x2", "single2x3"):
            swapped = MGDS("swapped", system.carrier, system.generators[::-1])
            swapped_differs[graph.name] = first_difference(
                triples(build_semidirect(swapped, witness_bound=bound)), window)
        if graph.name in ("single2x2", "single2x3"):
            T1, T2 = system.generators  # sigma^(e1 + e2) in place of sigma^(e2), or of sigma^(e1)
            for j, gens in ((2, (T1, T1.compose(T2))), (1, (T1.compose(T2), T2))):
                mutant = MGDS("wrong-block", system.carrier, gens)
                wrong_block_differs[graph.name, j] = first_difference(
                    triples(build_semidirect(mutant, witness_bound=bound)), window)
    assert sizes == {"flip2x2": 1376, "free_abelian_2": 25, "single2": 32, "single2x2": 1024,
                     "single2x3": 3168, "op(flip2x2)": 1376, "op(free_abelian_2)": 25,
                     "op(single2)": 32, "op(single2x2)": 1024, "op(single2x3)": 3168}
    assert [name for name, t in swapped_differs.items() if t is not None] == [
        "single2x2", "single2x3"], swapped_differs
    assert wrong_block_differs == {
        ("single2x2", 2): (5, (-2, 1), 2), ("single2x2", 1): (0, (-1, 2), 7),
        ("single2x3", 2): (8, (-2, 1), 3), ("single2x3", 1): (0, (-1, 2), 11)}


# -- paired points and the two shift families ---------------------------------------


def test_zpoint_endpoint_check(two_cycle):
    y = RationalInfinitePath(two_cycle.vertex("u"), two_cycle.path(("p", "q")))
    with pytest.raises(NotComposable):
        ZPoint(two_cycle.path(("p",)), y)  # p starts at v, y starts at u


def test_t_shift_needs_enough_shape(n2graph):
    z = ZPoint(n2graph.vertex("u"), rational(n2graph, (), ("a0", "b0")))
    with pytest.raises(DomainError):
        t_shift(Shape((1, 0)), z)


def test_zero_shifts_are_identity(flip22):
    rng = random.Random(13)
    zero = Shape.zero(2)
    for _ in range(20):
        z = random_zpoint(rng, flip22, Shape((2, 1)), Shape((1, 0)), Shape((1, 1)))
        assert t_shift(zero, z) == z
        assert v_shift(zero, z) == z


def test_seam_commutation_recipe(flip22, n2graph):
    # both orders of (seam, slide) move grade-m across the seam and slide
    # by k; the middle block x''.y' refactors as alpha.beta with
    # sigma(alpha) = k, sigma(beta) = m, and both composites equal
    # (drop-k-head of x'.alpha, beta.y'')
    rng = random.Random(14)
    for _ in range(40):
        g = rng.choice([flip22, n2graph])
        z = random_zpoint(rng, g, Shape((2, 2)), Shape((1, 0)), Shape((1, 1)))
        units = list(shapes_below(Shape((1, 1))))
        m, k = rng.choice(units), rng.choice(units)
        if not m <= z.x.shape:
            continue
        x_head, x_tail = factorize(z.x, z.x.shape - m)
        y_head = z.y.head(k)
        y_tail = shift_infinite(k, z.y)
        middle = compose(x_tail, y_head)
        alpha = factorize(middle, k)[0]
        beta = factorize(middle, k)[1]
        expected = ZPoint(
            factorize(compose(x_head, alpha), k)[1],
            RationalInfinitePath(compose(beta, y_tail.prefix), y_tail.cycle),
        )
        assert t_shift(m, v_shift(k, z)) == expected
        assert v_shift(k, t_shift(m, z)) == expected


def test_zpoint_system_n2(n2graph):
    y = boundary_points(n2graph)[0]
    x = next(iter(n2graph.enumerate_paths(Shape((2, 2)))))
    sys = zpoint_system(n2graph, [ZPoint(x, y)])
    assert len(sys.carrier) == 9
    assert sys.check_commuting().ok
    assert sys.check_dc().ok
    assert [g.name for g in sys.generators] == ["T1", "T2", "V1", "V2"]


def test_zpoint_system_flip_dc(flip22):
    ys = boundary_points(flip22)
    xs = list(flip22.enumerate_paths(Shape((2, 2))))
    sys = zpoint_system(flip22, [ZPoint(x, y) for x in xs[:4] for y in ys[:2]])
    assert len(sys.carrier) == 180
    assert sys.check_commuting().ok
    assert sys.check_dc(Shape((1, 1, 1, 1))).ok


def _reference_zpoint_system(graph, seeds):
    """The paired-point closure as an explicit T/V loop: T1, V1, T2, V2 per point."""
    rank = graph.rank
    t_tables = [dict() for _ in range(rank)]
    v_tables = [dict() for _ in range(rank)]
    carrier, queue = [], list(dict.fromkeys(seeds))
    seen = set(queue)
    while queue:
        z = queue.pop(0)
        carrier.append(z)
        for j in range(1, rank + 1):
            unit = Shape.unit(rank, j)
            images = []
            if z.x.shape.coord(j) >= 1:
                w = t_tables[j - 1][z] = t_shift(unit, z)
                images.append(w)
            w = v_tables[j - 1][z] = v_shift(unit, z)
            images.append(w)
            for w in images:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return carrier, t_tables + v_tables


def _flip_word(flip, word):
    return flip.path(word) if word else flip.vertex("u")


def _relabel(word):
    """Swap a0 with a1 and b0 with b1: an automorphism of the flip graph."""
    return tuple(e[0] + str(1 - int(e[1:])) for e in word)


def _closure_seed_sets(flip, n2):
    ys = boundary_points(n2)
    yield n2, [ZPoint(next(iter(n2.enumerate_paths(Shape((2, 2))))), ys[0])]
    ys, xs = boundary_points(flip), list(flip.enumerate_paths(Shape((2, 2))))
    yield flip, [ZPoint(x, y) for x in xs[:4] for y in ys[:2]]
    # the closure seeds of the boundary-pairing benchmark, and their relabels
    for x in (("a0",), ("b0",), ("a0", "b0"), ("a0", "b1")):
        for c in (("a0", "b0"), ("a0", "b1")):
            for rx, rc in ((x, c), (_relabel(x), _relabel(c))):
                y = RationalInfinitePath(flip.vertex("u"), _flip_word(flip, rc))
                yield flip, [ZPoint(_flip_word(flip, rx), y)]


def test_zpoint_system_matches_reference_loop(flip22, n2graph):
    for graph, seeds in _closure_seed_sets(flip22, n2graph):
        sys = zpoint_system(graph, seeds)
        carrier, tables = _reference_zpoint_system(graph, seeds)
        assert set(sys.carrier) == set(carrier) and len(sys.carrier) == len(carrier)
        assert sys.carrier[:len(set(seeds))] == tuple(dict.fromkeys(seeds))
        assert [T.name for T in sys.generators] == ["T1", "T2", "V1", "V2"]
        assert list(sys.generators) == [PartialMap("ref", t) for t in tables]  # equal tables


def test_zpoint_exit_pattern(flip22):
    # seam coordinates exit exactly at sigma(x); slide coordinates never exit
    ys = boundary_points(flip22)
    xs = list(flip22.enumerate_paths(Shape((2, 1))))
    sys = zpoint_system(flip22, [ZPoint(xs[0], ys[0])])
    for z in sys.carrier:
        expected = ExtendedShape(tuple(z.x.shape.coords) + (INF, INF))
        assert sys.exit_time(z) == expected


# -- the covering map ---------------------------------------------------------------


def test_phi_on_vertex_paths(flip22):
    y = boundary_points(flip22)[0]
    n, w = phi(ZPoint(flip22.vertex("u"), y))
    assert n == Shape.zero(2)
    assert w == y


def test_composite_is_built_once(flip22):
    rng = random.Random(16)
    for _ in range(10):
        z = random_zpoint(rng, flip22, Shape((2, 2)), Shape((1, 0)), Shape((1, 1)))
        assert z.composite is z.composite
        assert phi(z)[1] is z.composite
        assert z.composite == RationalInfinitePath(flip22.compose(z.x, z.y.prefix), z.y.cycle)


def test_phi_section_round_trips(flip22):
    rng = random.Random(15)
    for _ in range(50):
        z = random_zpoint(rng, flip22, Shape((2, 2)), Shape((1, 0)), Shape((1, 1)))
        assert phi_section(phi(z)) == z
        pair = (rng.choice(list(shapes_below(Shape((2, 2))))),
                random_rational(rng, flip22, Shape((1, 1)), Shape((1, 1))))
        n, w = phi(phi_section(pair))
        assert (n, w) == pair


def test_phi_section_rejects_infinite_grade(flip22):
    y = boundary_points(flip22)[0]
    with pytest.raises(ShapeError):
        phi_section((ExtendedShape((INF, 0)), y))


def test_equivariance_seeded(flip22, n2graph, rank1):
    rng = random.Random(16)
    graphs = [flip22, n2graph, rank1]
    checked = 0
    for _ in range(300):
        g = rng.choice(graphs)
        if g.rank == 1:
            caps = (Shape((2,)), Shape((1,)), Shape((2,)))
            units = list(shapes_below(Shape((2,))))
        else:
            caps = (Shape((2, 2)), Shape((1, 0)), Shape((1, 1)))
            units = list(shapes_below(Shape((1, 1))))
        z = random_zpoint(rng, g, *caps)
        m, k = rng.choice(units), rng.choice(units)
        if m <= z.x.shape:
            assert phi(t_shift(m, z)) == s_shift(m, phi(z))
            checked += 1
        assert phi(v_shift(k, z)) == w_shift(k, phi(z))
        checked += 1
    assert checked > 300


def test_s_shift_respects_grade(flip22):
    y = boundary_points(flip22)[0]
    with pytest.raises(DomainError):
        s_shift(Shape((1, 0)), (Shape.zero(2), y))


def test_shift_arguments_take_a_coordinate_tuple(flip22):
    grid = grid_system(2, 2)
    assert grid.check_dc((1, 1)) == grid.check_dc(Shape(1, 1))
    assert set(build_semidirect(grid, (1, 1))) == set(build_semidirect(grid, Shape(1, 1)))
    y = boundary_points(flip22)[0]
    z = ZPoint(flip22.path(("a0", "b0")), y)
    for k in [(1, 0), (0, 1), (1, 1)]:
        K = Shape(k)
        assert y.head(k) == y.head(K)
        assert shift_infinite(k, y) == shift_infinite(K, y)
        assert t_shift(k, z) == t_shift(K, z) and v_shift(k, z) == v_shift(K, z)
        assert s_shift(k, phi(z)) == s_shift(K, phi(z))
        assert w_shift(k, phi(z)) == w_shift(K, phi(z))
    n, w = phi(z)
    grade = tuple(n.coords)  # covering data with a coordinate-tuple grade
    assert phi_section((grade, w)) == phi_section((n, w)) == z
    for k in [(1, 0), (0, 1), (1, 1)]:
        assert s_shift(k, (grade, w)) == s_shift(k, (n, w))
        assert w_shift(k, (grade, w)) == w_shift(k, (n, w))
    for cap in [(0, 0), (1, 0), (1, 1)]:
        C = Shape(cap)
        assert (boundary_points(flip22, prefix_cap=cap, cycle_cap=(1, 1))
                == boundary_points(flip22, prefix_cap=C, cycle_cap=Shape(1, 1)))
        assert (boundary_points(flip22, cycle_cap=cap)
                == boundary_points(flip22, cycle_cap=C))
        for build in (lambda c: path_space_system(flip22, c),
                      lambda c: boundary_subsystem(flip22, c),
                      lambda c: boundary_subsystem(flip22, None, c)):
            a, b = build(cap), build(C)
            assert (a.name, a.carrier, a.generators) == (b.name, b.carrier, b.generators)
    for infinite in [(INF, 0), ExtendedShape(INF, 0)]:
        for call in (y.head, lambda k: shift_infinite(k, y),
                     lambda k: t_shift(k, z), lambda k: v_shift(k, z), grid.check_dc,
                     lambda k: s_shift(k, phi(z)), lambda k: w_shift(k, phi(z)),
                     lambda k: phi_section((k, y)),
                     lambda k: boundary_points(flip22, prefix_cap=k),
                     lambda k: boundary_points(flip22, cycle_cap=k),
                     lambda k: path_space_system(flip22, k),
                     lambda k: boundary_subsystem(flip22, k),
                     lambda k: boundary_subsystem(flip22, None, k)):
            with pytest.raises(ShapeError):
                call(infinite)


def test_path_memos_die_with_their_graph():
    """The graph's path table, with its compositions, splits and canonical forms, dies with it."""
    g = flip_graph()
    a, ab = g.path(["a0"]), g.path(["a1", "b0"])
    y = RationalInfinitePath(a, ab)
    factorize(compose(a, ab), (1, 0))
    table = g._table
    assert index_entries(table.left_rows) and index_entries(table.head_columns) and table.canonical
    refs = weakref.ref(g), weakref.ref(table)
    del g, a, ab, y, table
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_zpoint_closure_work_is_pinned(monkeypatch):
    """Kernel work of the boundary-pairing closure on a fresh graph, and none on a rerun.

    The graph is built here, since a shared one carries warm memos.  The
    boundary points and the seed fill part of the memos first, as the
    set-up does; asking for the closure again on the same graph answers
    every question from them.
    """
    counts = {}

    def counted(name, inner):
        def call(*args):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args)
        return call

    monkeypatch.setattr(duality, "_canonical", counted("_canonical", duality._canonical))
    for name in ("_normal", "_join", "_split"):
        monkeypatch.setattr(KGraph, name, counted(name, getattr(KGraph, name)))
    g = flip_graph()
    seed = ZPoint(g.path(("a0", "b0")), boundary_points(g)[0])
    assert counts == {"_canonical": 4, "_normal": 1, "_join": 4, "_split": 12}
    counts.clear()
    carrier = zpoint_system(g, [seed]).carrier
    assert (len(carrier), counts) == (4, {"_canonical": 2, "_join": 10, "_split": 12})
    counts.clear()
    assert zpoint_system(g, [seed]).carrier == carrier
    assert counts == {}


# -- fiber lifts ---------------------------------------------------------------------


def test_lift_of_zero_target_is_unit(flip22):
    y = boundary_points(flip22)[0]
    z = ZPoint(flip22.path(("a0", "b0")), y)
    el = lift_fiber(z, GroupoidElement(phi(z), (0, 0, 0, 0), phi(z)))
    assert el.x == z and el.y == z
    assert el.witness == (Shape.zero(4), Shape.zero(4))


def test_lift_reconstruction_recipe(n2graph):
    # hand instance: shifting (a0 b0, y) across the seam by (1,0) lands on
    # the same point as shifting (b0 b0, y) by (0,1); the lift over that
    # covering arrow reconstructs (b0 b0, y) and certifies the witness
    y = boundary_points(n2graph)[0]
    z = ZPoint(n2graph.path(("a0", "b0")), y)
    zprime = ZPoint(n2graph.path(("b0", "b0")), y)
    assert t_shift(Shape((0, 1)), zprime) == t_shift(Shape((1, 0)), z)
    el = lift_fiber(z, GroupoidElement(phi(zprime), (-1, 1, 0, 0), phi(z)))
    assert el.x == zprime and el.y == z
    m, n = el.witness
    left = v_shift(Shape(m.coords[2:]), t_shift(Shape(m.coords[:2]), el.x))
    right = v_shift(Shape(n.coords[2:]), t_shift(Shape(n.coords[:2]), el.y))
    assert left == right


def test_lift_rejects_wrong_source(n2graph):
    y = boundary_points(n2graph)[0]
    z = ZPoint(n2graph.path(("a0", "b0")), y)
    zprime = ZPoint(n2graph.path(("b0", "b0")), y)
    with pytest.raises(ConfigError):
        lift_fiber(z, GroupoidElement(phi(zprime), (-1, 1, 0, 0), phi(zprime)))


def test_lift_failure_is_loud(n2graph):
    y = boundary_points(n2graph)[0]
    z = ZPoint(n2graph.path(("a0", "b0")), y)
    with pytest.raises(WitnessError):
        lift_fiber(z, GroupoidElement(phi(z), (9, 0, 0, 0), phi(z)))


def test_phi_is_injective_on_the_lift_window(flip22):
    # injectivity is the premise that makes every lift unique (see lift_fiber)
    ys = boundary_points(flip22)
    x = next(iter(flip22.enumerate_paths(Shape((2, 2)))))
    sys = zpoint_system(flip22, [ZPoint(x, ys[0])])
    assert len({phi(p) for p in sys.carrier}) == len(sys.carrier)
    G = build_semidirect(sys, Shape((1, 1, 1, 1)))
    assert len(G) == 441
    # a slice of arrows: the lift over each one's covering data is itself
    for g in list(G)[::50]:
        assert lift_fiber(g.y, g) == g


# The (m, n) that lift_fiber finds for every 50th arrow of the build in
# test_phi_is_injective_on_the_lift_window, keyed by the arrow's repr.
LIFT_WITNESSES = {
    "((a0/a0/b0/b0, <u|(a0/b0)^inf>), (0, 0, 0, 0), (a0/a0/b0/b0, <u|(a0/b0)^inf>))":
        ((0, 0, 0, 0), (0, 0, 0, 0)),
    "((a0/a0, <u|(a0/b0)^inf>), (0, -1, -1, 0), (a0/a0/b0, <u|(a0/b0)^inf>))":
        ((0, 0, 0, 0), (0, 1, 1, 0)),
    "((a0/a0/b0/b0, <u|(a0/b0)^inf>), (0, 0, 0, 1), (a0/a0/b0/b0, <u|(a0/b0)^inf>))":
        ((0, 0, 0, 1), (0, 0, 0, 0)),
    "((a0/a0/b0/b0, <u|(a0/b0)^inf>), (0, 0, 1, 0), (a0/a0/b0/b0, <u|(a0/b0)^inf>))":
        ((0, 0, 1, 0), (0, 0, 0, 0)),
    "((a0/a0/b0/b0, <u|(a0/b0)^inf>), (0, 0, 1, 1), (a0/a0/b0/b0, <u|(a0/b0)^inf>))":
        ((0, 0, 1, 1), (0, 0, 0, 0)),
    "((b0/b0, <u|(a0/b0)^inf>), (-1, 1, 0, 0), (a0/b0, <u|(a0/b0)^inf>))":
        ((0, 1, 0, 0), (1, 0, 0, 0)),
    "((b0, <u|(a0/b0)^inf>), (-1, 1, 1, 0), (a0, <u|(a0/b0)^inf>))":
        ((0, 1, 1, 0), (1, 0, 0, 0)),
    "((a0, <u|(a0/b0)^inf>), (1, -1, -1, 0), (b0, <u|(a0/b0)^inf>))":
        ((1, 0, 0, 0), (0, 1, 1, 0)),
    "((a0, <u|(a0/b0)^inf>), (1, 0, 1, 1), (u, <u|(a0/b0)^inf>))":
        ((1, 0, 1, 1), (0, 0, 0, 0)),
}


def test_lift_witnesses_pinned(flip22):
    ys = boundary_points(flip22)
    x = next(iter(flip22.enumerate_paths(Shape((2, 2)))))
    G = build_semidirect(zpoint_system(flip22, [ZPoint(x, ys[0])]), Shape((1, 1, 1, 1)))
    arrows = {repr(g): g for g in G}
    for key, witness in LIFT_WITNESSES.items():
        g = arrows[key]
        m, n = lift_fiber(g.y, g).witness
        assert (tuple(m.coords), tuple(n.coords)) == witness


# -- two-sided words -----------------------------------------------------------------


def test_two_sided_round_trips(flip22):
    rng = random.Random(17)
    fop = flip22.opposite()
    for _ in range(50):
        p = (random_rational(rng, flip22, Shape((1, 1)), Shape((1, 1))),
             random_rational(rng, fop, Shape((1, 1)), Shape((1, 1))))
        for k in (1, 2):
            q = two_sided_shift(k, p)
            assert q[0].target == q[1].target
            back = two_sided_shift_inverse(k, q)
            assert back[0] == p[0] and back[1] == p[1]
            forward = two_sided_shift(k, two_sided_shift_inverse(k, p))
            assert forward[0] == p[0] and forward[1] == p[1]


def test_two_sided_shifts_commute(flip22):
    rng = random.Random(18)
    fop = flip22.opposite()
    for _ in range(30):
        p = (random_rational(rng, flip22, Shape((1, 1)), Shape((1, 1))),
             random_rational(rng, fop, Shape((1, 1)), Shape((1, 1))))
        a = two_sided_shift(2, two_sided_shift(1, p))
        b = two_sided_shift(1, two_sided_shift(2, p))
        assert a[0] == b[0] and a[1] == b[1]


def test_two_sided_moves_pivot(two_cycle):
    x = RationalInfinitePath(two_cycle.vertex("u"), two_cycle.path(("p", "q")))
    top = two_cycle.opposite()
    y = RationalInfinitePath(top.vertex("u"), top.path(("q", "p")))
    q = two_sided_shift(1, (x, y))
    assert q[0].target == q[1].target == "v"
    # the moved edge is recoverable from the y side
    assert shift_infinite(Shape((1,)), q[1]) == y


def test_two_sided_endpoint_mismatch(two_cycle):
    x = RationalInfinitePath(two_cycle.vertex("u"), two_cycle.path(("p", "q")))
    top = two_cycle.opposite()
    y = RationalInfinitePath(top.vertex("v"), top.path(("p", "q")))
    with pytest.raises(NotComposable):
        two_sided_shift(1, (x, y))


def test_two_sided_cocycle_values():
    assert two_sided_cocycle(2, 1) == ((1, 0), (-1, 0))
    assert two_sided_cocycle(3, 2) == ((0, 1, 0), (0, -1, 0))
    with pytest.raises(ConfigError):
        two_sided_cocycle(2, 3)


def test_two_sided_coordinate_shift_example(n2graph):
    # rank-two single-loop fixture: one doubly infinite word per pivot;
    # the shift slides the seam one step and is undone exactly
    nop = n2graph.opposite()
    x = rational(n2graph, (), ("a0", "b0"))
    y = RationalInfinitePath(nop.vertex("u"), nop.path(("a0", "b0")))
    q = two_sided_shift(1, (x, y))
    assert q[0] == x  # the tail of the unique word is the word itself
    assert shift_infinite(Shape((1, 0)), q[1]) == y


# -- the lattice twist ---------------------------------------------------------------


@pytest.fixture(scope="module")
def grid_groupoid(grid11):
    return build_semidirect(path_space_system(grid11, Shape((1, 1))))


def test_theta_fixes_units(grid_groupoid):
    for u in itertools.islice(map(grid_groupoid.unit_at, grid_groupoid.unit_points), 5):
        assert theta_twist((3, 4), u) == ((3, 4), u)


def test_theta_automorphism_exhaustive(grid_groupoid):
    G = grid_groupoid
    box = list(itertools.product(range(3), repeat=2))
    for g, h in composable_pairs(G):
        gh = G.compose(g, h)
        assert gh.z == tuple(a + b for a, b in zip(g.z, h.z))  # b is a cocycle
        for t1, t2 in itertools.product(box[:3], box):
            twisted = tuple(a + b for a, b in
                            zip(theta_twist(t1, g)[0], theta_twist(t2, h)[0]))
            total = tuple(a + b for a, b in zip(t1, t2))
            assert theta_twist(total, gh)[0] == twisted


def test_theta_untwist_inverts(grid_groupoid):
    g = next(iter(grid_groupoid))
    assert theta_untwist(*theta_twist((5, -2), g)) == ((5, -2), g)


def test_theta_rank_mismatch(grid_groupoid):
    g = next(iter(grid_groupoid))
    with pytest.raises(ConfigError):
        theta_twist((1, 2, 3), g)
