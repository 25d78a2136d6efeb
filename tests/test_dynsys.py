"""Partial-map system tests.

Oracle strategy: domains and composites are recomputed here by direct set
comprehension over the carrier, then compared with the library's cached
power tables.
"""

import itertools
import random

import pytest

from kgraphlab.duality import path_space_system
from kgraphlab.dynsys import (
    MGDS,
    PartialMap,
    free_monoid_system,
    grid_system,
    identity_system,
    product_system,
)
from kgraphlab.errors import ConfigError, DomainError, ShapeError
from kgraphlab.groupoid import build_semidirect
from kgraphlab.kgraph import factorize, grid_graph, one_loop_per_color_graph
from kgraphlab.shapes import INF, ExtendedShape, Shape, shapes_below


# -- partial maps -----------------------------------------------------------


def test_partial_map_basics():
    f = PartialMap("f", {1: 2, 2: 3})
    assert f(1) == 2 and f.defined_at(2) and not f.defined_at(3)
    with pytest.raises(DomainError) as e:
        f(3)
    assert e.value.point == 3
    g = PartialMap("g", {x: x + 1 for x in range(5) if x % 2 == 0})
    assert g.domain() == {0, 2, 4}


def test_composition_domain_law():
    f = PartialMap("f", {1: 2, 2: 9})
    g = PartialMap("g", {0: 1, 1: 1, 5: 7})
    fg = f.compose(g)
    # dom(fg) = {x in dom(g): g(x) in dom(f)}, recomputed from scratch
    assert fg.domain() == {x for x in g.domain() if f.defined_at(g(x))}
    assert fg(0) == 2 and not fg.defined_at(5)


def test_partial_map_equality_is_by_graph():
    assert PartialMap("a", {1: 2}) == PartialMap("b", {1: 2})
    assert PartialMap("a", {1: 2}) != PartialMap("a", {1: 3})


# -- construction guards --------------------------------------------------------


def test_noncommuting_generators_rejected():
    pts = [0, 1, 2]
    swap = PartialMap("s", {0: 1, 1: 0, 2: 2})
    drop = PartialMap("d", {1: 2, 2: 2, 0: 0})
    with pytest.raises(ConfigError, match=r"generators 1 and 2 of system bad do not commute"):
        MGDS("bad", pts, [swap, drop])


def test_carrier_containment_enforced():
    with pytest.raises(ConfigError):
        MGDS("stray", [0, 1], [PartialMap("f", {0: 1, 1: 2})])
    with pytest.raises(ConfigError):
        MGDS("empty", [0], [])


# -- grid system -------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid24():
    return grid_system(2, 4)


def test_grid_iterated_shift(grid24):
    assert grid24.power(Shape(2, 1))((3, 2)) == (1, 1)
    with pytest.raises(DomainError):
        grid24.power(Shape(2, 1))((1, 1))


def test_power_checks_rank_on_every_miss():
    # a wrong-rank shape is a ShapeError wherever it reaches a power: power, meets,
    # check_dc and build_semidirect, forced or not
    system = grid_system(2, 2)
    with pytest.raises(ShapeError, match="rank 1"):
        system.power(Shape(1))
    for n in shapes_below(Shape(1, 1)):
        system.power(n)
    with pytest.raises(ShapeError, match="rank 1"):
        system.power(Shape(1))
    with pytest.raises(ShapeError, match="rank 1"):
        system.meets((0, 0), (0, 0), Shape(1), Shape(0, 0))
    with pytest.raises(ShapeError, match="rank 3"):
        system.meets((0, 0), (0, 0), Shape(0, 0), Shape(0, 0, 0))
    with pytest.raises(ShapeError, match="rank 1"):
        system.check_dc(Shape(1))
    for force in (False, True):
        with pytest.raises(ShapeError, match="rank 3"):
            build_semidirect(system, Shape(1, 1, 1), force=force)
    with pytest.raises(ShapeError):
        system.power(ExtendedShape(INF, 0))


def test_meets_checks_type_whether_or_not_the_power_is_tabled():
    system = grid_system(2, 2)
    with pytest.raises(ShapeError):
        system.meets((0, 0), (0, 0), ExtendedShape(1, 0), Shape(0, 0))
    system.power(Shape(1, 0))
    system.power(Shape(0, 0))
    with pytest.raises(ShapeError):
        system.meets((0, 0), (0, 0), ExtendedShape(1, 0), Shape(0, 0))
    with pytest.raises(ShapeError):
        system.meets((0, 0), (0, 0), Shape(0, 0), ExtendedShape(1, 0))


def test_power_table_is_keyed_by_coordinates():
    system = grid_system(2, 2)
    assert system.power((1, 0)) is system.power(Shape(1, 0))
    assert system.power(Shape(0, 1)) is system.power((0, 1))
    assert system.meets((0, 1), (1, 0), (0, 0), (1, 1)) is False
    assert system.meets((0, 0), (1, 0), (0, 0), Shape(1, 0)) is True


def composed_from_identity(system, n):
    """T^n as generators composed onto the identity, in coordinate order, one at a time."""
    cur = PartialMap("id", {x: x for x in system.carrier})
    for T, count in zip(system.generators, n):
        for _ in range(count):
            cur = T.compose(cur)
    return cur


@pytest.mark.parametrize("make", [
    lambda: grid_system(2, 4),
    lambda: free_monoid_system("ab", 3),
    lambda: identity_system([0, 1, 2], 2),
    lambda: product_system("mix", [(["c0", "c1", 0, 1], {"c0": "c1", "c1": "c0", 1: 0}),
                                   (["t", "c0", "c1"], {"t": "c0", "c0": "c1", "c1": "c0"})]),
], ids=["grid", "word", "identity", "product"])
@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_power_grown_from_cached_powers_matches_composing_from_the_identity(make, order):
    # a miss composes one generator onto a smaller tabled power; whatever was
    # tabled before, each table equals the route from the identity, key order included
    system = make()
    shapes = list(shapes_below(Shape(3, 3)))
    for n in shapes if order == "ascending" else reversed(shapes):
        want = composed_from_identity(system, n)
        assert list(system.power(n).items()) == list(want.items())


@pytest.fixture
def compose_calls(monkeypatch):
    """A list that gains one entry per PartialMap.compose call."""
    calls = []

    def counted(self, other, _inner=PartialMap.compose):
        calls.append(1)
        return _inner(self, other)

    monkeypatch.setattr(PartialMap, "compose", counted)
    return calls


def test_dc_scan_composes_once_per_nonzero_shape(compose_calls):
    system = grid_system(2, 4)
    compose_calls.clear()  # the constructor's commutation check composes too
    assert system.check_dc().ok and system.exit_bound() == Shape(3, 3)
    assert len(compose_calls) == 15


def test_a_power_miss_steps_onto_a_tabled_neighbour(compose_calls):
    system = grid_system(2, 4)
    compose_calls.clear()
    system.power((0, 3))  # T^(0,1), T^(0,2), T^(0,3) from T^0
    assert len(compose_calls) == 3
    system.power((1, 3))  # one generator onto T^(0,3), not three onto T^(1,0)
    assert len(compose_calls) == 4


def test_power_zero_is_identity(grid24):
    p = grid24.power(Shape.zero(2))
    assert p.domain() == frozenset(grid24.carrier)
    assert all(p(x) == x for x in grid24.carrier)


def test_power_additivity(grid24):
    for n in shapes_below(Shape(2, 2)):
        for m in shapes_below(Shape(2, 2)):
            assert grid24.power(n + m) == grid24.power(n).compose(grid24.power(m))


def test_grid_domains_are_upper_sets(grid24):
    for n in shapes_below(Shape(3, 3)):
        expect = {x for x in grid24.carrier if Shape(x) >= n}
        assert grid24.domain(n) == expect
    assert grid24.check_dc(Shape(3, 3)).ok


def test_grid_exit_times(grid24):
    assert tuple(grid24.exit_time((2, 3))) == (2, 3)
    assert grid24.exit_bound() == Shape(3, 3)
    part = grid24.xj_partition()
    assert set(part[frozenset()]) == set(grid24.carrier)
    assert all(not v for J, v in part.items() if J)


def below(n, s):
    """n <= s for a Shape n and an exit time s, INF above every int."""
    return all(c is INF or a <= c for a, c in zip(n, s))


def drop(s, n):
    """The exit time s - n for a Shape n below s, INF coordinates kept."""
    return ExtendedShape([c if c is INF else c - a for c, a in zip(s, n)])


def test_exit_time_drops_by_shift(grid24):
    for x in grid24.carrier:
        s = grid24.exit_time(x)
        for n in shapes_below(Shape(2, 2)):
            if below(n, s):
                assert grid24.exit_time(grid24.power(n)(x)) == drop(s, n)


def test_power_domain_matches_exit_time(grid24):
    # for compatibility-certified systems: dom(T^n) = {x: n <= sigma(x)}
    for n in shapes_below(Shape(3, 3)):
        assert grid24.domain(n) == {x for x in grid24.carrier if below(n, grid24.exit_time(x))}


# -- word system ---------------------------------------------------------------------


def test_word_system_census_and_shift():
    fm = free_monoid_system("ab", 3)
    assert len(fm.carrier) == 1 + 2 + 4 + 8
    fm3 = free_monoid_system("abc", 3)
    assert fm3.power(Shape(1, 1))("abc") == "b"
    assert fm3.check_commuting().ok


def test_word_system_dc_witness():
    rep = free_monoid_system("ab", 3).check_dc()
    assert not rep.ok
    n, m, x = rep.witness
    assert (tuple(n), tuple(m), x) == ((1, 0), (0, 1), "a")


def test_word_system_dc_witness_arithmetic():
    # recheck the reported witness from the raw domain definitions
    fm = free_monoid_system("ab", 3)
    n, m, x = fm.check_dc().witness
    assert x in fm.domain(n) and x in fm.domain(m) and x not in fm.domain(n | m)


# -- the closure builder -------------------------------------------------------------


def _step(j):
    """Lower coordinate j of a lattice point by one; undefined at zero."""
    def f(p):
        if p[j] == 0:
            raise DomainError(f"coordinate {j} of {p} is zero", point=p)
        return p[:j] + (p[j] - 1,) + p[j + 1:]
    return f


def test_closure_grows_breadth_first_in_generator_order():
    sys = MGDS.closure("lattice", [(1, 1), (2, 0), (1, 1)], [("T1", _step(0)), ("T2", _step(1))])
    # seeds first, deduplicated; then each point's T1 image before its T2 image
    assert sys.carrier == ((1, 1), (2, 0), (0, 1), (1, 0), (0, 0))
    assert [T.name for T in sys.generators] == ["T1", "T2"]
    # a map that raises DomainError leaves the point out of its own domain
    assert sys.generators[0] == PartialMap("T1", {(1, 1): (0, 1), (2, 0): (1, 0), (1, 0): (0, 0)})
    assert sys.generators[1] == PartialMap("T2", {(1, 1): (1, 0), (0, 1): (0, 0)})
    assert sys.check_dc().ok


def test_closure_checks_commuting():
    def swap(p):
        return p[::-1]

    with pytest.raises(ConfigError, match="do not commute"):
        MGDS.closure("bad", [(1, 0)], [("T1", _step(0)), ("T2", swap)])


# -- path-space systems -------------------------------------------------------------


def test_path_space_shifts_agree_with_factorization():
    g = grid_graph(Shape(1, 1))
    sys = path_space_system(g, Shape(1, 1))
    assert len(sys.carrier) == 9
    for p in sys.carrier:
        for j in (1, 2):
            e = Shape.unit(2, j)
            if e <= p.shape:
                assert sys.power(e)(p) == factorize(p, e)[1]
            else:
                assert not sys.generators[j - 1].defined_at(p)
    assert sys.check_dc().ok


def test_path_space_exit_time_is_shape():
    sys = path_space_system(one_loop_per_color_graph(2), Shape(2, 2))
    for p in sys.carrier:
        assert sys.exit_time(p) == p.shape
    assert sys.check_dc().ok


def test_path_space_rejects_invalid_graph():
    from kgraphlab.kgraph import Edge, KGraph

    bad = KGraph(2, ["u"], [Edge("a0", 1, "u", "u"), Edge("b0", 2, "u", "u")], {(1, 2): {}})
    with pytest.raises(ConfigError):
        path_space_system(bad, Shape(1, 1))


# -- identity and product systems ------------------------------------------------------


def test_identity_system_has_infinite_exits():
    sys = identity_system(["p", "q"], 2)
    assert tuple(sys.exit_time("p")) == (INF, INF)
    assert sys.exit_bound() == Shape(1, 1)  # orbit revisits after one step
    part = sys.xj_partition()
    assert set(part[frozenset({1, 2})]) == {"p", "q"}


def test_product_system_exit_times_split_by_coordinate():
    comp = (["c0", "c1", 0, 1, 2], {"c0": "c1", "c1": "c0", 1: 0, 2: 1})
    sys = product_system("mix", [comp, comp])
    assert sys.check_dc().ok
    assert tuple(sys.exit_time((2, "c0"))) == (2, INF)
    part = sys.xj_partition()
    sizes = {tuple(sorted(J)): len(v) for J, v in part.items()}
    assert sizes == {(): 9, (1,): 6, (2,): 6, (1, 2): 4}
    blocks = [set(v) for v in part.values()]
    assert sum(len(b) for b in blocks) == len(sys.carrier)
    for a, b in itertools.combinations(blocks, 2):
        assert not (a & b)


def random_component(rng):
    """A partial map on a small set: a chain, plus sometimes a cycle."""
    n = rng.randint(1, 3)
    pts = list(range(n + 1))
    table = {i: i - 1 for i in range(1, n + 1)}
    if rng.random() < 0.5:
        k = rng.randint(1, 2)
        cyc = [f"c{i}" for i in range(k)]
        pts += cyc
        table.update({cyc[i]: cyc[(i + 1) % k] for i in range(k)})
    return pts, table


@pytest.mark.parametrize("seed", range(10))
def test_random_product_systems_are_compatible(seed):
    rng = random.Random(seed)
    sys = product_system(f"rand{seed}", [random_component(rng) for _ in range(rng.randint(1, 3))])
    assert sys.check_commuting().ok
    assert sys.check_dc(Shape([2] * sys.rank)).ok
    for x in sys.carrier:
        s = sys.exit_time(x)
        for j in range(1, sys.rank + 1):
            e = Shape.unit(sys.rank, j)
            if below(e, s):
                assert sys.exit_time(sys.power(e)(x)) == drop(s, e)
