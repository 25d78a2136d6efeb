"""Groupoid layer tests.

The 2x2 matrix oracle, the pair-groupoid law, and the filtration levels are
all recomputed from first principles inside this file before being compared
with the library.
"""

import hashlib
import itertools
import operator
import random
from fractions import Fraction

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
from kgraphlab.errors import ConfigError, NotComposable, WitnessError
from kgraphlab.groupoid import (
    ConvolutionElement,
    FiniteGroupoid,
    GermElement,
    GermGroupoid,
    GroupoidElement,
    SemidirectGroupoid,
    build_semidirect,
    check_essentially_free,
    check_lifting_hypothesis,
    exit_time_subsets,
    germ_quotient,
    invariant_layers,
    kernel_filtration,
    pushforward,
)
from kgraphlab.kgraph import flip_graph, grid_graph, one_loop_per_color_graph
from kgraphlab.shapes import Shape, shapes_below

from conftest import composable_pairs


CYCLE_CHAIN = (["c0", "c1", 0, 1], {"c0": "c1", "c1": "c0", 1: 0})
TAIL_CYCLE = (["t2", "t1", "c0", "c1", "c2"],
              {"t2": "t1", "t1": "c0", "c0": "c1", "c1": "c2", "c2": "c0"})


@pytest.fixture(scope="module")
def grid_groupoid():
    return build_semidirect(grid_system(2, 4))


@pytest.fixture(scope="module")
def identity_groupoid():
    return build_semidirect(identity_system([0, 1], 1), Shape(3))


@pytest.fixture(scope="module")
def mix_groupoid():
    return build_semidirect(product_system("mix", [CYCLE_CHAIN, CYCLE_CHAIN]))


# -- building ----------------------------------------------------------------------


def test_grid_build_is_the_pair_groupoid(grid_groupoid):
    G = grid_groupoid
    assert len(G) == 256
    for g in G:
        assert g.z == tuple(a - b for a, b in zip(g.x, g.y))
    # every ordered point pair appears exactly once
    assert len({(g.x, g.y) for g in G}) == 256


def test_unit_space(grid_groupoid):
    G = grid_groupoid
    units = [G.unit_at(p) for p in G.unit_points]
    assert len(units) == 16
    for u in units:
        assert u.x == u.y and u.z == (0, 0) and u == G.unit_at(u.x)
        assert u.witness == (Shape.zero(2), Shape.zero(2))
        assert [type(w) for w in u.witness] == [Shape, Shape]


def test_identity_build_collects_translations(identity_groupoid):
    I = identity_groupoid
    assert len(I) == 14  # 2 points, z in -3..3
    assert {g.z[0] for g in I} == set(range(-3, 4))
    assert all(g.x == g.y for g in I)


def test_element_identity_ignores_witness():
    a = GroupoidElement(1, (0,), 1, witness=("p", "q"))
    b = GroupoidElement(1, (0,), 1, witness=("r", "s"))
    assert a == b and hash(a) == hash(b)
    assert a != GroupoidElement(1, (1,), 1)


def test_element_returns_the_stored_arrow(identity_groupoid):
    for g in identity_groupoid:
        found = identity_groupoid.element(g.x, g.z, g.y)
        assert found is g and found.witness == g.witness


def test_element_outside_the_window_gets_a_searched_witness():
    G = build_semidirect(grid_system(1, 5), Shape(1))
    g = G.element((3,), (2,), (1,))
    assert g not in G.elements and (g.x, g.z, g.y) == ((3,), (2,), (1,))
    assert g.witness == (Shape(2), Shape(0))  # T^2 3 = 1 = T^0 1, past the bound 1


def raw_power(system, m, x):
    """T^m x by stepping the generator tables one at a time; None where undefined."""
    for T, count in zip(system.generators, m):
        for _ in range(count):
            if not T.defined_at(x):
                return None
            x = T(x)
    return x


@pytest.mark.parametrize("system, bound, force", [
    (grid_system(2, 3), None, False),
    (identity_system([0, 1], 1), Shape(3), False),
    (product_system("mix", [CYCLE_CHAIN, CYCLE_CHAIN]), None, False),
    (free_monoid_system("ab", 3), None, True),
], ids=["grid2x3", "identity", "mix", "words-forced"])
def test_build_is_the_brute_force_window(system, bound, force):
    # the build holds exactly the arrows with a witness pair below the bound
    G = build_semidirect(system, bound, force=force)
    wb = G.witness_bound
    brute = set()
    for m, n in itertools.product(shapes_below(wb), repeat=2):
        for x, y in itertools.product(system.carrier, repeat=2):
            tx = raw_power(system, m, x)
            if tx is not None and tx == raw_power(system, n, y):
                brute.add((x, tuple(a - b for a, b in zip(m, n)), y))
    assert {(g.x, g.z, g.y) for g in G} == brute
    assert len(G) == len(brute)
    for g in G:
        m, n = g.witness
        assert m <= wb and n <= wb and g.z == tuple(a - b for a, b in zip(m, n))
        assert raw_power(system, m, g.x) == raw_power(system, n, g.y) is not None


def test_build_refuses_incompatible_domains():
    with pytest.raises(ConfigError):
        build_semidirect(free_monoid_system("ab", 3))


def test_a_forced_build_runs_no_compatibility_scan(monkeypatch):
    scans = []
    monkeypatch.setattr(MGDS, "check_dc", lambda self, bound=None: scans.append(bound))
    G = build_semidirect(free_monoid_system("ab", 3), force=True)
    assert len(G) == 1245 and scans == []


# -- composition -----------------------------------------------------------------------


def test_pair_groupoid_composition_law(grid_groupoid):
    G = grid_groupoid
    pts = G.unit_points
    rng = random.Random(5)
    for _ in range(50):
        x, y, w = (rng.choice(pts) for _ in range(3))
        g = G.element(x, tuple(a - b for a, b in zip(x, y)), y)
        h = G.element(y, tuple(a - b for a, b in zip(y, w)), w)
        gh = G.compose(g, h)
        assert (gh.x, gh.y) == (x, w)
        assert gh.z == tuple(a - b for a, b in zip(x, w))


def test_compose_requires_meeting_endpoints(grid_groupoid):
    G = grid_groupoid
    g = G.element((1, 0), (1, 0), (0, 0))
    with pytest.raises(NotComposable):
        G.compose(g, g)


def test_join_formula_witness_is_valid_on_compatible_systems(grid_groupoid):
    # the adjusted witness must validate directly, without fallback search
    G = grid_groupoid
    for g, h in itertools.islice(composable_pairs(G), 400):
        m, n = g.witness
        m2, n2 = h.witness
        k = n | m2
        assert G.system.meets(g.x, h.y, m + (k - n), n2 + (k - m2))


def witness_digest(G):
    """sha256 over the element order with witnesses, then every composite in composable-pair order.

    A composite with no witness adds its WitnessError's message instead.
    """
    h = hashlib.sha256()
    for g in G:
        h.update(f"{g!r} {tuple(map(tuple, g.witness))}\n".encode())
    for g, k in composable_pairs(G):
        try:
            gk = G.compose(g, k)
        except WitnessError as err:
            h.update(f"{g!r} {k!r} {err}\n".encode())
            continue
        h.update(f"{g!r} {k!r} {tuple(map(tuple, gk.witness))}\n".encode())
    return h.hexdigest()


def test_witnesses_are_pinned(mix_groupoid):
    # the build order with its witnesses, and the witness compose picks for every
    # composable pair: a change to either rule changes a digest
    assert witness_digest(build_semidirect(grid_system(2, 3))) == \
        "dab8f5690bb5c765390188d2b1573b624843ebafdc1ccac258878697581f3a88"
    assert witness_digest(mix_groupoid) == \
        "b1cd1c252fe3daa4cea18f8af9cab8bcda83f0555ccb37662c8ed9328e7cdc8e"
    # a forced build: no compatibility scan, the same window and searched witnesses
    assert witness_digest(build_semidirect(free_monoid_system("ab", 3), force=True)) == \
        "bad7bc1b3a798bd225938cb04283f0d29440689ebd39064f3b2960aa268aba14"


def test_translation_length_must_match_rank():
    G = build_semidirect(grid_system(2, 2))
    for z in ((0, 0, 5), (0,)):
        with pytest.raises(ConfigError, match=r"translation \(0,"):
            G.element((0, 0), z, (0, 0))
        with pytest.raises(ConfigError, match=r"translation \(0,"):
            G.find_witness((0, 0), z, (0, 0))


def test_inverse_and_units(grid_groupoid, identity_groupoid):
    for G in (grid_groupoid, identity_groupoid):
        for g in G:
            inv = G.inverse(g)
            assert inv in G
            assert G.compose(g, inv) == G.unit_at(g.x)
            assert G.compose(inv, g) == G.unit_at(g.y)


def test_axioms_exhaustive(grid_groupoid, identity_groupoid, mix_groupoid):
    for G in (grid_groupoid, identity_groupoid, mix_groupoid):
        rep = G.check_axioms()
        assert rep.ok, [(c.name, c.witness) for c in rep.checks if not c.ok]


def pin_windows(grid_groupoid, mix_groupoid):
    """The three domain-compatible windows of the axiom work pins."""
    swap = PartialMap("t", {0: 2, 2: 0})
    return grid_groupoid, mix_groupoid, build_semidirect(MGDS("swap", [0, 1, 2], [swap, swap]))


def test_axiom_compose_work_is_pinned(monkeypatch, grid_groupoid, mix_groupoid):
    """Id products per check_axioms: each composable id pair once, escaped composites included.

    The grid window is closed under composition, so its 4,096 composable
    pairs are all the work.  The periodic mix window composes its 3,364
    pairs, then 12,480 distinct associativity products with an operand
    outside the window; the 51-arrow system T1 = T2 = {0->2, 2->0} on three
    points composes its 1,251 pairs and 5,600 such products.  Comparing
    escaped operands by triple, recomposed at each meeting, took 60,004 and
    27,651 products.  All three windows are domain-compatible, so every
    product is the join formula's: no compose call, no witness search.
    """
    calls = {"product": 0, "compose": 0, "find_witness": 0}
    for owner, name in ((SemidirectGroupoid._id_table, "product"), (SemidirectGroupoid, "compose"),
                        (SemidirectGroupoid, "find_witness")):
        def counted(self, *args, _inner=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _inner(self, *args)
        monkeypatch.setattr(owner, name, counted)
    found = []
    for G in pin_windows(grid_groupoid, mix_groupoid):
        assert G.system.check_dc(G.witness_bound).ok
        calls.update(product=0, compose=0, find_witness=0)
        found.append((len(G), sum(1 for _ in composable_pairs(G)), G.check_axioms().ok,
                      calls["product"], calls["compose"], calls["find_witness"]))
    assert found == [(256, 4096, True, 4096, 0, 0), (196, 3364, True, 15844, 0, 0),
                     (51, 1251, True, 6851, 0, 0)]


class RecordedIds(SemidirectGroupoid._id_table):
    """A semidirect id table that keeps each product's triple and witness, as interned."""

    tables = []  # every table made while it stands in for SemidirectGroupoid._id_table

    def __init__(self, G):
        self.made, self.last = {}, None
        super().__init__(G)
        self.tables.append(self)

    def _id(self, x, z, y, w, g=None):
        self.last = x, z, y, w
        return super()._id(x, z, y, w, g)

    def product(self, i, j):
        k = super().product(i, j)
        self.made[i, j] = self.last
        return k


def test_every_product_of_the_check_is_composes(monkeypatch, grid_groupoid, mix_groupoid):
    # each product check_axioms makes, on carrier indices, equals compose on the
    # same two arrows, witness included; a composite without witness is the
    # closure witness, with compose's WitnessError message
    monkeypatch.setattr(SemidirectGroupoid, "_id_table", RecordedIds)
    systems = point_systems(2)
    windows = [*pin_windows(grid_groupoid, mix_groupoid),
               *(build_semidirect(s, force=not s.check_dc().ok) for s in systems)]
    failing = 0
    for G in windows:
        RecordedIds.tables.clear()
        rep = G.check_axioms()
        (t,) = RecordedIds.tables
        index = {x: i for i, x in enumerate(G.system.carrier)}
        for (i, j), made in t.made.items():
            c = G.compose(t.arrow(i), t.arrow(j))
            assert made == (index[c.x], c.z, index[c.y], tuple(s.coords for s in c.witness))
        closure = next(c for c in rep.checks if c.name == "closure")
        if not closure.ok:
            g, h, err = closure.witness
            with pytest.raises(WitnessError) as raised:
                G.compose(g, h)
            assert str(raised.value) == str(err) and raised.value.attempted == err.attempted
            failing += 1
    assert (len(windows), failing) == (3 + 41, 2)


class MisComposing(FiniteGroupoid):
    """The cyclic group Z/n as a one-point groupoid, with compose wrong on chosen pairs.

    The element set holds the arrows 0..held-1; with held < n it is a window
    that composites may leave, as in a semidirect build.  Every arrow starts
    and ends at the one point, so a wrong composite still composes with
    everything and each law check runs to its verdict.
    """

    def __init__(self, wrong, n, held):
        super().__init__("mis", map(self.arrow, range(held)), (0,))
        self.n, self.closed = n, held == n
        self.wrong = {(self.arrow(g), self.arrow(h)): self.arrow(gh) for (g, h), gh in wrong.items()}

    @staticmethod
    def arrow(k):
        return GroupoidElement(0, (k,), 0)

    def unit_at(self, point):
        return self.arrow(0)

    def inverse(self, g):
        return self.arrow(-g.z[0] % self.n)

    def compose(self, g, h):
        return self.wrong.get((g, h)) or self.arrow((g.z[0] + h.z[0]) % self.n)


@pytest.mark.parametrize("wrong, n, held, failing", [
    ({(0, 1): 2}, 3, 3, {"units": 1, "associativity": (0, 1, 1)}),
    ({(1, 2): 1}, 3, 3, {"inverse-law": 1, "associativity": (1, 1, 1)}),
    ({(1, 1): 0}, 3, 3, {"associativity": (1, 1, 2)}),
    ({(0, 0): 5}, 3, 3, {"closure": (0, 0, 5), "units": 0, "inverse-law": 0}),
    # (1 1) 1 and 1 (1 1) both leave the window {0, 1}; only the former is wrong
    ({(2, 1): 4}, 5, 2, {"inverse-closure": 1, "associativity": (1, 1, 1)}),
], ids=["units", "inverse-law", "associativity", "closure", "associativity-outside-window"])
def test_failing_laws_keep_their_first_witness(wrong, n, held, failing):
    # each law's first offender in element order (a triple for closure and
    # associativity); associativity is not checked once closure fails
    arrows = {name: MisComposing.arrow(w) if isinstance(w, int) else tuple(map(MisComposing.arrow, w))
              for name, w in failing.items()}
    rep = MisComposing(wrong, n, held).check_axioms()
    assert not rep.ok
    assert {c.name: c.witness for c in rep.checks if not c.ok} == arrows


class PlantedIds(SemidirectGroupoid._id_table):
    """The id table of a Planted window: its product of the planted pair is the
    planted arrow, or raises WitnessError where that is None."""

    def product(self, i, j):
        g, h = self.G.planted
        if (i, j) != (self.intern(g), self.intern(h)):
            return super().product(i, j)
        if self.G.gh is None:
            raise WitnessError("planted", attempted=tuple(map(operator.add, g.z, h.z)))
        return self.intern(self.G.gh)


class Planted(SemidirectGroupoid):
    """A copy of a window whose check makes one product wrong, on its ids."""

    _id_table = PlantedIds

    def __init__(self, G, g, h, gh):
        super().__init__(G.system, G.elements, G.witness_bound)
        self.planted, self.gh = (g, h), gh


def escaped_product(G, side):
    """The first composite c outside the window, with the first window arrow
    that is no unit on the given side of it: the pair (c, k) or (i, c)."""
    c = next(gh for gh in itertools.starmap(G.compose, composable_pairs(G)) if gh not in G)
    if side == "right":
        return c, next(k for k in G if k.x == c.y and any(k.z))
    return next(i for i in G if i.y == c.x and any(i.z)), c


def axiom_verdicts(G):
    """(name, ok, witness) per law, a WitnessError in a witness spelled by its type and message."""
    def plain(w):
        if isinstance(w, WitnessError):
            return type(w).__name__, str(w), w.attempted
        return tuple(map(plain, w)) if isinstance(w, tuple) else w
    return [(c.name, c.ok, plain(c.witness)) for c in G.check_axioms().checks]


def keyless(G):
    """G with its ambient key switched off on the instance: associativity loops over triples."""
    G.ambient_key = None
    return G


def test_an_associativity_product_without_witness_is_the_witness(mix_groupoid):
    # the product of an escaped composite with a window arrow raises: the
    # check reports that pair and the error, as closure does, by either route
    g, h = escaped_product(mix_groupoid, "right")
    for G in (Planted(mix_groupoid, g, h, None), keyless(Planted(mix_groupoid, g, h, None))):
        assoc = G.check_axioms().checks[-1]
        assert assoc.name == "associativity" and not assoc.ok
        assert assoc.witness[:2] == (g, h)
        assert isinstance(assoc.witness[2], WitnessError) and str(assoc.witness[2]) == "planted"


@pytest.mark.parametrize("side, first", [
    ("right", [(("c0", "c0"), (0, -1), ("c0", "c1")), (("c0", "c1"), (0, -2), ("c0", "c1")),
               (("c0", "c1"), (0, -1), ("c0", "c0"))]),
    ("left", [(("c0", "c1"), (0, -1), ("c0", "c0")), (("c0", "c0"), (0, -1), ("c0", "c1")),
              (("c0", "c1"), (0, -2), ("c0", "c1"))]),
])
def test_a_wrong_escaped_product_keeps_its_first_witness(mix_groupoid, side, first):
    # a wrong translation on one product of an escaped composite: the key
    # comparison finds it, and the loop over triples names the first triple
    # in element order, as it did before the key
    g, h = escaped_product(mix_groupoid, side)
    wrong = GroupoidElement(g.x, (g.z[0] + h.z[0] + 1, g.z[1] + h.z[1]), h.y)
    found = [axiom_verdicts(G) for G in (Planted(mix_groupoid, g, h, wrong),
                                         keyless(Planted(mix_groupoid, g, h, wrong)))]
    assert found[0] == found[1]
    assert [v for v in found[0] if not v[1]] == [
        ("associativity", False, tuple(GroupoidElement(*t) for t in first))]


def point_systems(size):
    """Every commuting pair of partial maps on {0, .., size - 1}, as a system.

    41 of the 81 pairs on two points commute, and 640 of the 4,096 on three.
    """
    points = range(size)
    maps = [{x: v for x, v in zip(points, images) if v is not None}
            for images in itertools.product((None, *points), repeat=size)]
    systems = []
    for t1, t2 in itertools.product(maps, repeat=2):
        try:
            systems.append(MGDS("points", points, [PartialMap("T1", t1), PartialMap("T2", t2)]))
        except ConfigError:
            continue
    return systems


def test_ambient_key_route_matches_the_triple_loop_on_two_points():
    # every commuting pair of partial maps on {0, 1}: the same verdicts and
    # witnesses with the ambient key and with the loop over triples
    systems = point_systems(2)
    forced = [not s.check_dc().ok for s in systems]
    assert (len(systems), sum(forced)) == (41, 2)
    for system, force in zip(systems, forced):
        verdicts = axiom_verdicts(build_semidirect(system, force=force))
        assert verdicts == axiom_verdicts(keyless(build_semidirect(system, force=force)))


def test_the_dc_witness_derives_a_composite_without_witness():
    """Where check_dc fails at (n, m, x), the composite g^-1 h has no witness at any bound.

    g = (x, n, T^n x) and h = (x, m, T^m x) lie in the forced window.  A
    witness (p, q) of g^-1 h = (T^n x, m - n, T^m x) would give p + n = q + m
    >= n join m with T^(p+n) x defined, putting x in dom T^(n join m).  On
    every DC-failing commuting system on two and three points, and on four
    word systems, compose raises WitnessError and a brute scan of every
    p <= 4 * exit_bound() + 4 meets nowhere.
    """
    systems = [s for s in (*point_systems(2), *point_systems(3)) if not s.check_dc().ok]
    assert len(systems) == 2 + 81
    systems += [free_monoid_system(a, k) for a, k in (("ab", 3), ("a", 3), ("abc", 2), ("ab", 1))]
    for system in systems:
        n, m, x = system.check_dc().witness
        G = build_semidirect(system, force=True)
        g, h = (G.element(x, k.coords, system.power(k)(x)) for k in (n, m))
        with pytest.raises(WitnessError):
            G.compose(G.inverse(g), h)
        u, v, z = system.power(n)(x), system.power(m)(x), m.diff(n)
        for p in shapes_below(system.exit_bound() * 4 + Shape((4,) * system.rank)):
            q = tuple(map(operator.sub, p.coords, z))
            assert min(q) < 0 or not system.meets(u, v, p, Shape(q)), (system.generators, p)


def test_find_witness_matches_a_scan_of_the_whole_box():
    """find_witness gives the first witness of a brute-force scan, and loses none.

    Reference: every m <= (9, 9) in shapes_below order, with n = m - z >= 0,
    the first (m, n) with T^m x = T^n y, powers stepped through the tables.
    On two points a preperiod is at most 1 and a period at most 2, so every
    box find_witness derives lies inside (5, 5).  Checked on forced builds of
    every commuting pair of partial maps on two points, for x and y in the
    carrier and every |z_j| <= 3; a point outside the carrier has no witness.
    Of the 2,266 witnesses, 276 need m_j above 2 * witness_bound.
    """
    found = beyond = 0
    box = list(shapes_below(Shape(9, 9)))
    for system in point_systems(2):
        G = build_semidirect(system, force=True)
        for x, y in itertools.product(system.carrier, repeat=2):
            powers = {m.coords: raw_power(system, m, x) for m in box}
            for z in itertools.product(range(-3, 4), repeat=2):
                pairs = ((m, tuple(map(operator.sub, m.coords, z))) for m in box)
                want = next(((m, Shape(n)) for m, n in pairs if min(n) >= 0
                             and powers[m.coords] is not None
                             and powers[m.coords] == raw_power(system, n, y)), None)
                assert G.find_witness(x, z, y) == want, (system.generators, x, z, y)
                found += want is not None
                beyond += want is not None and not want[0] <= G.witness_bound * 2
        assert G.find_witness(2, (0, 0), 0) is None
    assert (found, beyond) == (2266, 276)


def test_a_witness_past_twice_the_bound_is_found():
    # T1 = {0->0, 1->0, 2->1}, T2 = id: (0, (0, 3), 0) needs m_2 = 3, past
    # 2 * witness_bound = (6, 2); both orbits of 0 are fixed points, so the box is (0, 3)
    system = MGDS("item7", [0, 1, 2], [PartialMap("T1", {0: 0, 1: 0, 2: 1}),
                                       PartialMap("T2", {0: 0, 1: 1, 2: 2})])
    G = build_semidirect(system)
    assert G.witness_bound == Shape(3, 1) and system.meets(0, 0, Shape(0, 3), Shape(0, 0))
    g = G.element(0, (0, 3), 0)
    assert g not in G and g.witness == (Shape(0, 3), Shape(0, 0))


def test_composites_may_leave_the_window(mix_groupoid):
    # periodic composites need witnesses above the build bound; closure still holds
    G = mix_groupoid
    g = G.element(("c0", "c0"), (0, -1), ("c0", "c1"))
    h = G.element(("c0", "c1"), (0, -2), ("c0", "c1"))
    gh = G.compose(g, h)
    assert gh not in G
    assert (gh.x, gh.z, gh.y) == (("c0", "c0"), (0, -3), ("c0", "c1"))
    assert tuple(map(tuple, gh.witness)) == ((0, 0), (0, 3))
    assert sum(G.compose(a, b) not in G for a, b in composable_pairs(G)) == 1248
    closure = next(c for c in G.check_axioms().checks if c.name == "closure")
    assert closure.ok


def test_germ_groupoid_closure_is_strict():
    H = GermGroupoid("partial", [GermElement(0, 1), GermElement(1, 0), GermElement(0, 0)], [0, 1])
    closure = next(c for c in H.check_axioms().checks if c.name == "closure")
    assert not closure.ok
    assert closure.witness == (GermElement(1, 0), GermElement(0, 1), GermElement(1, 1))


class WrongEndpoint(GermGroupoid):
    """The pair groupoid on {0, 1}, whose compose sends ((0, 1), (1, 0)) to (0, 1)."""

    def compose(self, g, h):
        if (g, h) == (GermElement(0, 1), GermElement(1, 0)):
            return GermElement(0, 1)
        return super().compose(g, h)


def test_a_composite_with_a_wrong_endpoint_fails_closure():
    # the composite must run from the range of g to the source of h; a wrong
    # one is a closure witness, not a NotComposable raised by associativity
    H = WrongEndpoint("pair", [GermElement(x, y) for x in (0, 1) for y in (0, 1)], [0, 1])
    rep = H.check_axioms()
    assert not rep.ok
    assert {c.name: c.witness for c in rep.failing()} == {
        "closure": (GermElement(0, 1), GermElement(1, 0), GermElement(0, 1)),
        "inverse-law": GermElement(0, 1),
    }


class WrongInverse(GermGroupoid):
    """The pair groupoid on {0, 1}, whose inverse sends (0, 1) to itself."""

    def inverse(self, g):
        return g if g == GermElement(0, 1) else super().inverse(g)


def test_an_inverse_with_wrong_endpoints_is_a_witness():
    # inverse((0, 1)) lies in the window but does not run from 1 to 0; the
    # inverse law reports it instead of composing it, which would raise NotComposable
    H = WrongInverse("pair", [GermElement(x, y) for x in (0, 1) for y in (0, 1)], [0, 1])
    rep = H.check_axioms()
    assert not rep.ok
    assert {c.name: c.witness for c in rep.failing()} == {
        "inverse-closure": GermElement(0, 1),
        "inverse-law": GermElement(0, 1),
    }


def test_axioms_on_path_space_fixtures():
    for g, cap in (
        (grid_graph(Shape(1, 1)), Shape(1, 1)),
        (one_loop_per_color_graph(2), Shape(2, 2)),
        (flip_graph(), Shape(1, 1)),
    ):
        G = build_semidirect(path_space_system(g, cap))
        assert G.check_axioms().ok


# -- the forced counterexample ------------------------------------------------------------


def test_forced_build_composition_failure():
    F = build_semidirect(free_monoid_system("ab", 3), force=True)
    assert not F.system.check_dc(F.witness_bound).ok
    gamma = F.element("a", (1, -1), "b")
    eta = F.element("b", (1, 0), "")
    assert F.is_composable(gamma, eta)
    with pytest.raises(WitnessError) as err:
        F.compose(gamma, eta)
    assert err.value.attempted == (2, -1)
    rep = F.check_axioms()
    closure = next(c for c in rep.checks if c.name == "closure")
    assert not closure.ok
    g, h, evidence = closure.witness
    assert isinstance(evidence, WitnessError)
    assert (g, h) == (F.element("", (0, -1), "a"), F.element("a", (1, 0), ""))
    assert evidence.attempted == (1, -1) and evidence.search_bound == Shape(6, 6)
    assert str(evidence) == "composite ('', (1, -1), '') admits no witness"


def test_forced_build_failure_shape_scales_with_word_length():
    # composites (x, (|x|+|y|, -|y|), void) have no witness for any x, y
    F = build_semidirect(free_monoid_system("ab", 3), force=True)
    for x, y in (("a", "b"), ("ab", "a"), ("b", "ab")):
        gamma = F.element(x, (len(x), -len(y)), y)
        eta = F.element(y, (len(y), 0), "")
        with pytest.raises(WitnessError):
            F.compose(gamma, eta)
        assert F.find_witness(x, (len(x) + len(y), -len(y)), "") is None


def test_an_empty_search_box_calls_no_meets(monkeypatch):
    # the counterexample composite (a, (2, -1), ''): exit_time('') = (0, 0) puts
    # m_2 <= -1, so the search box is empty and no power is compared
    F = build_semidirect(free_monoid_system("ab", 3), force=True)
    calls = []
    monkeypatch.setattr(MGDS, "meets", lambda self, *args: calls.append(args))
    assert F.find_witness("a", (2, -1), "") is None
    assert F.find_witness("c", (0, 0), "") is None  # outside the carrier: no DomainError
    assert calls == []


# -- essential freeness and the germ quotient ------------------------------------------------


def battery():
    return {
        "grid": (grid_system(2, 4), None),
        "identity": (identity_system([0, 1], 1), Shape(3)),
        "ps-grid": (path_space_system(grid_graph(Shape(1, 1)), Shape(1, 1)), None),
        "ps-n2": (path_space_system(one_loop_per_color_graph(2), Shape(2, 2)), None),
        "ps-flip": (path_space_system(flip_graph(), Shape(2, 2)), None),
        "mix": (product_system("mix", [CYCLE_CHAIN, CYCLE_CHAIN]), None),
    }


def test_freeness_witnesses():
    free = check_essentially_free(identity_system([0, 1], 1))
    assert not free.ok
    n, m, x = free.witness
    assert (tuple(n), tuple(m)) == ((1,), (0,))
    assert check_essentially_free(grid_system(2, 4)).ok
    periodic = check_essentially_free(product_system("mix", [CYCLE_CHAIN, CYCLE_CHAIN]))
    assert not periodic.ok


WORDS = free_monoid_system("ab", 3)


@pytest.mark.parametrize("system, bound, dc, free", [
    (WORDS, None, ((1, 0), (0, 1), "a"), ((1, 0), (0, 1), "a")),
    (MGDS("words-reversed", reversed(WORDS.carrier), WORDS.generators), None,
     ((1, 0), (0, 1), "b"), ((1, 0), (0, 1), "bbb")),
    (free_monoid_system("abc", 2), None, ((1, 0), (0, 1), "a"), ((1, 0), (0, 1), "a")),
    (identity_system([0, 1], 1), Shape(3), None, ((1,), (0,), 0)),
    (product_system("mix", [CYCLE_CHAIN, CYCLE_CHAIN]), None, None, ((0, 2), (0, 0), ("c0", "c0"))),
    (product_system("tail", [TAIL_CYCLE, CYCLE_CHAIN]), None, None, ((0, 2), (0, 0), ("t2", "c0"))),
    (grid_system(2, 3), None, None, None),
], ids=["words", "words-reversed", "words-abc", "identity", "mix", "tail", "grid"])
def test_shape_pair_scan_witnesses_are_pinned(system, bound, dc, free):
    # the first offending pair (n, m), m earlier in shapes_below order, and its first carrier point
    def plain(witness):
        return witness and tuple(tuple(v) if isinstance(v, Shape) else v for v in witness)

    rep = system.check_dc(bound)
    assert (rep.ok, plain(rep.witness)) == (dc is None, dc)
    assert rep.info == f"bound={tuple(bound or system.exit_bound())}"
    rep = check_essentially_free(system, bound)
    assert (rep.ok, plain(rep.witness)) == (free is None, free)


def test_injectivity_matches_freeness_exactly():
    for name, (sys, bound) in battery().items():
        G = build_semidirect(sys, bound)
        H, pi = germ_quotient(G)
        injective = len(set(pi.values())) == len(G)
        assert injective == check_essentially_free(sys).ok, name


def test_germ_map_is_a_homomorphism(grid_groupoid, identity_groupoid):
    for G in (grid_groupoid, identity_groupoid):
        H, pi = germ_quotient(G)
        assert set(pi.values()) == set(H.elements)
        for g, h in composable_pairs(G):
            assert pi[G.compose(g, h)] == H.compose(pi[g], pi[h])
        assert H.check_axioms().ok


def test_germ_quotient_of_identity_is_units_only(identity_groupoid):
    H, pi = germ_quotient(identity_groupoid)
    assert set(H.elements) == {GermElement(0, 0), GermElement(1, 1)}


# -- convolution algebra --------------------------------------------------------------


def matrix_oracle(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def test_convolution_reproduces_matrix_multiplication():
    G = build_semidirect(grid_system(1, 2))
    assert len(G) == 4
    pts = G.unit_points  # ((0,), (1,))
    elem = {(g.x, g.y): g for g in G}

    def unit_matrix(x, y):
        return tuple(
            tuple(Fraction(i == x and j == y) for j in pts) for i in pts
        )

    def to_matrix(f):
        return tuple(tuple(f.coeff(elem[(i, j)]) for j in pts) for i in pts)

    for (a, b), (c, d) in itertools.product(elem, repeat=2):
        f = ConvolutionElement(G, {elem[(a, b)]: 1})
        g = ConvolutionElement(G, {elem[(c, d)]: 1})
        assert to_matrix(f * g) == matrix_oracle(unit_matrix(a, b), unit_matrix(c, d))


def test_coefficients_are_stored_as_fractions_without_zeros(grid_groupoid):
    g, h, k, u = grid_groupoid.elements[:4]
    given = {g: 3, h: "3/4", k: 0.75, u: Fraction(-1, 2)}
    for coeffs in (given, list(given.items())):
        f = ConvolutionElement(grid_groupoid, coeffs)
        assert [(a, f.coeff(a)) for a in f.support] == [
            (g, Fraction(3)), (h, Fraction(3, 4)), (k, Fraction(3, 4)), (u, Fraction(-1, 2))]
        assert all(type(f.coeff(a)) is Fraction for a in f.support)
    zeros = ConvolutionElement(grid_groupoid, {g: 0, h: "0", k: 0.0, u: Fraction(0)})
    assert zeros.support == () and not zeros
    assert type(zeros.coeff(g)) is Fraction


def test_cancelling_terms_drop_their_key(grid_groupoid):
    G = grid_groupoid
    g = G.element((2, 1), (2, 0), (0, 1))
    f = ConvolutionElement(G, {g: Fraction(1, 3), G.unit_at((0, 0)): 1})
    assert (f + ConvolutionElement(G, {g: Fraction(-1, 3)})).support == (G.unit_at((0, 0)),)
    # u_x g and g u_y are both g, with coefficients 1 and -1; u_y u_y survives
    ux, uy = G.unit_at(g.x), G.unit_at(g.y)
    product = ConvolutionElement(G, {ux: 1, g: 1, uy: 2}) * ConvolutionElement(G, {g: 1, uy: -1})
    assert product == ConvolutionElement(G, {uy: -2}) and product.support == (uy,)


def test_zero_element_has_norm_zero(grid_groupoid):
    norm = ConvolutionElement(grid_groupoid).i_norm()
    assert norm == 0 and type(norm) is Fraction


def test_indicator_times_inverse_indicator(grid_groupoid):
    G = grid_groupoid
    g = G.element((2, 1), (2, 0), (0, 1))
    f = ConvolutionElement(G, {g: 1})
    finv = ConvolutionElement(G, {G.inverse(g): 1})
    assert f * finv == ConvolutionElement(G, {G.unit_at((2, 1)): 1})
    assert f.i_norm() == 1


def rand_elt(rng, G, support=None):
    pool = G.elements if support is None else rng.sample(G.elements, support)
    return ConvolutionElement(
        G, {g: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for g in pool}
    )


def test_star_is_an_involution_and_antihomomorphism(identity_groupoid):
    rng = random.Random(7)
    for _ in range(20):
        f, g = rand_elt(rng, identity_groupoid), rand_elt(rng, identity_groupoid)
        assert f.star().star() == f
        assert (f * g).star() == g.star() * f.star()


def test_i_norm_is_submultiplicative(grid_groupoid):
    rng = random.Random(11)
    for _ in range(20):
        f = rand_elt(rng, grid_groupoid, support=12)
        g = rand_elt(rng, grid_groupoid, support=12)
        assert (f * g).i_norm() <= f.i_norm() * g.i_norm()
        assert (f + g).i_norm() <= f.i_norm() + g.i_norm()


def test_pushforward_is_star_homomorphism(identity_groupoid):
    I = identity_groupoid
    H, pi = germ_quotient(I)
    assert check_lifting_hypothesis(I, pi, H) is None
    rng = random.Random(3)
    for _ in range(30):
        f, g = rand_elt(rng, I), rand_elt(rng, I)
        assert pushforward(f * g, pi, H) == pushforward(f, pi, H) * pushforward(g, pi, H)
        assert pushforward(f.star(), pi, H) == pushforward(f, pi, H).star()
        assert pushforward(f, pi, H).i_norm() <= f.i_norm()


def test_lifting_hypothesis_matches_double_loop():
    G = build_semidirect(grid_system(2, 2))
    H, germ = germ_quotient(G)

    def brute(pi):
        for a in G.elements:
            for b in G.elements:
                if H.is_composable(pi[a], pi[b]) and not G.is_composable(a, b):
                    return (a, b)
        return None

    one_unit = H.unit_at(G.elements[0].x)
    maps = [germ,
            {g: one_unit for g in G.elements},
            {g: H.unit_at(g.x) for g in G.elements}]
    found = [check_lifting_hypothesis(G, pi, H) for pi in maps]
    assert found == [brute(pi) for pi in maps]
    assert found[0] is None and found[1] is not None and found[2] is not None


def test_pushforward_collapses_translation_sums(identity_groupoid):
    I = identity_groupoid
    H, pi = germ_quotient(I)
    coeffs = {I.element(0, (z,), 0): Fraction(1, z + 5) for z in range(-3, 4)}
    pf = pushforward(ConvolutionElement(I, coeffs), pi, H)
    assert pf.coeff(GermElement(0, 0)) == sum(coeffs.values())
    assert pf.support == (GermElement(0, 0),)


def test_pushforward_on_free_system_is_relabeling(grid_groupoid):
    G = grid_groupoid
    H, pi = germ_quotient(G)
    rng = random.Random(13)
    f = rand_elt(rng, G, support=20)
    assert pushforward(f, pi, H).i_norm() == f.i_norm()


# -- kernel filtration --------------------------------------------------------------


def test_cocycle_additivity(mix_groupoid):
    kf = kernel_filtration(mix_groupoid, (1,))
    labeled = set(kf.labels)
    G = mix_groupoid
    for g, h in composable_pairs(G):
        if g in labeled and h in labeled:
            gh = G.compose(g, h)
            if gh in labeled:
                assert kf.labels[gh] == tuple(
                    a + b for a, b in zip(kf.labels[g], kf.labels[h])
                )


def test_exit_gap_identity_on_kernel(grid_groupoid, mix_groupoid):
    for G, coords in ((grid_groupoid, ()), (mix_groupoid, (1,)), (mix_groupoid, (2,))):
        kf = kernel_filtration(G, coords)
        assert kf.complement_defect == ()


def test_filtration_levels_agree_and_grow(mix_groupoid):
    kf = kernel_filtration(mix_groupoid, (1,), level_bound=(2,))
    kernel_pairs = {(g.x, g.y) for g in kf.kernel}
    previous = None
    for N in sorted(kf.levels):
        direct, shifted = kf.levels[N]
        assert direct == shifted
        if previous is not None:
            assert previous <= direct
        previous = direct
        # equivalence relation on the block
        pts = set(kf.block)
        assert all(x in pts and y in pts for x, y in direct)
        for x in pts:
            assert (x, x) in direct
        for x, y in direct:
            assert (y, x) in direct
        for (x, y), (y2, w) in itertools.product(direct, repeat=2):
            if y == y2:
                assert (x, w) in direct
    assert previous == kernel_pairs  # union over levels exhausts the kernel


def test_filtration_coordinates_lie_in_the_rank():
    with pytest.raises(ConfigError, match=r"coordinates \(3,\) leave 1\.\.2"):
        kernel_filtration(build_semidirect(grid_system(2, 2)), (3,))


def test_filtration_level_bound_has_one_entry_per_coordinate(mix_groupoid):
    for coords, level_bound in (((1,), (1, 1)), ((1, 2), (1,)), ((1, 1), (1, 1))):
        with pytest.raises(ConfigError, match=r"level_bound .* one entry per coordinate"):
            kernel_filtration(mix_groupoid, coords, level_bound=level_bound)


def test_full_coordinate_filtration_on_grid(grid_groupoid):
    kf = kernel_filtration(grid_groupoid, ())
    assert len(kf.kernel) == 256  # trivial cocycle: kernel is everything
    direct, shifted = kf.levels[()]
    assert direct == shifted == {(g.x, g.y) for g in kf.kernel}


# -- invariant layers ----------------------------------------------------------------


def test_invariant_layers_formula(identity_groupoid):
    # identity action: every subset is invariant; compare against the raw formula
    I = identity_groupoid
    pts = list(I.unit_points)
    for x1 in ([], [0], [1], [0, 1]):
        layers = invariant_layers(I, [x1])
        s = set(x1)
        assert set(layers[0]) == s
        assert set(layers[1]) == set(pts)
        assert set(layers[2]) == set(pts) - s


def test_invariant_layers_reject_noninvariant(grid_groupoid):
    with pytest.raises(ConfigError):
        invariant_layers(grid_groupoid, [{(0, 0)}, set(grid_groupoid.unit_points)])


def test_exit_time_subsets_are_invariant(mix_groupoid):
    subs = exit_time_subsets(mix_groupoid.system)
    layers = invariant_layers(mix_groupoid, subs)
    assert sum(len(l) for l in layers[1:]) >= len(mix_groupoid.unit_points)
    part = mix_groupoid.system.xj_partition()
    # layer k collects the blocks with finite exits above k and infinite below
    assert set(layers[0]) == set(part[frozenset()])


def test_block_invariance_under_arrows(mix_groupoid):
    part = mix_groupoid.system.xj_partition()
    member = {x: J for J, xs in part.items() for x in xs}
    for g in mix_groupoid:
        assert member[g.x] == member[g.y]
