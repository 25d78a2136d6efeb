"""Groupoid layer tests.

The 2x2 matrix oracle, the pair-groupoid law, and the filtration levels are
all recomputed from first principles inside this file before being compared
with the library.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from kgraphlab.duality import path_space_system
from kgraphlab.dynsys import (
    MGDS,
    free_monoid_system,
    grid_system,
    identity_system,
    product_system,
)
from kgraphlab.errors import ConfigError, NotComposable, WitnessError
from kgraphlab.groupoid import (
    ConvolutionElement,
    GermElement,
    GermGroupoid,
    GroupoidElement,
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
    units = G.units
    assert len(units) == 16
    for u in units:
        assert u.x == u.y and u.z == (0, 0) and u == G.unit_at(u.x)


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
    for g, h in itertools.islice(G.composable_pairs(), 400):
        m, n = g.witness
        m2, n2 = h.witness
        k = n | m2
        assert G.system.meets(g.x, h.y, m + (k - n), n2 + (k - m2))


def witness_digest(G):
    """sha256 over the element order with witnesses, then every composite in composable-pair order."""
    h = hashlib.sha256()
    for g in G:
        h.update(f"{g!r} {tuple(map(tuple, g.witness))}\n".encode())
    for g, k in G.composable_pairs():
        gk = G.compose(g, k)
        h.update(f"{g!r} {k!r} {tuple(map(tuple, gk.witness))}\n".encode())
    return h.hexdigest()


def test_witnesses_are_pinned(mix_groupoid):
    # the build order with its witnesses, and the witness compose picks for every
    # composable pair: a change to either rule changes a digest
    assert witness_digest(build_semidirect(grid_system(2, 3))) == \
        "dab8f5690bb5c765390188d2b1573b624843ebafdc1ccac258878697581f3a88"
    assert witness_digest(mix_groupoid) == \
        "b1cd1c252fe3daa4cea18f8af9cab8bcda83f0555ccb37662c8ed9328e7cdc8e"


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


def test_composites_may_leave_the_window(mix_groupoid):
    # periodic composites need witnesses above the build bound; closure still holds
    G = mix_groupoid
    g = G.element(("c0", "c0"), (0, -1), ("c0", "c1"))
    h = G.element(("c0", "c1"), (0, -2), ("c0", "c1"))
    gh = G.compose(g, h)
    assert gh not in G
    assert (gh.x, gh.z, gh.y) == (("c0", "c0"), (0, -3), ("c0", "c1"))
    assert tuple(map(tuple, gh.witness)) == ((0, 0), (0, 3))
    assert sum(G.compose(a, b) not in G for a, b in G.composable_pairs()) == 1248
    closure = next(c for c in G.check_axioms().checks if c.name == "closure")
    assert closure.ok


def test_germ_groupoid_closure_is_strict():
    H = GermGroupoid("partial", [GermElement(0, 1), GermElement(1, 0), GermElement(0, 0)], [0, 1])
    closure = next(c for c in H.check_axioms().checks if c.name == "closure")
    assert not closure.ok
    assert closure.witness == (GermElement(1, 0), GermElement(0, 1), GermElement(1, 1))


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
    assert F.forced
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
        for g, h in G.composable_pairs():
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
        f = ConvolutionElement.indicator(G, elem[(a, b)])
        g = ConvolutionElement.indicator(G, elem[(c, d)])
        assert to_matrix(f * g) == matrix_oracle(unit_matrix(a, b), unit_matrix(c, d))


def test_indicator_times_inverse_indicator(grid_groupoid):
    G = grid_groupoid
    g = G.element((2, 1), (2, 0), (0, 1))
    f = ConvolutionElement.indicator(G, g)
    finv = ConvolutionElement.indicator(G, G.inverse(g))
    assert f * finv == ConvolutionElement.indicator(G, G.unit_at((2, 1)))
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
            {g: H.unit_at(G.range_of(g)) for g in G.elements}]
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
    for g, h in G.composable_pairs():
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
