"""End-to-end acceptance battery.

Eight scenarios, one per claim family the package is built around.  Each
test prints exactly one verdict line (collect them with ``pytest -s``) and
asserts with zero tolerance: every comparison is exact over ints or
Fractions.  The whole battery is budgeted to finish in well under two
minutes.
"""

import itertools
import random
from fractions import Fraction

import pytest

from kgraphlab.duality import (
    RationalInfinitePath,
    ZPoint,
    boundary_points,
    lift_fiber,
    path_space_system,
    phi,
    s_shift,
    t_shift,
    theta_twist,
    theta_untwist,
    two_sided_shift,
    two_sided_shift_inverse,
    v_shift,
    w_shift,
    zpoint_system,
)
from kgraphlab.dynsys import (
    free_monoid_system,
    grid_system,
    identity_system,
    product_system,
)
from kgraphlab.errors import WitnessError
from kgraphlab.fock import RELATION_NAMES, verify_identity
from kgraphlab.groupoid import (
    ConvolutionElement,
    build_semidirect,
    check_essentially_free,
    check_lifting_hypothesis,
    exit_time_subsets,
    germ_quotient,
    invariant_layers,
    kernel_filtration,
    pushforward,
)
from kgraphlab.ideals import all_ideal_tuples, build_sequence, from_mgds, verify_exactness
from kgraphlab.kgraph import flip_graph, grid_graph, one_loop_per_color_graph
from kgraphlab.shapes import Shape, shapes_below

from conftest import composable_pairs

SEED = 20260816

CYCLE_CHAIN = (["c0", "c1", 0, 1], {"c0": "c1", "c1": "c0", 1: 0})


def _conclude(label, failures):
    print(f"\nacceptance {label}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, failures[:3]


def _groupoid_battery():
    """DC-certified fixture systems with their build bounds."""
    return {
        "grid": (grid_system(2, 4), None),
        "identity": (identity_system([0, 1], 1), Shape(3)),
        "ps-grid": (path_space_system(grid_graph(Shape(1, 1)), Shape(1, 1)), None),
        "ps-n2": (path_space_system(one_loop_per_color_graph(2), Shape(2, 2)), None),
        "ps-flip": (path_space_system(flip_graph(), Shape(1, 1)), None),
    }


def test_1_word_system_defects():
    failures = []
    system = free_monoid_system("ab", 3)

    rep = system.check_dc()
    if rep.ok or rep.witness is None:
        failures.append(("expected a joint-domain defect", rep))
    else:
        n, m, x = rep.witness
        if not (system.power(n).defined_at(x) and system.power(m).defined_at(x)):
            failures.append(("witness point misses a single-power domain", rep.witness))
        if system.power(n.join(m)).defined_at(x):
            failures.append(("witness point lies in the join domain after all", rep.witness))

    forced = build_semidirect(system, force=True)
    gamma = forced.element("a", (1, -1), "b")
    eta = forced.element("b", (1, 0), "")
    if not forced.is_composable(gamma, eta):
        failures.append(("staged pair should meet endpoint-wise", (gamma, eta)))
    try:
        bad = forced.compose(gamma, eta)
        failures.append(("composite unexpectedly accepted", bad))
    except WitnessError as err:
        if err.attempted != (2, -1):
            failures.append(("unexpected attempted translation", err.attempted))

    _conclude("1 (word-system defects)", failures)


def test_2_groupoid_axioms_exhaustive():
    failures = []

    grid = build_semidirect(grid_system(2, 4))
    if len(grid) != 256:
        failures.append(("grid groupoid size", len(grid)))
    rep = grid.check_axioms()
    if not rep.ok:
        failures.append(("grid axioms", [c.name for c in rep.checks if not c.ok]))

    for label in ("ps-grid", "ps-n2", "ps-flip"):
        system, bound = _groupoid_battery()[label]
        dc = system.check_dc()
        if not dc.ok:
            failures.append((f"{label} domain compatibility", dc.witness))
            continue
        G = build_semidirect(system, bound)
        rep = G.check_axioms()
        if not rep.ok:
            failures.append((f"{label} axioms", [c.name for c in rep.checks if not c.ok]))

    _conclude("2 (groupoid axioms, exhaustive)", failures)


def test_3_germ_injectivity_matches_freeness():
    failures = []
    for label, (system, bound) in _groupoid_battery().items():
        G = build_semidirect(system, bound, force=True)
        _, pi = germ_quotient(G)
        fibers = {}
        for g in G.elements:
            fibers.setdefault(pi[g], []).append(g)
        injective = all(len(v) == 1 for v in fibers.values())
        free = check_essentially_free(system, bound)
        if injective != free.ok:
            failures.append((label, injective, free))
    _conclude("3 (germ collapse iff freeness fails)", failures)


def _random_convolution(rng, G, elements):
    support = rng.sample(elements, rng.randint(1, min(6, len(elements))))
    coeffs = {g: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for g in support}
    return ConvolutionElement(G, coeffs)


def test_4_quotient_homomorphism_and_norm():
    failures = []
    rng = random.Random(SEED)

    identity = build_semidirect(identity_system([0, 1], 1), Shape(3))
    free = build_semidirect(path_space_system(one_loop_per_color_graph(2), Shape(2, 2)))

    for label, G in (("identity", identity), ("ps-n2", free)):
        H, pi = germ_quotient(G)
        if check_lifting_hypothesis(G, pi, H) is not None:
            failures.append((label, "element map does not lift composability"))
            continue
        elements = list(G.elements)
        for trial in range(100):
            f = _random_convolution(rng, G, elements)
            g = _random_convolution(rng, G, elements)
            lhs = pushforward(f * g, pi, H)
            rhs = pushforward(f, pi, H) * pushforward(g, pi, H)
            if lhs != rhs:
                failures.append((label, trial, "multiplicativity"))
                break
            if pushforward(f, pi, H).i_norm() > f.i_norm():
                failures.append((label, trial, "norm grew"))
                break

    _conclude("4 (quotient map is a norm-contractive homomorphism)", failures)


def test_5_creation_relations_zero_defects():
    failures = []
    graphs = (grid_graph(Shape(1, 1)), one_loop_per_color_graph(2), flip_graph())
    for graph in graphs:
        for name in RELATION_NAMES:
            rep = verify_identity(graph, name, Shape(3, 3))
            if not rep.ok or rep.counterexamples or rep.checked == 0:
                failures.append((graph.name, name, rep.counterexamples[:1], rep.checked))
    _conclude("5 (creation relations, zero defects)", failures)


def test_6_support_sequences_exhaustive():
    failures = []

    for n in range(5):
        for r in range(1, 4):
            for tup in all_ideal_tuples(range(n), r):
                rep = verify_exactness(build_sequence(tup))
                if not rep.ok:
                    failures.append((n, r, tup, [c.name for c in rep.failing()]))
                    break

    def random_component(rng):
        n_chain = rng.randint(1, 3)
        cyc = rng.randint(0, 2)
        pts = [f"s{i}" for i in range(n_chain)] + [f"c{i}" for i in range(cyc)]
        table = {f"s{i}": f"s{i+1}" for i in range(n_chain - 1)}
        if cyc:
            table[f"s{n_chain-1}"] = "c0"
            for i in range(cyc):
                table[f"c{i}"] = f"c{(i+1) % cyc}"
        return pts, table

    rng = random.Random(SEED)
    for trial in range(20):
        rank = rng.choice([1, 2, 2, 3])
        system = product_system(f"acc{trial}", [random_component(rng) for _ in range(rank)])
        tup = from_mgds(system)
        subsets = exit_time_subsets(system)
        if tuple(tup.parts) != subsets:
            failures.append((trial, "part mismatch", tup.parts, subsets))
            continue
        G = build_semidirect(system, force=True)
        want = [s.support for s in build_sequence(tup)]
        got = [frozenset(layer) for layer in invariant_layers(G, subsets)]
        if got != want:
            failures.append((trial, "layer mismatch"))

    _conclude("6 (support sequences, exhaustive and seeded)", failures)


def test_7_pairing_and_shift_dualities():
    failures = []
    rng = random.Random(SEED)
    flip = flip_graph()
    ys = boundary_points(flip)
    xs = list(flip.enumerate_paths(Shape(2, 2)))

    # closed sample of paired points: commuting generators, compatible domains
    sample = zpoint_system(flip, [ZPoint(x, y) for x in xs[:4] for y in ys[:2]])
    if len(sample.carrier) != 180:
        failures.append(("sample size", len(sample.carrier)))
    if not sample.check_commuting().ok:
        failures.append(("sample commutation",))
    if not sample.check_dc(Shape(1, 1, 1, 1)).ok:
        failures.append(("sample domain compatibility",))

    # covering-map equivariance on seeded points
    def random_rational(graph, prefix_cap, cycle_cap):
        prefix = rng.choice(list(graph.all_paths(prefix_cap)))
        shapes = [s for s in shapes_below(cycle_cap) if all(c >= 1 for c in s.coords)]
        cycles = []
        while not cycles:
            cycles = list(graph.enumerate_paths(
                rng.choice(shapes), source=prefix.source, target=prefix.source))
        return RationalInfinitePath(prefix, rng.choice(cycles))

    units = list(shapes_below(Shape(1, 1)))
    checked = 0
    for _ in range(1000):
        y = random_rational(flip, Shape(1, 0), Shape(1, 1))
        x = rng.choice([p for p in flip.all_paths(Shape(2, 2)) if p.source == y.target])
        z = ZPoint(x, y)
        m, k = rng.choice(units), rng.choice(units)
        if m <= z.x.shape:
            if phi(t_shift(m, z)) != s_shift(m, phi(z)):
                failures.append(("seam equivariance", z, m))
                break
            checked += 1
        if phi(v_shift(k, z)) != w_shift(k, phi(z)):
            failures.append(("slide equivariance", z, k))
            break
        checked += 1
    if checked < 1000:
        failures.append(("equivariance sample too small", checked))

    # unique lifts: phi is injective on the carrier, so no covering arrow has two
    lift_system = zpoint_system(flip, [ZPoint(xs[0], ys[0])])
    carrier = lift_system.carrier
    G = build_semidirect(lift_system, Shape(2, 2, 2, 2))
    if len({phi(p) for p in carrier}) != len(carrier) or not len(G):
        failures.append(("fiber uniqueness", len(carrier), len(G)))
    for g in itertools.islice(iter(G), 0, None, 100):
        if lift_fiber(g.y, g) != g:
            failures.append(("lift round trip", g))
            break

    # two-sided pivot shifts: bijective in each color, jointly commuting
    fop = flip.opposite()
    for trial in range(100):
        p = (random_rational(flip, Shape(1, 1), Shape(1, 1)),
             random_rational(fop, Shape(1, 1), Shape(1, 1)))
        for k in (1, 2):
            q = two_sided_shift(k, p)
            back = two_sided_shift_inverse(k, q)
            fwd = two_sided_shift(k, two_sided_shift_inverse(k, p))
            if back != p or fwd != p:
                failures.append(("two-sided bijectivity", trial, k))
                break
        a = two_sided_shift(2, two_sided_shift(1, p))
        b = two_sided_shift(1, two_sided_shift(2, p))
        if a != b:
            failures.append(("two-sided commutation", trial))
            break

    # translation twist against the grid groupoid, exhaustively
    grid = build_semidirect(grid_system(2, 4))
    box = list(itertools.product(range(2), repeat=2))
    for g, h in composable_pairs(grid):
        gh = grid.compose(g, h)
        for t1, t2 in itertools.product(box, repeat=2):
            twisted = tuple(a + b for a, b in
                            zip(theta_twist(t1, g)[0], theta_twist(t2, h)[0]))
            total = tuple(a + b for a, b in zip(t1, t2))
            if theta_twist(total, gh)[0] != twisted:
                failures.append(("twist additivity", g, h, t1, t2))
                break
            if theta_untwist(*theta_twist(t1, g)) != (tuple(t1), g):
                failures.append(("twist inversion", g, t1))
                break
        if failures:
            break

    _conclude("7 (pairing and shift dualities)", failures)


def test_8_coordinate_cocycle_filtration():
    failures = []
    battery = {
        "grid": build_semidirect(grid_system(2, 4)),
        "identity": build_semidirect(identity_system([0, 1], 1), Shape(3)),
        "mix": build_semidirect(product_system("mix", [CYCLE_CHAIN, CYCLE_CHAIN])),
        "ps-n2": build_semidirect(
            path_space_system(one_loop_per_color_graph(2), Shape(2, 2))),
        "ps-flip": build_semidirect(path_space_system(flip_graph(), Shape(1, 1))),
    }

    for label, G in battery.items():
        r = G.system.rank
        for size in range(r + 1):
            for J in itertools.combinations(range(1, r + 1), size):
                kf = kernel_filtration(G, J, level_bound=(1,) * len(J))

                # restricted-translation cocycle is additive under composition
                labeled = set(kf.labels)
                for g, h in composable_pairs(G):
                    if g in labeled and h in labeled:
                        gh = G.compose(g, h)
                        if gh in labeled and kf.labels[gh] != tuple(
                                a + b for a, b in zip(kf.labels[g], kf.labels[h])):
                            failures.append((label, J, "additivity", g, h))

                # off-coordinate translation equals the exit-time gap on the kernel
                if kf.complement_defect != ():
                    failures.append((label, J, "exit-gap identity", kf.complement_defect[:1]))

                # each level is an equivalence relation, monotone in the level index
                pts = set(kf.block)
                for N in sorted(kf.levels):
                    direct, shifted = kf.levels[N]
                    if direct != shifted:
                        failures.append((label, J, N, "level characterizations differ"))
                    if not all((x, x) in direct for x in pts):
                        failures.append((label, J, N, "not reflexive"))
                    if not all((y, x) in direct for x, y in direct):
                        failures.append((label, J, N, "not symmetric"))
                    for (x, y), (y2, w) in itertools.product(direct, repeat=2):
                        if y == y2 and (x, w) not in direct:
                            failures.append((label, J, N, "not transitive"))
                    for M in sorted(kf.levels):
                        if all(a <= b for a, b in zip(M, N)) and not (
                                kf.levels[M][0] <= direct):
                            failures.append((label, J, M, N, "not monotone"))

    _conclude("8 (coordinate cocycle filtration)", failures)
