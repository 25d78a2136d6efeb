"""The four benchmark workloads: set-up, seeded request decks and their oracles.

A request is one call into a public check function of kgraphlab.  Its
``call`` holds only the calls that are timed; its ``check`` runs after the
clock stops and compares the answer with an expected value computed by
``oracles`` from the request's parameters.  ``check`` returns the
request's verdict (a small value that traced and untraced runs must
reproduce) and a problem string, or None when the answer is right.

A deck is a fixed multiset of request classes.  The seed shuffles it and
draws every parameter that does not change a request's cost (which path,
which coefficients, which loop relabeling, which coordinate order), so
two seeds do the same amount of work and the run-to-run spread comes
from the machine, not from the mix.  A run sets up and draws its deck
anew for every pass, and compares answers across passes, so a request
must give the same answer every time it runs.  The
package travels as ``kg``: a namespace of its layer modules, whose
functions are looked up at call time so that a traced run sees the
wrapped ones.
"""

from __future__ import annotations

import hashlib
import itertools
import re
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracles
from oracles import GraphSpec, LoopWords


@dataclass
class Request:
    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple]
    tag: Any = None  # the property describe() reports for this request


def expect(expected, observe=lambda answer: answer):
    """A check that compares an observed summary with an expected value."""

    def check(answer):
        got = observe(answer)
        return got, None if got == expected else f"expected {expected!r}, got {got!r}"

    return check


def _path(graph, word):
    """The path spelled by an edge-name word on a one-vertex graph; () is the vertex."""
    return graph.path(word) if word else graph.vertex("u")


def _spread(values):
    if not values:
        return "none"
    return f"min {min(values)} median {statistics.median(values)} max {max(values)} (n={len(values)})"


# -- fock-window ------------------------------------------------------------------

FLIP_SPEC = GraphSpec("flip2x2", "loops", (2, 2), "flip")
FOCK_GRAPHS = (
    GraphSpec("grid1x1", "grid", (1, 1)),
    GraphSpec("grid2x2", "grid", (2, 2)),
    GraphSpec("free_abelian_2", "loops", (1, 1)),
    GraphSpec("free_abelian_3", "loops", (1, 1, 1)),
    FLIP_SPEC,
    GraphSpec("single2x2", "loops", (2, 2), "commute"),
)
RELATIONS = ("R1", "R2", "R3", "R4", "commutation")
# Whole-catalog verify_identity calls run up to (2,2); at (3,3) only where
# they stay cheap.  The flip graph's (3,3) window (225 basis vectors) is
# checked one instance per request against a basis built at set-up: one
# R1 isometry per path shape and side, one commutation pair per shape
# pair, and a fixed set of R4 floors.  A single verify_identity(flip, R1,
# (3,3)) would be one 5-second sample per pass; instances give a run many
# samples of the same pointwise work.
WINDOW = (3, 3)
WINDOW_SIZE = FLIP_SPEC.basis_size(WINDOW)
FLOOR_SHAPES = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2))
UNIT_SHAPES = ((1, 0), (0, 1), (1, 1))
DIAGONAL_PROBES = (("free_abelian_2", 3, (2, 2)), ("free_abelian_3", 2, (1, 1, 1)),
                   ("grid1x1", 4, (1, 1)), ("grid2x2", 2, (1, 1)))
PROBE_BOUND = (2, 2)
PROBE_SHAPES = ((1, 0), (0, 1), (1, 1), (1, 1), (1, 0), (0, 1), (1, 1), (1, 1))


def _catalog_bounds(spec):
    if spec.rank == 3:
        return [(1, 1, 1), (2, 2, 2)]
    return [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]


def _catalog_skips(spec, rel, bound):
    return spec.kind == "loops" and spec.size == (2, 2) and bound == WINDOW and rel in (
        "R1", "R4", "commutation")


def build_graph(kg, spec):
    Shape = kg.shapes.Shape
    if spec.kind == "grid":
        return kg.kgraph.grid_graph(Shape(*spec.size))
    if spec.rule == "flip":
        return kg.kgraph.flip_graph()
    if all(c == 1 for c in spec.size):
        return kg.kgraph.one_loop_per_color_graph(spec.rank)
    return kg.kgraph.single_vertex_graph(list(spec.size), spec.rule)


class FockWindow:
    name = "fock-window"

    def setup(self, kg, root):
        Shape = kg.shapes.Shape
        graphs = {spec.name: build_graph(kg, spec) for spec in FOCK_GRAPHS}
        flip = graphs["flip2x2"]
        return {"graphs": graphs,
                "window": kg.fock.fock_basis(flip, Shape(*WINDOW)),
                "algebra": kg.fock.diagonal_algebra(flip, 2, Shape(*PROBE_BOUND))}

    def deck(self, kg, state, rng):
        graphs = state["graphs"]
        flip, window = graphs["flip2x2"], state["window"]
        specs = {spec.name: spec for spec in FOCK_GRAPHS}
        out = []
        for spec in FOCK_GRAPHS:
            for bound in _catalog_bounds(spec):
                for rel in RELATIONS:
                    if not _catalog_skips(spec, rel, bound):
                        out.append(self._relation(kg, graphs[spec.name], spec, rel, bound))
        model = LoopWords((2, 2), "flip")
        for shape in oracles.shapes_upto(WINDOW):
            for side in ("left", "right"):
                out.append(self._isometry(kg, flip, window, side, rng.choice(model.words(shape))))
        for lam_shape, mu_shape in itertools.product(UNIT_SHAPES, repeat=2):
            lam, mu = rng.choice(model.words(lam_shape)), rng.choice(model.words(mu_shape))
            out.append(self._commutation(kg, flip, window, lam, mu))
        for k in FLOOR_SHAPES:
            out.append(self._floor(kg, flip, window, k))
        for name, word_len, bound in DIAGONAL_PROBES:
            out.append(self._diagonal(kg, graphs[name], specs[name], word_len, bound))
        for shape in PROBE_SHAPES:
            words = model.words(shape)
            lam, mu = rng.choice(words), rng.choice(words)
            out.append(self._obstruction(kg, flip, state["algebra"], model, lam, mu))
        rng.shuffle(out)
        return out

    @staticmethod
    def _window_check(instances):
        want = (True, instances * WINDOW_SIZE, 0)
        return expect(want, lambda rep: (rep.ok, rep.checked, len(rep.counterexamples)))

    @staticmethod
    def _isometry(kg, graph, window, side, word):
        def call():
            fock = kg.fock
            mu = _path(graph, word)
            if side == "left":
                op, proj = fock.left_creation(graph, mu), fock.target_projection(graph, mu.source)
            else:
                op, proj = fock.right_creation(graph, mu), fock.source_projection(graph, mu.target)
            return fock.operators_agree(op.adjoint() * op, proj, window)

        want = (True, WINDOW_SIZE)
        req = Request("fock.window.R1", f"{side} mu={'/'.join(word) or 'u'}", call,
                      expect(want, lambda answer: answer[:2]))
        req.tag = WINDOW_SIZE
        return req

    @classmethod
    def _commutation(cls, kg, graph, window, lam, mu):
        def call():
            return kg.fock.creation_commutation(graph, graph.path(lam), graph.path(mu),
                                                kg.shapes.Shape(*WINDOW), window)

        req = Request("fock.window.commutation", f"lam={'/'.join(lam)} mu={'/'.join(mu)}", call,
                      cls._window_check(1))
        req.tag = WINDOW_SIZE
        return req

    @classmethod
    def _floor(cls, kg, graph, window, k):
        def call():
            Shape = kg.shapes.Shape
            return kg.fock.verify_shape_floor(graph, Shape(*k), Shape(*WINDOW), window)

        req = Request("fock.window.R4", f"k={k}", call, cls._window_check(2))
        req.tag = WINDOW_SIZE
        return req

    @staticmethod
    def _relation(kg, graph, spec, rel, bound):
        def call():
            return kg.fock.verify_identity(graph, rel, kg.shapes.Shape(*bound))

        want = (True, spec.fock_checked(rel, bound), 0)
        req = Request("fock.relation", f"{spec.name} {rel} {bound}", call,
                      expect(want, lambda rep: (rep.ok, rep.checked, len(rep.counterexamples))))
        req.tag = spec.basis_size(bound)
        return req

    @staticmethod
    def _diagonal(kg, graph, spec, word_len, bound):
        def call():
            return kg.fock.diagonal_algebra(graph, word_len, kg.shapes.Shape(*bound))

        free_abelian = spec.kind == "loops" and all(c == 1 for c in spec.size)

        def check(alg):
            verdict = (len(alg.basis), len(alg.full.atoms),
                       alg.left_only == alg.right_only, alg.full == alg.one_sided)
            if verdict[0] != spec.basis_size(bound):
                return verdict, f"basis has {verdict[0]} vectors, expected {spec.basis_size(bound)}"
            # one loop per color: left and right creations are the same operators
            if free_abelian and not (verdict[2] and verdict[3]):
                return verdict, "free abelian graph: one-sided pools should coincide"
            return verdict, None

        req = Request("fock.diagonal", f"{spec.name} words<={word_len} {bound}", call, check)
        req.tag = spec.basis_size(bound)
        return req

    @staticmethod
    def _obstruction(kg, graph, algebra, model, lam, mu):
        def call():
            rep = kg.fock.obstruction_report(graph, graph.path(lam), graph.path(mu), algebra=algebra)
            vacuum = kg.fock.VACUUM
            return frozenset("vacuum" if b is vacuum else b.word for b in rep.fixed_set), rep.in_one_sided

        want = model.mixed_fixed_set(lam, mu, PROBE_BOUND)

        def check(answer):
            fixed, inside = answer
            verdict = (len(fixed), inside)
            return verdict, None if fixed == want else (
                f"fixed set differs from the word model: {sorted(map(str, fixed ^ want))[:3]}")

        req = Request("fock.obstruction", f"flip2x2 {'/'.join(lam)} vs {'/'.join(mu)}", call, check)
        req.tag = len(algebra.basis)
        return req

    def describe(self, deck):
        sizes = [r.tag for r in deck]
        return f"basis size per request: {_spread(sizes)}"


# -- groupoid-arith -----------------------------------------------------------------

# (label, rank, side) grids keep every composite inside the build window;
# the periodic product systems send composites out of it.
AXIOM_GRIDS = (("grid1x5", 1, 5), ("grid2x2", 2, 2), ("grid3x2", 3, 2))
AXIOM_PERIODIC = (
    ("cycle2", ((0, 2, False),)),
    ("tail1-loop", ((1, 1, True),)),
    ("tail1-cycle2", ((1, 2, True),)),
    ("loop x chain2", ((0, 1, False), (2, 0, False))),
    ("loop x loop", ((0, 1, False), (0, 1, False))),
    ("tail1-loop x chain1", ((1, 1, True), (1, 0, False))),
)
MIX = ((2, 2, False), (2, 2, False))  # a 2-cycle beside a 2-chain, in both coordinates


def _components(specs):
    return [oracles.component(*spec) for spec in specs]


# Systems for the freeness and staged-layer requests, (chain, cycle, feed)
# per coordinate.  Their sizes set the cost, so they are fixed; the seed
# only permutes the coordinates.
FREENESS_SYSTEMS = (
    ((1, 1, True),), ((3, 0, False),), ((0, 2, False), (1, 0, False)),
    ((2, 2, False), (1, 1, True)), ((1, 0, False), (2, 0, False)),
    ((1, 1, False), (1, 0, False), (0, 1, False)),
)
LAYER_SYSTEMS = (
    ((2, 1, False),), ((1, 1, False), (2, 0, False)), ((2, 2, False), (1, 0, True)),
    ((1, 1, False), (1, 1, False), (1, 0, False)), ((1, 0, False), (0, 1, False), (2, 1, False)),
    ((1, 1, True), (1, 1, False), (1, 0, False)),
)


def _permuted(rng, specs):
    return tuple(rng.sample(specs, len(specs)))


class GroupoidArith:
    name = "groupoid-arith"

    def setup(self, kg, root):
        dyn, gpd, Shape = kg.dynsys, kg.groupoid, kg.shapes.Shape
        systems = {
            "grid2x4": (dyn.grid_system(2, 4), None),
            "identity": (dyn.identity_system([0, 1], 1), Shape(3)),
            "mix": (dyn.product_system("mix", _components(MIX)), None),
            "grid2x3": (dyn.grid_system(2, 3), None),
        }
        groupoids = {}
        for label, (system, bound) in systems.items():
            G = gpd.build_semidirect(system, bound)
            H, pi = gpd.germ_quotient(G)
            if gpd.check_lifting_hypothesis(G, pi, H) is not None:
                raise RuntimeError(f"{label}: germ map does not lift composability")
            groupoids[label] = (G, H, pi, list(G.elements))
        return {"groupoids": groupoids}

    def deck(self, kg, state, rng):
        out = []
        for label, rank, side in AXIOM_GRIDS:
            out.append(self._axioms(kg, label, lambda r=rank, s=side: kg.dynsys.grid_system(r, s),
                                    side ** (2 * rank)))
        for label, specs in AXIOM_PERIODIC:
            comps = _components(specs)
            out.append(self._axioms(kg, label, lambda c=comps: kg.dynsys.product_system("periodic", c),
                                    None, periodic=True))
        groupoids = state["groupoids"]
        for i, label in enumerate(("grid2x4", "identity", "mix") * 24):
            out.append(self._convolution(kg, label, groupoids[label], 1 + i // 3 % 6, rng))
        for specs in FREENESS_SYSTEMS:
            out.append(self._freeness(kg, _permuted(rng, specs)))
        for J in [rng.choice([(), (1,), (2,), (1, 2)]) for _ in range(8)]:
            out.append(self._kernel(kg, "mix", groupoids["mix"][0], J))
        out.append(self._kernel(kg, "grid2x3", groupoids["grid2x3"][0], ()))
        out.append(self._kernel(kg, "identity", groupoids["identity"][0], (1,)))
        for specs in LAYER_SYSTEMS:
            out.append(self._layers(kg, _permuted(rng, specs)))
        for points, rank in ((3, 2), (2, 3)):
            out.append(self._sweep(kg, points, rank))
        rng.shuffle(out)
        return out

    @staticmethod
    def _axioms(kg, label, make_system, arrows, periodic=False):
        def call():
            G = kg.groupoid.build_semidirect(make_system())
            return len(G), G.check_axioms().ok

        def check(answer):
            size, ok = answer
            if not ok:
                return answer, "groupoid axioms failed"
            if arrows is not None and size != arrows:
                return answer, f"{size} arrows, expected {arrows} (every pair of grid points)"
            return answer, None

        req = Request("groupoid.axioms", label, call, check)
        req.tag = periodic
        return req

    @staticmethod
    def _convolution(kg, label, built, size, rng):
        G, H, pi, elements = built

        def draw():  # the support size sets the cost, so it is fixed; the seed picks arrows
            support = rng.sample(elements, min(size, len(elements)))
            return {g: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for g in support}

        f_coeffs, g_coeffs = draw(), draw()

        def call():
            gpd = kg.groupoid
            f = gpd.ConvolutionElement(G, f_coeffs)
            g = gpd.ConvolutionElement(G, g_coeffs)
            lhs = gpd.pushforward(f * g, pi, H)
            rhs = gpd.pushforward(f, pi, H) * gpd.pushforward(g, pi, H)
            return lhs == rhs, gpd.pushforward(f, pi, H).i_norm() <= f.i_norm(), f.i_norm()

        want = (True, True, oracles.i_norm(f_coeffs, lambda a: (a.x, a.y)))
        return Request("groupoid.convolution", label, call, expect(want))

    @staticmethod
    def _freeness(kg, specs):
        comps = _components(specs)

        def call():
            system = kg.dynsys.product_system("free?", comps)
            G = kg.groupoid.build_semidirect(system, force=True)
            _, pi = kg.groupoid.germ_quotient(G)
            injective = len({pi[g] for g in G.elements}) == len(G)
            return kg.groupoid.check_essentially_free(system).ok, injective

        free = oracles.is_free(comps)
        return Request("groupoid.freeness", str(specs), call, expect((free, free)))

    @staticmethod
    def _kernel(kg, label, G, J):
        def call():
            return kg.groupoid.kernel_filtration(G, J, level_bound=(1,) * len(J))

        def check(kf):
            levels = sorted(kf.levels)
            verdict = (len(kf.block), len(kf.kernel),
                       tuple((N, len(kf.levels[N][0])) for N in levels))
            points = set(kf.block)
            for N in levels:
                direct, shifted = kf.levels[N]
                if direct != shifted:
                    return verdict, f"level {N}: the two characterizations differ"
                if not oracles.is_equivalence(direct, points):
                    return verdict, f"level {N} is not an equivalence relation"
                for M in levels:
                    if all(a <= b for a, b in zip(M, N)) and not kf.levels[M][0] <= direct:
                        return verdict, f"levels {M} <= {N} are not nested"
            if kf.complement_defect:
                return verdict, "kernel arrows break the exit-time gap identity"
            return verdict, None

        return Request("groupoid.kernel", f"{label} J={J}", call, check)

    @staticmethod
    def _layers(kg, specs):
        comps = _components(specs)

        def call():
            system = kg.dynsys.product_system("layers", comps)
            tup = kg.ideals.from_mgds(system)
            subsets = kg.groupoid.exit_time_subsets(system)
            G = kg.groupoid.build_semidirect(system, force=True)
            layers = tuple(frozenset(layer) for layer in kg.groupoid.invariant_layers(G, subsets))
            stages = kg.ideals.build_sequence(tup)
            exact = kg.ideals.verify_exactness(stages).ok
            return tup.parts, layers, tuple(s.support for s in stages), exact

        carrier, parts = oracles.exit_parts(comps)
        want = oracles.staged_layers(carrier, parts)
        return Request("groupoid.layers", str(specs), call, expect((parts, want, want, True)))

    @staticmethod
    def _sweep(kg, points, rank):
        def call():
            ideals = kg.ideals
            tuples = list(ideals.all_ideal_tuples(range(points), rank))
            return len(tuples), all(ideals.verify_exactness(ideals.build_sequence(t)).ok
                                    for t in tuples)

        return Request("ideals.sweep", f"{points} points rank {rank}", call,
                       expect((2 ** (points * rank), True)))

    def describe(self, deck):
        axioms = [r for r in deck if r.kind == "groupoid.axioms"]
        share = sum(r.tag for r in axioms) / len(axioms)
        return (f"axiom checks on periodic systems (composites escape the window): "
                f"{share:.3f} of {len(axioms)}; the traced run measures the escape share")


# -- boundary-pairing ------------------------------------------------------------------

FLIP = LoopWords((2, 2), "flip")
UNITS = ((0, 0), (1, 0), (0, 1), (1, 1))
CYCLES = FLIP.words((1, 1))
# Closure seeds: seam coordinate word and cycle word.  Closure cost depends
# on the pair, so the deck keeps the pairs and the seed only relabels loops.
CLOSURE_SEEDS = tuple((x, c) for x in (("a0",), ("b0",), ("a0", "b0"), ("a0", "b1"))
                      for c in (("a0", "b0"), ("a0", "b1")))


def _relabel(word):
    """The loop-index swap a0<->a1, b0<->b1: an automorphism of the flip graph."""
    return tuple(e[0] + str(1 - int(e[1:])) for e in word)


def _dominated(word, shape):
    got = FLIP.shape(word)
    return got[0] <= shape[0] and got[1] <= shape[1]


class BoundaryPairing:
    name = "boundary-pairing"

    def setup(self, kg, root):
        Shape = kg.shapes.Shape
        flip = kg.kgraph.flip_graph()
        ys = kg.duality.boundary_points(flip)
        seed = kg.duality.ZPoint(flip.path(("a0", "b0")), ys[0])
        closure = kg.duality.zpoint_system(flip, [seed])
        lifts = kg.groupoid.build_semidirect(closure, Shape(1, 1, 1, 1))
        return {"flip": flip, "opposite": flip.opposite(), "lift_arrows": list(lifts)}

    def deck(self, kg, state, rng):
        out = [self._equivariance(kg, state["flip"], rng) for _ in range(80)]
        out += [self._pivot(kg, state["flip"], state["opposite"], rng) for _ in range(16)]
        arrows = state["lift_arrows"]
        out += [self._lift(kg, rng.choice(arrows)) for _ in range(20)]
        for x, c in CLOSURE_SEEDS:
            if rng.random() < 0.5:
                x, c = _relabel(x), _relabel(c)
            out.append(self._closure(kg, state["flip"], x, c))
        rng.shuffle(out)
        return out

    @staticmethod
    def _rational(kg, graph, prefix, cycle):
        return kg.duality.RationalInfinitePath(_path(graph, prefix), _path(graph, cycle))

    @classmethod
    def _equivariance(cls, kg, flip, rng):
        prefix = rng.choice([(), ("a0",), ("a1",)])
        cycle = rng.choice(CYCLES)
        x = rng.choice([w for n in itertools.product(range(3), repeat=2) for w in FLIP.words(n)])
        m, k = rng.choice(UNITS), rng.choice(UNITS)

        def call():
            du, Shape = kg.duality, kg.shapes.Shape
            z = du.ZPoint(_path(flip, x), cls._rational(kg, flip, prefix, cycle))
            mm, kk = Shape(*m), Shape(*k)
            seam = None
            if mm <= z.x.shape:
                seam = du.phi(du.t_shift(mm, z)) == du.s_shift(mm, du.phi(z))
            return seam, du.phi(du.v_shift(kk, z)) == du.w_shift(kk, du.phi(z))

        # the seam shift needs m <= sigma(x); the slide shift is total
        sx = FLIP.shape(x)
        want = (True if m[0] <= sx[0] and m[1] <= sx[1] else None, True)
        return Request("duality.equivariance", f"x={'/'.join(x)} m={m} k={k}", call, expect(want))

    @classmethod
    def _pivot(cls, kg, flip, opposite, rng):
        def side():
            return rng.choice([w for n in UNITS for w in FLIP.words(n)]), rng.choice(CYCLES)

        (xp, xc), (yp, yc) = side(), side()

        def call():
            du = kg.duality
            p = (cls._rational(kg, flip, xp, xc), cls._rational(kg, opposite, yp, yc))
            bijective = all(du.two_sided_shift_inverse(k, du.two_sided_shift(k, p)) == p
                            and du.two_sided_shift(k, du.two_sided_shift_inverse(k, p)) == p
                            for k in (1, 2))
            commute = (du.two_sided_shift(2, du.two_sided_shift(1, p))
                       == du.two_sided_shift(1, du.two_sided_shift(2, p)))
            return bijective, commute

        return Request("duality.pivot", f"{xp}|{xc} . {yp}|{yc}", call, expect((True, True)))

    @staticmethod
    def _lift(kg, arrow):
        def call():
            return kg.duality.lift_fiber(arrow.y, arrow) == arrow

        return Request("duality.lift", repr(arrow.z), call, expect(True))

    @classmethod
    def _closure(cls, kg, flip, x, cycle):
        def call():
            du, Shape = kg.duality, kg.shapes.Shape
            seed = du.ZPoint(_path(flip, x), cls._rational(kg, flip, (), cycle))
            S = du.zpoint_system(flip, [seed])
            dc = S.check_dc(Shape(1, 1, 1, 1)).ok
            return S.check_commuting().ok, dc, tuple(z.x.word for z in S.carrier)

        bound = FLIP.shape(x)

        def check(answer):
            commuting, dc, words = answer
            verdict = (commuting, dc, len(words))
            if not (commuting and dc):
                return verdict, "paired-point shifts must commute with compatible domains"
            # seam shifts shrink sigma(x) and slides preserve it
            if not all(_dominated(w, bound) for w in words):
                return verdict, "a closure point has a seam coordinate above the seed's"
            return verdict, None

        return Request("duality.closure", f"x={'/'.join(x)} cycle={'/'.join(cycle)}", call, check)

    def describe(self, deck):
        closures = sum(r.kind == "duality.closure" for r in deck)
        return (f"{len(deck)} requests on one flip graph, {closures} closures; "
                f"factorize distinct_ratio is measured by the traced run")


# -- fixture-cli ----------------------------------------------------------------------

FIXTURE_SPECS = {
    "flip": GraphSpec("flip", "loops", (2, 2), "flip"),
    "grid11": GraphSpec("grid11", "grid", (1, 1)),
    "n2": GraphSpec("n2", "loops", (1, 1)),
    "free_monoid": None,
}
# (fixture, suite or None for the declared set, bound overrides to draw from,
# requests per deck).  Each request draws its own bound and run seed, so a
# deck holds about 100 distinct inputs; byte identity is compared across
# the passes of a run.  The flip fixture runs its cheap suites only: its
# declared fock (2,2) and groupoid suites would each be one slow sample
# dominating the deck, and its groupoid suite at 2,2 runs for minutes.
# Bounds are drawn only where they do not change the cost.
FIXTURE_DECK = (
    ("flip", "validate", (None, (1, 1), (2, 2)), 10),
    ("flip", "fock", ((1, 1),), 10),
    ("flip", "boundary", (None, (1, 1), (2, 2)), 10),
    ("free_monoid", None, (None,), 10),
    ("grid11", None, (None,), 10),
    ("grid11", "validate", (None, (1, 1), (2, 2)), 10),
    ("grid11", "groupoid", (None, (1, 1), (2, 2)), 10),
    ("n2", None, (None,), 10),
    ("n2", "validate", (None, (1, 1), (2, 2)), 10),
    ("n2", "fock", ((1, 1),), 10),
    ("n2", "boundary", (None, (1, 1), (2, 2)), 10),
)
_RECORD = re.compile(r'record=check name="([^"]*)" status=(\w+) witness=(.*) info="(.*)"$')


class FixtureCli:
    name = "fixture-cli"

    def __init__(self):
        # machine output digest per input, kept by the process across its cold passes
        self.digests = {}

    def setup(self, kg, root):
        texts = {stem: (root / "fixtures" / f"{stem}.kgf").read_text(encoding="utf-8")
                 for stem in FIXTURE_SPECS}
        return {"texts": texts, "digests": self.digests}

    def deck(self, kg, state, rng):
        out = []
        for stem, suite, bounds, count in FIXTURE_DECK:
            for seed in rng.sample(range(1000), count):
                out.append(self._run(kg, state, stem, suite, rng.choice(bounds), seed))
        rng.shuffle(out)
        return out

    @staticmethod
    def _expected_infos(stem, fixture_text, suite, bound):
        """Oracle info strings for count-carrying checks, keyed by check name."""
        spec = FIXTURE_SPECS[stem]
        if spec is None:
            return {}
        declared = {}
        fixture_bound = None
        for line in fixture_text.splitlines():
            tokens = line.split("#", 1)[0].split()
            if tokens[:1] == ["suite"]:
                opts = dict(t.split("=", 1) for t in tokens[2:])
                declared[tokens[1]] = opts
            elif tokens[:1] == ["bound"]:
                fixture_bound = tuple(int(c) for c in tokens[1].split(","))
        suites = [suite] if suite else list(declared)
        out = {}
        for name in suites:
            opts = declared.get(name, {})
            b = bound or (tuple(int(c) for c in opts["bound"].split(",")) if "bound" in opts
                          else fixture_bound) or (1,) * spec.rank
            if name == "fock":
                relations = opts.get("relations", ",".join(RELATIONS)).split(",")
                for rel in relations:
                    out[f"fock.{rel}"] = f"checked={spec.fock_checked(rel, b)}"
            elif name == "validate":
                total = sum(spec.count(n) for n in oracles.shapes_upto(b))
                out["validate.morphisms"] = f"count={total}"
        return out

    def _run(self, kg, state, stem, suite, bound, seed):
        text = state["texts"][stem]
        suites = [suite] if suite else None

        def call():
            fixture = kg.fixtures.parse_fixture_text(text, name=stem)
            report = kg.cli.run_fixture(fixture, suite_names=suites, bound=bound, seed=seed)
            return kg.reporting.render(report, "machine")

        infos = self._expected_infos(stem, text, suite, bound)
        key = (stem, suite, bound, seed)

        def check(out):
            digest = hashlib.sha256(out.encode()).hexdigest()[:16]
            verdict = (out.endswith("record=summary ok=true"), digest)
            first = state["digests"].setdefault(key, digest)
            if first != digest:
                return verdict, "machine output differs from an earlier identical request"
            records = [_RECORD.match(line) for line in out.splitlines()[1:-1]]
            if not records or not all(records):
                return verdict, "unparsable machine record"
            for m in records:
                name, status, witness, info = m.groups()
                if status != "pass":
                    return verdict, f"{name} failed"
                if name.startswith("counterexample.") and witness == "none":
                    return verdict, f"{name} reported no defect witness"
                if name in infos and info.split(" ")[0] != infos.pop(name):
                    return verdict, f"{name} info {info!r} disagrees with the path count"
            if infos:
                return verdict, f"missing checks {sorted(infos)}"
            return verdict, None if verdict[0] else "summary is not ok"

        req = Request("cli.fixture", f"{stem} suite={suite} bound={bound} seed={seed}", call, check)
        req.tag = key
        return req

    def describe(self, deck):
        distinct = len({r.tag for r in deck})
        return f"{len(deck)} fixture runs over {distinct} distinct inputs, each compared across passes"


WORKLOADS = {w.name: w for w in (FockWindow(), GroupoidArith(), BoundaryPairing(), FixtureCli())}
