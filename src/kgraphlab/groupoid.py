"""Semidirect-product and germ groupoids over a commuting partial-map system.

An arrow records two carrier points together with the integer translation
vector connecting them; a witness pair of shapes certifies the connection
but never takes part in identity.  A semidirect build is a finite window
onto an infinite groupoid: it holds every arrow with a witness pair below
its bound.  Composites may leave the window, and closure fails only on a
composite that has no witness at all.  The germ quotient collapses the
translation part, leaving the orbit relation of the action.  The rational
convolution algebra, its involution and fiberwise norm, the pushforward
along the quotient, and the coordinate-projection cocycle filtration used
to stratify the kernel all operate on these finite groupoids exactly, with
no floating point.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .dynsys import MGDS
from .errors import ConfigError, NotComposable, WitnessError
from .ideals import IdealTuple, build_sequence, from_mgds
from .reporting import Check
from .shapes import Shape, shapes_below, witness_pairs


@dataclass(frozen=True)
class GroupoidElement:
    """Arrow (x, z, y): some T^m sends x where some T^n sends y, with z = m - n.

    Identity is the triple alone; the witness records one certifying (m, n).
    """

    x: object
    z: tuple
    y: object
    witness: tuple | None = field(default=None, compare=False, repr=False)

    def __repr__(self):
        return f"({self.x!r}, {self.z}, {self.y!r})"


@dataclass(frozen=True)
class GermElement:
    """Orbit-relation arrow: the translation part has been collapsed."""

    x: object
    y: object


class FiniteGroupoid:
    """Finite groupoid with an explicit element set.

    Subclasses provide the structure maps; the axiom checker and the
    convolution algebra work uniformly on top of them.
    """

    closed = True  # holds every composite: one outside the element set fails closure

    def __init__(self, name: str, elements, unit_points):
        self.name = name
        self.elements = tuple(elements)
        self._element_set = {g: g for g in self.elements}  # an equal probe finds the stored arrow
        self.unit_points = tuple(unit_points)

    def __contains__(self, g):
        return g in self._element_set

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    # structure maps ------------------------------------------------------
    def range_of(self, g):
        raise NotImplementedError

    def source_of(self, g):
        raise NotImplementedError

    def unit_at(self, point):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def compose(self, g, h):
        raise NotImplementedError

    # derived ----------------------------------------------------------------
    @property
    def units(self):
        return tuple(self.unit_at(p) for p in self.unit_points)

    def is_composable(self, g, h) -> bool:
        return self.source_of(g) == self.range_of(h)

    @staticmethod
    def _require_meeting(g, h):
        if g.y != h.x:
            raise NotComposable(f"arrows do not meet: {g!r} ends at {g.y!r}, {h!r} starts at {h.x!r}",
                                source=g.y, target=h.x)

    @functools.cached_property
    def _by_range(self) -> dict:
        by_range: dict = {}
        for h in self.elements:
            by_range.setdefault(self.range_of(h), []).append(h)
        return by_range

    def composable_pairs(self):
        for g in self.elements:
            for h in self._by_range.get(self.source_of(g), ()):
                yield g, h

    def check_axioms(self) -> Check:
        """Exhaustive closure, unit, inverse and associativity verification.

        Composable pairs whose composite has no witness (possible only on
        forced builds) are reported as closure failures, witness included;
        so is a composite outside the element set of a closed groupoid.
        """
        checks = []

        bad = next((g for g in self.elements if self.inverse(g) not in self), None)
        checks.append(Check("inverse-closure", bad is None, bad))

        closure_witness = None
        products: dict = {}
        for g, h in self.composable_pairs():
            try:
                gh = self.compose(g, h)
            except WitnessError as err:
                closure_witness = (g, h, err)
                break
            if self.closed and gh not in self:
                closure_witness = (g, h, gh)
                break
            products[(g, h)] = gh
        checks.append(Check("closure", closure_witness is None, closure_witness))

        bad = next((g for g in self.elements
                    if self.compose(self.unit_at(self.range_of(g)), g) != g
                    or self.compose(g, self.unit_at(self.source_of(g))) != g), None)
        checks.append(Check("units", bad is None, bad))

        bad = next((g for g, inv in zip(self.elements, map(self.inverse, self.elements))
                    if self.compose(g, inv) != self.unit_at(self.range_of(g))
                    or self.compose(inv, g) != self.unit_at(self.source_of(g))), None)
        checks.append(Check("inverse-law", bad is None, bad))

        if closure_witness is None:  # associativity is vacuous when closure already failed
            bad = next(((g, h, k) for (g, h), gh in products.items()
                        for k in self._by_range.get(self.source_of(h), ())
                        if self.compose(gh, k) != self.compose(g, products[(h, k)])), None)
            checks.append(Check("associativity", bad is None, bad))

        return Check("axioms", all(c.ok for c in checks), checks=tuple(checks))


class SemidirectGroupoid(FiniteGroupoid):
    """Arrows (x, z, y) of a partial-map system, built up to a witness bound.

    The element set is the window: every arrow with a witness (m, n) at most
    witness_bound.  A composite may need a larger witness and leave the
    window, so the groupoid is not closed: closure fails only where compose
    finds no witness.
    """

    closed = False

    def __init__(self, system: MGDS, elements, witness_bound: Shape, *, forced: bool = False):
        super().__init__(f"semidirect({system.name})", elements, system.carrier)
        self.system = system
        self.witness_bound = witness_bound
        self.forced = forced
        self._zero = (0,) * system.rank

    def range_of(self, g):
        return g.x

    def source_of(self, g):
        return g.y

    def unit_at(self, point):
        if point not in self.system._carrier_set:
            raise ConfigError(f"{point!r} is not a carrier point")
        z = Shape.zero(self.system.rank)
        return GroupoidElement(point, self._zero, point, witness=(z, z))

    def inverse(self, g):
        w = (g.witness[1], g.witness[0]) if g.witness else None
        return GroupoidElement(g.y, tuple(-c for c in g.z), g.x, witness=w)

    def find_witness(self, x, z: tuple, y):
        """Search (m, n) with m - n = z and T^m x = T^n y, m <= 2 * witness_bound.

        n is determined by m and z.  The build already holds every arrow with
        a witness below witness_bound; this is the fallback of element and compose.
        """
        z = tuple(z)
        if len(z) != self.system.rank:
            raise ConfigError(f"translation {z} has length {len(z)}, not the system rank {self.system.rank}")
        return next(((m, n) for m, n in witness_pairs(self.witness_bound * 2, z)
                     if self.system.meets(x, y, m, n)), None)

    def _searched(self, x, z, y, left, right, message) -> GroupoidElement:
        """A fresh arrow witnessed by find_witness, else WitnessError (message formatted on failure)."""
        found = self.find_witness(x, z, y)
        if found is None:
            raise WitnessError(message.format(x=x, z=z, y=y), left=left, right=right,
                               attempted=z, search_bound=self.witness_bound * 2)
        return GroupoidElement(x, z, y, witness=found)

    def element(self, x, z, y) -> GroupoidElement:
        """The stored arrow with this triple, or a witness-searched fresh one."""
        z = tuple(z)
        stored = self._element_set.get(GroupoidElement(x, z, y))
        if stored is not None:
            return stored
        return self._searched(x, z, y, x, y, "no witness for ({x!r}, {z}, {y!r})")

    def compose(self, g, h) -> GroupoidElement:
        """Concatenate arrows; witnesses are adjusted through a componentwise join.

        When the join formula produces an invalid witness (possible only
        without joint-domain compatibility), a bounded search runs; if that
        also fails, the composite lies outside the groupoid and WitnessError
        carries the evidence.
        """
        self._require_meeting(g, h)
        z = tuple(map(operator.add, g.z, h.z))
        if g.witness and h.witness:
            (m, n), (m2, n2) = g.witness, h.witness
            mm, nn = [], []
            for a, b, c, d in zip(m.coords, n.coords, m2.coords, n2.coords):
                k = b if b > c else c  # k = n join m2; mm = m + k - n, nn = n2 + k - m2
                mm.append(a + k - b)
                nn.append(d + k - c)
            mm, nn = Shape._make(tuple(mm)), Shape._make(tuple(nn))
            if self.system.meets(g.x, h.y, mm, nn):
                return GroupoidElement(g.x, z, h.y, witness=(mm, nn))
        return self._searched(g.x, z, h.y, g, h, "composite ({x!r}, {z}, {y!r}) admits no witness")


def build_semidirect(system: MGDS, witness_bound: Shape | None = None, *, force: bool = False) -> SemidirectGroupoid:
    """The window: all arrows (x, m-n, y) with witnesses below the bound, deduplicated by triple.

    Refuses systems that fail joint-domain compatibility unless forced; a
    forced build is how the composition counterexample is exhibited.
    """
    if witness_bound is None:
        witness_bound = system.exit_bound()
    dc = system.check_dc(witness_bound)
    if not dc.ok and not force:
        n, m, x = dc.witness
        raise ConfigError(
            f"{system.name} fails joint-domain compatibility at (n={tuple(n)}, m={tuple(m)}, "
            f"x={x!r}); pass force=True to build anyway"
        )
    shapes = list(shapes_below(witness_bound))
    reachers: dict = {}  # shape n -> value -> points y with T^n y = value
    for n in shapes:
        pw = system.power(n)
        vmap: dict = {}
        for y in system.carrier:
            if pw.defined_at(y):
                vmap.setdefault(pw(y), []).append(y)
        reachers[n] = vmap
    elements: dict = {}
    for m in shapes:
        pm = system.power(m)
        for n in shapes:
            vmap = reachers[n]
            z = m.diff(n)
            for x in system.carrier:
                if not pm.defined_at(x):
                    continue
                for y in vmap.get(pm(x), ()):
                    key = (x, z, y)
                    if key not in elements:
                        elements[key] = GroupoidElement(x, z, y, witness=(m, n))
    return SemidirectGroupoid(system, elements.values(), witness_bound, forced=not dc.ok)


class GermGroupoid(FiniteGroupoid):
    """Orbit relation of the action: arrows are plain point pairs."""

    def range_of(self, g):
        return g.x

    def source_of(self, g):
        return g.y

    def unit_at(self, point):
        return GermElement(point, point)

    def inverse(self, g):
        return GermElement(g.y, g.x)

    def compose(self, g, h):
        self._require_meeting(g, h)
        return GermElement(g.x, h.y)


class GermMap(dict):
    """Element map of the germ quotient; extends to arrows beyond the window."""

    def __missing__(self, g):
        return GermElement(g.x, g.y)


def germ_quotient(G: SemidirectGroupoid):
    """Collapse the translation part; returns the quotient and the element map.

    On a discrete carrier two arrows have the same germ exactly when they
    share endpoints, so the quotient is the orbit relation.
    """
    germs: dict = {}
    pi = GermMap()
    for g in G.elements:
        key = (g.x, g.y)
        germ = germs.get(key)
        if germ is None:
            germ = germs[key] = GermElement(g.x, g.y)
        pi[g] = germ
    H = GermGroupoid(f"germ({G.name})", germs.values(), G.unit_points)
    return H, pi


def check_essentially_free(system: MGDS, bound: Shape | None = None) -> Check:
    """Look for distinct powers agreeing somewhere; singletons count as open sets.

    The witness is (n, m, x) with n != m but T^n x = T^m x.
    """
    if bound is None:
        bound = system.exit_bound()

    def agree(n, m):
        return {x for x in system.carrier if system.meets(x, x, n, m)}

    witness = system.first_pair_offence(bound, agree)
    return Check("essentially-free", witness is None, witness)


# -- convolution algebra --------------------------------------------------------------


class ConvolutionElement:
    """Finitely supported rational-valued function on a finite groupoid.

    Multiplication is convolution over factorizations, the involution flips
    arrows (values are rational, so conjugation is trivial), and the norm is
    the larger of the two fiberwise absolute-sum maxima.  All arithmetic is
    exact.
    """

    __slots__ = ("groupoid", "_coeffs")

    def __init__(self, groupoid: FiniteGroupoid, coeffs=None):
        # support may leave the finite build window: any valid arrow is a key
        self.groupoid = groupoid
        clean = {}
        for g, v in dict(coeffs or {}).items():
            v = Fraction(v)
            if v:
                clean[g] = v
        self._coeffs = clean

    @classmethod
    def indicator(cls, groupoid, element):
        return cls(groupoid, {element: 1})

    def coeff(self, g) -> Fraction:
        return self._coeffs.get(g, Fraction(0))

    @property
    def support(self):
        return tuple(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, ConvolutionElement):
            return NotImplemented
        return self.groupoid is other.groupoid and self._coeffs == other._coeffs

    def _merge(self, other, sign):
        out = dict(self._coeffs)
        for g, v in other._coeffs.items():
            out[g] = out.get(g, Fraction(0)) + sign * v
        return ConvolutionElement(self.groupoid, out)

    def __add__(self, other):
        self._same_groupoid(other)
        return self._merge(other, 1)

    def __sub__(self, other):
        self._same_groupoid(other)
        return self._merge(other, -1)

    def scale(self, q) -> "ConvolutionElement":
        q = Fraction(q)
        return ConvolutionElement(self.groupoid, {g: q * v for g, v in self._coeffs.items()})

    def __neg__(self):
        return self.scale(-1)

    def _same_groupoid(self, other):
        if not isinstance(other, ConvolutionElement) or other.groupoid is not self.groupoid:
            raise ConfigError("operands live on different groupoids")

    def __mul__(self, other):
        if not isinstance(other, ConvolutionElement):
            return NotImplemented
        self._same_groupoid(other)
        G = self.groupoid
        by_range: dict = {}
        for h, w in other._coeffs.items():
            by_range.setdefault(G.range_of(h), []).append((h, w))
        out: dict = {}
        for g, v in self._coeffs.items():
            for h, w in by_range.get(G.source_of(g), ()):
                gh = G.compose(g, h)
                out[gh] = out.get(gh, Fraction(0)) + v * w
        return ConvolutionElement(G, out)

    def star(self) -> "ConvolutionElement":
        G = self.groupoid
        return ConvolutionElement(G, {G.inverse(g): v for g, v in self._coeffs.items()})

    def i_norm(self) -> Fraction:
        G = self.groupoid
        r_sums: dict = {}
        d_sums: dict = {}
        for g, v in self._coeffs.items():
            a = abs(v)
            r_sums[G.range_of(g)] = r_sums.get(G.range_of(g), Fraction(0)) + a
            d_sums[G.source_of(g)] = d_sums.get(G.source_of(g), Fraction(0)) + a
        return max(itertools.chain(r_sums.values(), d_sums.values()), default=Fraction(0))

    def __repr__(self):
        return f"ConvolutionElement({len(self._coeffs)} terms on {self.groupoid.name})"


def check_lifting_hypothesis(G: FiniteGroupoid, pi: dict, H: FiniteGroupoid):
    """Composable images must come only from composable preimages.

    Returns None when the pushforward is safe, else the first offending pair
    (a, b) in element order.  Each a scans only the b whose image's range is
    the source of pi[a], not all of G.
    """
    by_range: dict = {}
    for b in G.elements:
        by_range.setdefault(H.range_of(pi[b]), []).append(b)
    for a in G.elements:
        for b in by_range.get(H.source_of(pi[a]), ()):
            if not G.is_composable(a, b):
                return (a, b)
    return None


def pushforward(f: ConvolutionElement, pi: dict, H: FiniteGroupoid) -> ConvolutionElement:
    """Sum coefficients over the fibers of the element map.

    Run check_lifting_hypothesis first so that the result is guaranteed
    multiplicative.
    """
    out: dict = {}
    for g, v in f._coeffs.items():
        k = pi[g]
        out[k] = out.get(k, Fraction(0)) + v
    return ConvolutionElement(H, out)


# -- cocycle kernel filtration ---------------------------------------------------


@dataclass(frozen=True)
class KernelFiltration:
    """Coordinate-projection cocycle data over one block of the carrier partition.

    labels: arrow -> its translation vector restricted to the coordinate set.
    kernel: arrows with zero label.  levels: bounded witness size -> the pair
    relation it certifies (both characterizations are computed and must
    agree; see level pairs).
    """

    coords: frozenset
    block: tuple
    labels: dict
    kernel: tuple
    complement_defect: tuple  # kernel arrows where z off-coords differ from exit-time gap
    levels: dict
    level_bound: tuple


def kernel_filtration(G: SemidirectGroupoid, coords, level_bound=None) -> KernelFiltration:
    """Restrict to the carrier block of a coordinate set and stratify the kernel.

    The cocycle reads off the translation part on the given coordinates; its
    kernel is filtered by how large a shared witness the two points need
    once the finite directions are exhausted.  Levels are computed twice,
    from the raw two-witness description and from the exit-time-shifted one,
    and both must coincide for compatibility-certified systems.
    """
    sys = G.system
    r = sys.rank
    J = frozenset(coords)
    jc = [j for j in range(1, r + 1) if j not in J]
    js = sorted(J)
    block = sys.xj_partition()[J]
    blockset = set(block)
    restricted = [g for g in G.elements if g.x in blockset and g.y in blockset]
    labels = {g: tuple(g.z[j - 1] for j in js) for g in restricted}
    kernel = tuple(g for g in restricted if not any(labels[g]))

    def exits(x):
        s = sys.exit_time(x)
        return [s.coord(j) for j in jc]

    defect = []
    for g in kernel:
        gaps = zip(jc, exits(g.x), exits(g.y))
        j = next((j for j, a, b in gaps if g.z[j - 1] != a - b), None)
        if j is not None:
            defect.append((g, j))

    if level_bound is None:
        level_bound = tuple(G.witness_bound.coord(j) for j in js)
    wb = G.witness_bound

    def place(on_j, off_j):
        # exponent: on_j on the filtration coordinates, off_j on the others
        full = [0] * r
        for j, c in itertools.chain(zip(js, on_j), zip(jc, off_j)):
            full[j - 1] = c
        return Shape(full)

    kernel_pairs = {(g.x, g.y) for g in kernel}
    free = list(itertools.product(*[range(wb.coord(j) + 1) for j in jc]))
    levels = {}
    for N in itertools.product(*[range(b + 1) for b in level_bound]):
        tops = list(itertools.product(*[range(c + 1) for c in N]))
        # raw form: two witnesses agreeing (and bounded by N) on the filtration coords
        raw = [(place(t, a), place(t, b)) for t, a, b in itertools.product(tops, free, free)]
        direct = frozenset(p for p in kernel_pairs if any(sys.meets(*p, m, n) for m, n in raw))
        # shifted form: exit times fill the other coords on both sides
        shifted = frozenset(p for p in kernel_pairs if any(
            sys.meets(*p, place(t, exits(p[0])), place(t, exits(p[1]))) for t in tops))
        levels[N] = (direct, shifted)

    return KernelFiltration(J, block, labels, kernel, tuple(defect), levels, level_bound)


# -- invariant layers of unit-space subsets -----------------------------------------------


def invariant_layers(G: FiniteGroupoid, subsets):
    """Successive difference layers of a tuple of invariant unit-space subsets.

    The layers are the stages of ideals.build_sequence on the same subsets,
    each listed in unit-space order: layer k keeps the points inside every
    later subset and outside every earlier one, for k = 0..r+1.
    """
    unit = list(G.unit_points)
    sets = [frozenset(s) for s in subsets]
    for i, s in enumerate(sets, start=1):
        stray = s - set(unit)
        if stray:
            raise ConfigError(f"subset {i} leaves the unit space: {next(iter(stray))!r}")
        for g in G.elements:
            if (G.range_of(g) in s) != (G.source_of(g) in s):
                raise ConfigError(f"subset {i} is not invariant: witness {g!r}")
    stages = build_sequence(IdealTuple(unit, sets))
    return tuple(tuple(x for x in unit if x in s.support) for s in stages)


def exit_time_subsets(sys: MGDS):
    """The r unit-space subsets where each coordinate's exit time is finite."""
    return from_mgds(sys).parts
