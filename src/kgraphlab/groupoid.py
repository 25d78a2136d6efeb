"""Semidirect-product and germ groupoids over a commuting partial-map system.

An arrow records two carrier points together with the integer translation
vector connecting them; a witness pair of shapes certifies the connection
but never takes part in identity.  A semidirect build is a finite window
onto an infinite groupoid: it holds every arrow with a witness pair below
its bound.  Composites may leave the window, and closure fails only on a
composite that has no witness at all.  The germ quotient collapses the
translation part, leaving the orbit relation of the action.  Each kind
embeds injectively in an associative ambient groupoid (X x Z^r x X, or the
pair groupoid X x X), so the axiom check proves associativity from
O(distinct products) comparisons.  The rational convolution algebra, its
involution and fiberwise norm, the pushforward along the quotient, and the
coordinate-projection cocycle filtration used to stratify the kernel all
operate on these finite groupoids exactly, with no floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .dynsys import MGDS
from .errors import ConfigError, DomainError, NotComposable, WitnessError
from .ideals import IdealTuple, build_sequence, from_mgds
from .reporting import Check
from .shapes import Shape, as_shape, shapes_below, witness_pairs


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


class _ArrowIds:
    """check_axioms' int ids, one per arrow it meets, and their products.

    An element's id is its position in elements, any other arrow's the next
    free one.  x and y hold each id's range and source label, here its points;
    times composes each id pair once, here through compose, and pending is
    the pair in progress, a WitnessError's operands.
    """

    def __init__(self, G):
        self.G, self.products, self.pending = G, {}, None
        self.ids, self.arrows, self.x, self.y = {}, [], [], []
        for g in G.elements:
            self.intern(g)

    def intern(self, g) -> int:
        i = self.ids.get(g)
        if i is None:
            i = self.ids[g] = len(self.arrows)
            self.arrows.append(g)
            self.x.append(g.x)
            self.y.append(g.y)
        return i

    def times(self, i, j) -> int:
        k = self.products.get((i, j))
        if k is None:
            self.pending = i, j
            k = self.products[i, j] = self.product(i, j)
        return k

    def product(self, i, j) -> int:
        return self.intern(self.G.compose(self.arrow(i), self.arrow(j)))

    def arrow(self, k):
        return self.arrows[k]

    def key(self, k):
        return self.G.ambient_key(self.arrows[k])


class FiniteGroupoid:
    """Finite groupoid with an explicit set of distinct elements.

    An arrow g runs from its source g.y to its range g.x; subclasses
    provide the maps unit_at, inverse and compose, and the axiom checker
    and the convolution algebra work uniformly on top of them.  An
    element's id is its position in elements.
    """

    closed = True  # holds every composite: one outside the element set fails closure
    # an injective arrow -> key map into an associative groupoid, whose product of
    # the keys of composable arrows is ambient_product; see check_axioms
    ambient_key = None
    _id_table = _ArrowIds  # check_axioms' ids, products and keys

    def __init__(self, name: str, elements, unit_points):
        self.name = name
        self.elements = tuple(elements)
        self._element_set = {g: i for i, g in enumerate(self.elements)}  # arrow -> id; an equal probe finds it
        self.unit_points = tuple(unit_points)

    def __contains__(self, g):
        return g in self._element_set

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    # derived ----------------------------------------------------------------
    def is_composable(self, g, h) -> bool:
        return g.y == h.x

    @staticmethod
    def _require_meeting(g, h):
        if g.y != h.x:
            raise NotComposable(f"arrows do not meet: {g!r} ends at {g.y!r}, {h!r} starts at {h.x!r}")

    def check_axioms(self) -> Check:
        """Exhaustive closure, unit, inverse and associativity verification.

        Composable pairs whose composite has no witness (possible only on
        forced builds) are reported as closure failures, witness included;
        so is a composite outside the element set of a closed groupoid, and
        one that does not run from the range of g to the source of h.
        An inverse must lie in the window and run from g.y to g.x; one that
        does not is a witness of inverse-closure and of the inverse law,
        which does not compose it.

        Every law compares ids of the groupoid's _id_table, made for this call,
        and composes each id pair once.  An arrow is its triple (x, z, y), never
        its witness; under check_dc no product searches for a witness, so
        whichever equal arrow an id keeps, its products are the same.

        Associativity: ambient_key maps arrows injectively into an
        associative groupoid with product ambient_product, and the table's
        key(k) is the key of id k.  If key(gh) = key(g)key(h) for each window
        pair, and for each composite outside the window times each window
        arrow on either side, then every window triple has key((gh)k) =
        key(g)key(h)key(k) = key(g(hk)), so (gh)k = g(hk).  These are the
        distinct products a loop over all triples composes, compared in
        O(products), not O(triples).  Left to prove is that each product
        exists; under check_dc the join formula witnesses it with no fallback
        search.  On a mismatch or WitnessError, and always without a key, the
        triple loop runs: it reports the first (g, h, k) in element order
        that does not associate, or (g, h, err) for a product with no witness.
        """
        elements, window = self.elements, len(self.elements)
        t = self._id_table(self)
        x, y, times, products = t.x, t.y, t.times, t.products
        by_range, by_source = {}, {}  # label -> window ids starting, ending there
        for i in range(window):
            by_range.setdefault(x[i], []).append(i)
            by_source.setdefault(y[i], []).append(i)
        composable = [(i, j) for i in range(window) for j in by_range.get(y[i], ())]
        checks = []

        inverses = [self.inverse(g) for g in elements]
        reversed_ok = [inv.x == g.y and inv.y == g.x for g, inv in zip(elements, inverses)]
        inverse_ids = list(map(t.intern, inverses))
        bad = next((g for g, inv, ok in zip(elements, inverse_ids, reversed_ok)
                    if not ok or inv >= window), None)
        checks.append(Check("inverse-closure", bad is None, bad))

        closure_witness = None
        for i, j in composable:
            try:
                k = times(i, j)
            except WitnessError as err:
                closure_witness = (elements[i], elements[j], err)
                break
            if (self.closed and k >= window) or x[k] != x[i] or y[k] != y[j]:
                closure_witness = (elements[i], elements[j], t.arrow(k))
                break
        checks.append(Check("closure", closure_witness is None, closure_witness))

        unit = {p: t.intern(self.unit_at(p)) for p in self.unit_points}
        bad = next((g for i, g in enumerate(elements)
                    if times(unit[g.x], i) != i or times(i, unit[g.y]) != i), None)
        checks.append(Check("units", bad is None, bad))

        bad = next((g for i, (g, inv, ok) in enumerate(zip(elements, inverse_ids, reversed_ok))
                    if not ok or times(i, inv) != unit[g.x] or times(inv, i) != unit[g.y]), None)
        checks.append(Check("inverse-law", bad is None, bad))

        def embedded():
            # whether each product the triple loop composes is multiplicative under the key;
            # a composite inside the window makes only window pairs
            key, product = t.key, self.ambient_product
            escaped = dict.fromkeys(c for c in map(products.__getitem__, composable) if c >= window)
            pairs = itertools.chain(
                composable,
                ((c, k) for c in escaped for k in by_range.get(y[c], ())),
                ((i, c) for c in escaped for i in by_source.get(x[c], ())))
            keys = list(map(key, range(len(x))))  # every operand below has its id already
            try:
                return all(key(times(i, j)) == product(keys[i], keys[j]) for i, j in pairs)
            except WitnessError:
                return False

        if closure_witness is None:  # associativity is vacuous when closure already failed
            try:  # embedded() catches its own WitnessError: one here comes from the triple loop
                bad = None if self.ambient_key is not None and embedded() else next(
                    ((elements[i], elements[j], elements[k]) for i, j in composable
                     for k in by_range.get(y[j], ())
                     if times(products[i, j], k) != times(i, products[j, k])), None)
            except WitnessError as err:
                bad = (t.arrow(t.pending[0]), t.arrow(t.pending[1]), err)
            checks.append(Check("associativity", bad is None, bad))

        return Check("axioms", all(c.ok for c in checks), checks=tuple(checks))


class _JoinIds(_ArrowIds):
    """A semidirect window's ids: x and y hold carrier indices, and data each id's
    (x, z, y, witness coordinates), interned by (x, z, y).  A product is the join
    formula's, else compose's; arrow makes a GroupoidElement only when asked."""

    def __init__(self, G):
        self.index, self.data = G.system.index, []
        super().__init__(G)

    def intern(self, g) -> int:
        w = g.witness and (g.witness[0].coords, g.witness[1].coords)
        return self._id(self.index[g.x], g.z, self.index[g.y], w, g)

    def _id(self, x, z, y, w, g=None) -> int:
        i = self.ids.setdefault((x, z, y), len(self.data))
        if i == len(self.data):
            self.data.append((x, z, y, w))
            self.x.append(x)
            self.y.append(y)
            self.arrows.append(g)
        return i

    def product(self, i, j) -> int:
        (x, z, _, w), (_, z2, y, v) = self.data[i], self.data[j]
        joined = w and v and self.G._joined(x, y, *w, *v)
        if joined:
            return self._id(x, tuple(map(operator.add, z, z2)), y, joined)
        return super().product(i, j)

    def arrow(self, k):
        if self.arrows[k] is None:
            (x, z, y, w), carrier = self.data[k], self.G.system.carrier
            self.arrows[k] = GroupoidElement(carrier[x], z, carrier[y], witness=tuple(map(Shape._make, w)))
        return self.arrows[k]

    def key(self, k):
        return self.data[k][:3]


class SemidirectGroupoid(FiniteGroupoid):
    """Arrows (x, z, y) of a partial-map system, built up to a witness bound.

    The element set is the window: every arrow with a witness (m, n) at most
    witness_bound.  A composite may need a larger witness and leave the
    window, so the groupoid is not closed: closure fails only where compose
    finds no witness.  compose and check_axioms' id product share _joined,
    whose test of T^m x = T^n y reads the system's image lists.
    """

    closed = False
    _id_table = _JoinIds

    def __init__(self, system: MGDS, elements, witness_bound: Shape):
        super().__init__(f"semidirect({system.name})", elements, system.carrier)
        self.system = system
        self.witness_bound = witness_bound
        self._zero = (0,) * system.rank

    @functools.cached_property
    def _units(self) -> dict:
        """Carrier point x -> the stored unit arrow (x, 0, x); a build holds every one."""
        return {x: self.element(x, self._zero, x) for x in self.system.carrier}

    # the arrow's triple in X x Z^r x X, whose product adds translations
    ambient_key = staticmethod(lambda g: (g.x, g.z, g.y))
    ambient_product = staticmethod(lambda a, b: (a[0], tuple(map(operator.add, a[1], b[1])), b[2]))

    def unit_at(self, point):
        unit = self._units.get(point)
        if unit is None:
            raise ConfigError(f"{point!r} is not a carrier point")
        return unit

    def inverse(self, g):
        w = (g.witness[1], g.witness[0]) if g.witness else None
        return GroupoidElement(g.y, tuple(-c for c in g.z), g.x, witness=w)

    def _joined(self, x: int, y: int, m: tuple, n: tuple, m2: tuple, n2: tuple):
        """The join formula's witness (m + k - n, n2 + k - m2), k = n join m2, of arrows
        witnessed by (m, n) and (m2, n2) from carrier index x to y, if it meets; else None."""
        mm, nn = [], []
        for a, b, c, d in zip(m, n, m2, n2):
            k = b if b > c else c
            mm.append(a + k - b)
            nn.append(d + k - c)
        mm, nn, tabled, images = tuple(mm), tuple(nn), self.system.image_table, self.system.images
        return (mm, nn) if (tabled.get(mm) or images(Shape._make(mm)))[x] == \
            (tabled.get(nn) or images(Shape._make(nn)))[y] >= 0 else None

    def find_witness(self, x, z: tuple, y):
        """The first (m, n) in shapes_below order with m - n = z and T^m x = T^n y, or None.

        The fallback of element and compose.  The generators commute as
        partial maps (MGDS checks this), so T^m = T^(m - m_j e_j) T_j^(m_j),
        and the box searched loses no witness.  Where exit_time(x)_j or
        exit_time(y)_j is finite, it bounds m_j or n_j = m_j - z_j.  Where both
        are infinite, let a be a point's preperiod and q its period under T_j,
        and L = lcm(q_x, q_y): T_j^(m_j) x = T_j^(m_j - L) x once m_j - L >= a_x,
        and the same for n_j and y, so (m - L e_j, n - L e_j) is an earlier
        witness; the first has m_j <= max(a_x, a_y + z_j) + L - 1.  So None
        means no witness at all.  An empty box, or a point off the carrier,
        calls no meets.
        """
        z, system = tuple(z), self.system
        box = self._box(x, z, y)
        return None if box is None else next(
            ((m, n) for m, n in witness_pairs(box, z) if system.meets(x, y, m, n)), None)

    def _box(self, x, z: tuple, y) -> Shape | None:
        """The bound on m that find_witness searches for (x, z, y), or None where the box is
        empty: a side below 0, or a point off the carrier."""
        system = self.system
        if len(z) != system.rank:
            raise ConfigError(f"translation {z} has length {len(z)}, not the system rank {system.rank}")
        try:
            ends = zip(system.orbit(x), system.orbit(y), z)
        except DomainError:
            return None
        box = tuple(  # orbit: (steps, preperiod), None where the exit time, steps, is finite
            max(ax, ay + c) + math.lcm(sx - ax, sy - ay) - 1 if ax is not None and ay is not None
            else min(sx if ax is None else sy + c, sy + c if ay is None else sx)
            for (sx, ax), (sy, ay), c in ends)
        return None if min(box) < 0 else Shape._make(box)

    def _searched(self, x, z, y, message) -> GroupoidElement:
        """A fresh arrow witnessed by find_witness, else WitnessError (message formatted on
        failure) whose search_bound is the box searched, None where it was empty."""
        found = self.find_witness(x, z, y)
        if found is None:
            raise WitnessError(message.format(x=x, z=z, y=y),
                               attempted=z, search_bound=self._box(x, z, y))
        return GroupoidElement(x, z, y, witness=found)

    def element(self, x, z, y) -> GroupoidElement:
        """The stored arrow with this triple, or a witness-searched fresh one."""
        z = tuple(z)
        i = self._element_set.get(GroupoidElement(x, z, y))
        if i is not None:
            return self.elements[i]
        return self._searched(x, z, y, "no witness for ({x!r}, {z}, {y!r})")

    def compose(self, g, h) -> GroupoidElement:
        """Concatenate arrows; witnesses are adjusted through a componentwise join.

        When the join formula produces an invalid witness (possible only
        without joint-domain compatibility), a bounded search runs; if that
        also fails, the composite lies outside the groupoid and WitnessError
        carries the evidence.
        """
        self._require_meeting(g, h)
        z = tuple(map(operator.add, g.z, h.z))
        index = self.system.index
        if g.witness and h.witness and g.x in index and h.y in index:
            (m, n), (m2, n2) = g.witness, h.witness
            joined = self._joined(index[g.x], index[h.y], m.coords, n.coords, m2.coords, n2.coords)
            if joined:
                return GroupoidElement(g.x, z, h.y, witness=tuple(map(Shape._make, joined)))
        return self._searched(g.x, z, h.y, "composite ({x!r}, {z}, {y!r}) admits no witness")


def build_semidirect(system: MGDS, witness_bound: Shape | None = None, *, force: bool = False) -> SemidirectGroupoid:
    """The window: all arrows (x, m-n, y) with witnesses below the bound, deduplicated by triple.

    Refuses systems that fail joint-domain compatibility unless forced; a
    forced build runs no compatibility scan, since only the refusal reads
    its verdict, so a caller whose own scan at this bound passed forces it.
    Each shape's image list is read once; the build makes no PartialMap.
    """
    witness_bound = system.exit_bound() if witness_bound is None else as_shape(witness_bound)
    if not force:
        dc = system.check_dc(witness_bound)
        if not dc.ok:
            n, m, x = dc.witness
            raise ConfigError(
                f"{system.name} fails joint-domain compatibility at (n={tuple(n)}, m={tuple(m)}, "
                f"x={x!r}); pass force=True to build anyway"
            )
    shapes = list(shapes_below(witness_bound))
    # per shape, its image list's (index, image index) pairs over the domain, in carrier order
    tables = [[(x, v) for x, v in enumerate(system.images(n)) if v >= 0] for n in shapes]
    reachers = [{} for _ in shapes]  # per shape n: image index -> indices y with T^n y there
    for vmap, table in zip(reachers, tables):
        for y, v in table:
            vmap.setdefault(v, []).append(y)
    carrier, elements = system.carrier, {}
    for m, table in zip(shapes, tables):
        for n, vmap in zip(shapes, reachers):
            z = m.diff(n)
            for x, v in table:
                for y in vmap.get(v, ()):
                    key = (x, z, y)
                    if key not in elements:
                        elements[key] = GroupoidElement(carrier[x], z, carrier[y], witness=(m, n))
    return SemidirectGroupoid(system, elements.values(), witness_bound)


class GermGroupoid(FiniteGroupoid):
    """Orbit relation of the action: arrows are plain point pairs."""

    # the arrow's pair in the pair groupoid X x X
    ambient_key = staticmethod(lambda g: (g.x, g.y))
    ambient_product = staticmethod(lambda a, b: (a[0], b[1]))

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
    pi = GermMap((g, GermElement(g.x, g.y)) for g in G.elements)
    return GermGroupoid(f"germ({G.name})", dict.fromkeys(pi.values()), G.unit_points), pi


def check_essentially_free(system: MGDS, bound: Shape | None = None) -> Check:
    """Look for distinct powers agreeing somewhere; singletons count as open sets.

    The witness is (n, m, x) with n != m but T^n x = T^m x.  On a finite
    discrete carrier a pass proves that no two distinct powers below the
    bound agree at any point, and nothing about whether the graph is
    aperiodic: path-space windows always pass, since a shift shrinks a
    finite path's shape, and boundary windows always fail, since every
    orbit of a finite carrier is eventually periodic.
    """
    witness = system.first_pair_offence(system.exit_bound() if bound is None else bound,
                                        system.agreement)
    return Check("essentially-free", witness is None, witness)


# -- convolution algebra --------------------------------------------------------------


class ConvolutionElement:
    """Finitely supported rational-valued function on a finite groupoid.

    Multiplication is convolution over factorizations, the involution flips
    arrows (values are rational, so conjugation is trivial), and the norm is
    the larger of the two fiberwise absolute-sum maxima.  All arithmetic is
    exact.  Coefficients come as a mapping or as (arrow, value) pairs; each
    is stored as a Fraction (a value of another type is converted once), and
    zeros are dropped, so a sum or product whose terms cancel loses the key.
    """

    __slots__ = ("groupoid", "_coeffs")

    def __init__(self, groupoid: FiniteGroupoid, coeffs=None):
        # support may leave the finite build window: any valid arrow is a key
        self.groupoid = groupoid
        values = ((g, v if type(v) is Fraction else Fraction(v)) for g, v in dict(coeffs or {}).items())
        self._coeffs = {g: v for g, v in values if v}

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

    def __add__(self, other):
        self._same_groupoid(other)
        out = dict(self._coeffs)
        for g, v in other._coeffs.items():
            out[g] = out[g] + v if g in out else v
        return ConvolutionElement(self.groupoid, out)

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
            by_range.setdefault(h.x, []).append((h, w))
        out: dict = {}
        for g, v in self._coeffs.items():
            for h, w in by_range.get(g.y, ()):
                gh = G.compose(g, h)
                out[gh] = out[gh] + v * w if gh in out else v * w
        return ConvolutionElement(G, out)

    def star(self) -> "ConvolutionElement":
        G = self.groupoid
        return ConvolutionElement(G, {G.inverse(g): v for g, v in self._coeffs.items()})

    def i_norm(self) -> Fraction:
        r_sums: dict = {}
        d_sums: dict = {}
        for g, v in self._coeffs.items():
            a = abs(v)
            r_sums[g.x] = r_sums[g.x] + a if g.x in r_sums else a
            d_sums[g.y] = d_sums[g.y] + a if g.y in d_sums else a
        return max(itertools.chain(r_sums.values(), d_sums.values()), default=Fraction(0))

    def __repr__(self):
        return f"ConvolutionElement({len(self._coeffs)} terms on {self.groupoid.name})"


def check_lifting_hypothesis(G: FiniteGroupoid, pi: dict, H: FiniteGroupoid):
    """Composable images must come only from composable preimages.

    pi maps G into H; an image's endpoints are read off the image itself.
    Returns None when the pushforward is safe, else the first offending pair
    (a, b) in element order.  Each a scans only the b whose image's range is
    the source of pi[a], not all of G.
    """
    by_range: dict = {}
    for b in G.elements:
        by_range.setdefault(pi[b].x, []).append(b)
    return next(((a, b) for a in G.elements for b in by_range.get(pi[a].y, ())
                 if not G.is_composable(a, b)), None)


def pushforward(f: ConvolutionElement, pi: dict, H: FiniteGroupoid) -> ConvolutionElement:
    """Sum coefficients over the fibers of the element map.

    Run check_lifting_hypothesis first so that the result is guaranteed
    multiplicative.
    """
    out: dict = {}
    for g, v in f._coeffs.items():
        k = pi[g]
        out[k] = out[k] + v if k in out else v
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

    block: tuple
    labels: dict
    kernel: tuple
    complement_defect: tuple  # kernel arrows where z off-coords differ from exit-time gap
    levels: dict


def kernel_filtration(G: SemidirectGroupoid, coords, level_bound=None) -> KernelFiltration:
    """Restrict to the carrier block of a coordinate set and stratify the kernel.

    The cocycle reads off the translation part on the given coordinates; its
    kernel is filtered by how large a shared witness the two points need
    once the finite directions are exhausted.  Levels are computed twice,
    from the raw two-witness description and from the exit-time-shifted one,
    and both must coincide for compatibility-certified systems.  A coordinate
    outside 1..rank, or a level_bound of another length, is a ConfigError.
    """
    sys = G.system
    r = sys.rank
    J = frozenset(coords)
    if not J <= frozenset(range(1, r + 1)):
        raise ConfigError(f"coordinates {tuple(coords)} leave 1..{r}, the system's rank")
    jc = [j for j in range(1, r + 1) if j not in J]
    js = sorted(J)
    wb = G.witness_bound
    if level_bound is None:
        level_bound = tuple(wb.coord(j) for j in js)
    elif len(level_bound) != len(js):
        raise ConfigError(f"level_bound {tuple(level_bound)} needs one entry per coordinate of {tuple(js)}")
    block = sys.xj_partition()[J]
    blockset = set(block)
    restricted = [g for g in G.elements if g.x in blockset and g.y in blockset]
    labels = {g: tuple(g.z[j - 1] for j in js) for g in restricted}
    kernel = tuple(g for g in restricted if not any(labels[g]))

    exits = {x: [sys.exit_time(x).coord(j) for j in jc] for x in block}  # finite off J, by the block

    # each kernel arrow's first off coordinate whose translation is not the exit-time gap
    firsts = ((g, next((j for j, a, b in zip(jc, exits[g.x], exits[g.y]) if g.z[j - 1] != a - b), None))
              for g in kernel)
    defect = tuple((g, j) for g, j in firsts if j is not None)

    def place(on_j, off_j):
        # exponent: on_j on the filtration coordinates, off_j on the others
        full = [0] * r
        for j, c in itertools.chain(zip(js, on_j), zip(jc, off_j)):
            full[j - 1] = c
        return Shape._make(tuple(full))

    kernel_pairs = {(g.x, g.y) for g in kernel}
    free = list(itertools.product(*[range(wb.coord(j) + 1) for j in jc]))
    levels = {}
    for N in itertools.product(*[range(b + 1) for b in level_bound]):
        tops = list(itertools.product(*[range(c + 1) for c in N]))
        # raw form: two witnesses agreeing (and bounded by N) on the filtration coords
        raw = [pair for t in tops for pair in itertools.product([place(t, a) for a in free], repeat=2)]
        direct = frozenset(p for p in kernel_pairs if any(sys.meets(*p, m, n) for m, n in raw))
        # shifted form: exit times fill the other coords on both sides
        at = {x: [place(t, e) for t in tops] for x, e in exits.items()}
        shifted = frozenset((x, y) for x, y in kernel_pairs if any(
            sys.meets(x, y, m, n) for m, n in zip(at[x], at[y])))
        levels[N] = (direct, shifted)

    return KernelFiltration(block, labels, kernel, defect, levels)


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
            if (g.x in s) != (g.y in s):
                raise ConfigError(f"subset {i} is not invariant: witness {g!r}")
    stages = build_sequence(IdealTuple(unit, sets))
    return tuple(tuple(x for x in unit if x in s.support) for s in stages)


def exit_time_subsets(sys: MGDS):
    """The r unit-space subsets where each coordinate's exit time is finite."""
    return from_mgds(sys).parts
