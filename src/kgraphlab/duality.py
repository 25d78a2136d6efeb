"""Two-coordinate covering picture over the path-space dynamics.

This module houses the boundary side of the package: eventually periodic
infinite paths in a diagonal canonical form, the unit-shift systems on
path spaces and boundaries, the paired points (finite path, infinite
continuation) carrying two commuting families of shifts (all three
systems built by MGDS.closure), the covering map onto (shape, infinite
path) data with its inverse phi_section, so that fiber lifts are unique
and built constructively, the two-sided shift on doubly infinite words,
and the lattice-translation twist on groupoid elements.

Everything is exact and runs on ids of the graph's PathTable: an infinite
path is canonicalized once per distinct (prefix id, cycle id), so its
equality compares a graph and an id pair, shifts join and split ids, and
every check here is a finite computation.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .dynsys import MGDS
from .errors import ConfigError, DomainError, NotComposable, WitnessError
from .groupoid import GroupoidElement
from .kgraph import Path, factorize
from .shapes import INF, ExtendedShape, Shape, as_shape, ranked_shape, shapes_below, witness_pairs

__all__ = [
    "RationalInfinitePath",
    "ZPoint",
    "boundary_points",
    "shift_infinite",
    "path_space_system",
    "boundary_subsystem",
    "t_shift",
    "v_shift",
    "zpoint_system",
    "phi",
    "phi_section",
    "s_shift",
    "w_shift",
    "lift_fiber",
    "two_sided_shift",
    "two_sided_shift_inverse",
    "two_sided_cocycle",
    "theta_twist",
    "theta_untwist",
]


# -- rational infinite paths -----------------------------------------------------


def _canonical(table, p: int, c: int) -> tuple[int, int]:
    """The diagonal canonical form of the ids p.c.c... of table, as an id pair; see
    RationalInfinitePath."""
    coords, join, factor = table.coords, table.join, table.factor
    s = coords[c]
    ones, start = (1,) * len(s), (max(coords[p]),) * len(s)  # least diagonal grade above p
    top = tuple(map(operator.add, start, s))
    word = p
    while not all(map(operator.le, top, coords[word])):
        word = join(word, c)
    head, block = factor(factor(word, top)[0], start)
    blocks = []
    while table.words[head]:
        d, head = factor(head, ones)
        blocks.append(d)
    first_seen: dict[int, int] = {}
    while block not in first_seen:
        first_seen[block] = len(blocks)
        d, rest = factor(join(block, block), ones)
        blocks.append(d)
        block = factor(rest, s)[0]
    lo, hi = first_seen[block], len(blocks)
    while lo and blocks[lo - 1] == blocks[hi - 1]:
        lo, hi = lo - 1, hi - 1
    return (functools.reduce(join, blocks[:lo], table.vertex(table.targets[p])),
            functools.reduce(join, blocks[lo:hi]))


class RationalInfinitePath:
    """Eventually periodic infinite path prefix.cycle.cycle...

    The cycle returns to its own left end, meets the prefix's right end,
    and has strictly positive shape in every color, so shifts of every
    color stay defined forever.

    Construction replaces the pair by its diagonal canonical form, kept as
    ids of the graph's PathTable, which gives each path one id: two
    instances are equal exactly when they live on the same graph object and
    have the same (prefix id, cycle id).  The hash, computed once, reads the
    form's words and not its ids, which depend on the table's history.  The
    argument for the form: let N = (1,...,1) and cut the path x into
    diagonal blocks d_i = x(iN, (i+1)N).  The heads x(0, iN) are cofinal, so
    x and its block sequence determine each other.  Once iN dominates the
    prefix shape, the tail of x at iN is s-periodic, s being the cycle
    shape; an s-periodic path is B.B.B... for its block B = tail(0, s), so
    two of them are equal exactly when their blocks are.  Since N <= s, the
    next tail has block (B.B)(N, N + s), and d_i = (B.B)(0, N).  Iterating
    over the finitely many paths of shape s, the first repeated block closes
    the least period of the tails, hence of the block sequence.  Rotating
    trailing pre-period blocks into the period while each matches the
    period's last block then gives the least pre-period.  The canonical
    prefix is the composite of the pre-period blocks (the vertex x(0) if
    there are none), the canonical cycle the composite of the period blocks;
    both depend only on x.  On the flip graph, the point with periods (2, 1)
    and (1, 2) gets a (3, 3) cycle.
    """

    __slots__ = ("graph", "ids", "_hash")

    def __init__(self, prefix: Path, cycle: Path):
        if prefix.graph is not cycle.graph:
            raise ConfigError("prefix and cycle must live on the same graph")
        self._set(prefix.graph._table, prefix._id, cycle._id)

    @classmethod
    def _of(cls, table, p: int, c: int) -> RationalInfinitePath:
        """The path p.c.c... of ids of table, checked and canonicalized as by the constructor."""
        return cls.__new__(cls)._set(table, p, c)

    def _set(self, table, p, c):
        sources, targets, coords = table.sources, table.targets, table.coords
        if sources[c] != targets[c]:
            raise NotComposable(f"cycle must return to its start: {targets[c]} -> {sources[c]}")
        if sources[p] != targets[c]:
            raise NotComposable(f"prefix ends at {sources[p]}, cycle starts at {targets[c]}")
        if min(coords[c]) < 1:
            raise ConfigError(f"cycle shape {coords[c]} must be strictly positive in every color")
        canon = table.canonical.get((p, c))
        if canon is None:
            canon = table.canonical[p, c] = _canonical(table, p, c)
        p, c = self.ids = canon
        self.graph = table.graph
        self._hash = hash((targets[p], table.words[p], table.words[c]))
        return self

    @property
    def prefix(self) -> Path:
        return self.graph._table.path(self.ids[0])

    @property
    def cycle(self) -> Path:
        return self.graph._table.path(self.ids[1])

    @property
    def rank(self) -> int:
        return self.graph.rank

    @property
    def target(self) -> str:
        """Vertex at the finite (grade zero) end."""
        return self.graph._table.targets[self.ids[0]]

    @property
    def shape(self) -> ExtendedShape:
        return ExtendedShape((INF,) * self.rank)

    def _cut(self, k) -> tuple[int, int]:
        """(head id, tail id) at grade k, a Shape or tuple of the graph's rank: the split of
        prefix.cycle^n, n the fewest copies whose shape dominates k."""
        k, table, (word, c) = ranked_shape(k, self.rank).coords, self.graph._table, self.ids
        copies = 0
        for p, s, b in zip(table.coords[word], table.coords[c], k):
            if b > p:
                copies = max(copies, -((p - b) // s))  # ceil((b - p) / s)
        for _ in range(copies):
            word = table.join(word, c)
        return table.factor(word, k)

    def head(self, k: Shape) -> Path:
        """The finite head of shape k."""
        return self.graph._table.path(self._cut(k)[0])

    def __eq__(self, other):
        if not isinstance(other, RationalInfinitePath):
            return NotImplemented
        return self.ids == other.ids and self.graph is other.graph

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<{self.prefix.display()}|({self.cycle.display()})^inf>"


def shift_infinite(k: Shape, y: RationalInfinitePath) -> RationalInfinitePath:
    """Drop the grade-k head; the shift of every color is total on rational paths."""
    return RationalInfinitePath._of(y.graph._table, y._cut(k)[1], y.ids[1])


def boundary_points(graph, *, prefix_cap: Shape | None = None,
                    cycle_cap: Shape | None = None) -> list:
    """Every rational infinite path with prefix and cycle inside the caps.

    Deduplicated semantically, so each point appears once no matter how
    many (prefix, cycle) pairs inside the window present it.  A graph
    with no strictly positive cycles (a grid, say) yields the empty list.
    """
    rank = graph.rank
    if prefix_cap is None:
        prefix_cap = Shape.zero(rank)
    if cycle_cap is None:
        cycle_cap = Shape((1,) * rank)
    points, seen = [], set()
    for prefix in graph.all_paths(prefix_cap):
        v = prefix.source
        for shape in shapes_below(cycle_cap):
            if any(c < 1 for c in shape.coords):
                continue
            for cycle in graph.enumerate_paths(shape, source=v, target=v):
                y = RationalInfinitePath(prefix, cycle)
                if y not in seen:
                    seen.add(y)
                    points.append(y)
    points.sort(key=lambda y: (y.prefix.sort_key(), y.cycle.sort_key()))
    return points


def _unit_maps(letter: str, shift, rank: int) -> list:
    """The generators (letter + j, shift by the color-j unit shape) for j = 1..rank."""
    return [(f"{letter}{j}", functools.partial(shift, Shape.unit(rank, j)))
            for j in range(1, rank + 1)]


def _drop_head(k: Shape, p: Path) -> Path:
    """The path-space shift: drop the grade-k head of a finite path, undefined below k."""
    if not k <= p.shape:
        raise DomainError(f"no shift by {k}: {p!r} has shape {p.shape}", point=p)
    return factorize(p, k)[1]


def path_space_system(graph, cap: Shape) -> MGDS:
    """Paths of shape at most cap, shifted by peeling unit heads off the target end.

    The window is closed under the shifts, so the carrier is
    graph.all_paths(cap) in its order.
    """
    rep = graph.validate(cap)
    if not rep.ok:
        raise ConfigError(f"graph {graph.name} fails validation: {rep.failing()[0].name}")
    return MGDS.closure(f"paths({graph.name})<= {tuple(cap)}", graph.all_paths(cap),
                        _unit_maps("T", _drop_head, graph.rank))


def boundary_subsystem(graph, prefix_cap: Shape | None = None, cycle_cap: Shape | None = None) -> MGDS:
    """Restriction to the eventually periodic infinite stand-ins alone.

    Requires every vertex to receive an edge of every color, so the shifts
    stay total and no finite path would belong to the boundary.  The
    carrier is boundary_points within the caps, closed under the shifts.
    """
    for v in graph.vertices:
        for j in range(1, graph.rank + 1):
            if not graph.enumerate_paths(Shape.unit(graph.rank, j), target=v):
                raise ConfigError(f"vertex {v} of {graph.name} receives no color-{j} edge; "
                                  "its boundary would contain finite paths")
    pts = boundary_points(graph, prefix_cap=prefix_cap, cycle_cap=cycle_cap)
    return MGDS.closure(f"boundary({graph.name})", pts,
                        _unit_maps("T", shift_infinite, graph.rank))


# -- paired points and their two shift families ----------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class ZPoint:
    """Finite path glued to an infinite continuation at its right end; equal when x has
    the same id and y is equal, hashed once from x's word and y's hash."""

    x: Path
    y: RationalInfinitePath

    def __post_init__(self):
        if self.x.graph is not self.y.graph:
            raise ConfigError("the two coordinates must live on the same graph")
        if self.x.source != self.y.target:
            raise NotComposable(
                f"x ends at {self.x.source} but y starts at {self.y.target}"
            )
        object.__setattr__(self, "_hash", hash((self.x, self.y)))

    @property
    def rank(self) -> int:
        return self.x.graph.rank

    @functools.cached_property
    def composite(self) -> RationalInfinitePath:
        """The glued infinite path x.y, built once per point."""
        table, (p, c) = self.y.graph._table, self.y.ids
        return RationalInfinitePath._of(table, table.join(self.x._id, p), c)

    def __eq__(self, other):
        if not isinstance(other, ZPoint):
            return NotImplemented
        return self.y == other.y and self.x._id == other.x._id

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"({self.x.display()}, {self.y!r})"


def t_shift(m: Shape, z: ZPoint) -> ZPoint:
    """Move the grade-m tail of x across the seam onto y; needs sigma(x) >= m."""
    m, x = as_shape(m), z.x
    if not m <= x.shape:
        raise DomainError(f"no t-shift by {m}: x has shape {x.shape}")
    table, (p, c) = x.graph._table, z.y.ids
    head, tail = table.factor(x._id, tuple(map(operator.sub, table.coords[x._id], m.coords)))
    return ZPoint(table.path(head), RationalInfinitePath._of(table, table.join(tail, p), c))


def v_shift(m: Shape, z: ZPoint) -> ZPoint:
    """Slide the window forward: append the grade-m head of y to x, then drop
    the grade-m head of the extended x.  Total, and preserves sigma(x)."""
    y, table = z.y, z.y.graph._table
    head, tail = y._cut(m)
    extended = table.join(z.x._id, head)
    return ZPoint(table.path(table.factor(extended, table.coords[head])[1]),
                  RationalInfinitePath._of(table, tail, y.ids[1]))


def zpoint_system(graph, seeds) -> MGDS:
    """Dynamical system on paired points: generators T1..Tr then V1..Vr.

    The carrier is the full forward closure of the seeds, which is finite:
    the slide maps preserve sigma(x) and rational tails recur, while the
    seam maps strictly shrink sigma(x).  Working with the closed carrier
    keeps every domain honest, so commutation and domain checks measure
    the maps themselves and not the sampling window.
    """
    maps = _unit_maps("T", t_shift, graph.rank) + _unit_maps("V", v_shift, graph.rank)
    return MGDS.closure(f"zcover({graph.name})", seeds, maps)


# -- the covering map and its fibers ----------------------------------------------


def phi(z: ZPoint) -> tuple:
    """Covering data of a paired point: (sigma(x), the glued infinite path)."""
    return (z.x.shape, z.composite)


def phi_section(pair) -> ZPoint:
    """The unique paired point with the given covering data.

    Splits the infinite path at the recorded grade, a Shape or coordinate
    tuple (an INF entry raises ShapeError); phi_section(phi(z)) == z and
    phi(phi_section(p)) == p, so the covering map is a bijection on
    rational data.
    """
    n, w = pair
    table, (head, tail) = w.graph._table, w._cut(n)
    return ZPoint(table.path(head), RationalInfinitePath._of(table, tail, w.ids[1]))


def s_shift(m: Shape, pair) -> tuple:
    """Grade-side shift on covering data: subtract m, keep the path."""
    n, w = pair
    m, n = as_shape(m), as_shape(n)
    if not m <= n:
        raise DomainError(f"no grade shift by {m} at grade {n}")
    return (n - m, w)


def w_shift(k: Shape, pair) -> tuple:
    """Path-side shift on covering data: keep the grade, drop the grade-k head."""
    n, w = pair
    return (as_shape(n), shift_infinite(k, w))


def _apply_word(z: ZPoint, m: Shape, rank: int) -> ZPoint:
    return v_shift(Shape(m.coords[rank:]), t_shift(Shape(m.coords[:rank]), z))


def lift_fiber(z: ZPoint, target: GroupoidElement) -> GroupoidElement:
    """The unique arrow out of z covering a given arrow out of phi(z).

    ``target`` is a GroupoidElement over covering data whose source is
    phi(z) and whose cocycle has one coordinate per seam map followed by
    one per slide map; an arrow of the paired-point groupoid stands for its
    image under phi.  The range point is reconstructed by splitting the
    range data, then a witness pair certifying the arrow is found among
    shapes up to 2 in all 2r coordinates.  A valid target always lifts;
    exhausting that bound means a bug or a model gap and raises loudly.

    The lift is unique because phi is injective, so a window needs no
    uniqueness check.  Say arrows g = (x, z, y) and g' = (x', z', y') of a
    paired-point window cover one arrow: then z = z', phi(x) = phi(x') and
    phi(y) = phi(y').  Since phi_section(phi(p)) == p, x = x' and y = y'.
    An arrow is its triple, and the build keeps each triple once, so g = g'.
    """
    range_pair, cocycle, source_pair = target.x, target.z, target.y
    if isinstance(range_pair, ZPoint):  # arrow of the paired-point groupoid
        range_pair, source_pair = phi(range_pair), phi(source_pair)
    rank = z.rank
    if len(cocycle) != 2 * rank:
        raise ConfigError(
            f"cocycle {cocycle} should have {2 * rank} coordinates (seam then slide)"
        )
    if tuple(source_pair) != phi(z):
        raise ConfigError("target arrow does not start at the covering data of z")
    lifted = phi_section(range_pair)
    witness_bound = Shape((2,) * (2 * rank))
    for m, n_wit in witness_pairs(witness_bound, cocycle):
        try:
            left = _apply_word(lifted, m, rank)
            right = _apply_word(z, n_wit, rank)
        except DomainError:
            continue
        if left == right:
            return GroupoidElement(lifted, tuple(cocycle), z, witness=(m, n_wit))
    raise WitnessError(
        f"no lift of cocycle {cocycle} over the covering data of {z!r} "
        f"within witness bound {witness_bound}: bug or model gap"
    )


# -- two-sided words and the lattice twist ----------------------------------------


def _pivot_check(p) -> tuple:
    x, y = p
    if x.rank != y.rank:
        raise ConfigError("the two sides must have the same rank")
    if x.target != y.target:
        raise NotComposable(
            f"sides meet at different vertices: {x.target} and {y.target}"
        )
    return x, y


def two_sided_shift(k: int, p) -> tuple:
    """Move one color-k edge across the pivot of a doubly infinite word.

    ``p`` is (x, y): x an infinite path and y an infinite path of the
    reversed graph, meeting at a shared pivot vertex.  The head edge of
    color k moves from x onto y (by its shared name), so the pivot slides
    one step into x.  Total on every such pair, and inverted exactly by
    two_sided_shift_inverse, which is the set-level content of the
    two-sided shift being a bisection with cocycle two_sided_cocycle.
    """
    x, y = _pivot_check(p)
    if not 1 <= k <= x.rank:
        raise ConfigError(f"color {k} out of range 1..{x.rank}")
    table, (head, tail) = y.graph._table, x._cut(Shape.unit(x.rank, k))
    hop = y.graph.path(x.graph._table.path(head).word)._id
    return (RationalInfinitePath._of(x.graph._table, tail, x.ids[1]),
            RationalInfinitePath._of(table, table.join(hop, y.ids[0]), y.ids[1]))


def two_sided_shift_inverse(k: int, p) -> tuple:
    """Move one color-k edge back across the pivot, from y onto x: the
    forward shift with the two sides swapped."""
    x, y = p
    return two_sided_shift(k, (y, x))[::-1]


def two_sided_cocycle(rank: int, k: int) -> tuple:
    """Lattice data of the color-k two-sided shift: the x side advances one
    color-k step while the y side retreats one."""
    if not 1 <= k <= rank:
        raise ConfigError(f"color {k} out of range 1..{rank}")
    forward = tuple(Shape.unit(rank, k).coords)
    return (forward, tuple(-c for c in forward))


def theta_twist(t, gamma: GroupoidElement) -> tuple:
    """Translate the lattice coordinate by the arrow's own cocycle.

    (t, gamma) -> (t + z(gamma), gamma) on pairs (lattice vector, arrow).
    Since cocycles add under composition this is an automorphism of the
    product: composable pairs map to composable pairs with matching
    composites, and theta_untwist inverts it.
    """
    t = tuple(t)
    if len(t) != len(gamma.z):
        raise ConfigError(f"vector {t} does not match cocycle {gamma.z}")
    return (tuple(a + b for a, b in zip(t, gamma.z)), gamma)


def theta_untwist(t, gamma: GroupoidElement) -> tuple:
    """Inverse translation: (t, gamma) -> (t - z(gamma), gamma)."""
    t = tuple(t)
    if len(t) != len(gamma.z):
        raise ConfigError(f"vector {t} does not match cocycle {gamma.z}")
    return (tuple(a - b for a, b in zip(t, gamma.z)), gamma)
