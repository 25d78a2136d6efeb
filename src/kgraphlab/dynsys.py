"""Commuting partial-map systems on finite carriers.

A system is a finite point set together with finitely many partial self-maps
that commute pairwise (equal domains and equal values for both composition
orders).  Composite powers indexed by shapes, the joint-domain compatibility
check, exit times, and the partition of the carrier by which coordinates can
be shifted forever all live here, along with the closure builder that
generates a carrier from seeds and the stock carriers used throughout the
test suite: integer grids, a two-sided word system, and plain product
systems.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .errors import ConfigError, DomainError
from .reporting import Check
from .shapes import INF, ExtendedShape, Shape, shapes_below


class PartialMap:
    """Partial self-map of a finite point set, stored as an explicit table.

    Equality compares graphs (the tables), not names.  Applying the map
    outside its domain raises DomainError; there is no silent default.
    """

    __slots__ = ("name", "_table")

    def __init__(self, name: str, table: dict):
        self.name = name
        self._table = dict(table)

    @classmethod
    def identity(cls, points: Iterable):
        return cls("id", {x: x for x in points})

    def defined_at(self, x) -> bool:
        return x in self._table

    def __call__(self, x):
        try:
            return self._table[x]
        except KeyError:
            raise DomainError(f"{self.name} is undefined at {x!r}", point=x) from None

    def domain(self) -> frozenset:
        return frozenset(self._table)

    def codomain_points(self) -> frozenset:
        return frozenset(self._table.values())

    def compose(self, other: "PartialMap") -> "PartialMap":
        # dom(self after other) = {x in dom(other): other(x) in dom(self)}
        table = {
            x: self._table[y] for x, y in other._table.items() if y in self._table
        }
        return PartialMap(f"{self.name}*{other.name}", table)

    def __eq__(self, other):
        if not isinstance(other, PartialMap):
            return NotImplemented
        return self._table == other._table

    def __len__(self):
        return len(self._table)

    def __repr__(self):
        return f"PartialMap({self.name}: {len(self._table)} points)"


def _orbit(T: PartialMap, x) -> tuple[int, bool]:
    """Steps T takes from x until it is undefined or revisits a point; whether it revisited."""
    seen = {x}
    cur, steps = x, 0
    while T.defined_at(cur):
        cur = T(cur)
        steps += 1
        if cur in seen:
            return steps, True
        seen.add(cur)
    return steps, False


class MGDS:
    """Finitely many commuting partial maps acting on one finite carrier.

    Immutable after construction; power tables and exit times are cached.
    Generators are 1-based in every public signature, matching shape
    coordinates.
    """

    def __init__(self, name: str, carrier: Iterable, generators, *, check: bool = True):
        self.name = name
        self.carrier = tuple(dict.fromkeys(carrier))
        self._carrier_set = frozenset(self.carrier)
        self.generators = tuple(generators)
        if not self.generators:
            raise ConfigError("a system needs at least one generator")
        for T in self.generators:
            stray = (T.domain() | T.codomain_points()) - self._carrier_set
            if stray:
                raise ConfigError(
                    f"map {T.name} of system {name} leaves the carrier: {sorted(map(repr, stray))[:3]}"
                )
        self._powers: dict = {}
        self._exit: dict = {}
        if check:
            rep = self.check_commuting()
            if not rep.ok:
                i, j, x = rep.witness
                raise ConfigError(
                    f"generators {i} and {j} of system {name} do not commute at {x!r}"
                )

    @classmethod
    def closure(cls, name: str, seeds: Iterable, maps) -> "MGDS":
        """The system of the named maps on the forward closure of the seeds.

        maps: (name, f) pairs in generator order, each f raising DomainError
        where it is undefined.  The carrier lists the seeds first,
        deduplicated and in order, then new points breadth first in the
        order they are first reached, the maps tried in generator order.
        """
        maps = tuple(maps)
        carrier = list(dict.fromkeys(seeds))
        seen = set(carrier)
        tables = [{} for _ in maps]
        for x in carrier:  # the loop reaches the points appended below: breadth first
            for table, (_, f) in zip(tables, maps):
                try:
                    y = table[x] = f(x)
                except DomainError:
                    continue
                if y not in seen:
                    seen.add(y)
                    carrier.append(y)
        return cls(name, carrier, [PartialMap(n, t) for (n, _), t in zip(maps, tables)])

    @property
    def rank(self) -> int:
        return len(self.generators)

    def check_commuting(self) -> Check:
        """Both composition orders of every generator pair must agree as partial maps.

        The witness is (i, j, x): a 1-based generator pair and the point
        where the two orders disagree.
        """
        for i in range(1, self.rank + 1):
            for j in range(i + 1, self.rank + 1):
                a = self.generators[i - 1].compose(self.generators[j - 1])
                b = self.generators[j - 1].compose(self.generators[i - 1])
                if a == b:
                    continue
                for x in self.carrier:
                    da, db = a.defined_at(x), b.defined_at(x)
                    if da != db or (da and a(x) != b(x)):
                        return Check("commuting", False, (i, j, x))
        return Check("commuting", True)

    def power(self, n: Shape) -> PartialMap:
        """The composite map indexed by a shape or its coordinates; T^0 is the identity.

        The table is keyed by coordinate tuple.  Only a miss checks the rank:
        a key in the table has passed that check already.
        """
        n = Shape(n) if not isinstance(n, Shape) else n
        cached = self._powers.get(n.coords)
        if cached is None:
            if n.rank != self.rank:
                raise ConfigError(f"shape rank {n.rank} does not match system rank {self.rank}")
            cur = PartialMap.identity(self.carrier)
            for j, count in enumerate(n, start=1):
                for _ in range(count):
                    cur = self.generators[j - 1].compose(cur)
            cur.name = f"T^{n.coords}"
            cached = self._powers[n.coords] = cur
        return cached

    def meets(self, x, y, m: Shape, n: Shape) -> bool:
        """Whether T^m x = T^n y with both sides defined: (m, n) witnesses an arrow from y to x."""
        pm, pn = self.power(m)._table, self.power(n)._table
        return x in pm and y in pn and pm[x] == pn[y]

    def domain(self, n: Shape) -> frozenset:
        return self.power(n).domain()

    def exit_time(self, x) -> ExtendedShape:
        """Per coordinate, how many times the generator applies starting at x.

        A revisited point means the generator can be applied forever, so that
        coordinate is infinite.  Intrinsic to the carrier: no truncation
        bookkeeping is consulted.
        """
        if x not in self._carrier_set:
            raise DomainError(f"{x!r} is not a carrier point of {self.name}", point=x)
        cached = self._exit.get(x)
        if cached is None:
            orbits = (_orbit(T, x) for T in self.generators)
            coords = [INF if periodic else steps for steps, periodic in orbits]
            cached = self._exit[x] = ExtendedShape(coords)
        return cached

    def exit_bound(self) -> Shape:
        """Componentwise maximum orbit span over the carrier.

        The span of a point under one generator is its finite exit time, or
        the number of steps until the first revisit where the orbit is
        periodic.  Default search bound for the compatibility check and for
        groupoid witnesses: large enough to see both every finite domain and
        every period.
        """
        return Shape([max((_orbit(T, x)[0] for x in self.carrier), default=0)
                      for T in self.generators])

    def first_pair_offence(self, bound: Shape, offenders):
        """The first (n, m, x) with x in offenders(n, m), or None.

        n runs over the shapes below the bound, m over those before n in
        shapes_below order; x is the first carrier point of the offending set.
        """
        shapes = list(shapes_below(bound))
        for a, n in enumerate(shapes):
            for m in shapes[:a]:
                bad = offenders(n, m)
                if bad:
                    return n, m, next(x for x in self.carrier if x in bad)
        return None

    def check_dc(self, bound: Shape | None = None) -> Check:
        """Joint-domain compatibility: dom(T^n) and dom(T^m) meet inside dom(T^(n join m)).

        Scans shape pairs below the bound (default: exit_bound) and reports
        the first violating triple (n, m, x): x lies in dom(T^n) and
        dom(T^m) but not in dom(T^(n join m)).  The info string names the
        bound scanned.
        """
        if bound is None:
            bound = self.exit_bound()
        dom = {n: self.domain(n) for n in shapes_below(bound)}

        def outside_join(n, m):
            if m <= n or n <= m:
                return ()  # join is the larger one, nothing to check
            return (dom[n] & dom[m]) - dom[n | m]

        witness = self.first_pair_offence(bound, outside_join)
        return Check("domain-compat", witness is None, witness, f"bound={tuple(bound.coords)}")

    def xj_partition(self) -> dict:
        """Split the carrier by the set of coordinates with infinite exit time.

        Every subset of {1..rank} appears as a key, possibly with an empty
        block.
        """
        blocks = {
            frozenset(J): []
            for size in range(self.rank + 1)
            for J in itertools.combinations(range(1, self.rank + 1), size)
        }
        for x in self.carrier:
            blocks[self.exit_time(x).infinite_support()].append(x)
        return {J: tuple(pts) for J, pts in blocks.items()}

    def __repr__(self):
        return f"MGDS({self.name}: rank {self.rank}, {len(self.carrier)} points)"


# -- stock systems ----------------------------------------------------------------------


def grid_system(rank: int, side: int) -> MGDS:
    """Points {0..side-1}^rank; generator j subtracts 1 from coordinate j where it can."""
    if rank < 1 or side < 1:
        raise ConfigError("grid needs positive rank and side")
    chain = (range(side), {i: i - 1 for i in range(1, side)})
    return product_system(f"grid{rank}x{side}", [chain] * rank)


def free_monoid_system(alphabet: str = "ab", maxlen: int = 3) -> MGDS:
    """Words of bounded length; one generator drops the first letter, the other the last.

    The standard source of joint-domain failure: both generators are defined
    on every nonvoid word, but their join needs length at least 2.
    """
    if maxlen < 1 or not alphabet:
        raise ConfigError("word system needs a nonempty alphabet and positive length cap")
    letters = sorted(set(alphabet))
    words = [""]
    for n in range(1, maxlen + 1):
        words.extend("".join(w) for w in itertools.product(letters, repeat=n))
    left = PartialMap("L", {w: w[1:] for w in words if w})
    right = PartialMap("R", {w: w[:-1] for w in words if w})
    return MGDS(f"words<= {maxlen}", words, [left, right])


def identity_system(points: Iterable, rank: int) -> MGDS:
    """Every generator acts as the identity; nothing is ever undefined."""
    pts = list(dict.fromkeys(points))
    gens = [PartialMap(f"T{j}", {x: x for x in pts}) for j in range(1, rank + 1)]
    return MGDS("identity", pts, gens)


def product_system(name: str, components) -> MGDS:
    """One independent partial map per coordinate, acting on a product carrier.

    components: per coordinate, a (points, table) pair.  Commutation is
    automatic and joint-domain compatibility always holds, because powers of
    a single map have nested domains.
    """
    comp = [(list(dict.fromkeys(pts)), dict(table)) for pts, table in components]
    pts = list(itertools.product(*[c[0] for c in comp]))
    gens = []
    for j, (_, table) in enumerate(comp):
        moved = {p: p[:j] + (table[p[j]],) + p[j + 1 :] for p in pts if p[j] in table}
        gens.append(PartialMap(f"T{j + 1}", moved))
    return MGDS(name, pts, gens)
