"""Support-level model of staged exact sequences built from r subsets.

An r-tuple of subsets of a finite base set stands in for an r-tuple of
ideals: sums become unions, intersections stay intersections, quotients
become set differences.  The staged sequence attached to a tuple is a list
of support sets, and exactness collapses to pointwise set identities that
can be checked exhaustively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ConfigError
from .reporting import CAP, Check


@dataclass(frozen=True)
class IdealTuple:
    """A finite base set together with r distinguished subsets."""

    points: frozenset
    parts: tuple

    def __init__(self, points, parts):
        points = frozenset(points)
        parts = tuple(frozenset(p) for p in parts)
        for i, part in enumerate(parts, start=1):
            if not part <= points:
                raise ConfigError(f"part {i} is not a subset of the base set: "
                                  f"{sorted(part - points)!r}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "parts", parts)

    @property
    def rank(self):
        return len(self.parts)

    def part(self, j):
        """The j-th subset, 1-based."""
        if not 1 <= j <= self.rank:
            raise ConfigError(f"part index {j} out of range 1..{self.rank}")
        return self.parts[j - 1]


@dataclass(frozen=True)
class SequenceStage:
    """One stage's support set; its position gives its role (kernel first, quotient last)."""

    support: frozenset


def build_sequence(tup: IdealTuple) -> tuple:
    """The r+2 stage supports of the sequence attached to an ideal tuple.

    Stage k keeps the points inside every part above k and outside every
    part below k; the two ends are the total intersection and the total
    complement.
    """
    r = tup.rank
    stages = []
    for k in range(r + 2):
        keep = tup.points
        for i in range(k + 1, r + 1):
            keep &= tup.part(i)
        drop = frozenset()
        for i in range(1, k):
            drop |= tup.part(i)
        stages.append(SequenceStage(keep - drop))
    return tuple(stages)


def verify_exactness(stages) -> Check:
    """Pointwise exactness of a staged sequence of supports.

    Checks stage containment at both ends, image-equals-kernel at every
    middle stage, and that the alternating indicator sum vanishes at every
    point.  Witnesses name the stage index and an offending point.
    """
    stages = tuple(stages)
    if len(stages) < 2:
        raise ConfigError("a staged sequence needs at least two stages")
    y = [s.support for s in stages]
    r = len(stages) - 2
    checks = []

    bad = y[0] - y[1]
    checks.append(Check("first-stage-contained", not bad,
                        ("stage", 0, sorted(bad)[:CAP]) if bad else None))
    for k in range(1, r + 1):
        image = y[k - 1] & y[k]
        kernel = y[k] - y[k + 1]
        diff = image ^ kernel
        checks.append(Check(f"image-is-kernel-{k}", not diff,
                            ("stage", k, sorted(diff)[:CAP]) if diff else None))
    bad = y[-1] - y[-2]
    checks.append(Check("last-stage-contained", not bad,
                        ("stage", r + 1, sorted(bad)[:CAP]) if bad else None))

    points = frozenset().union(*y)
    off = [x for x in points
           if sum((-1) ** k for k, s in enumerate(y) if x in s) != 0]
    checks.append(Check("alternating-sum", not off,
                        ("point", sorted(off)[:CAP]) if off else None))

    return Check("exactness", all(c.ok for c in checks), checks=tuple(checks))


def from_mgds(system) -> IdealTuple:
    """The ideal tuple a partial-map system induces on its carrier.

    Part j collects the points whose j-th exit time is finite; these are
    exactly the supports whose staged sequence matches the groupoid layer
    decomposition of the same system.
    """
    parts = []
    for j in range(1, system.rank + 1):
        parts.append(frozenset(
            x for x in system.carrier
            if j not in system.exit_time(x).infinite_support()))
    return IdealTuple(frozenset(system.carrier), tuple(parts))


def all_ideal_tuples(points, rank):
    """Every rank-r tuple over the given base set, for brute-force sweeps."""
    points = sorted(frozenset(points))
    subsets = [frozenset(c) for n in range(len(points) + 1)
               for c in itertools.combinations(points, n)]
    for parts in itertools.product(subsets, repeat=rank):
        yield IdealTuple(frozenset(points), parts)
