"""Grading vectors for rank-r objects.

A Shape is an element of N^r under the componentwise order; an ExtendedShape
allows the formal value INF in any coordinate.  Both are immutable and value
hashable.  Colors and coordinate labels are 1-based throughout the package;
plain sequence indexing stays 0-based.

The public constructors (Shape, ExtendedShape, make_shape) validate every
coordinate.  Arithmetic on valid shapes closes without validating again:
its results, and those of shapes_below and witness_pairs, are built by the
trusted constructor _make.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable

from .errors import ShapeError


class _Infinity:
    """The formal infinite coordinate value; use the module constant INF."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("_Infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __gt__(self, other):
        if isinstance(other, _Infinity):
            return False
        if isinstance(other, int):
            return True
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, _Infinity)):
            return True
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, _Infinity)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        # INF - finite stays INF; INF - INF has no consistent value here.
        if isinstance(other, int):
            return self
        raise ShapeError("cannot subtract inf from inf")


INF = _Infinity()


def _coerce_coord(c, allow_inf):
    if isinstance(c, _Infinity):
        if not allow_inf:
            raise ShapeError("finite shape cannot hold inf")
        return INF
    if isinstance(c, bool) or not isinstance(c, int):
        raise ShapeError(f"shape coordinate must be a nonnegative int or inf, got {c!r}")
    if c < 0:
        raise ShapeError(f"shape coordinate must be nonnegative, got {c}")
    return c


class ExtendedShape:
    """Vector in (N ∪ {INF})^r with componentwise algebra."""

    __slots__ = ("coords",)
    _allow_inf = True

    def __init__(self, *coords):
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        if not coords:
            raise ShapeError("shape needs at least one coordinate")
        object.__setattr__(
            self, "coords", tuple(_coerce_coord(c, self._allow_inf) for c in coords)
        )

    @classmethod
    def _make(cls, coords: tuple):
        """Trusted constructor: coords is a tuple of valid coordinates for cls, not checked again."""
        s = object.__new__(cls)
        object.__setattr__(s, "coords", coords)
        return s

    @staticmethod
    def _closed(coords: tuple):
        """The result of arithmetic over coords: make_shape's class, unchecked."""
        return (ExtendedShape if INF in coords else Shape)._make(coords)

    def __setattr__(self, name, value):
        raise AttributeError("shapes are immutable")

    # -- basic container protocol -------------------------------------------

    @property
    def rank(self):
        return len(self.coords)

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def coord(self, j):
        """Coordinate at 1-based position j."""
        if not 1 <= j <= len(self.coords):
            raise ShapeError(f"coordinate index {j} out of range 1..{len(self.coords)}")
        return self.coords[j - 1]

    def __repr__(self):
        return "(" + ",".join(repr(c) for c in self.coords) + ")"

    def __eq__(self, other):
        if isinstance(other, ExtendedShape):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    # -- algebra -------------------------------------------------------------

    def _check_rank(self, other):
        if not isinstance(other, ExtendedShape):
            raise ShapeError(f"expected a shape, got {other!r}")
        if len(self.coords) != len(other.coords):
            raise ShapeError(f"rank mismatch: {self} vs {other}")

    def __add__(self, other):
        self._check_rank(other)
        return self._closed(tuple(map(operator.add, self.coords, other.coords)))

    def __sub__(self, other):
        """Componentwise difference; requires other <= self and other finite."""
        self._check_rank(other)
        if not other.is_finite:
            raise ShapeError(f"subtrahend must be finite: {other}")
        if not other <= self:
            raise ShapeError(f"cannot subtract {other} from {self}: not dominated")
        return self._closed(tuple(map(operator.sub, self.coords, other.coords)))

    def __mul__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return self._closed(tuple(c if c is INF else c * k for c in self.coords))

    __rmul__ = __mul__

    def join(self, other):
        """Componentwise maximum."""
        self._check_rank(other)
        return self._closed(tuple(
            b if b is INF or (a is not INF and a < b) else a
            for a, b in zip(self.coords, other.coords)
        ))

    def meet(self, other):
        """Componentwise minimum."""
        self._check_rank(other)
        return self._closed(tuple(
            a if b is INF or (a is not INF and a <= b) else b
            for a, b in zip(self.coords, other.coords)
        ))

    def __or__(self, other):
        return self.join(other)

    def __and__(self, other):
        return self.meet(other)

    def __le__(self, other):
        self._check_rank(other)
        return all(map(operator.le, self.coords, other.coords))

    def __lt__(self, other):
        return self <= other and self.coords != other.coords

    def diff(self, other):
        """self - other as a plain integer tuple; both must be finite, no order assumed."""
        self._check_rank(other)
        if not (self.is_finite and other.is_finite):
            raise ShapeError(f"diff needs finite shapes: {self}, {other}")
        return tuple(a - b for a, b in zip(self.coords, other.coords))

    # -- predicates and projections ------------------------------------------

    @property
    def is_finite(self):
        return not any(isinstance(c, _Infinity) for c in self.coords)

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def infinite_support(self):
        """1-based coordinates holding INF, as a frozenset."""
        return frozenset(j for j, c in enumerate(self.coords, start=1) if isinstance(c, _Infinity))


class Shape(ExtendedShape):
    """Vector in N^r; arithmetic closes back into Shape whenever finite."""

    __slots__ = ()
    _allow_inf = False

    @classmethod
    def zero(cls, rank):
        if rank < 1:
            raise ShapeError("shape needs at least one coordinate")
        return cls._make((0,) * rank)

    @classmethod
    def unit(cls, rank, j):
        """The j-th coordinate vector, j 1-based."""
        if not 1 <= j <= rank:
            raise ShapeError(f"unit index {j} out of range 1..{rank}")
        return cls._make(tuple(1 if i == j else 0 for i in range(1, rank + 1)))


def make_shape(coords: Iterable) -> ExtendedShape:
    """Build a Shape when every coordinate is finite, else an ExtendedShape."""
    coords = tuple(coords)
    if any(isinstance(c, _Infinity) for c in coords):
        return ExtendedShape(*coords)
    return Shape(*coords)


def shapes_below(bound: Shape):
    """All finite shapes n with 0 <= n <= bound, in lexicographic order."""
    if not bound.is_finite:
        raise ShapeError(f"bound must be finite: {bound}")
    for coords in itertools.product(*(range(c + 1) for c in bound.coords)):
        yield Shape._make(coords)


def witness_pairs(bound: Shape, z):
    """Candidate witnesses (m, n) of a translation z: m <= bound, n = m - z >= 0.

    z is a tuple of ints, one per coordinate; m runs in shapes_below order."""
    if not all(isinstance(c, int) for c in z):
        raise ShapeError(f"translation coordinates must be ints, got {tuple(z)}")
    for m in shapes_below(bound):
        coords = tuple(map(operator.sub, m.coords, z))
        if all(c >= 0 for c in coords):
            yield m, Shape._make(coords)
