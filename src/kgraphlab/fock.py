"""Creation operators on the path-space basis of a colored graph.

The basis is a single shared vacuum symbol plus every path of nonzero shape.
Creations and annihilations by nonzero-shape paths are partial injections on
it, all four kinds one class, PathOperator(path, left, create); a creation
by a vertex is its span projection.  Every operator is in one normal form: a
partial map (a PathOperator, a span projection, or a Product of partial
maps, the empty one being the identity), or a Sum of (int coefficient,
partial map) terms.  A partial map sends a basis vector to at most one; a
sum adds its terms' images with their coefficients.  Nothing is ever
truncated: a shape bound only selects which vectors a checker visits, never
how an operator acts, so every reported identity is exact on the checked
vectors.

op.on(table) is op acting on whole lists of ids of a kgraph.PathTable
(the vacuum is VAC, zero is None): it maps a list of ids to the list of
their images.  A partial map's image is an id or None.  A sum's is None
when it is zero, the id itself when it is one id with coefficient 1, and
an {id: coefficient} dict otherwise, so equal vectors have equal images.
A creation by path p reads one inner dict of the table: p's left row
(x -> p·x) or right row (x -> x·p), mapping its __getitem__ over the ids,
so a repeat, the vacuum and None are answered without entering Python.
A strip by a path of shape m reads the head or tail column of m the same
way, and keeps the rest where the kept factor is the path.  So the
reports on a graph share its compositions and splits with each other and
with the path layer.  fock_basis keeps each basis there with its ids, once
per bound, and every evaluation, on a built basis or one the caller
supplies, runs in the table of its paths' graph and keeps there what it
made.

Conventions match the path calculus in kgraph: a path runs from its source
(right end) to its target (left end), and compose(p, q) requires
p.source == q.target.  Left creation prepends, right creation appends.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .errors import ConfigError, GraphError
from .kgraph import EMPTY, KGraph, Path
from .reporting import CAP
from .shapes import Shape, ranked_shape, shapes_below


class _Vacuum:
    """The shared vacuum basis symbol.  Not vertex-indexed; compare by identity."""

    __slots__ = ()

    def __repr__(self):
        return "<vacuum>"


VACUUM = _Vacuum()
VAC = EMPTY  # the vacuum's id in every table: a split's empty side, no vertex's


def fock_basis(graph: KGraph, bound: Shape) -> tuple:
    """The vacuum plus every nonzero-shape path with shape <= bound, kept in the graph's
    table with its ids once built."""
    bound, table = ranked_shape(bound, graph.rank), graph._table
    kept = table.bases.get(bound.coords)
    if kept is None:
        paths = _nonzero_paths(table, bound)
        kept = table.bases[bound.coords] = ((VACUUM, *paths), [VAC, *(p._id for p in paths)])
    return kept[0]


def _nonzero_paths(table, bound) -> list:
    """The graph's paths of every nonzero shape <= bound, shapes in lex order."""
    return [p for n in shapes_below(bound) if not n.is_zero for p in table.paths(n)]


def _ids(table, basis) -> list:
    """The ids of a sequence of basis elements in table, read from table.bases for a basis
    kept there; table is None only for a basis of the vacuum alone."""
    for kept, ids in table.bases.values() if table else ():
        if kept is basis:
            return ids
    return [VAC if b is VACUUM else table.id_of(b) for b in basis]


def _table_of(basis, ops):
    """The table of basis's first path's graph, else the operators'; None if neither has one."""
    first = next(itertools.chain((b for b in basis if b is not VACUUM),
                                 (p for op in ops for p in _operator_paths(op))), None)
    return None if first is None else first.graph._table


def _operator_paths(op) -> list:
    """The paths an operator creates or strips by, factor by factor."""
    if isinstance(op, PathOperator):
        return [op.path]
    factors = op.factors if isinstance(op, Product) else [t for _, t in op.terms if t is not op]
    return [p for f in factors for p in _operator_paths(f)]


def _strips(table, m, left):
    """The table's dict from an id x to the split (head id, tail id) of x whose head (on the
    left) or tail (on the right) has shape m, None where m does not fit, and the position,
    0 or 1, of that kept factor in the pair; the other holds the rest.

    The vacuum and None give None; an empty kept or rest is VAC.
    """
    return (table.head_columns if left else table.tail_columns)[m], 0 if left else 1


def _vector_out(table, image) -> dict:
    """An image as a {basis element: coefficient} vector."""
    vector = image if isinstance(image, dict) else {} if image is None else {image: 1}
    return {VACUUM if i == VAC else table.path(i): c for i, c in vector.items()}


class FockOperator:
    """Base of the two operator kinds, PartialMap and Sum.

    terms is a tuple of (int coefficient, partial map) pairs, and the algebra
    works on terms alone: k * op, + and - join term lists; * of two partial
    maps is their Product, and * with a Sum distributes as it is built.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("operators are immutable")

    def act(self, b) -> dict:
        """The image of one basis element as a {basis element: int} vector."""
        table = _table_of([b], [self])
        return _vector_out(table, self.on(table)(_ids(table, [b]))[0])

    def __mul__(self, other):
        if isinstance(other, FockOperator):
            return Sum((c * d, s * t) for c, s in self.terms for d, t in other.terms)
        return NotImplemented

    def __rmul__(self, k):
        return Sum((k * c, t) for c, t in self.terms)

    def __add__(self, other):
        if isinstance(other, FockOperator):
            return Sum(self.terms + other.terms)
        return NotImplemented

    def __sub__(self, other):
        return self + -1 * other


class PartialMap(FockOperator):
    """An operator sending each basis element to at most one, with coefficient 1.

    on(table) returns a function from a list of ids to the list of their
    images' ids, None where the map is undefined.  Subclasses also
    implement adjoint().
    """

    __slots__ = ()

    @property
    def terms(self):
        return ((1, self),)

    def __mul__(self, other):
        if isinstance(other, PartialMap):
            return Product((self, other))
        return super().__mul__(other)


class Sum(FockOperator):
    """A signed sum of partial maps: terms are (int coefficient, partial map) pairs.

    Zero terms are dropped when the sum is built.  on(table) adds the terms'
    images with their coefficients, dropping entries that cancel.  Two or
    more terms whose rightmost factors strip paths of one nonzero shape on
    one side add as one group, at the place of the first: each vector is
    split once, and only the terms whose path is the stripped factor go on.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple(terms)
        for c, t in terms:
            if not isinstance(c, int) or not isinstance(t, PartialMap):
                raise ConfigError(f"a sum term is an (int, partial map) pair, got {(c, t)!r}")
        object.__setattr__(self, "terms", tuple((c, t) for c, t in terms if c))

    def on(self, table):
        parts, groups = [], {}  # parts: in term order, the terms that add as one
        for c, t in self.terms:
            last = t.factors[-1] if isinstance(t, Product) and t.factors else t
            if isinstance(last, PathOperator) and not last.create:
                key = (last.path.shape.coords, last.left)
                if key not in groups:
                    parts.append(groups.setdefault(key, []))
                groups[key].append((c, t))
            else:
                parts.append([(c, t)])
        parts = [_term_adder(table, *terms[0]) if len(terms) == 1 else _group_adder(table, terms)
                 for terms in parts]

        def image(xs):
            out = [None] * len(xs)
            for add in parts:
                add(out, xs)
            return [_reduced(v) if type(v) is dict else v for v in out]

        return image

    def adjoint(self):
        return Sum((c, t.adjoint()) for c, t in self.terms)

    def __repr__(self):
        return "(" + " + ".join(f"{c}*{t!r}" for c, t in self.terms) + ")"


def _term_adder(table, c, t):
    image = t.on(table)
    return lambda out, xs: _add(out, range(len(xs)), image(xs), c)


def _group_adder(table, terms):
    """Terms whose rightmost factors strip paths of one shape on one side, as one adder.

    It strips each id once and hands the rest only to the terms whose path
    is the kept factor: any other term is zero there.
    """
    by_kept: dict[int, list] = {}  # kept id -> [(c, image of the factors left of it)]
    for c, t in terms:
        *rest, last = t.factors if isinstance(t, Product) else (t,)
        by_kept.setdefault(table.id_of(last.path), []).append((c, Product(rest).on(table)))
    strips, k = _strips(table, last.path.shape.coords, last.left)

    def add(out, xs):
        batches = {kept: ([], []) for kept in by_kept}  # positions, rest ids
        for n, s in enumerate(map(strips.__getitem__, xs)):
            if s is not None and s[k] in batches:
                at, rests = batches[s[k]]
                at.append(n)
                rests.append(s[1 - k])
        for kept, (at, rests) in batches.items():
            if at:
                for c, image in by_kept[kept]:
                    _add(out, at, image(rests), c)

    return add


def _add(out, positions, images, c):
    """Add c times each image id to the entry of out at its position."""
    for n, y in zip(positions, images):
        if y is not None:
            v = out[n]
            if v is None and c == 1:
                out[n] = y
            else:
                v = {} if v is None else {v: 1} if type(v) is int else v
                v[y] = v.get(y, 0) + c
                out[n] = v


def _reduced(vector: dict):
    """A sum's image in canonical form: None, a unit id, or a dict of nonzero entries."""
    vector = {i: c for i, c in vector.items() if c}
    if len(vector) == 1:
        (i, c), = vector.items()
        if c == 1:
            return i
    return vector or None


class Product(PartialMap):
    """Composition of partial maps, right to left as written; Product(()) is the identity."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        bad = next((f for f in factors if not isinstance(f, PartialMap)), None)
        if bad is not None:
            raise ConfigError(f"a product factor must be a partial map, got {bad!r}")
        object.__setattr__(self, "factors", factors)

    def on(self, table):
        maps = [f.on(table) for f in reversed(self.factors)]

        def image(xs):
            for f in maps:
                xs = f(xs)
            return xs

        return image

    def adjoint(self):
        return Product(f.adjoint() for f in reversed(self.factors))

    def __repr__(self):
        return "(" + "*".join(repr(f) for f in self.factors) + ")"


class PathOperator(PartialMap):
    """Creation (create) or annihilation by a nonzero-shape path, on its left or right end.

    A creation prepends (left) or appends the path; a vertex's creation is a
    span projection instead (see left_creation).  An annihilation strips the path
    as a left or right factor, zero where it is not the factor there.  The
    adjoint flips create.
    """

    __slots__ = ("path", "left", "create")

    def __init__(self, path, left, create):
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "create", create)

    def adjoint(self):
        return PathOperator(self.path, self.left, not self.create)

    def on(self, table):
        p = table.id_of(self.path)
        if self.create:
            row = (table.left_rows if self.left else table.right_rows)[p]
            return lambda xs: list(map(row.__getitem__, xs))
        strips, k = _strips(table, self.path.shape.coords, self.left)
        return lambda xs: [None if s is None or s[k] != p else s[1 - k]
                           for s in map(strips.__getitem__, xs)]

    def __repr__(self):
        return f"{'l' if self.left else 'r'}{'+' if self.create else '-'}{self.path.display()}"


class SpanProjection(PartialMap):
    """Diagonal projection onto the basis vectors satisfying a predicate.

    with_vacuum controls whether the vacuum belongs to the projected span;
    the predicate(table, i) itself only ever sees path ids, never VAC.
    """

    __slots__ = ("label", "predicate", "with_vacuum")

    def __init__(self, label, predicate, with_vacuum):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "with_vacuum", bool(with_vacuum))

    def on(self, table):
        keep, vac = self.predicate, VAC if self.with_vacuum else None
        return lambda xs: [vac if x == VAC else x if x is not None and keep(table, x) else None
                           for x in xs]

    def adjoint(self):
        return self

    def __repr__(self):
        return f"proj[{self.label}]"


# -- operator builders ---------------------------------------------------------


def left_creation(graph: KGraph, path: Path) -> FockOperator:
    return _creation(graph, path, left=True)


def right_creation(graph: KGraph, path: Path) -> FockOperator:
    return _creation(graph, path, left=False)


def _creation(graph, path, left):
    if path.graph is not graph:
        raise ConfigError("path belongs to a different graph")
    if path.codes:
        return PathOperator(path, left, create=True)
    return (target_projection if left else source_projection)(graph, path.base)


def _check_vertex(graph, a):
    if a not in graph.vertices:
        raise ConfigError(f"unknown vertex {a!r}")


def target_projection(graph: KGraph, a) -> FockOperator:
    """Vacuum plus every path whose target is the given vertex."""
    _check_vertex(graph, a)
    return SpanProjection(f"target={a}", lambda table, b: table.targets[b] == a, with_vacuum=True)


def source_projection(graph: KGraph, a) -> FockOperator:
    """Vacuum plus every path whose source is the given vertex."""
    _check_vertex(graph, a)
    return SpanProjection(f"source={a}", lambda table, b: table.sources[b] == a, with_vacuum=True)


def level_projection(graph: KGraph, j: int) -> FockOperator:
    """Vacuum plus every path with no color-j edge."""
    if not 1 <= j <= graph.rank:
        raise ConfigError(f"color {j} out of range 1..{graph.rank}")
    return SpanProjection(f"level{j}=0", lambda table, b: not table.coords[b][j - 1],
                          with_vacuum=True)


def shape_floor_projection(graph: KGraph, k: Shape) -> FockOperator:
    """Paths whose shape dominates k; the vacuum is excluded.  Needs k != 0."""
    k = ranked_shape(k, graph.rank)
    if k.is_zero:
        raise ConfigError("shape floor needs a nonzero bound; at zero the "
                          "left and right sums count the vacuum differently")
    return SpanProjection(f"shape>={tuple(k.coords)}",
                          lambda table, b: all(map(operator.le, k.coords, table.coords[b])),
                          with_vacuum=False)


# -- pointwise comparison -----------------------------------------------------------


def operators_agree(lhs: FockOperator, rhs: FockOperator, basis):
    """Compare pointwise up to the CAP+1st failure.  Returns (ok, checked, failures).

    The operators act in the table of their paths' graph (see _table_of).
    """
    table = _table_of(basis, (lhs, rhs))
    return _agree(lhs, rhs, basis, _ids(table, basis), table)


def _agree(lhs, rhs, basis, ids, table):
    """operators_agree in table, where basis has the ids ids.

    The operators act on the whole list of ids at once.  Where that raises
    (a defective square table), they act one vector at a time, as far as
    the failures go, so the error is the first failing vector's, as when
    each vector is checked on its own.
    """
    f, g = lhs.on(table), rhs.on(table)
    try:
        lhs_images, rhs_images = f(ids), g(ids)
    except GraphError:
        images = ((f([i])[0], g([i])[0]) for i in ids)
    else:
        if lhs_images == rhs_images:
            return True, len(ids), []
        images = zip(lhs_images, rhs_images)
    failures, checked = [], 0
    for b, (lv, rv) in zip(basis, images):
        checked += 1
        if lv != rv:
            if len(failures) == CAP:
                break
            failures.append((b, _vector_out(table, lv), _vector_out(table, rv)))
    return not failures, checked, failures


# -- the relation catalog --------------------------------------------------------


@dataclass(frozen=True)
class RelationReport:
    """Outcome of one named pointwise identity check; graph and bound stay with the caller."""

    relation: str
    ok: bool
    checked: int
    counterexamples: tuple  # (instance label, basis element, lhs vec, rhs vec)

    def __bool__(self):
        return self.ok


def _report(relation, graph, bound, instances, basis=None) -> RelationReport:
    """The one runner: check the (label, lhs, rhs) instances(table, bound) pointwise on basis.

    They act in the graph's table, on fock_basis unless the caller supplies a
    basis; the first CAP counterexamples over all instances are kept, in order.
    """
    bound, table = ranked_shape(bound, graph.rank), graph._table  # a bad bound raises first
    basis = fock_basis(graph, bound) if basis is None else basis
    checked, bad, ids = 0, [], _ids(table, basis)
    for label, lhs, rhs in instances(table, bound):
        _, n, failures = _agree(lhs, rhs, basis, ids, table)
        checked += n
        bad += [(label, *failure) for failure in failures[:CAP - len(bad)]]
    return RelationReport(relation, not bad, checked, tuple(bad))


def _range_sum(side, paths) -> Sum:
    """Sum of the one-sided range projections C(lam) C(lam)* over paths."""
    left = side == "left"
    return Sum((1, Product((PathOperator(lam, left, True), PathOperator(lam, left, False))))
               for lam in paths)


def _isometries(table, bound):
    """R1: creating then stripping a path projects onto the spans it can attach to.

    Left side, prepending mu: onto spans with target mu.source; then right
    side, appending mu: onto spans with source mu.target.
    """
    graph = table.graph
    paths = [*map(graph.vertex, sorted(graph.vertices)), *_nonzero_paths(table, bound)]
    for left in (True, False):
        for mu in paths:
            C = _creation(graph, mu, left)
            P = target_projection(graph, mu.source) if left else source_projection(graph, mu.target)
            yield f"mu={mu.display()}", Product((C.adjoint(), C)), P


def _vertex_sums(table, bound):
    """R2: a vertex projection splits into color-j edge ranges plus its level part."""
    graph = table.graph
    for j in range(1, graph.rank + 1):
        ej, level = Shape.unit(graph.rank, j), level_projection(graph, j)
        for a in sorted(graph.vertices):
            for side, end, P in (("left", "target", target_projection(graph, a)),
                                 ("right", "source", source_projection(graph, a))):
                edges = [e for e in table.paths(ej) if getattr(e, end) == a]
                yield (f"vertex={a},j={j},{side}", P,
                       _range_sum(side, edges) + Product((level, P)))  # P tests first


def _level_complements(table, bound):
    """R3: both one-sided color-j range sums have the same complement, the level span."""
    graph = table.graph
    for j in range(1, graph.rank + 1):
        pj = level_projection(graph, j)
        edges = table.paths(Shape.unit(graph.rank, j))
        for side in ("left", "right"):
            yield f"j={j},{side}", Product(()) - _range_sum(side, edges), pj


def _shape_floors(table, ks):
    """R4: left and right range sums at a fixed nonzero shape k equal the floor span."""
    for k in ks:
        floor = shape_floor_projection(table.graph, k)
        paths = table.paths(k)
        for side in ("left", "right"):
            yield f"k={tuple(k.coords)},{side}-vs-floor", _range_sum(side, paths), floor


def _commutations(graph, pairs):
    """Left creation by lam and right creation by mu commute, vacuum included.

    Both orders send a path to lam.path.mu (or zero), and the vacuum to the
    two-sided composite lam.mu.  Only nonzero-shape creations are claimed to
    commute: vertex creations are projections and fail this at the vacuum.
    """
    for lam, mu in pairs:
        L, R = left_creation(graph, lam), right_creation(graph, mu)
        yield f"lam={lam.display()},mu={mu.display()}", Product((L, R)), Product((R, L))


def verify_shape_floor(graph: KGraph, k: Shape, bound: Shape, basis=None) -> RelationReport:
    """R4 at one nonzero shape k."""
    k = ranked_shape(k, graph.rank)
    return _report(f"R4[k={tuple(k.coords)}]", graph, bound,
                   lambda table, bound: _shape_floors(table, (k,)), basis)


def creation_commutation(graph: KGraph, lam: Path, mu: Path, bound: Shape,
                         basis=None) -> RelationReport:
    """Commutation of one pair of nonzero-shape paths."""
    return _report("commutation", graph, bound,
                   lambda table, bound: _commutations(graph, [(lam, mu)]), basis)


# relation name -> (table, bound) -> every instance of the relation below bound
_CATALOG = {
    "R1": _isometries,
    "R2": _vertex_sums,
    "R3": _level_complements,
    "R4": lambda table, bound: _shape_floors(
        table, [k for k in shapes_below(bound) if not k.is_zero]),
    "commutation": lambda table, bound: _commutations(table.graph, itertools.product(
        _nonzero_paths(table, (1,) * table.graph.rank), repeat=2)),  # lam-major
}

RELATION_NAMES = tuple(_CATALOG)


def verify_identity(graph: KGraph, name: str, bound: Shape) -> RelationReport:
    """Check one named relation everywhere it applies below the bound.

    The name selects an instance generator in _CATALOG: R1 runs over every
    path below the bound, R2 and R3 over every color, R4 over every nonzero
    shape k <= bound, commutation over path pairs below the unit box.  All
    instances go through _report once, into one report, in the graph's table.
    """
    if name not in _CATALOG:
        raise ConfigError(f"unknown relation {name!r}; known: {', '.join(RELATION_NAMES)}")
    return _report(name, graph, bound, _CATALOG[name])


# -- mixed projections -----------------------------------------------------------


def mixed_range_projection(graph: KGraph, lam: Path, mu: Path) -> FockOperator:
    """Range projection of (strip mu on the right) after (prepend lam).

    Fixes exactly the paths w such that w.mu exists and carries lam as a left
    factor.  For same-shape lam, mu this is the projection whose membership
    in the one-sided algebra separates genuinely two-sided graphs.
    """
    L = left_creation(graph, lam)
    R = right_creation(graph, mu)
    return Product((R.adjoint(), L, L.adjoint(), R))


# -- the diagonal fixed-set algebra ------------------------------------------------


class FixedSetAlgebra:
    """Finite Boolean algebra of subsets generated by a family of fixed-sets.

    Stored as its atoms, the membership-signature cells partitioning the
    universe.  A subset is a member iff it equals the union of the atoms it
    meets; equality and hashing compare atoms.
    """

    def __init__(self, universe, generators):
        gens = tuple(generators)
        cells: dict = {}
        for x in universe:
            key = tuple(x in g for g in gens)
            cells.setdefault(key, []).append(x)
        self.atoms = frozenset(frozenset(c) for c in cells.values())

    def __contains__(self, subset):
        s = frozenset(subset)
        return s == frozenset().union(*(a for a in self.atoms if a & s))

    def __len__(self):
        return 2 ** len(self.atoms)

    def __eq__(self, other):
        if not isinstance(other, FixedSetAlgebra):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)

    def __repr__(self):
        points = sum(map(len, self.atoms))
        return f"<FixedSetAlgebra: {len(self.atoms)} atoms over {points} points>"


@dataclass(frozen=True)
class DiagonalAlgebra:
    """Fixed-set algebras of short partial-identity operator words.

    projections maps a representative word label to each distinct fixed set
    found.  full uses every word; left_only and right_only restrict to words
    in one family of creations; one_sided is generated by both one-sided
    pools together and is the reference for mixed-projection membership.
    The graph, word length and bound stay with the caller.
    """

    basis: tuple
    projections: dict
    full: FixedSetAlgebra
    one_sided: FixedSetAlgebra
    left_only: FixedSetAlgebra
    right_only: FixedSetAlgebra


def _atom_actions(graph, table):
    """Labelled single-step actions on id lists of table, each a partial injection.

    Returned as (label, left, image) with image(xs) the atom's images of
    the ids xs; left is the side of the atom: a creation's or
    annihilation's own, the target projections p@ on the left and the
    source projections q@ on the right.
    """
    atoms = []
    for e in graph.edges:
        for left, create in itertools.product((True, False), repeat=2):
            op = PathOperator(graph.path([e.name]), left, create)
            atoms.append((repr(op), left, op.on(table)))
    for a in sorted(graph.vertices):
        atoms.append((f"p@{a}", True, target_projection(graph, a).on(table)))
        atoms.append((f"q@{a}", False, source_projection(graph, a).on(table)))
    return atoms


def _identity_pool(atoms, word_len, basis, ids):
    """Fixed sets of every partial-identity word of length <= word_len.

    Depth-first over words, composing partial injections on the whole
    tuple of basis ids.  States dedupe on the induced map, so distinct
    words with equal action cost one visit; the all-undefined state prunes
    its whole subtree.  Returns {fixed set of basis elements: first word label}.
    """
    pool, seen = {}, {}

    def visit(state, depth_left, label):
        prev = seen.get(state)
        if prev is not None and prev >= depth_left:
            return
        seen[state] = depth_left
        if all(img is None or img == b for img, b in zip(state, ids)):
            pool.setdefault(state, label)
        if depth_left == 0 or all(img is None for img in state):
            return
        for alabel, _, act in atoms:
            visit(tuple(act(state)), depth_left - 1, f"{alabel} {label}" if label else alabel)

    visit(tuple(ids), word_len, "")
    return {frozenset(b for img, b in zip(state, basis) if img is not None): label
            for state, label in pool.items()}


def diagonal_algebra(graph: KGraph, word_len: int, bound: Shape) -> DiagonalAlgebra:
    """Survey the partial-identity words over the creation atoms.

    Collects fix(w) for every edge/vertex operator word of length <= word_len
    acting as a partial identity on the basis window, then closes each pool
    into a Boolean algebra of subsets.  The three pools act in the graph's table.
    """
    if word_len < 1:
        raise ConfigError("word_len must be >= 1")
    basis, table = fock_basis(graph, bound), graph._table
    ids = _ids(table, basis)
    atoms = _atom_actions(graph, table)
    full_pool = _identity_pool(atoms, word_len, basis, ids)
    left_pool = _identity_pool([a for a in atoms if a[1]], word_len, basis, ids)
    right_pool = _identity_pool([a for a in atoms if not a[1]], word_len, basis, ids)
    projections = {label or "1": fix for fix, label in sorted(
        full_pool.items(), key=lambda kv: (len(kv[0]), kv[1]))}
    return DiagonalAlgebra(
        basis=basis,
        projections=projections,
        full=FixedSetAlgebra(basis, full_pool),
        one_sided=FixedSetAlgebra(basis, list(left_pool) + list(right_pool)),
        left_only=FixedSetAlgebra(basis, left_pool),
        right_only=FixedSetAlgebra(basis, right_pool),
    )


@dataclass(frozen=True)
class ObstructionReport:
    """Whether one mixed range projection stays inside the one-sided algebra.

    The record keeps the fixed set and its verdict, decided against the
    truncated algebra only: a True never certifies the untruncated statement
    and a False only certifies separation at this window.
    """

    fixed_set: frozenset
    in_one_sided: bool


def obstruction_report(graph: KGraph, lam: Path, mu: Path, *,
                       algebra: DiagonalAlgebra) -> ObstructionReport:
    """Probe one mixed range projection against a precomputed diagonal_algebra."""
    table, ids = graph._table, _ids(graph._table, algebra.basis)
    images = mixed_range_projection(graph, lam, mu).on(table)(ids)
    moved = next(((b, out) for b, i, out in zip(algebra.basis, ids, images)
                  if out is not None and out != i), None)
    if moved:
        raise ConfigError("mixed projection is not a partial identity: "
                          f"{(moved[0], _vector_out(table, moved[1]))!r}")
    fix = frozenset(b for b, out in zip(algebra.basis, images) if out is not None)
    return ObstructionReport(fixed_set=fix, in_one_sided=fix in algebra.one_sided)
