"""Finitely presented rank-r colored graphs and their paths.

A graph carries edges in r colors plus, for every color pair i < j, a square
table: a pairing between the two-edge words "color-j edge then color-i edge"
and "color-i edge then color-j edge" that share outer endpoints.  Words of
edges are read left to right, the left end carrying the target of the
composite; two paths compose as p·q exactly when source(p) = target(q).
Every path is stored in its normal form, the unique word whose colors ascend
left to right.

The kernel works on int-coded words: each graph numbers its edges once, by
color and then name, and keeps its edges only in that code form (see
KGraph).  One square-move sort, _sort, rewrites each adjacent out-of-order
pair through the graph's code map of squares, and a move must keep the
pair's outer endpoints, so a chain stays a chain; _normal sorts a whole word
by color.  Two normal words join by sorting only where they meet (_join):
sort(p + q) = p_low + sort(p_high + q_low) + q_high, where p_low is p's
prefix of colors <= q's lowest and q_high is q's suffix of colors >= p's
highest.  A split (_split) moves the head's edges of each color, block by
block, ahead of the tail gathered so far.  Each such pass (left word, right
word) is sorted once per graph and kept in a table that dies with the graph;
it makes the same moves in the same order as sorting the whole word, so a
defective table fails with the same edges named.  A Path keeps its normal
code word, and compose and factorize are _join and _split on it; edge names
appear only at the edges of the API (KGraph.path, Path.word, the texts of
errors and witnesses).  Each graph keeps its paths in one PathTable: int ids
for normal code words and vertices, with each id's composites and splits,
so path, compose and factorize run the kernel once per distinct input.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

from .errors import GraphError, NotComposable, ShapeError
from .reporting import CAP, Check
from .shapes import Shape, as_shape, ranked_shape, shapes_below


@dataclass(frozen=True)
class Edge:
    name: str
    color: int  # 1-based
    source: str
    target: str

    def __repr__(self):
        return f"Edge({self.name}: {self.source}->{self.target} #{self.color})"


@dataclass(frozen=True)
class Path:
    """A composable edge word in normal form, or a single vertex (empty word).

    The word is kept as its graph's normal code word; word spells it in
    edge names.  Equality is code-word equality within the same graph
    object; the hash leaves the graph out, so it does not depend on memory
    addresses.  Construct through KGraph.vertex / KGraph.path / compose,
    never directly.
    """

    graph: "KGraph" = field(hash=False)
    codes: tuple[int, ...]
    base: str | None = None  # vertex name, only for the empty word

    @cached_property
    def shape(self) -> Shape:
        return Shape._make(self.graph._shape_of(self.codes))

    @cached_property
    def _id(self) -> int:
        """The path's id in its graph's PathTable."""
        return self.graph._table.id_of(self)

    @property
    def word(self) -> tuple[str, ...]:
        """The edge names of the word, left to right."""
        return self.graph._decode(self.codes)

    @property
    def target(self):
        """Vertex at the left (grading-zero) end."""
        if not self.codes:
            return self.base
        return self.graph._etarget[self.codes[0]]

    @property
    def source(self):
        """Vertex at the right end."""
        if not self.codes:
            return self.base
        return self.graph._esource[self.codes[-1]]

    def __len__(self):
        return len(self.codes)

    def display(self):
        return self.base if not self.codes else "/".join(self.word)

    def __repr__(self):
        return f"<{self.display()}>"

    def sort_key(self):
        # codes number edges by color, then name, so within one shape they
        # order normal words as their edge names do
        return (tuple(self.shape.coords), self.codes, self.base or "")


EMPTY = -1  # a split's empty side, in every table; path ids count up from 0
_UNSET = object()  # a row's default where None is a stored answer


class PathTable:
    """Int ids for the paths of one graph, and the kernel's answers on them.

    Path id i has the normal code word words[i] (a vertex's is empty),
    endpoints sources[i] and targets[i] and shape coordinates coords[i].
    composite and split run the kernel (_join, _split) once per distinct
    question and keep the answer as ids, in a composition row and a split
    row per id; an error is never kept.  join and factor are the same with
    vertices: a vertex operand or empty side is its vertex's id.  paths
    enumerates each shape once, and path makes an id's Path only when a
    caller asks, once per id.

    Each KGraph owns one table, made with it and dying with it, and every
    evaluation on the graph's paths runs there: duality keeps its canonical
    forms in it as id pairs and shifts on its ids, and fock its bases and
    every composition and split its operators make.  A path of another
    graph has no id here.
    """

    def __init__(self, graph):
        self.graph = graph
        self._ids: dict = {}  # normal code word, vertex name, or names path() normalized -> id
        self.words, self.sources, self.targets, self.coords = [], [], [], []  # by id
        self._shapes: dict[tuple, tuple] = {}  # shape coordinates, one tuple per shape
        self._composed: list = []  # by id, None until asked: the composition row
        self._splits: list = []  # by id, None until asked: the split row
        self._paths: dict[tuple, list] = {}  # shape coordinates -> the graph's paths of it
        self._objects: dict[int, Path] = {}  # id -> its Path, once a caller asked for it
        self.canonical: dict[tuple, tuple] = {}  # duality's canonical forms, by id pair
        self.bases: dict[tuple, tuple] = {}  # fock's bases, by bound coordinates

    def _id(self, key, word) -> int:
        """The id of a nonempty normal code word (key and word alike), or of a vertex: key
        its name, word ()."""
        i = self._ids.get(key)
        if i is None:
            graph, coords = self.graph, self.graph._shape_of(word)
            i = self._ids[key] = len(self.words)
            self.words.append(word)
            self.sources.append(graph._esource[word[-1]] if word else key)
            self.targets.append(graph._etarget[word[0]] if word else key)
            self.coords.append(self._shapes.setdefault(coords, coords))
            self._composed.append(None)
            self._splits.append(None)
        return i

    def id_of(self, p: Path) -> int:
        """The id of a Path, its code word's or its vertex's; GraphError for another graph's."""
        if p.graph is not self.graph:
            raise GraphError("paths belong to a different graph")
        return self._id(p.codes or p.base, p.codes)

    def vertex(self, v) -> int:
        """The id of vertex v."""
        return self._id(v, ())

    def path(self, i) -> Path:
        """The Path of id i, the same object every time, its _id already known."""
        p = self._objects.get(i)
        if p is None:
            word = self.words[i]
            p = self._objects[i] = Path(self.graph, word, None if word else self.targets[i])
            p.__dict__["_id"] = i
        return p

    def paths(self, shape) -> list:
        """The graph's paths of one shape, a Shape or tuple, enumerated once."""
        shape = as_shape(shape)
        out = self._paths.get(shape.coords)
        if out is None:
            out = self._paths[shape.coords] = self.graph.enumerate_paths(shape)
        return out

    def composite(self, i, j):
        """The id of path i · path j, or None where i's source is not j's target."""
        row = self._composed[i]
        if row is None:
            row = self._composed[i] = {}
        out = row.get(j, _UNSET)
        if out is _UNSET:
            out = None
            if self.sources[i] == self.targets[j]:
                word = self.graph._join(self.words[i], self.words[j])
                out = self._id(word, word)
            row[j] = out
        return out

    def split(self, i, grade):
        """(head id, tail id) of path i, the head of shape grade (coordinates of the graph's
        rank); EMPTY for an empty side, None unless 0 <= grade <= the path's shape.  A
        negative grade fits no path: it is answered None and not stored."""
        row = self._splits[i]
        if row is None:
            row = self._splits[i] = {}
        out = row.get(grade, _UNSET)
        if out is _UNSET:
            if min(grade) < 0:
                return None
            out = self.graph._split(self.words[i], self.coords[i], grade)
            out = row[self._shapes.setdefault(grade, grade)] = out and tuple(
                self._id(w, w) if w else EMPTY for w in out)
        return out

    def join(self, i, j) -> int:
        """The id of path i · path j, a vertex side giving the other's; NotComposable unless
        i's source is j's target."""
        if self.sources[i] != self.targets[j]:
            raise NotComposable(f"cannot compose {self.path(i)!r}·{self.path(j)!r}: "
                                f"source {self.sources[i]} != target {self.targets[j]}")
        return (self.composite(i, j) if self.words[j] else i) if self.words[i] else j

    def factor(self, i, grade):
        """split's answer with each empty side as its vertex's id: None where grade does not fit."""
        out = self.split(i, grade)
        if out and EMPTY in out:
            head, tail = out
            out = (self.vertex(self.targets[i]) if head == EMPTY else head,
                   self.vertex(self.sources[i]) if tail == EMPTY else tail)
        return out


class KGraph:
    """Finite rank-r colored graph with square tables.

    squares: {(i, j): {(hi, lo): (lo2, hi2)}} for colors i < j, keyed by the
    anti-normal word (hi color j, then lo color i) and valued by the normal
    word asserted equal to it.  The constructor checks only that entries refer
    to existing edges with the right colors and composable endpoints; totality,
    bijectivity, endpoint preservation and the rank>=3 cube comparison are
    validate()'s job, so defective tables stay constructible and reportable.

    Edges live only as codes: e's code is its index in _names (by color, then
    name), and _ecolor, _esource and _etarget hold its color and endpoints;
    edge() and edges (in code order) build Edges from them.  Color c's codes
    run from _starts[c] up to _starts[c + 1]; _into maps (color, vertex) to
    the ascending codes of that color with that target.  _moves maps a * E +
    b, for codes a, b and E edges, to the pair a square move turns (a, b)
    into: the table's normal word when a has the higher color, the
    anti-normal one when it has the lower.  _to_normal, the one table keyed
    by edge name, keeps the squares as given, for validate and opposite.

    The graph keeps its paths in one store, _table, a PathTable that lives
    and dies with it: path, compose and factorize answer from its ids and
    rows, and path also keys the edge names it normalized, so the same
    names are normalized once; duality keeps its canonical forms there, and
    fock its bases and every evaluation's compositions and splits.  _passes,
    keyed by the pass's two words, is the kernel's table of sub-word sorts.
    A miss runs the kernel; an error is raised, never stored.
    """

    def __init__(self, rank, vertices, edges, squares=None, name="graph"):
        if not isinstance(rank, int) or rank < 1:
            raise GraphError(f"rank must be a positive int, got {rank!r}")
        self.rank = rank
        self.name = name
        vertices = tuple(vertices)
        self.vertices = tuple(dict.fromkeys(vertices))
        if len(self.vertices) != len(vertices):
            raise GraphError("duplicate vertex name")
        if not self.vertices:
            raise GraphError("graph needs at least one vertex")
        vset, named = set(self.vertices), {}
        for e in edges:
            if e.name in named:
                raise GraphError(f"duplicate edge name {e.name!r}")
            if not 1 <= e.color <= rank:
                raise GraphError(f"edge {e.name!r} has color {e.color}, rank is {rank}")
            if e.source not in vset or e.target not in vset:
                raise GraphError(f"edge {e.name!r} has unknown endpoint")
            named[e.name] = e

        # the edges, kept only as the kernel's codes
        coded = sorted(named.values(), key=lambda e: (e.color, e.name))
        self._names = tuple(e.name for e in coded)
        self._code = code = {nm: a for a, nm in enumerate(self._names)}
        self._ecolor = color = tuple(e.color for e in coded)
        self._esource = source = tuple(e.source for e in coded)
        self._etarget = target = tuple(e.target for e in coded)
        self._starts = [bisect_left(color, c) for c in range(rank + 2)]
        self._into: dict[tuple[int, str], list[int]] = {}
        for a, key in enumerate(zip(color, target)):
            self._into.setdefault(key, []).append(a)

        self._to_normal: dict[tuple[int, int], dict] = {
            pair: {} for pair in itertools.combinations(range(1, rank + 1), 2)}
        for pair, table in (squares or {}).items():
            i, j = pair
            if not (1 <= i < j <= rank):
                raise GraphError(f"square table pair {pair!r} must have 1 <= i < j <= rank")
            for (hi, lo), (lo2, hi2) in table.items():
                for nm in (hi, lo, lo2, hi2):
                    if nm not in code:
                        raise GraphError(f"square entry refers to unknown edge {nm!r}")
                eh, el, el2, eh2 = map(code.__getitem__, (hi, lo, lo2, hi2))
                if (color[eh], color[el]) != (j, i) or (color[el2], color[eh2]) != (i, j):
                    raise GraphError(
                        f"square entry {hi},{lo} -> {lo2},{hi2} has wrong colors for pair {pair}")
                if source[eh] != target[el]:
                    raise GraphError(f"square key {hi},{lo} is not composable")
                if source[el2] != target[eh2]:
                    raise GraphError(f"square value {lo2},{hi2} is not composable")
            self._to_normal[pair] = dict(table)
        # both directions of every square as one flat code map; when two keys
        # share a value, the later one's inverse overwrites (validate() reports it)
        n_edges = len(self._names)
        self._moves = {code[a] * n_edges + code[b]: (code[c], code[d])
                       for table in self._to_normal.values() for key, val in table.items()
                       for (a, b), (c, d) in ((key, val), (val, key))}
        self._passes: dict[tuple, tuple] = {}
        self._table = PathTable(self)

    # -- accessors -------------------------------------------------------------

    def edge(self, name) -> Edge:
        a = self._code.get(name)
        if a is None:
            raise GraphError(f"unknown edge {name!r}")
        return Edge(name, self._ecolor[a], self._esource[a], self._etarget[a])

    @property
    def edges(self):
        return tuple(map(self.edge, self._names))

    def __repr__(self):
        return (f"KGraph({self.name}: rank {self.rank}, {len(self.vertices)} vertices, "
                f"{len(self._names)} edges)")

    # -- path construction ------------------------------------------------------

    def vertex(self, v) -> Path:
        if v not in self.vertices:
            raise GraphError(f"unknown vertex {v!r}")
        return Path(self, (), v)

    def path(self, names) -> Path:
        """Path from an iterable of edge names; checks the chain and normalizes.

        The same names give the same Path object every time they are asked.
        """
        word, table = tuple(names), self._table
        i = table._ids.get(word)
        if i is None:
            if not word:
                raise GraphError("empty edge word; use vertex() for grading-zero paths")
            codes = tuple(map(self._code.get, word))
            if None in codes:  # the first unknown name, alone or not
                raise GraphError(f"unknown edge {word[codes.index(None)]!r}")
            self._check_chain(codes)
            codes = self._normal(codes)
            i = table._ids[word] = table._id(codes, codes)
        return table.path(i)

    # -- the int-coded kernel -----------------------------------------------------

    def _decode(self, codes) -> tuple:
        return tuple(map(self._names.__getitem__, codes))

    def _shape_of(self, word) -> tuple:
        """The shape coordinates of a code word: its edge count per color."""
        color, counts = self._ecolor, [0] * self.rank
        for a in word:
            counts[color[a] - 1] += 1
        return tuple(counts)

    def _check_chain(self, word):
        """Raise NotComposable at the first adjacent pair of codes that does not chain."""
        source, target = self._esource, self._etarget
        for a, b in zip(word, word[1:]):
            if source[a] != target[b]:
                na, nb = self._names[a], self._names[b]
                raise NotComposable(
                    f"edges {na} and {nb} do not chain: source {source[a]} != target {target[b]}")

    def _sort(self, word, keys: list) -> tuple:
        """Insertion-sort a code word by int keys, one square move per swap.

        keys is a fresh list, one key per edge, sorted along in place; equal
        keys never swap.  A move (a, b) -> (c, d) must keep the pair's outer
        endpoints: target(c) = target(a) and source(d) = source(b).  The
        constructor admits only squares whose two sides chain, so every move
        that keeps them turns a chain into a chain.  A missing move raises
        GraphError naming the edges, one that moves an endpoint
        NotComposable naming the square.
        """
        moves, n_edges, w = self._moves, len(self._names), list(word)
        source, target = self._esource, self._etarget
        for n in range(1, len(w)):
            p = n
            while p and keys[p - 1] > keys[p]:
                a, b = w[p - 1], w[p]
                try:
                    move = moves[a * n_edges + b]
                except KeyError:
                    raise self._bad_move(a, b, None) from None
                if target[move[0]] != target[a] or source[move[1]] != source[b]:
                    raise self._bad_move(a, b, move)
                w[p - 1], w[p] = move
                keys[p - 1], keys[p] = keys[p], keys[p - 1]
                p -= 1
        return tuple(w)

    def _bad_move(self, a, b, move) -> GraphError:
        """The error for the move of codes a, b: missing (move None), or moving an endpoint."""
        names, ca, cb = self._names, self._ecolor[a], self._ecolor[b]
        kind = "square" if ca > cb else "inverse square"
        if move is None:
            return GraphError(f"no {kind} for word {names[a]},{names[b]} (colors {ca},{cb})")
        c, d = move
        return NotComposable(
            f"{kind} {names[a]},{names[b]} -> {names[c]},{names[d]} moves the outer endpoints "
            f"{self._etarget[a]},{self._esource[b]} to {self._etarget[c]},{self._esource[d]}")

    def _pass(self, left, right) -> tuple:
        """The sort of left + right, two nonempty normal code words, kept per graph.

        When left starts with a higher color than right, this is a compose
        pass and sorts by color; otherwise it is a split pass, and right's
        edges move, one by one, ahead of all of left's.  The two kinds never
        share a key, since their first colors compare the other way.
        """
        key = (left, right)
        out = self._passes.get(key)
        if out is None:
            color = self._ecolor
            if color[left[0]] > color[right[0]]:
                keys = [color[a] for a in left + right]
            else:
                keys = [1] * len(left) + [0] * len(right)
            out = self._passes[key] = self._sort(left + right, keys)
        return out

    def _join(self, p, q) -> tuple:
        """The normal form of p + q for normal code words p and q that chain.

        p's prefix of colors <= q's lowest and q's suffix of colors >= p's
        highest never move, so only the pass between them is sorted; its
        moves keep their outer endpoints (_sort), so the result chains.
        """
        color, starts = self._ecolor, self._starts
        if not (p and q) or color[p[-1]] <= color[q[0]]:
            return p + q
        low = bisect_left(p, starts[color[q[0]] + 1])
        high = bisect_left(q, starts[color[p[-1]]])
        return p[:low] + self._pass(p[low:], q[:high]) + q[high:]

    def _split(self, word, coords, grade):
        """(head, tail) of a normal code word of shape coords, the head of shape grade.

        None unless 0 <= grade <= coords.  Color by color, the first grade
        edges of the color's block pass ahead of the tail gathered so far.
        """
        head, tail, pos = (), (), 0
        for n, k in zip(coords, grade):
            if not 0 <= k <= n:
                return None
            h = word[pos:pos + k]
            if tail and h:
                moved = self._pass(tail, h)
                h, tail = moved[:k], moved[k:]
            head += h
            tail += word[pos + k:pos + n]
            pos += n
        return head, tail

    def _normal(self, word) -> tuple:
        """The normal form of a code word, chain unchecked: its edges sorted by color."""
        return self._sort(word, [self._ecolor[a] for a in word])

    # -- composition and factorization ------------------------------------------

    def compose(self, p: Path, q: Path) -> Path:
        if p.graph is not self or q.graph is not self:
            raise GraphError("paths belong to a different graph")
        return self._table.path(self._table.join(p._id, q._id))

    def factorize(self, p: Path, k: Shape) -> tuple[Path, Path]:
        """Split p = head·tail with shape(head) = k, a Shape or tuple with 0 <= k <= shape(p)."""
        if p.graph is not self:
            raise GraphError("path belongs to a different graph")
        k, table = ranked_shape(k, self.rank), self._table
        split = table.factor(p._id, k.coords)
        if split is None:
            raise ShapeError(f"cannot factor {p!r} at {k}: not dominated by {p.shape}")
        return table.path(split[0]), table.path(split[1])

    # -- enumeration --------------------------------------------------------------

    def enumerate_paths(self, shape, *, source=None, target=None) -> list[Path]:
        """All paths of the given shape, optionally with fixed endpoints.

        Normal words are generated directly: colors ascend along a fixed
        schedule and each next edge must target the current right-end vertex.
        Deterministic order (edges by code, that is by name within a color;
        vertices by name).
        """
        shape = ranked_shape(shape, self.rank)
        if shape.is_zero:
            return [self.vertex(v) for v in sorted(self.vertices)
                    if (source is None or v == source) and (target is None or v == target)]
        schedule = [c for c in range(1, self.rank + 1) for _ in range(shape.coord(c))]
        starts, into, esource, out = self._starts, self._into, self._esource, []

        def extend(word, candidates):
            pos = len(word) + 1
            for a in candidates:
                word.append(a)
                if pos < len(schedule):
                    extend(word, into.get((schedule[pos], esource[a]), ()))
                elif source is None or esource[a] == source:
                    out.append(Path(self, tuple(word)))
                word.pop()

        first = schedule[0]
        extend([], range(starts[first], starts[first + 1]) if target is None
               else into.get((first, target), ()))
        return out

    def all_paths(self, bound: Shape) -> list[Path]:
        """Paths of every shape <= bound (vertices included), shapes in lex order."""
        return [p for n in shapes_below(bound) for p in self.enumerate_paths(n)]

    # -- validation ----------------------------------------------------------------

    def validate(self, bound=None) -> Check:
        """Square tables and cubes, plus the census below a bound, as one Check.

        The bound is a Shape or tuple, 2 in every coordinate by default.
        The gating sub-checks are totality, bijectivity and endpoint
        preservation of every square table and, from rank 3, the cube
        comparison.  The constructor admits only chaining words of the
        pair's colors, so totality's witness is the missing keys, and
        bijectivity's a collision (key, key, value) or else the uncovered
        values.  Two informational sub-checks always pass: factor-nonvoid
        lists the (shape, vertex, side) triples census finds void, and
        morphisms carries the path count.
        """
        checks = []
        starts, into, esource, etarget = self._starts, self._into, self._esource, self._etarget
        moves, n_edges, code = self._moves, len(self._names), self._code

        # square totality / bijectivity / endpoint preservation per color pair
        for (i, j) in itertools.combinations(range(1, self.rank + 1), 2):
            table = self._to_normal[(i, j)]
            anti_pairs = [(hi, lo) for hi in range(starts[j], starts[j + 1])
                          for lo in into.get((i, esource[hi]), ())]
            normal_pairs = [(lo, hi) for lo in range(starts[i], starts[i + 1])
                            for hi in into.get((j, esource[lo]), ())]

            # an anti-normal pair is a key of the table, a normal pair a value,
            # exactly when it has a move
            missing = sorted(self._decode(w) for w in anti_pairs
                             if w[0] * n_edges + w[1] not in moves)
            checks.append(Check(f"square-totality[{i},{j}]", not missing,
                                witness=tuple(missing[:CAP]) or None))

            seen: dict[tuple, tuple] = {}
            collision = None
            for key, val in table.items():
                if val in seen and collision is None:
                    collision = (seen[val], key, val)
                seen[val] = key
            not_covered = sorted(self._decode(w) for w in normal_pairs
                                 if w[0] * n_edges + w[1] not in moves)
            checks.append(Check(
                f"square-bijectivity[{i},{j}]", collision is None and not not_covered,
                witness=collision or tuple(not_covered[:CAP]) or None))

            bad_end = None  # the rule _sort applies at each move, read off the codes
            for (hi, lo), (lo2, hi2) in table.items():
                if etarget[code[hi]] != etarget[code[lo2]] or esource[code[lo]] != esource[code[hi2]]:
                    bad_end = ((hi, lo), (lo2, hi2))
                    break
            checks.append(Check(f"square-endpoints[{i},{j}]", bad_end is None, witness=bad_end))

        if self.rank >= 3:
            ok, witness = self._check_cubes()
            checks.append(Check("cube", ok, witness=witness))

        bound = Shape(*([2] * self.rank)) if bound is None else as_shape(bound)
        per_shape, void = self.census(bound)
        checks.append(Check("factor-nonvoid", True,
                            info=f"bound={tuple(bound.coords)} void={void}"))
        checks.append(Check("morphisms", True, info=f"count={sum(per_shape.values())}"))
        return Check("validate", all(c.ok for c in checks), checks=tuple(checks))

    def census(self, bound: Shape) -> tuple[dict, tuple]:
        """Path counts per shape below the bound, and where a shape leaves a vertex void.

        Returns (per_shape, void): per_shape maps each shape's coordinates
        to its number of paths; void lists (shape, vertex, "target") when no
        path of that shape ends at the vertex and (shape, vertex, "source")
        when none starts there.
        """
        per_shape: dict[tuple, int] = {}
        void: list[tuple] = []
        for n in shapes_below(bound):
            paths = self.enumerate_paths(n)
            per_shape[tuple(n.coords)] = len(paths)
            targets = {p.target for p in paths}
            sources = {p.source for p in paths}
            for v in sorted(self.vertices):
                if v not in targets:
                    void.append((tuple(n.coords), v, "target"))
                if v not in sources:
                    void.append((tuple(n.coords), v, "source"))
        return per_shape, tuple(void)

    def _check_cubes(self):
        """Compare the two square-move routes on every 3-color descending word.

        Route a sorts the word whole; route b sorts its last two edges first.
        A missing square, or one that moves its pair's outer endpoints, ends a
        route as None.
        """
        def route(word):
            try:
                return self._normal(word)
            except GraphError:
                return None

        starts, into, esource = self._starts, self._into, self._esource
        for (i, j, k) in itertools.combinations(range(1, self.rank + 1), 3):
            for ek in range(starts[k], starts[k + 1]):
                for ej in into.get((j, esource[ek]), ()):
                    for ei in into.get((i, esource[ej]), ()):
                        w = (ek, ej, ei)  # colors k > j > i
                        a = route(w)
                        b = route(w[1:])
                        b = b and route(w[:1] + b)
                        if a is None or b is None or a != b:
                            return False, tuple(x and self._decode(x) for x in (w, a, b))
        return True, None

    # -- opposite -----------------------------------------------------------------

    def opposite(self) -> "KGraph":
        """Edge-reversed graph; same names, transported squares.  Involutive."""
        edges = map(Edge, self._names, self._ecolor, self._etarget, self._esource)
        # in the reversed graph the word (hi2, lo2) is anti-normal and equals
        # (lo, hi) there; when two keys share a value, the later one wins
        squares = {pair: {(hi2, lo2): (lo, hi) for (hi, lo), (lo2, hi2) in table.items()}
                   for pair, table in self._to_normal.items()}
        return KGraph(self.rank, self.vertices, edges, squares, name=f"op({self.name})")


# -- module-level op aliases -------------------------------------------------------


def compose(p: Path, q: Path) -> Path:
    return p.graph.compose(p, q)


def factorize(p: Path, k: Shape) -> tuple[Path, Path]:
    return p.graph.factorize(p, k)


# -- standard builders ---------------------------------------------------------------


def grid_graph(m, name=None) -> KGraph:
    """Lattice-interval graph: vertices n <= m in N^r, one color-j edge n -> n+e_j.

    The edge with name a{j}.{n} runs as a morphism from source n+e_j to target n,
    and every square is the unique filler of its little lattice square.
    """
    m = as_shape(m)
    r = len(m)

    def vname(t):
        return "v" + "".join(str(c) for c in t)

    points = [tuple(p) for p in itertools.product(*[range(c + 1) for c in m.coords])]
    vertices = [vname(p) for p in points]

    def bump(p, j):
        return tuple(c + (1 if idx == j - 1 else 0) for idx, c in enumerate(p))

    def ename(j, p):
        return f"a{j}." + "".join(str(c) for c in p)

    edges = []
    for p in points:
        for j in range(1, r + 1):
            q = bump(p, j)
            if all(a <= b for a, b in zip(q, m.coords)):
                edges.append(Edge(ename(j, p), j, vname(q), vname(p)))

    squares: dict = {}
    for (i, j) in itertools.combinations(range(1, r + 1), 2):
        table = {}
        for p in points:
            pij = bump(bump(p, i), j)
            if not all(a <= b for a, b in zip(pij, m.coords)):
                continue
            hi, lo = ename(j, p), ename(i, bump(p, j))
            lo2, hi2 = ename(i, p), ename(j, bump(p, i))
            table[(hi, lo)] = (lo2, hi2)
        squares[(i, j)] = table
    label = name or ("grid" + "x".join(str(c) for c in m.coords))
    return KGraph(r, vertices, edges, squares, name=label)


def single_vertex_graph(counts, squares="commute", name=None) -> KGraph:
    """One vertex, counts[j-1] loops of color j; squares by rule or explicit table.

    Rules: "commute" pairs (hi_q, lo_p) with (lo_p, hi_q); "flip" swaps the two
    loop indices, (hi_q, lo_p) with (lo_q, hi_p), and needs equal counts in the
    two colors of each pair.
    """
    r = len(counts)
    v = "u"

    def loop(j, idx):
        return f"{chr(ord('a') + j - 1)}{idx}"

    edges = [Edge(loop(j, idx), j, v, v)
             for j in range(1, r + 1) for idx in range(counts[j - 1])]

    tables: dict = {}
    if isinstance(squares, str):
        for (i, j) in itertools.combinations(range(1, r + 1), 2):
            table = {}
            for q in range(counts[j - 1]):
                for p in range(counts[i - 1]):
                    if squares == "commute":
                        table[(loop(j, q), loop(i, p))] = (loop(i, p), loop(j, q))
                    elif squares == "flip":
                        if counts[i - 1] != counts[j - 1]:
                            raise GraphError("flip squares need equal counts per color pair")
                        table[(loop(j, q), loop(i, p))] = (loop(i, q), loop(j, p))
                    else:
                        raise GraphError(f"unknown square rule {squares!r}")
            tables[(i, j)] = table
    else:
        tables = squares
    label = name or ("single" + "x".join(str(c) for c in counts)
                     + ("flip" if squares == "flip" else ""))
    return KGraph(r, [v], edges, tables, name=label)


def one_loop_per_color_graph(rank=2, name=None) -> KGraph:
    """Single vertex, one loop in each color; the path monoid is free abelian."""
    return single_vertex_graph([1] * rank, "commute", name=name or f"free_abelian_{rank}")


def flip_graph(name=None) -> KGraph:
    """Two colors, two loops each, index-swapping squares."""
    return single_vertex_graph([2, 2], "flip", name=name or "flip2x2")
