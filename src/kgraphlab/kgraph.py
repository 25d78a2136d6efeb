"""Finitely presented rank-r colored graphs and their paths.

A graph carries edges in r colors plus, for every color pair i < j, a square
table: a pairing between the two-edge words "color-j edge then color-i edge"
and "color-i edge then color-j edge" that share outer endpoints.  Words of
edges are read left to right, the left end carrying the target of the
composite; two paths compose as p·q exactly when source(p) = target(q).
Every path is stored in its normal form, the unique word whose colors ascend
left to right.  Normalization and factorization are one square-move sort:
_sort_word insertion-sorts a word by int keys, rewriting each adjacent
out-of-order pair through the square tables.  Sorting by color gives the
normal form; sorting the first edges of each color ahead of the rest splits
a path into head and tail.  Each graph answers compose and factorize once
per distinct input and keeps the answer for its lifetime (see KGraph).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property

from .errors import GraphError, NotComposable, ShapeError
from .reporting import CAP, Check
from .shapes import Shape, as_shape, shapes_below


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

    Equality is word equality within the same graph object; the hash leaves
    the graph out, so it does not depend on memory addresses.  Construct
    through KGraph.vertex / KGraph.path / compose, never directly.
    """

    graph: "KGraph" = field(hash=False)
    word: tuple[str, ...]
    base: str | None = None  # vertex name, only for the empty word

    @cached_property
    def shape(self) -> Shape:
        return Shape._make(self.graph._coords(self.word))

    @property
    def is_vertex(self):
        return not self.word

    @property
    def target(self):
        """Vertex at the left (grading-zero) end."""
        if not self.word:
            return self.base
        return self.graph._target[self.word[0]]

    @property
    def source(self):
        """Vertex at the right end."""
        if not self.word:
            return self.base
        return self.graph._source[self.word[-1]]

    def __len__(self):
        return len(self.word)

    def display(self):
        return self.base if not self.word else "/".join(self.word)

    def __repr__(self):
        return f"<{self.display()}>"

    def sort_key(self):
        return (tuple(self.shape.coords), self.word, self.base or "")


class KGraph:
    """Finite rank-r colored graph with square tables.

    squares: {(i, j): {(hi, lo): (lo2, hi2)}} for colors i < j, keyed by the
    anti-normal word (hi color j, then lo color i) and valued by the normal
    word asserted equal to it.  The constructor checks only that entries refer
    to existing edges with the right colors and composable endpoints; totality,
    bijectivity, endpoint preservation and the rank>=3 cube comparison are
    validate()'s job, so defective tables stay constructible and reportable.

    The graph memoizes its path questions in dicts that live and die with it:
    compose keyed by the two words, factorize by the path's word (or vertex)
    and the grade's coordinates, and _canonical_forms, which only duality
    fills, by (prefix word or vertex, cycle word).  A miss runs the kernel;
    an error is raised, never stored.  A Fock check's PathWindow stays its
    own: keeping every check's paths on the graph would grow peak memory.
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
        vset = set(self.vertices)
        self._edges: dict[str, Edge] = {}
        for e in edges:
            if e.name in self._edges:
                raise GraphError(f"duplicate edge name {e.name!r}")
            if not 1 <= e.color <= rank:
                raise GraphError(f"edge {e.name!r} has color {e.color}, rank is {rank}")
            if e.source not in vset or e.target not in vset:
                raise GraphError(f"edge {e.name!r} has unknown endpoint")
            self._edges[e.name] = e
        # the path kernel reads these instead of going through edge()
        self._color = {nm: e.color for nm, e in self._edges.items()}
        self._source = {nm: e.source for nm, e in self._edges.items()}
        self._target = {nm: e.target for nm, e in self._edges.items()}

        self._by_color: dict[int, tuple[Edge, ...]] = {
            c: tuple(sorted((e for e in self._edges.values() if e.color == c),
                            key=lambda e: e.name))
            for c in range(1, rank + 1)
        }
        self._by_color_target: dict[tuple[int, str], tuple[Edge, ...]] = {}
        for c in range(1, rank + 1):
            for e in self._by_color[c]:
                self._by_color_target.setdefault((c, e.target), ())
                self._by_color_target[(c, e.target)] += (e,)

        # square tables, plus the inverse direction _sort_word takes when a
        # higher color moves left of a lower one
        self._to_normal: dict[tuple[int, int], dict] = {}
        self._to_anti: dict[tuple[int, int], dict] = {}
        squares = squares or {}
        for pair, table in squares.items():
            i, j = pair
            if not (1 <= i < j <= rank):
                raise GraphError(f"square table pair {pair!r} must have 1 <= i < j <= rank")
            fwd, inv = {}, {}
            for (hi, lo), (lo2, hi2) in table.items():
                for nm in (hi, lo, lo2, hi2):
                    if nm not in self._edges:
                        raise GraphError(f"square entry refers to unknown edge {nm!r}")
                eh, el, el2, eh2 = (self._edges[n] for n in (hi, lo, lo2, hi2))
                if (eh.color, el.color) != (j, i) or (el2.color, eh2.color) != (i, j):
                    raise GraphError(
                        f"square entry {hi},{lo} -> {lo2},{hi2} has wrong colors for pair {pair}")
                if eh.source != el.target:
                    raise GraphError(f"square key {hi},{lo} is not composable")
                if el2.source != eh2.target:
                    raise GraphError(f"square value {lo2},{hi2} is not composable")
                fwd[(hi, lo)] = (lo2, hi2)
                # collisions land in inv as overwrites; validate() reports them
                inv[(lo2, hi2)] = (hi, lo)
            self._to_normal[pair] = fwd
            self._to_anti[pair] = inv

        for pair in itertools.combinations(range(1, rank + 1), 2):
            self._to_normal.setdefault(pair, {})
            self._to_anti.setdefault(pair, {})
        self._composites: dict[tuple, Path] = {}
        self._factorizations: dict[tuple, tuple[Path, Path]] = {}
        self._canonical_forms: dict[tuple, tuple[Path, Path]] = {}

    # -- accessors -------------------------------------------------------------

    def edge(self, name) -> Edge:
        try:
            return self._edges[name]
        except KeyError:
            raise GraphError(f"unknown edge {name!r}") from None

    @property
    def edges(self):
        return tuple(self._edges.values())

    def edges_into(self, vertex, color):
        """Edges of the given color whose target is vertex."""
        return self._by_color_target.get((color, vertex), ())

    def __repr__(self):
        return (f"KGraph({self.name}: rank {self.rank}, {len(self.vertices)} vertices, "
                f"{len(self._edges)} edges)")

    # -- path construction ------------------------------------------------------

    def vertex(self, v) -> Path:
        if v not in self.vertices:
            raise GraphError(f"unknown vertex {v!r}")
        return Path(self, (), v)

    def path(self, names) -> Path:
        """Path from an iterable of edge names; checks the chain and normalizes."""
        word = tuple(names)
        if not word:
            raise GraphError("empty edge word; use vertex() for grading-zero paths")
        for nm in word:
            self.edge(nm)  # an unknown name fails here, alone or not
        self._check_chain(word)
        return Path(self, self._normal_word(word))

    def _check_chain(self, word):
        source, target = self._source, self._target
        for a, b in zip(word, word[1:]):
            if source[a] != target[b]:
                raise NotComposable(
                    f"edges {a} and {b} do not chain: source {source[a]} != target {target[b]}")

    def _coords(self, word) -> tuple:
        """The shape coordinates of an edge word: its edge count per color."""
        color, counts = self._color, [0] * self.rank
        for name in word:
            counts[color[name] - 1] += 1
        return tuple(counts)

    def _sort_word(self, word, keys: list) -> tuple:
        """Insertion-sort word by the int keys of its edges, one square move per swap.

        keys is a fresh list, one key per edge, sorted along in place.  An
        adjacent pair (a, b) with key(a) > key(b) moves through _to_normal
        when a has the higher color and through _to_anti when it has the
        lower one; equal keys never swap.  A missing entry raises GraphError.
        """
        color = self._color
        w = list(word)
        for n in range(1, len(w)):
            p = n
            while p and keys[p - 1] > keys[p]:
                a, b = w[p - 1], w[p]
                ca, cb = color[a], color[b]
                try:
                    if ca > cb:
                        w[p - 1], w[p] = self._to_normal[(cb, ca)][(a, b)]
                    else:
                        w[p - 1], w[p] = self._to_anti[(ca, cb)][(a, b)]
                except KeyError:
                    kind = "square" if ca > cb else "inverse square"
                    raise GraphError(f"no {kind} for word {a},{b} (colors {ca},{cb})") from None
                keys[p - 1], keys[p] = keys[p], keys[p - 1]
                p -= 1
        return tuple(w)

    def _normal_word(self, word):
        """Sort colors ascending by square moves; O(len^2) moves."""
        color = self._color
        out = self._sort_word(word, [color[nm] for nm in word])
        self._check_chain(out)  # a square that breaks outer endpoints breaks the chain
        return out

    # -- composition and factorization ------------------------------------------

    def compose(self, p: Path, q: Path) -> Path:
        if p.graph is not self or q.graph is not self:
            raise GraphError("paths belong to a different graph")
        if p.source != q.target:
            raise NotComposable(
                f"cannot compose {p!r}·{q!r}: source {p.source} != target {q.target}")
        if not p.word:
            return q
        if not q.word:
            return p
        key = (p.word, q.word)
        out = self._composites.get(key)
        if out is None:
            out = self._composites[key] = Path(self, self._normal_word(p.word + q.word))
        return out

    def factorize(self, p: Path, k: Shape) -> tuple[Path, Path]:
        """Split p = head·tail with shape(head) = k, a Shape or tuple with 0 <= k <= shape(p)."""
        if p.graph is not self:
            raise GraphError("path belongs to a different graph")
        k = as_shape(k)
        key = (p.word or p.base, k.coords)
        out = self._factorizations.get(key)
        if out is not None:
            return out
        if len(k) != self.rank:
            raise ShapeError(f"shape rank {len(k)} != graph rank {self.rank}")
        if not k <= p.shape:
            raise ShapeError(f"cannot factor {p!r} at {k}: not dominated by {p.shape}")
        head, rest = self._split_word(p.word, k.coords)
        head_path = Path(self, head) if head else Path(self, (), p.target)
        tail_path = Path(self, rest) if rest else Path(self, (), head_path.source)
        out = self._factorizations[key] = (head_path, tail_path)
        return out

    def _split_word(self, word, coords: tuple) -> tuple[tuple, tuple]:
        """The (head, rest) words of a normal word, head of shape coords <= its shape.

        The first coords[j-1] color-j edges sort by key j, every other edge by
        j + rank, so one sort moves the head to the front in normal form.
        """
        color, rank, left = self._color, self.rank, list(coords)
        keys = []
        for nm in word:
            c = color[nm]
            if left[c - 1]:
                left[c - 1] -= 1
                keys.append(c)
            else:
                keys.append(c + rank)
        w = self._sort_word(word, keys)
        n = sum(coords)
        return w[:n], w[n:]

    # -- enumeration --------------------------------------------------------------

    def enumerate_paths(self, shape, *, source=None, target=None) -> list[Path]:
        """All paths of the given shape, optionally with fixed endpoints.

        Normal words are generated directly: colors ascend along a fixed
        schedule and each next edge must target the current right-end vertex.
        Deterministic order (edges sorted by name, vertices by name).
        """
        shape = as_shape(shape)
        if len(shape) != self.rank:
            raise ShapeError(f"shape rank {len(shape)} != graph rank {self.rank}")
        if shape.is_zero:
            return [self.vertex(v) for v in sorted(self.vertices)
                    if (source is None or v == source) and (target is None or v == target)]
        schedule = [c for c in range(1, self.rank + 1) for _ in range(shape.coord(c))]
        out: list[Path] = []

        def extend(word, cur):
            pos = len(word)
            if pos == len(schedule):
                if source is None or cur == source:
                    out.append(Path(self, tuple(word)))
                return
            color = schedule[pos]
            if pos == 0 and target is None:
                candidates = self._by_color[color]
            else:
                anchor = cur if pos else target
                candidates = self._by_color_target.get((color, anchor), ())
            for e in candidates:
                word.append(e.name)
                extend(word, e.source)
                word.pop()

        extend([], None)
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

        # square totality / bijectivity / endpoint preservation per color pair
        for (i, j) in itertools.combinations(range(1, self.rank + 1), 2):
            table = self._to_normal[(i, j)]
            anti_pairs = set()
            for hi in self._by_color[j]:
                for lo in self._by_color_target.get((i, hi.source), ()):
                    anti_pairs.add((hi.name, lo.name))
            normal_pairs = set()
            for lo in self._by_color[i]:
                for hi in self._by_color_target.get((j, lo.source), ()):
                    normal_pairs.add((lo.name, hi.name))

            missing = sorted(anti_pairs - set(table))
            checks.append(Check(f"square-totality[{i},{j}]", not missing,
                                witness=tuple(missing[:CAP]) or None))

            seen: dict[tuple, tuple] = {}
            collision = None
            for key, val in table.items():
                if val in seen and collision is None:
                    collision = (seen[val], key, val)
                seen[val] = key
            not_covered = sorted(normal_pairs - set(table.values()))
            checks.append(Check(
                f"square-bijectivity[{i},{j}]", collision is None and not not_covered,
                witness=collision or tuple(not_covered[:CAP]) or None))

            bad_end = None
            for (hi, lo), (lo2, hi2) in table.items():
                if (self._target[hi] != self._target[lo2]
                        or self._source[lo] != self._source[hi2]):
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
        A missing square ends a route as None.
        """
        color = self._color

        def route(word):
            try:
                return self._sort_word(word, [color[nm] for nm in word])
            except GraphError:
                return None

        for (i, j, k) in itertools.combinations(range(1, self.rank + 1), 3):
            for ek in self._by_color[k]:
                for ej in self._by_color_target.get((j, ek.source), ()):
                    for ei in self._by_color_target.get((i, ej.source), ()):
                        w = (ek.name, ej.name, ei.name)  # colors k > j > i
                        a = route(w)
                        b = route(w[1:])
                        b = b and route(w[:1] + b)
                        if a is None or b is None or a != b:
                            return False, (w, a, b)
        return True, None

    # -- opposite -----------------------------------------------------------------

    def opposite(self) -> "KGraph":
        """Edge-reversed graph; same names, transported squares.  Involutive."""
        edges = [Edge(e.name, e.color, e.target, e.source) for e in self._edges.values()]
        squares = {}
        for pair, inv in self._to_anti.items():
            table = {}
            for (lo2, hi2), (hi, lo) in inv.items():
                # in the reversed graph the word (hi2, lo2) is anti-normal and
                # equals (lo, hi) there
                table[(hi2, lo2)] = (lo, hi)
            squares[pair] = table
        return KGraph(self.rank, self.vertices, edges, squares, name=f"op({self.name})")


_UNSET = object()  # a window dict's default where None is a stored answer


class PathWindow:
    """Int ids for the paths one check touches, with their compositions and splits.

    A window serves one check and is then dropped; it binds to the graph of
    the first path it interns and keeps nothing on the graph.  Path id i
    has the normal word words[i], endpoints sources[i] and targets[i] and
    shape coordinates coords[i]; a vertex path has the empty word.
    compose and split run the graph's kernel (_normal_word, _split_word) once
    per distinct input and keep the answer in dicts keyed by ids.  Unique
    factorization makes both pure functions of the graph's tables, so a
    defective table gives the same answer, or raises the same error, every
    time it is asked.
    """

    def __init__(self):
        self.graph = None
        self._ids: dict = {}  # normal word, or vertex name for a vertex path -> id
        self.words: list[tuple] = []
        self.sources: list[str] = []
        self.targets: list[str] = []
        self.coords: list[tuple] = []
        self._composed: dict[tuple, int | None] = {}  # (i, j) -> id of i·j
        self._normalized: dict[tuple, int] = {}  # concatenated word -> id of its normal form
        self._splits: dict[tuple, tuple | None] = {}  # (i, grade) -> (head id, tail id)

    def intern(self, p: Path) -> int:
        i = self._ids.get(p.word or p.base)
        if i is not None and p.graph is self.graph:
            return i
        if self.graph is None:
            self.graph = p.graph
        elif p.graph is not self.graph:
            raise GraphError("paths belong to a different graph")
        return self._id(p.word, p.base, self.graph._coords(p.word))

    def _id(self, word, vertex, coords):
        """The id of a normal word of shape coords, or of the vertex path at vertex."""
        key = word or vertex
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.words)
            self.words.append(word)
            self.sources.append(self.graph._source[word[-1]] if word else vertex)
            self.targets.append(self.graph._target[word[0]] if word else vertex)
            self.coords.append(coords)
        return i

    def path(self, i) -> Path:
        word = self.words[i]
        return Path(self.graph, word) if word else Path(self.graph, (), self.targets[i])

    def compose(self, i, j):
        """The id of path i · path j, or None when source(i) != target(j)."""
        key = (i, j)
        k = self._composed.get(key, _UNSET)
        if k is not _UNSET:
            return k
        if self.sources[i] != self.targets[j]:
            k = None
        elif not self.words[i]:
            k = j
        elif not self.words[j]:
            k = i
        else:
            word = self.words[i] + self.words[j]
            k = self._normalized.get(word)
            if k is None:  # two id pairs can spell the same word; normalize it once
                k = self._normalized[word] = self._id(
                    self.graph._normal_word(word), None,
                    tuple(map(operator.add, self.coords[i], self.coords[j])))
        self._composed[key] = k
        return k

    def split(self, i, grade: tuple):
        """(head id, tail id) of path i with head of shape grade; None unless grade <= shape(i)."""
        key = (i, grade)
        out = self._splits.get(key, _UNSET)
        if out is not _UNSET:
            return out
        out = None
        rest_coords = tuple(map(operator.sub, self.coords[i], grade))
        if min(grade) >= 0 and min(rest_coords) >= 0:
            head, rest = self.graph._split_word(self.words[i], grade)
            h = self._id(head, self.targets[i], grade)
            out = (h, self._id(rest, self.sources[h], rest_coords))
        self._splits[key] = out
        return out


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
