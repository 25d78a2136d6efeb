"""Finitely presented rank-r colored graphs and their paths.

A graph carries edges in r colors plus, for every color pair i < j, a square
table: a pairing between the two-edge words "color-j edge then color-i edge"
and "color-i edge then color-j edge" that share outer endpoints.  Words of
edges are read left to right, the left end carrying the target of the
composite; two paths compose as p·q exactly when source(p) = target(q).
Every path is stored in its normal form, the unique word whose colors ascend
left to right; normalization repeatedly rewrites adjacent out-of-order pairs
through the square tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .errors import GraphError, NotComposable, ShapeError
from .reporting import Check
from .shapes import Shape, shapes_below


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
        counts = [0] * self.graph.rank
        for name in self.word:
            counts[self.graph.edge(name).color - 1] += 1
        return Shape._make(tuple(counts))

    @property
    def is_vertex(self):
        return not self.word

    @property
    def target(self):
        """Vertex at the left (grading-zero) end."""
        if not self.word:
            return self.base
        return self.graph.edge(self.word[0]).target

    @property
    def source(self):
        """Vertex at the right end."""
        if not self.word:
            return self.base
        return self.graph.edge(self.word[-1]).source

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

        # square tables, plus the inverse direction used when pulling an edge
        # leftward during factorization
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
        self._check_chain(word)
        return Path(self, self._normal_word(word))

    def _check_chain(self, word):
        edges = [self.edge(nm) for nm in word]  # an unknown name fails here, alone or not
        for ea, eb in zip(edges, edges[1:]):
            if ea.source != eb.target:
                raise NotComposable(
                    f"edges {ea.name} and {eb.name} do not chain: source {ea.source} != target {eb.target}",
                    source=ea.source, target=eb.target)

    def _normal_word(self, word):
        """Sort colors ascending by square rewrites; O(len^2) moves."""
        w = list(word)
        i = 0
        while i < len(w) - 1:
            ci = self.edge(w[i]).color
            cj = self.edge(w[i + 1]).color
            if ci <= cj:
                i += 1
                continue
            table = self._to_normal[(cj, ci)]
            try:
                w[i], w[i + 1] = table[(w[i], w[i + 1])]
            except KeyError:
                raise GraphError(
                    f"no square for word {w[i]},{w[i+1]} (colors {ci},{cj})") from None
            if i:
                i -= 1
        out = tuple(w)
        self._check_chain(out)
        return out

    # -- composition and factorization ------------------------------------------

    def compose(self, p: Path, q: Path) -> Path:
        if p.graph is not self or q.graph is not self:
            raise GraphError("paths belong to a different graph")
        if p.source != q.target:
            raise NotComposable(
                f"cannot compose {p!r}·{q!r}: source {p.source} != target {q.target}",
                source=p.source, target=q.target)
        if p.is_vertex:
            return q
        if q.is_vertex:
            return p
        return Path(self, self._normal_word(p.word + q.word))

    def _pull_front(self, word, j):
        """Rewrite a normal word so an edge of color j leads; return (edge, rest)."""
        idx = None
        for k, nm in enumerate(word):
            if self.edge(nm).color == j:
                idx = k
                break
        if idx is None:
            raise GraphError(f"word has no color-{j} edge to pull")
        w = list(word)
        for p in range(idx, 0, -1):
            lo_c = self.edge(w[p - 1]).color  # < j since the word is normal
            table = self._to_anti[(lo_c, j)]
            try:
                w[p - 1], w[p] = table[(w[p - 1], w[p])]
            except KeyError:
                raise GraphError(
                    f"no inverse square for word {w[p-1]},{w[p]} (colors {lo_c},{j})") from None
        return w[0], tuple(w[1:])

    def factorize(self, p: Path, k: Shape) -> tuple[Path, Path]:
        """Split p = head·tail with shape(head) = k.  Requires 0 <= k <= shape(p)."""
        if p.graph is not self:
            raise GraphError("path belongs to a different graph")
        if len(k) != self.rank:
            raise ShapeError(f"shape rank {len(k)} != graph rank {self.rank}")
        if not k.is_finite or not k <= p.shape:
            raise ShapeError(f"cannot factor {p!r} at {k}: not dominated by {p.shape}")
        head: list[str] = []
        rest = p.word
        for j in range(1, self.rank + 1):
            for _ in range(k.coord(j)):
                e, rest = self._pull_front(rest, j)
                head.append(e)
        head_path = self.vertex(p.target) if not head else Path(self, tuple(head))
        tail_path = self.vertex(head_path.source) if not rest else Path(self, rest)
        return head_path, tail_path

    # -- enumeration --------------------------------------------------------------

    def enumerate_paths(self, shape, *, source=None, target=None) -> list[Path]:
        """All paths of the given shape, optionally with fixed endpoints.

        Normal words are generated directly: colors ascend along a fixed
        schedule and each next edge must target the current right-end vertex.
        Deterministic order (edges sorted by name, vertices by name).
        """
        shape = shape if isinstance(shape, Shape) else Shape(*shape)
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

        The gating sub-checks are totality, bijectivity and endpoint
        preservation of every square table and, from rank 3, the cube
        comparison.  Two informational sub-checks always pass:
        factor-nonvoid lists the (shape, vertex, side) triples census
        finds void, and morphisms carries the path count.
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
            stray = sorted(set(table) - anti_pairs)
            checks.append(Check(
                f"square-totality[{i},{j}]", not missing and not stray,
                witness=(tuple(missing[:3]), tuple(stray[:3])) if missing or stray else None))

            seen: dict[tuple, tuple] = {}
            collision = None
            for key, val in table.items():
                if val in seen and collision is None:
                    collision = (seen[val], key, val)
                seen[val] = key
            values = set(table.values())
            not_covered = sorted(normal_pairs - values)
            extra_vals = sorted(values - normal_pairs)
            ok = collision is None and not not_covered and not extra_vals
            checks.append(Check(
                f"square-bijectivity[{i},{j}]", ok,
                witness=collision or (tuple(not_covered[:3]), tuple(extra_vals[:3])) if not ok else None))

            bad_end = None
            for (hi, lo), (lo2, hi2) in table.items():
                if (self.edge(hi).target != self.edge(lo2).target
                        or self.edge(lo).source != self.edge(hi2).source):
                    bad_end = ((hi, lo), (lo2, hi2))
                    break
            checks.append(Check(f"square-endpoints[{i},{j}]", bad_end is None, witness=bad_end))

        if self.rank >= 3:
            ok, witness = self._check_cubes()
            checks.append(Check("cube", ok, witness=witness))

        if bound is None:
            bound = Shape(*([2] * self.rank))
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
        """Compare the two square-move routes on every 3-color descending word."""

        def swap(w, p):
            # the pair at position p must be color-descending (anti-normal)
            a, b = w[p], w[p + 1]
            ca, cb = self.edge(a).color, self.edge(b).color
            table = self._to_normal[(cb, ca)]
            if (a, b) not in table:
                return None
            w = list(w)
            w[p], w[p + 1] = table[(a, b)]
            return tuple(w)

        for (i, j, k) in itertools.combinations(range(1, self.rank + 1), 3):
            for ek in self._by_color[k]:
                for ej in self._by_color_target.get((j, ek.source), ()):
                    for ei in self._by_color_target.get((i, ej.source), ()):
                        w = (ek.name, ej.name, ei.name)  # colors k > j > i
                        a = swap(w, 0)
                        a = a and swap(a, 1)
                        a = a and swap(a, 0)
                        b = swap(w, 1)
                        b = b and swap(b, 0)
                        b = b and swap(b, 1)
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
    m = m if isinstance(m, Shape) else Shape(*m)
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
