"""Expected answers computed without kgraphlab.

Every oracle here works from the parameters a request was generated from
(graph kind and size, component tables, loop rule) and never imports the
package, so a defect in the code under test cannot make its own check
pass.
"""

from __future__ import annotations

import itertools
import math


# -- path counts ---------------------------------------------------------------


def shapes_upto(bound):
    """Every n with 0 <= n <= bound, as int tuples."""
    return itertools.product(*[range(b + 1) for b in bound])


class GraphSpec:
    """How a benchmark graph is built, enough to count its paths.

    kind "grid": the lattice-interval graph of size m, whose paths of
    shape n are determined by their target, so there are prod(m_j - n_j + 1)
    of them.  kind "loops": one vertex with ``loops`` loops per color, so
    unique factorization gives prod(loops_j ** n_j) paths of shape n (2^|n|
    for two loops per color, 1 for the free abelian graph).
    """

    def __init__(self, name, kind, size, rule="commute"):
        self.name = name
        self.kind = kind
        self.size = tuple(size)  # grid: lattice size m; loops: loops per color
        self.rule = rule

    @property
    def rank(self):
        return len(self.size)

    @property
    def vertices(self):
        if self.kind == "grid":
            return math.prod(m + 1 for m in self.size)
        return 1

    def count(self, n):
        """|Lambda^n|: paths of shape n (vertices when n = 0)."""
        if self.kind == "grid":
            if any(c > m for c, m in zip(n, self.size)):
                return 0
            return math.prod(m - c + 1 for c, m in zip(n, self.size))
        return math.prod(k ** c for k, c in zip(self.size, n))

    def nonzero_paths(self, bound):
        return sum(self.count(n) for n in shapes_upto(bound) if any(n))

    def basis_size(self, bound):
        """The Fock window: the vacuum plus every nonzero-shape path <= bound."""
        return 1 + self.nonzero_paths(bound)

    def fock_checked(self, relation, bound):
        """Pointwise checks verify_identity makes when no instance fails.

        Each instance compares two operators on every basis vector, so the
        count is instances x basis size, with the instances read off the
        relation's definition.
        """
        r = self.rank
        if relation == "R1":  # left and right isometry per path, vertices included
            instances = 2 * (self.vertices + self.nonzero_paths(bound))
        elif relation == "R2":  # left and right vertex sum per color and vertex
            instances = 2 * r * self.vertices
        elif relation == "R3":  # left and right level complement per color
            instances = 2 * r
        elif relation == "R4":  # left and right floor per nonzero shape k <= bound
            instances = 2 * sum(1 for n in shapes_upto(bound) if any(n))
        elif relation == "commutation":  # ordered pairs below the unit box
            instances = self.nonzero_paths((1,) * r) ** 2
        else:
            raise ValueError(f"unknown relation {relation!r}")
        return instances * self.basis_size(bound)


# -- one-vertex rank-2 graphs as plain words ------------------------------------


class LoopWords:
    """Paths of a one-vertex 2-colored graph as tuples of edge names.

    Edges are a0, a1, ... (color 1) and b0, b1, ... (color 2).  A normal
    word lists its color-1 edges first; a color-2 edge followed by a
    color-1 edge is rewritten by the square rule: "commute" swaps the
    edges, "flip" also swaps their indices (b_q a_p = a_q b_p).
    """

    def __init__(self, loops, rule):
        self.loops = tuple(loops)
        self.rule = rule

    def normal(self, word):
        w = list(word)
        moved = True
        while moved:
            moved = False
            for i in range(len(w) - 1):
                hi, lo = w[i], w[i + 1]
                if hi[0] == "b" and lo[0] == "a":
                    if self.rule == "flip":
                        w[i], w[i + 1] = "a" + hi[1:], "b" + lo[1:]
                    else:
                        w[i], w[i + 1] = lo, hi
                    moved = True
        return tuple(w)

    @staticmethod
    def shape(word):
        return (sum(1 for e in word if e[0] == "a"), sum(1 for e in word if e[0] == "b"))

    def words(self, shape):
        a = [f"a{i}" for i in range(self.loops[0])]
        b = [f"b{i}" for i in range(self.loops[1])]
        return [tuple(x) + tuple(y)
                for x in itertools.product(a, repeat=shape[0])
                for y in itertools.product(b, repeat=shape[1])]

    def compose(self, u, v):
        return self.normal(u + v)

    def head(self, word, k):
        """The unique head of shape k of a normal word, found by search."""
        n = self.shape(word)
        rest = (n[0] - k[0], n[1] - k[1])
        for h in self.words(k):
            for t in self.words(rest):
                if self.compose(h, t) == word:
                    return h
        raise ValueError(f"{word} has no factorization at {k}")

    def has_left_factor(self, word, lam):
        k, n = self.shape(lam), self.shape(word)
        return k[0] <= n[0] and k[1] <= n[1] and self.head(word, k) == lam

    def basis(self, bound):
        """The Fock window: "vacuum" plus every nonzero-shape normal word."""
        out = ["vacuum"]
        for n in shapes_upto(bound):
            if any(n):
                out.extend(self.words(n))
        return out

    def mixed_fixed_set(self, lam, mu, bound):
        """Fixed set of r-_mu l+_lam l-_lam r+_mu on the window.

        A word w is fixed exactly when w.mu carries lam as a left factor;
        the vacuum is fixed when mu itself does.
        """
        fixed = set()
        for w in self.basis(bound):
            whole = mu if w == "vacuum" else self.compose(w, mu)
            if self.has_left_factor(whole, lam):
                fixed.add(w)
        return frozenset(fixed)


# -- commuting partial maps on product carriers ------------------------------------


def component(chain, cycle, feed):
    """One coordinate of a product system: a chain s0 -> s1 -> ... and a cycle.

    With feed the chain's last point runs into the cycle; without it the
    chain ends and its points leave the domain in finitely many steps.
    Returns (points, table) in the form product_system takes.
    """
    pts = [f"s{i}" for i in range(chain)] + [f"c{i}" for i in range(cycle)]
    table = {f"s{i}": f"s{i + 1}" for i in range(chain - 1)}
    if chain and cycle and feed:
        table[f"s{chain - 1}"] = "c0"
    for i in range(cycle):
        table[f"c{i}"] = f"c{(i + 1) % cycle}"
    return pts, table


def finite_exit(comp, p):
    """Whether iterating the component map from p leaves its domain."""
    _, table = comp
    seen = set()
    while p in table:
        if p in seen:
            return False
        seen.add(p)
        p = table[p]
    return True


def exit_parts(components):
    """Part j: carrier points whose j-th exit time is finite."""
    carrier = list(itertools.product(*[pts for pts, _ in components]))
    return carrier, tuple(
        frozenset(x for x in carrier if finite_exit(components[j], x[j]))
        for j in range(len(components)))


def staged_layers(carrier, parts):
    """Layer k: inside every part above k, outside every part below k."""
    r = len(parts)
    return tuple(
        frozenset(x for x in carrier
                  if all(x in parts[i - 1] for i in range(k + 1, r + 1))
                  and not any(x in parts[i - 1] for i in range(1, k)))
        for k in range(r + 2))


def is_free(components):
    """A product action is essentially free exactly when no coordinate has a cycle."""
    return all(finite_exit(comp, p) for comp in components for p in comp[0])


def i_norm(coeffs, ends):
    """Largest fiberwise absolute sum over ranges and sources."""
    sums = {}
    for g, v in coeffs.items():
        x, y = ends(g)
        sums[("r", x)] = sums.get(("r", x), 0) + abs(v)
        sums[("d", y)] = sums.get(("d", y), 0) + abs(v)
    return max(sums.values(), default=0)


def is_equivalence(pairs, points):
    if not all((x, x) in pairs for x in points):
        return False
    if not all((y, x) in pairs for x, y in pairs):
        return False
    by_left = {}
    for x, y in pairs:
        by_left.setdefault(x, set()).add(y)
    return all(w in by_left.get(x, ()) for x, y in pairs for w in by_left.get(y, ()))
