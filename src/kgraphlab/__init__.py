"""Desk-scale workbench for rank-r colored graphs and the structures they induce.

Modules by topic:

- shapes: N^r / (N ∪ {inf})^r grading vectors
- kgraph: colored graphs with square tables, paths, factorization
- dynsys: commuting partial-map systems on finite carriers
- groupoid: semidirect and germ groupoids, convolution algebra, skeleton checks
- fock: path-space creation operators and their verified relations
- ideals: invariant-subset tuples and the staged exact-sequence model
- duality: rational infinite paths, pairing points, shift dualities
- cli / fixtures / reporting: batch checks over declarative fixture files
"""

from .shapes import INF, ExtendedShape, Shape
from .kgraph import Edge, KGraph, Path, compose, factorize

__all__ = [
    "INF",
    "ExtendedShape",
    "Shape",
    "Edge",
    "KGraph",
    "Path",
    "compose",
    "factorize",
]
