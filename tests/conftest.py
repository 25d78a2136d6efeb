import pytest

from kgraphlab.shapes import Shape
from kgraphlab.kgraph import EMPTY, flip_graph, grid_graph, one_loop_per_color_graph


def index_entries(index):
    """(fixed part, key, answer) of each entry of a path table's index, the seeded keys None
    and EMPTY left out."""
    return [(at, x, out) for at, inner in index.items() for x, out in inner.items()
            if x is not None and x != EMPTY]


def composable_pairs(G):
    """The composable element pairs (g, h) of G, in check_axioms order: g in element order, then h."""
    by_range = {}
    for h in G:
        by_range.setdefault(h.x, []).append(h)
    return ((g, h) for g in G for h in by_range.get(g.y, ()))


@pytest.fixture(scope="session")
def grid11():
    return grid_graph(Shape(1, 1))


@pytest.fixture(scope="session")
def n2graph():
    return one_loop_per_color_graph(2)


@pytest.fixture(scope="session")
def flip22():
    return flip_graph()


@pytest.fixture(scope="session")
def graph_family(grid11, n2graph, flip22):
    return (grid11, n2graph, flip22)
