"""Built-in fixture graphs and fans used by the CLI and the test suite."""

from __future__ import annotations

from .errors import InvalidValue, integer
from .graphs import CompactEdge, DecoratedGraph
from .toric import Fan, boundary_graph, quartic_mirror_fan


def theta_graph(
    twists=(0, 0, 0),
    holonomies=(1, 1, 1),
    base_scalars=(1, 1, 1),
    reversing=(False, False, False),
) -> DecoratedGraph:
    """Two vertices joined by three parallel edges."""
    edges = [
        CompactEdge((i, 3 + i), twists[i], holonomies[i], base_scalars[i], reversing[i]) for i in range(3)
    ]
    return DecoratedGraph(((0, 1, 2), (3, 4, 5)), edges)


def circular_ladder_graph(rungs: int) -> DecoratedGraph:
    """The circular ladder with ``rungs`` rungs: a closed trivalent graph
    of dual-surface genus rungs + 1.

    For rungs = 1 this degenerates to the theta graph.
    """
    m = integer(rungs)
    if m < 1:
        raise InvalidValue("need at least one rung")
    if m == 1:
        return theta_graph()
    # Vertices 0..m-1 on the outer cycle, m..2m-1 on the inner cycle.
    # Half-edges: vertex v gets (3v, 3v+1, 3v+2) = (to next, to prev, rung).
    vertices = tuple((3 * v, 3 * v + 1, 3 * v + 2) for v in range(2 * m))
    edges = []
    for i in range(m):
        j = (i + 1) % m
        edges.append(CompactEdge((3 * i, 3 * j + 1)))
    for i in range(m):
        j = (i + 1) % m
        edges.append(CompactEdge((3 * (m + i), 3 * (m + j) + 1)))
    for i in range(m):
        edges.append(CompactEdge((3 * i + 2, 3 * (m + i) + 2)))
    return DecoratedGraph(vertices, edges)


def p3_fan() -> Fan:
    """The fan of P^3: four rays, all four ray triples as cones."""
    return Fan(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    )


def conifold_fan() -> Fan:
    """The resolved conifold: cone over the unit square, split in two."""
    return Fan(
        [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
        [[0, 1, 2], [1, 2, 3]],
    )


def p1p1p1_fan() -> Fan:
    """The fan of P^1 x P^1 x P^1: the eight coordinate octants."""
    rays = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    cones = [[i, j, k] for i in (0, 1) for j in (2, 3) for k in (4, 5)]
    return Fan(rays, cones)


def k4_graph() -> DecoratedGraph:
    """The boundary graph of P^3: K4 with every twist equal to 4."""
    return boundary_graph(p3_fan())


def conifold_graph() -> DecoratedGraph:
    """The boundary graph of the resolved conifold: one compact edge of
    twist 0 and four legs."""
    return boundary_graph(conifold_fan())


def quartic_mirror_graph() -> DecoratedGraph:
    """The 64-vertex boundary graph of the quartic-mirror fan."""
    return boundary_graph(quartic_mirror_fan())


CLI_EXAMPLE_GRAPHS = {
    "theta": theta_graph,
    "p3": k4_graph,
    "conifold": conifold_graph,
    "quartic-mirror": quartic_mirror_graph,
}

CLI_EXAMPLE_FANS = {
    "p3": p3_fan,
    "conifold": conifold_fan,
    "quartic-mirror": quartic_mirror_fan,
}
