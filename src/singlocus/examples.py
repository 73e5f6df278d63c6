"""Built-in fixture graphs and fans used by the CLI and the test suite."""

from __future__ import annotations

import itertools

from . import toric
from .errors import InvalidValue, integer, items
from .graphs import CompactEdge, DecoratedGraph


def theta_graph(
    twists=(0, 0, 0),
    holonomies=(1, 1, 1),
    base_scalars=(1, 1, 1),
    reversing=(False, False, False),
) -> DecoratedGraph:
    """Two vertices joined by three parallel edges; each decoration is a
    list of three values, one per edge."""
    decorations = (items(x, 3) for x in (twists, holonomies, base_scalars, reversing))
    edges = [CompactEdge((i, 3 + i), *per_edge) for i, per_edge in enumerate(zip(*decorations))]
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
    edges = [CompactEdge((3 * (o + i), 3 * (o + (i + 1) % m) + 1)) for o in (0, m) for i in range(m)]
    edges += [CompactEdge((3 * i + 2, 3 * (m + i) + 2)) for i in range(m)]
    return DecoratedGraph(vertices, edges)


def p3_fan() -> toric.Fan:
    """The fan of P^3: four rays, all four ray triples as cones."""
    return toric.Fan(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    )


def conifold_fan() -> toric.Fan:
    """The resolved conifold: cone over the unit square, split in two."""
    return toric.Fan(
        [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
        [[0, 1, 2], [1, 2, 3]],
    )


def p1p1p1_fan() -> toric.Fan:
    """The fan of P^1 x P^1 x P^1: the eight coordinate octants."""
    rays = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    cones = [[i, j, k] for i in (0, 1) for j in (2, 3) for k in (4, 5)]
    return toric.Fan(rays, cones)


def quartic_mirror_fan() -> toric.Fan:
    """The fan over the unit triangulation of the boundary of the
    reflexive tetrahedron conv{(-1,-1,-1), (3,-1,-1), (-1,3,-1), (-1,-1,3)}.

    Its 34 nonzero lattice points, all on the boundary, are the rays, in the
    order ``itertools.product`` yields them.  Each of the four facets
    (lattice side 4) is cut into 16 unit triangles with sides parallel to
    its edges, and the 64 cones over them are the maximal cones.
    """
    rays = [p for p in itertools.product(range(-1, 4), repeat=3) if sum(p) <= 1 and any(p)]
    index = {r: k for k, r in enumerate(rays)}
    cones = []
    for a, *others in itertools.combinations([(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)], 3):
        du, dv = ([(y - x) // 4 for x, y in zip(a, corner)] for corner in others)
        pt = {
            (i, j): index[tuple(x + i * u + j * v for x, u, v in zip(a, du, dv))]
            for i in range(5)
            for j in range(5 - i)
        }
        for i, j in pt:
            if i + j <= 3:
                cones.append(sorted((pt[i, j], pt[i + 1, j], pt[i, j + 1])))
            if i + j <= 2:
                cones.append(sorted((pt[i + 1, j], pt[i, j + 1], pt[i + 1, j + 1])))
    return toric.Fan(rays, sorted(cones))


CLI_EXAMPLE_GRAPHS = {"theta": theta_graph}

CLI_EXAMPLE_FANS = {
    "p3": p3_fan,
    "conifold": conifold_fan,
    "quartic-mirror": quartic_mirror_fan,
}
