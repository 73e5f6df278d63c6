"""Graph-manifold homology, twist records, and pencil localization.

The 3-manifold attached to a decorated graph is one circle-fibered pair
of pants per vertex, glued along boundary tori by the self-inverse shear
[[-1, n_e], [0, 1]] acting on the (base, fiber) framings.  Only the first
homology is computed.  It is presented on the fiber of each vertex and
one cuff class per edge, with one relation per vertex and one per
compact edge, so it depends only on the oriented incidence and the
twists, not on the cyclic orders; the graph's cycle rank contributes
free summands through the connecting map.
"""

from __future__ import annotations

from .errors import NegativeDefect
from .graphs import DecoratedGraph, orientation_gauge, require_valid, spanning_forest
from .intlinalg import SparseColumns, cokernel_abelian_group
from .record import Record


class H1Result(Record):
    free_rank: int
    torsion: tuple[int, ...]


class NodalCurveReport(Record):
    """Combinatorics of the nodal curve cut out by a transverse section.

    ``components`` lists (genus, boundary circle count) of the main pieces
    in order of their smallest vertex.  The annulus pieces between parallel
    vanishing circles are counted in ``sphere_components`` and indexed
    after the main pieces.  ``chains`` holds one run per cut edge,
    (main piece u, first annulus index, annulus count n_e - 1, main piece
    v): the edge's n_e nodes link u, the annuli in index order, and v, so
    the report's size follows the graph, not the twists.
    """

    components: tuple[tuple[int, int], ...]
    nodes: int
    chains: tuple[tuple[int, int, int, int], ...]
    sphere_components: int


def _column(terms) -> dict[int, int]:
    """The sum of (row, coefficient) terms as a sparse column."""
    column: dict[int, int] = {}
    for r, c in terms:
        column[r] = column.get(r, 0) + c
    return {r: c for r, c in column.items() if c}


def plumbing_presentation(g: DecoratedGraph) -> SparseColumns:
    """Vertex-edge presentation of H1 of the glued 3-manifold: the
    relations on the fiber f_v of each vertex and one cuff class per edge
    or leg, so V + E + L rows and V + E columns (one relation per vertex
    and one per compact edge).  No row or column depends on the cyclic
    order at a vertex.

    Requires a valid, connected, orientable graph; the reversing flags
    are gauged away, which leaves the edges' ends in place.  A compact
    edge from a to b has the cuff class x_e at its first end; the shear
    of twist n_e makes the class at its second end -x_e.  A leg's cuff
    class is its own.  The relations are, per vertex v and per compact
    edge e from a to b (plumbing calculus: Neumann, Trans. AMS 268, 1981):

        f_v + (signed cuff classes at v) = 0
        f_b - f_a - n_e * x_e = 0

    Rows and columns are numbered in the order that suits the unit
    elimination of :func:`cokernel_abelian_group`.  First come the fiber
    of each vertex but the root, along :attr:`DecoratedGraph.tree`, and
    in the same order the relations of their tree edges, which hold
    +-f_v, the parent's fiber and the edge's cuff class.  Then the cuff
    classes, leaves first: by the larger breadth-first index of their
    ends, descending, ties in edge order.  Last the root's fiber, which
    carries the shared fiber class.  The vertex relations follow the
    tree edges in breadth-first order, and the other edges come last.
    """
    orientation_gauge(g)  # raises InvalidGraph, DisconnectedGraph or NonOrientable
    tree = g.tree
    bfs_index = {v: k for k, v in enumerate([0, *tree])}
    ends = {ei: pair for (ei, _), pair in zip(g.compact_edges(), g.compact_pairs)}
    ends |= {ei: (g.vertex_of[leg.end],) for ei, leg in g.legs()}
    cuffs = sorted(ends, key=lambda ei: (-max(bfs_index[v] for v in ends[ei]), ei))
    rows = len(bfs_index) + len(cuffs)
    fiber = {v: k for k, v in enumerate(tree)} | {0: rows - 1}
    cuff = {ei: len(tree) + k for k, ei in enumerate(cuffs)}

    sign = {e.ends[1]: -1 for _, e in g.compact_edges()}  # the class there is -x_e
    vertex_relations = [
        _column([(fiber[v], 1)] + [(cuff[g.edge_of[h]], sign.get(h, 1)) for h in g.vertices[v]])
        for v in bfs_index
    ]
    edge_relations = []
    for (ei, e), (a, b) in zip(g.compact_edges(), g.compact_pairs):
        edge_relations.append(_column(((fiber[b], 1), (fiber[a], -1), (cuff[ei], -e.twist))))
    columns = [edge_relations[ci] for _, ci in tree.values()] + vertex_relations
    columns += [edge_relations[ci] for ci, _ in g.cycle_edges]
    return SparseColumns(rows, columns)


def h1_graph_manifold(g: DecoratedGraph) -> H1Result:
    """H1 of the glued manifold: cokernel of the relations plus Z^{b1(G)}."""
    free, torsion = cokernel_abelian_group(plumbing_presentation(g))
    cycle_rank = len(g.compact_pairs) - len(g.vertices) + 1
    return H1Result(free + cycle_rank, torsion)


def dehn_twist_record(g: DecoratedGraph) -> list[tuple[int, int]]:
    """Edges where the global twist acts by multi-fold Dehn twists.

    One entry (edge index, multiplicity n_e) per compact edge with
    nonzero twist; empty exactly when every defect vanishes.
    """
    require_valid(g)
    return [(ei, e.twist) for ei, e in g.compact_edges() if e.twist != 0]


def pencil_localization(g: DecoratedGraph) -> NodalCurveReport:
    """Cut the dual surface along n_e parallel circles per edge.

    Needs all n_e >= 0 (a transverse section with simple zeros exists only
    then).  Cutting the circles of an edge produces n_e - 1 annuli between
    consecutive circles; the remaining main pieces are the components of
    the graph with all positive-twist edges deleted, and each deleted edge
    end leaves one boundary circle on its side.  Collapsing every circle
    to a node yields the nodal curve: nodes total Sum(n_e), annuli become
    genus-0 components with two nodes.
    """
    orientation_gauge(g)  # raises InvalidGraph, DisconnectedGraph or NonOrientable
    negative = [ei for ei, e in g.compact_edges() if e.twist < 0]
    if negative:
        raise NegativeDefect(
            f"edges {negative} have negative defect; no section with simple zeros exists"
        )
    compact = [(e, ends) for (_, e), ends in zip(g.compact_edges(), g.compact_pairs)]
    num_v = len(g.vertices)
    kept_pairs = [ends for e, ends in compact if e.twist == 0]
    comp, tree = spanning_forest(num_v, kept_pairs)
    num_main = num_v - len(tree)

    # genus = cycle rank of the kept subgraph; boundary = legs + cut ends.
    comp_vertices = [0] * num_main
    comp_edges = [0] * num_main
    comp_boundary = [0] * num_main
    for v in range(num_v):
        comp_vertices[comp[v]] += 1
    for u, v in kept_pairs:
        comp_edges[comp[u]] += 1
    for _, leg in g.legs():
        comp_boundary[comp[g.vertex_of[leg.end]]] += 1

    # One run of n_e - 1 annuli per cut edge, numbered after the main pieces.
    chains = []
    sphere_index = num_main
    for e, ends in compact:
        if e.twist > 0:
            u, v = (comp[x] for x in ends)
            comp_boundary[u] += 1
            comp_boundary[v] += 1
            chains.append((u, sphere_index, e.twist - 1, v))
            sphere_index += e.twist - 1

    components = tuple(
        (comp_edges[c] - comp_vertices[c] + 1, comp_boundary[c])
        for c in range(num_main)
    )
    nodes = sum(count + 1 for _, _, count, _ in chains)
    return NodalCurveReport(components, nodes, tuple(chains), sphere_index - num_main)
