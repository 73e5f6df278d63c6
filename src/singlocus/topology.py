"""Graph-manifold homology, twist records, and pencil localization.

The 3-manifold attached to a decorated graph is one circle-fibered pair
of pants per vertex, glued along boundary tori by the self-inverse shear
[[-1, n_e], [0, 1]] acting on the (base, fiber) framings.  Only the first
homology is computed; it comes from a Mayer-Vietoris presentation whose
relations are the differences of the two torus images, and the graph's
cycle rank contributes free summands through the connecting map.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import NegativeDefect
from .graphs import DecoratedGraph, require_valid
from .intlinalg import IntMatrix, _spanning_forest, cokernel_abelian_group


@dataclass(frozen=True)
class ShearMatrix:
    """The framing change [[-1, n], [0, 1]] on (base, fiber); self-inverse."""

    n: int

    def apply(self, base_coeff: int, fiber_coeff: int) -> tuple[int, int]:
        return (-base_coeff + self.n * fiber_coeff, fiber_coeff)


@dataclass(frozen=True)
class PlumbingPresentation:
    """Mayer-Vietoris relations on the generators b1, b2, f of each vertex.

    The relation matrix has the 3V generators as rows and two columns per
    compact edge, in edge order.  The boundary class of the edge at cyclic
    position p of a vertex is b1, b2, or -b1 - b2 - f; the fiber term in
    the third position carries the framing correction that a trivialized
    pants piece forces on its cuff lifts (the three corrections sum to the
    piece's Euler characteristic).
    """

    relation_matrix: IntMatrix


@dataclass(frozen=True)
class H1Result:
    free_rank: int
    torsion: tuple[int, ...]


@dataclass(frozen=True)
class NodalCurveReport:
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

    @functools.cached_property
    def main_pairs(self) -> dict[tuple[int, int], int]:
        """Node count per pair (a, b), a <= b, that touches a main piece,
        in sorted order: at most two pairs per cut edge."""
        counts: dict[tuple[int, int], int] = {}
        for u, first, count, v in self.chains:
            if count:
                ends = ((u, first), (v, first + count - 1))
            else:
                ends = ((min(u, v), max(u, v)),)
            for key in ends:
                counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def annulus_links(self) -> Iterator[int]:
        """Each s, in increasing order, with one node between annuli s and s + 1."""
        return itertools.chain.from_iterable(
            range(first, first + count - 1) for _, first, count, _ in self.chains
        )

    @functools.cached_property
    def incidence(self) -> dict[tuple[int, int], int]:
        """Node count per component pair (a, b), a <= b, in sorted order.

        Pairs touching a main piece have a < len(components) and come
        first; every other pair is (s, s + 1) with one node.  This holds
        one entry per node, so build it only for small curves.
        """
        incidence = dict(self.main_pairs)
        for s in self.annulus_links():
            incidence[(s, s + 1)] = 1
        return incidence


def _boundary_class(position: int, b1: int, b2: int, f: int, row: dict[int, int], sign: int):
    """Accumulate the cuff class at a cyclic position into a relation row."""
    if position == 0:
        row[b1] = row.get(b1, 0) + sign
    elif position == 1:
        row[b2] = row.get(b2, 0) + sign
    else:
        row[b1] = row.get(b1, 0) - sign
        row[b2] = row.get(b2, 0) - sign
        row[f] = row.get(f, 0) - sign


def plumbing_presentation(g: DecoratedGraph) -> PlumbingPresentation:
    """Mayer-Vietoris presentation of H1 of the glued 3-manifold.

    Requires a valid, connected, orientable graph; the reversing flags are
    first gauged away.  Per compact edge between (v, position i) and
    (w, position j) the two relations are

        B(w, j) + B(v, i) = 0
        f_w - f_v - n_e * B(v, i) = 0

    taken in the stored direction v -> w.  Legs contribute nothing.
    """
    g = g.oriented
    inc = g.incidence
    num_v = len(g.vertices)

    def gens(v: int) -> tuple[int, int, int]:
        return (3 * v, 3 * v + 1, 3 * v + 2)  # b1, b2, f

    columns: list[dict[int, int]] = []
    for ei, e in g.compact_edges():
        h_v, h_w = e.ends
        v, w = inc.vertex_of[h_v], inc.vertex_of[h_w]
        pos_v, pos_w = inc.position_of[h_v], inc.position_of[h_w]
        b1v, b2v, fv = gens(v)
        b1w, b2w, fw = gens(w)

        base: dict[int, int] = {}
        _boundary_class(pos_w, b1w, b2w, fw, base, +1)
        _boundary_class(pos_v, b1v, b2v, fv, base, +1)

        fiber: dict[int, int] = {}
        fiber[fw] = fiber.get(fw, 0) + 1
        fiber[fv] = fiber.get(fv, 0) - 1
        _boundary_class(pos_v, b1v, b2v, fv, fiber, -e.twist)

        columns.append(base)
        columns.append(fiber)

    rows = 3 * num_v
    entries = []
    for r in range(rows):
        for col in columns:
            entries.append(col.get(r, 0))
    matrix = IntMatrix(rows, len(columns), tuple(entries))
    return PlumbingPresentation(matrix)


def h1_graph_manifold(g: DecoratedGraph) -> H1Result:
    """H1 of the glued manifold: cokernel of the relations plus Z^{b1(G)}."""
    pres = plumbing_presentation(g)
    free, torsion = cokernel_abelian_group(pres.relation_matrix)
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
    g.oriented  # checks the graph; raises NonOrientable when w1 != 0
    negative = [ei for ei, e in g.compact_edges() if e.twist < 0]
    if negative:
        raise NegativeDefect(
            f"edges {negative} have negative defect; no section with simple zeros exists"
        )
    inc = g.incidence
    num_v = len(g.vertices)
    kept_pairs = [
        inc.endpoints[ei] for ei, e in g.compact_edges() if e.twist == 0
    ]
    comp, tree = _spanning_forest(num_v, kept_pairs)
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
        comp_boundary[comp[inc.vertex_of[leg.end]]] += 1

    # One run of n_e - 1 annuli per cut edge, numbered after the main pieces.
    chains = []
    sphere_index = num_main
    for ei, e in g.compact_edges():
        if e.twist > 0:
            u, v = (comp[x] for x in inc.endpoints[ei])
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
