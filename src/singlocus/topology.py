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

from .errors import NegativeDefect
from .graphs import DecoratedGraph, require_valid
from .intlinalg import SparseColumns, _spanning_forest, cokernel_abelian_group
from .record import Record


class ShearMatrix(Record):
    """The framing change [[-1, n], [0, 1]] on (base, fiber); self-inverse."""

    n: int

    def apply(self, base_coeff: int, fiber_coeff: int) -> tuple[int, int]:
        return (-base_coeff + self.n * fiber_coeff, fiber_coeff)


class PlumbingPresentation(Record):
    """Mayer-Vietoris relations on the generators b1, b2, f of each vertex.

    The relation matrix has the 3V generators as rows and two columns per
    compact edge.  The boundary class of the edge at cyclic position p of
    a vertex is b1, b2, or -b1 - b2 - f; the fiber term in the third
    position carries the framing correction that a trivialized pants
    piece forces on its cuff lifts (the three corrections sum to the
    piece's Euler characteristic).  Rows are numbered in the elimination
    order of :func:`plumbing_presentation`.
    """

    relation_matrix: SparseColumns


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


def _torus_class(position: int, gens: tuple[int, int, int], base: int, fiber: int):
    """base * B(position) + fiber * f at a vertex with generators
    (b1, b2, f), as (row, coefficient) terms."""
    b1, b2, f = gens
    if position == 2:
        return ((b1, -base), (b2, -base), (f, fiber - base))
    return ((gens[position], base), (f, fiber))


def _column(terms) -> dict[int, int]:
    """The sum of (row, coefficient) terms as a sparse column."""
    column: dict[int, int] = {}
    for r, c in terms:
        column[r] = column.get(r, 0) + c
    return {r: c for r, c in column.items() if c}


def plumbing_presentation(g: DecoratedGraph) -> PlumbingPresentation:
    """Mayer-Vietoris presentation of H1 of the glued 3-manifold.

    Requires a valid, connected, orientable graph; the reversing flags are
    first gauged away.  A compact edge glues its torus at (a, position i)
    to the one at (b, position j) by the shear S of twist n_e; the torus
    class (base, fiber) maps to base * B(a, i) + fiber * f_a on the a
    side.  Its two relations are image_b(S x) - image_a(x) for the basis
    vectors x:

        -B(b, j) - B(a, i) = 0
        n_e * B(b, j) + f_b - f_a = 0

    which span the same lattice whichever end is a, as S is
    self-inverse.  Legs contribute nothing.

    Rows are numbered in the order that suits the unit elimination of
    :func:`cokernel_abelian_group`: first the fiber f of each vertex but
    the root, root-outward along :attr:`DecoratedGraph.tree`, taking the
    child as a on its tree edge, so that the fiber relation of that edge
    (its column comes first, in the same order) holds -f and otherwise
    only classes of the parent; then b1 and b2 of each vertex in reverse
    breadth-first order, leaves first; last the root's f, which carries
    the shared fiber class.
    """
    oriented = g.oriented
    tree = g.tree  # built by the orientation check; the same on ``oriented``
    g = oriented
    inc = g.incidence
    num_v = len(g.vertices)
    fiber_row = {v: k for k, v in enumerate(tree)} | {0: 3 * num_v - 1}
    gens = {
        v: (num_v - 1 + 2 * k, num_v + 2 * k, fiber_row[v])
        for k, v in enumerate(reversed([0, *tree]))
    }
    child_of = {idx: v for v, (_, idx, _) in tree.items()}

    tree_fibers: list[dict[int, int]] = [{}] * len(tree)
    rest: list[dict[int, int]] = []
    for ci, (_, e) in enumerate(g.compact_edges()):
        h_a, h_b = e.ends
        if child_of.get(ci) == inc.vertex_of[h_b]:
            h_a, h_b = h_b, h_a
        a, b = ((inc.position_of[h], gens[inc.vertex_of[h]]) for h in (h_a, h_b))
        shear = ShearMatrix(e.twist)
        base, fiber = (
            _column((*_torus_class(*b, *shear.apply(*x)), *_torus_class(*a, -x[0], -x[1])))
            for x in ((1, 0), (0, 1))
        )
        rest.append(base)
        if ci in child_of:
            tree_fibers[a[1][2]] = fiber
        else:
            rest.append(fiber)
    return PlumbingPresentation(SparseColumns(3 * num_v, tuple(tree_fibers + rest)))


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
