"""Descent diagrams over a decorated graph and their gauge invariants.

A diagram carries one chart per vertex (a trivialization scalar) and one
edge-model autoequivalence per compact edge, stored against the canonical
direction (lower vertex index -> higher, ties by half-edge order).  Every
transition has eps = -1 and shift = 1, and its integer twist equals the
edge's defect; only the continuous scalars are free.  Gauging the vertex
trivializations moves the lam_u scalars, so the invariant content is the
degree vector together with the cycle holonomies.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import GraphMismatch, TwistMismatch
from .graphs import CompactEdge, DecoratedGraph, _non_tree_edges, orientation_gauge
from .localmodels import EdgeAut, _nonzero, compose_edge_aut, edge_aut_inverse
from .record import Record


class VertexChart(Record):
    """Cyclic order (from the ribbon data) plus a trivialization scalar."""

    cyclic_order: tuple[int, int, int]
    trivialization: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "trivialization", _nonzero(self.trivialization, "trivialization"))
        object.__setattr__(self, "cyclic_order", tuple(self.cyclic_order))


class DescentDiagram(Record):
    graph: DecoratedGraph
    charts: tuple[VertexChart, ...]
    transitions: tuple[EdgeAut, ...]  # one per compact edge, canonical direction
    directions: tuple[tuple[int, int], ...]  # canonical (source, target) per compact edge


class PicInvariants(Record):
    """Gauge-invariant line-bundle data on the singular locus.

    ``degree_vector`` lists the per-compact-edge twists; the holonomies
    are the signed products of the transition scalars around the cycle
    that each compact edge outside :attr:`DecoratedGraph.tree` closes, in
    edge order.
    """

    degree_vector: tuple[int, ...]
    beta_holonomies: tuple[Fraction, ...]
    alpha_holonomies: tuple[Fraction, ...]

    def is_trivial(self) -> bool:
        return all(n == 0 for n in self.degree_vector) and all(
            h == 1 for h in self.beta_holonomies
        )


def canonical_directions(g: DecoratedGraph) -> list[tuple[int, int]]:
    """Stored direction per compact edge: lower vertex index to higher.

    Ties (self-loops) keep the half-edge storage order of the edge.
    """
    return [(v1, v2) if v1 <= v2 else (v2, v1) for v1, v2 in g.compact_pairs]


def assemble_diagram(
    g: DecoratedGraph,
    charts: Optional[Sequence[Fraction]] = None,
    transitions: Optional[Sequence[tuple[tuple[int, int], EdgeAut]]] = None,
) -> DescentDiagram:
    """Build the diagram for a valid, connected, orientable graph.

    Without explicit ``transitions`` the autoequivalences come from the
    edge decorations: eps = -1, shift = 1, n = twist, lam_x = base scalar,
    lam_u = holonomy.  Explicit transitions are given as
    ``((source, target), EdgeAut)`` per compact edge; a transition stored
    against the reversed direction is replaced by its inverse.  The
    discrete constraints (eps = -1, shift = 1, n = twist) are enforced.
    """
    orientation_gauge(g)  # raises InvalidGraph, DisconnectedGraph or NonOrientable
    if charts is None:
        chart_scalars = [Fraction(1)] * len(g.vertices)
    else:
        chart_scalars = [Fraction(c) for c in charts]
        if len(chart_scalars) != len(g.vertices):
            raise ValueError("need one chart scalar per vertex")
    chart_objs = tuple(
        VertexChart(tuple(g.vertices[v]), chart_scalars[v])
        for v in range(len(g.vertices))
    )

    compact = g.compact_edges()
    directions = canonical_directions(g)
    if transitions is None:
        built = [
            EdgeAut(-1, e.twist, e.base_scalar, e.holonomy, 1) for _, e in compact
        ]
    else:
        if len(transitions) != len(compact):
            raise ValueError("need one transition per compact edge")
        built = []
        for (ei, e), pair, (direction, aut), canon in zip(
            compact, g.compact_pairs, transitions, directions
        ):
            direction = (int(direction[0]), int(direction[1]))
            if set(direction) != set(pair):
                raise TwistMismatch(
                    f"edge {ei}: direction {direction} does not join its endpoints"
                )
            if aut.eps != -1:
                raise TwistMismatch(f"edge {ei}: transition must have eps = -1")
            if aut.shift != 1:
                raise TwistMismatch(f"edge {ei}: transition must involve the shift")
            if aut.n != e.twist:
                raise TwistMismatch(
                    f"edge {ei}: transition twist {aut.n} != edge defect {e.twist}"
                )
            if direction != canon:
                aut = edge_aut_inverse(aut)
            built.append(aut)
    return DescentDiagram(g, chart_objs, tuple(built), tuple(directions))


def gauge(d: DescentDiagram, vertex_scalars: Sequence[Fraction]) -> DescentDiagram:
    """Rescale the vertex trivializations and push the change into lam_u.

    Each stored transition picks up g_source * lam_u * g_target^-1; the
    discrete data and lam_x are untouched.
    """
    scalars = [Fraction(s) for s in vertex_scalars]
    if len(scalars) != len(d.graph.vertices):
        raise ValueError("need one gauge scalar per vertex")
    if any(s == 0 for s in scalars):
        raise ValueError("gauge scalars must be nonzero")
    charts = tuple(
        VertexChart(c.cyclic_order, scalars[v] * c.trivialization)
        for v, c in enumerate(d.charts)
    )
    transitions = []
    for aut, (src, tgt) in zip(d.transitions, d.directions):
        transitions.append(
            EdgeAut(aut.eps, aut.n, aut.lam_x, scalars[src] * aut.lam_u / scalars[tgt], aut.shift)
        )
    return DescentDiagram(d.graph, charts, tuple(transitions), d.directions)


def _holonomies(d: DescentDiagram) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """Potentials P_u of lam_u along ``d.graph.tree`` from P_u(0) = 1, and
    the beta and alpha holonomies of the cycles, in edge order.

    P(child) is P(parent) * lam when ``d.directions`` stores the edge
    parent -> child and P(parent) / lam otherwise, so the cycle that edge
    (s, t) closes has value P(t) / P(s) / lam.
    """
    pot_u, pot_x = [Fraction(1)] * len(d.graph.vertices), [Fraction(1)] * len(d.graph.vertices)
    for v, (u, idx, _) in d.graph.tree.items():
        aut = d.transitions[idx]
        if d.directions[idx][0] == u:
            pot_u[v], pot_x[v] = pot_u[u] * aut.lam_u, pot_x[u] * aut.lam_x
        else:
            pot_u[v], pot_x[v] = pot_u[u] / aut.lam_u, pot_x[u] / aut.lam_x
    betas, alphas = [], []
    for idx, _ in _non_tree_edges(d.graph):
        (s, t), aut = d.directions[idx], d.transitions[idx]
        betas.append(pot_u[t] / pot_u[s] / aut.lam_u)
        alphas.append(pot_x[t] / pot_x[s] / aut.lam_x)
    return pot_u, betas, alphas


def pic_invariants(d: DescentDiagram) -> PicInvariants:
    _, betas, alphas = _holonomies(d)
    return PicInvariants(tuple(aut.n for aut in d.transitions), tuple(betas), tuple(alphas))


def is_two_periodic(d: DescentDiagram) -> bool:
    """True iff the constructed line bundle is trivial.

    Only the degree vector and the beta holonomies matter; the alpha
    holonomies are moduli of the curve itself and do not obstruct.
    """
    return pic_invariants(d).is_trivial()


def _graph_shape(g: DecoratedGraph):
    return (
        g.vertices,
        tuple(
            ("compact", e.ends) if isinstance(e, CompactEdge) else ("leg", e.end)
            for e in g.edges
        ),
    )


def diagrams_equivalent(d1: DescentDiagram, d2: DescentDiagram) -> bool:
    """Gauge equivalence, decided by invariant comparison.

    The two diagrams must share the combinatorial graph (vertices and
    edge incidences); the scalar decorations live in the transitions and
    are exactly what the comparison quotients by gauge.
    """
    if _graph_shape(d1.graph) != _graph_shape(d2.graph):
        raise GraphMismatch("diagrams live on different graphs")
    return pic_invariants(d1) == pic_invariants(d2)


def trivializing_gauge(d: DescentDiagram) -> Optional[list[Fraction]]:
    """A gauge sending every lam_u to 1, or None when no such gauge exists.

    The gauge is the lam_u potential along the spanning tree, the unique
    solution of g_src * lam_u = g_tgt on the tree edges with g[0] = 1; it
    trivializes every edge iff every beta holonomy is 1 (a self-loop's is
    1 / lam_u).  Twists are untouched by gauging, so this does not by
    itself decide 2-periodicity.
    """
    pot_u, betas, _ = _holonomies(d)
    return pot_u if all(b == 1 for b in betas) else None


def compose_cycle(d: DescentDiagram, cycle: Sequence[tuple[int, int]]) -> EdgeAut:
    """Composite of edge transitions along a cycle, earliest edge outermost.

    Traversal against the stored direction uses the inverse transition.
    The discrete part of the result is ((-1)^length, signed twist sum);
    in particular even cycles land back in the eps = +1 component.
    """
    result = None
    for edge_idx, sign in cycle:
        aut = d.transitions[edge_idx]
        if sign < 0:
            aut = edge_aut_inverse(aut)
        result = aut if result is None else compose_edge_aut(result, aut)
    if result is None:
        raise ValueError("empty cycle")
    return result
