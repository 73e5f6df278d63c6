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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import GraphMismatch, NonOrientable, TwistMismatch
from .graphs import CompactEdge, DecoratedGraph, orientability, require_connected, require_valid
from .intlinalg import cycle_basis
from .localmodels import EdgeAut, _nonzero, compose_edge_aut, edge_aut_inverse


@dataclass(frozen=True)
class VertexChart:
    """Cyclic order (from the ribbon data) plus a trivialization scalar."""

    cyclic_order: tuple[int, int, int]
    trivialization: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "trivialization", _nonzero(self.trivialization, "trivialization"))
        object.__setattr__(self, "cyclic_order", tuple(self.cyclic_order))


@dataclass(frozen=True)
class DescentDiagram:
    graph: DecoratedGraph
    charts: tuple[VertexChart, ...]
    transitions: tuple[EdgeAut, ...]  # one per compact edge, canonical direction
    directions: tuple[tuple[int, int], ...]  # canonical (source, target) per compact edge


@dataclass(frozen=True)
class PicInvariants:
    """Gauge-invariant line-bundle data on the singular locus.

    ``degree_vector`` lists the per-compact-edge twists; the holonomies
    are signed cycle products of the transition scalars over the cycles of
    :func:`cycle_basis`.
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
    require_valid(g)
    require_connected(g)
    orientable, w1 = orientability(g)
    if not orientable:
        raise NonOrientable(f"w1 cocycle on cycles is {w1}; diagrams need w1 = 0")

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


def pic_invariants(d: DescentDiagram) -> PicInvariants:
    require_connected(d.graph)
    # Cycles must be signed against the canonical directions the
    # transitions are stored in, not the raw half-edge storage order.
    degree = tuple(aut.n for aut in d.transitions)
    betas, alphas = [], []
    for cycle in cycle_basis(len(d.graph.vertices), d.directions):
        beta = Fraction(1)
        alpha = Fraction(1)
        for edge_idx, sign in cycle:
            aut = d.transitions[edge_idx]
            beta *= aut.lam_u**sign
            alpha *= aut.lam_x**sign
        betas.append(beta)
        alphas.append(alpha)
    return PicInvariants(degree, tuple(betas), tuple(alphas))


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

    Solves g_src * lam_u = g_tgt along a spanning tree and then checks the
    remaining edges; a solution exists iff every beta holonomy is 1 (and
    every self-loop already has lam_u = 1).  Twists are untouched by
    gauging, so this does not by itself decide 2-periodicity.
    """
    pairs = d.graph.compact_pairs
    scalars: list[Optional[Fraction]] = [None] * len(d.graph.vertices)
    scalars[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for idx, (u, v) in enumerate(pairs):
            if u == v:
                continue
            aut = d.transitions[idx]
            src, tgt = d.directions[idx]
            if scalars[src] is not None and scalars[tgt] is None:
                scalars[tgt] = scalars[src] * aut.lam_u
                changed = True
            elif scalars[tgt] is not None and scalars[src] is None:
                scalars[src] = scalars[tgt] / aut.lam_u
                changed = True
    if any(s is None for s in scalars):
        return None
    candidate = gauge(d, scalars)
    if all(aut.lam_u == 1 for aut in candidate.transitions):
        return scalars
    return None


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
