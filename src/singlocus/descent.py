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

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .errors import GraphMismatch, InvalidValue, TwistMismatch, in_full, items, nonzero, shown
from .graphs import CompactEdge, DecoratedGraph, orientation_gauge
from .localmodels import EdgeAut
from .record import Record


class DescentDiagram(Record):
    """A chart scalar per vertex and a transition per compact edge, stored
    against :attr:`directions`.

    The constructor is the one gate: it refuses a graph that
    :func:`orientation_gauge` refuses (invalid, disconnected or
    non-orientable), a chart count other than the vertex count or a zero
    chart, a transition count other than the compact-edge count
    (:class:`InvalidValue`), and a transition without eps = -1, shift = 1
    and n = twist (:class:`TwistMismatch`).  A transition known against
    its stored direction is given as its :func:`edge_aut_inverse`.
    """

    graph: DecoratedGraph
    charts: tuple[Fraction, ...]
    transitions: tuple[EdgeAut, ...]

    def __post_init__(self):
        if not isinstance(self.graph, DecoratedGraph):
            raise InvalidValue(f"expected a DecoratedGraph, got {shown(self.graph)}")
        orientation_gauge(self.graph)  # raises InvalidGraph, DisconnectedGraph or NonOrientable
        charts, transitions = items(self.charts), items(self.transitions)
        if len(charts) != len(self.graph.vertices):
            raise InvalidValue("need one chart scalar per vertex")
        object.__setattr__(self, "charts", tuple(nonzero(c, "trivialization") for c in charts))
        compact = self.graph.compact_edges()
        if len(transitions) != len(compact):
            raise InvalidValue("need one transition per compact edge")
        for (ei, e), aut in zip(compact, transitions):
            if not isinstance(aut, EdgeAut):
                raise InvalidValue(f"expected an EdgeAut, got {shown(aut)}")
            if aut.eps != -1:
                raise TwistMismatch(f"edge {ei}: transition must have eps = -1")
            if aut.shift != 1:
                raise TwistMismatch(f"edge {ei}: transition must involve the shift")
            if aut.n != e.twist:
                n, twist = in_full(aut.n), in_full(e.twist)
                raise TwistMismatch(f"edge {ei}: transition twist {n} != edge defect {twist}")
        object.__setattr__(self, "transitions", transitions)

    @cached_property
    def directions(self) -> tuple[tuple[int, int], ...]:
        """The stored (source, target) of each compact edge."""
        return tuple(canonical_directions(self.graph))


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
        """True iff the constructed line bundle is trivial.  Only the degree
        vector and the beta holonomies matter; the alpha holonomies are
        moduli of the curve itself and do not obstruct."""
        return all(n == 0 for n in self.degree_vector) and all(h == 1 for h in self.beta_holonomies)


def canonical_directions(g: DecoratedGraph) -> list[tuple[int, int]]:
    """Stored direction per compact edge: lower vertex index to higher.

    Ties (self-loops) keep the half-edge storage order of the edge.
    """
    return [(v1, v2) if v1 <= v2 else (v2, v1) for v1, v2 in g.compact_pairs]


def assemble_diagram(g: DecoratedGraph) -> DescentDiagram:
    """The canonical diagram of a graph: charts 1 and, per compact edge,
    eps = -1, shift = 1, n = twist, lam_x = base scalar and lam_u =
    holonomy, stored along :func:`canonical_directions`."""
    transitions = [EdgeAut(-1, e.twist, e.base_scalar, e.holonomy, 1) for _, e in g.compact_edges()]
    return DescentDiagram(g, (Fraction(1),) * len(g.vertices), transitions)


def gauge(d: DescentDiagram, vertex_scalars: Sequence[Fraction]) -> DescentDiagram:
    """Rescale the vertex trivializations and push the change into lam_u.

    Each stored transition picks up g_source * lam_u * g_target^-1; the
    discrete data and lam_x are untouched.
    """
    scalars = items(vertex_scalars)
    if len(scalars) != len(d.graph.vertices):
        raise InvalidValue("need one gauge scalar per vertex")
    scalars = [nonzero(s, "gauge scalars") for s in scalars]
    charts = tuple(s * c for s, c in zip(scalars, d.charts))
    transitions = tuple(
        EdgeAut(aut.eps, aut.n, aut.lam_x, scalars[src] * aut.lam_u / scalars[tgt], aut.shift)
        for aut, (src, tgt) in zip(d.transitions, d.directions)
    )
    return DescentDiagram(d.graph, charts, transitions)


def pic_invariants(d: DescentDiagram) -> PicInvariants:
    """The degree vector, and the beta and alpha holonomies read off the
    potentials P of lam_u and lam_x along ``d.graph.tree``, P(0) = 1.

    P(child) is P(parent) * lam when ``d.directions`` stores the edge
    parent -> child and P(parent) / lam otherwise, so the cycle that edge
    (s, t) closes has value P(t) / P(s) / lam.
    """
    pot_u, pot_x = [Fraction(1)] * len(d.graph.vertices), [Fraction(1)] * len(d.graph.vertices)
    for v, (u, idx) in d.graph.tree.items():
        aut = d.transitions[idx]
        if d.directions[idx][0] == u:
            pot_u[v], pot_x[v] = pot_u[u] * aut.lam_u, pot_x[u] * aut.lam_x
        else:
            pot_u[v], pot_x[v] = pot_u[u] / aut.lam_u, pot_x[u] / aut.lam_x
    betas, alphas = [], []
    for idx, _ in d.graph.cycle_edges:
        (s, t), aut = d.directions[idx], d.transitions[idx]
        betas.append(pot_u[t] / pot_u[s] / aut.lam_u)
        alphas.append(pot_x[t] / pot_x[s] / aut.lam_x)
    return PicInvariants(tuple(aut.n for aut in d.transitions), tuple(betas), tuple(alphas))


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

