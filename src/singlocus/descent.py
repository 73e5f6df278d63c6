"""Descent diagrams over a decorated graph and their gauge invariants.

A diagram carries one chart per vertex (a trivialization scalar) and one
edge-model autoequivalence per compact edge, stored against the canonical
direction (lower vertex index -> higher, ties by half-edge order).  The
graph fixes every transition's discrete part (eps = -1, the shift, and
n = the edge's defect), so a transition is stored as its two scalars.
Gauging the vertex trivializations moves the lam_u scalars, so the
invariant content is the degree vector together with the cycle holonomies.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .errors import GraphMismatch, InvalidValue, Record, items, nonzero
from .graphs import CompactEdge, DecoratedGraph, orientation_gauge


class DescentDiagram(Record):
    """A chart scalar per vertex and a transition per compact edge, stored
    against :attr:`directions`.

    The transition of an edge with twist n is the pair (lam_x, lam_u) of
    the autoequivalence (x, u) -> (lam_x x^-1, lam_u x^n u) with the
    shift.  One known against its stored direction is given as
    (lam_x, lam_x^-n / lam_u), its ``edge_aut_inverse`` at eps = -1.

    The constructor is the one gate: it refuses a graph that
    :func:`orientation_gauge` refuses (not a graph, invalid, disconnected
    or non-orientable), and with :class:`InvalidValue` a chart count other
    than the vertex count or a zero chart, a transition count other than
    the compact-edge count, and a transition that is not a pair of
    nonzero scalars.
    """

    graph: DecoratedGraph
    charts: tuple[Fraction, ...]
    transitions: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        orientation_gauge(self.graph)  # raises InvalidValue, InvalidGraph, DisconnectedGraph or NonOrientable
        charts, transitions = items(self.charts), items(self.transitions)
        if len(charts) != len(self.graph.vertices):
            raise InvalidValue("need one chart scalar per vertex")
        object.__setattr__(self, "charts", tuple(nonzero(c, "trivialization") for c in charts))
        if len(transitions) != len(self.graph.compact_pairs):
            raise InvalidValue("need one transition per compact edge")
        pairs = (items(t, 2) for t in transitions)
        transitions = tuple((nonzero(x, "lam_x"), nonzero(u, "lam_u")) for x, u in pairs)
        object.__setattr__(self, "transitions", transitions)

    @cached_property
    def directions(self) -> tuple[tuple[int, int], ...]:
        """The stored (source, target) of each compact edge: lower vertex
        index to higher, a self-loop in the half-edge order of its edge."""
        return tuple((v1, v2) if v1 <= v2 else (v2, v1) for v1, v2 in self.graph.compact_pairs)


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


def assemble_diagram(g: DecoratedGraph) -> DescentDiagram:
    """The canonical diagram of a graph: charts 1 and, per compact edge,
    lam_x = base scalar and lam_u = holonomy, stored along
    :attr:`DescentDiagram.directions`."""
    transitions = [(e.base_scalar, e.holonomy) for _, e in g.compact_edges()]
    return DescentDiagram(g, (Fraction(1),) * len(g.vertices), transitions)


def gauge(d: DescentDiagram, vertex_scalars: Sequence[Fraction]) -> DescentDiagram:
    """Rescale the vertex trivializations and push the change into lam_u.

    Each stored transition picks up g_source * lam_u * g_target^-1; lam_x
    is untouched.
    """
    scalars = items(vertex_scalars)
    if len(scalars) != len(d.graph.vertices):
        raise InvalidValue("need one gauge scalar per vertex")
    scalars = [nonzero(s, "gauge scalars") for s in scalars]
    charts = tuple(s * c for s, c in zip(scalars, d.charts))
    transitions = tuple(
        (lam_x, scalars[src] * lam_u / scalars[tgt])
        for (lam_x, lam_u), (src, tgt) in zip(d.transitions, d.directions)
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
        lam_x, lam_u = d.transitions[idx]
        if d.directions[idx][0] == u:
            pot_u[v], pot_x[v] = pot_u[u] * lam_u, pot_x[u] * lam_x
        else:
            pot_u[v], pot_x[v] = pot_u[u] / lam_u, pot_x[u] / lam_x
    betas, alphas = [], []
    for idx, _ in d.graph.cycle_edges:
        (s, t), (lam_x, lam_u) = d.directions[idx], d.transitions[idx]
        betas.append(pot_u[t] / pot_u[s] / lam_u)
        alphas.append(pot_x[t] / pot_x[s] / lam_x)
    degrees = tuple(e.twist for _, e in d.graph.compact_edges())
    return PicInvariants(degrees, tuple(betas), tuple(alphas))


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

