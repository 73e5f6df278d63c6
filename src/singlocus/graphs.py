"""Decorated trivalent ribbon graphs and their dual surfaces.

A :class:`DecoratedGraph` is the combinatorial model of a graph-like
singular locus: vertices are triple points carrying a cyclic order of
three half-edges (the ribbon structure), compact edges are the closed
curve components with their defect/holonomy decorations, and legs are the
affine components.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .errors import DisconnectedGraph, InvalidGraph, InvalidValue, NonOrientable, Record
from .errors import in_full, instance, integer, integers, items, nonzero, pair, shown


class CompactEdge(Record):
    """A closed curve component joining two half-edges.

    ``twist`` is the defect n_e, ``holonomy`` the clutching scalar beta_e,
    ``base_scalar`` the coordinate scalar alpha_e. ``reversing`` marks an
    orientation-reversing gluing, and ``self_intersections``, when known,
    must satisfy the triple point formula n_e = a + b + 2.
    """

    ends: tuple[int, int]
    twist: int = 0
    holonomy: Fraction = Fraction(1)
    base_scalar: Fraction = Fraction(1)
    reversing: bool = False
    self_intersections: tuple[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "ends", pair(self.ends))
        object.__setattr__(self, "twist", integer(self.twist))
        object.__setattr__(self, "holonomy", nonzero(self.holonomy, "holonomy"))
        object.__setattr__(self, "base_scalar", nonzero(self.base_scalar, "base scalar"))
        if type(self.reversing) is not bool:
            raise InvalidValue(f"expected true or false, got {shown(self.reversing)}")
        if self.self_intersections is not None:
            object.__setattr__(self, "self_intersections", pair(self.self_intersections))


class Leg(Record):
    """An affine component: a single half-edge with no decoration."""

    end: int

    def __post_init__(self):
        object.__setattr__(self, "end", integer(self.end))


Edge = CompactEdge | Leg


class DecoratedGraph(Record):
    """Vertices (cyclic half-edge triples) and edges, as lists or tuples.

    The derived data below is computed on first use and kept on the
    value (treat it as read-only), so each graph is validated, indexed
    and gauged at most once.  Every table is built after :attr:`vertex_of`,
    which raises :class:`InvalidGraph` first on an invalid graph.  The
    face walks of :func:`dual_surface` step through the cyclic orders and
    edges themselves, once that gate has passed.
    """

    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(map(integers, items(self.vertices))))
        object.__setattr__(self, "edges", items(self.edges))
        for e in self.edges:
            if not isinstance(e, (CompactEdge, Leg)):
                raise InvalidValue(f"expected a CompactEdge or Leg, got {shown(e)}")

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """:func:`validate_graph` of this graph."""
        return tuple(validate_graph(self))

    @cached_property
    def vertex_of(self) -> dict[int, int]:
        """The vertex of each half-edge; raises :class:`InvalidGraph` on
        an invalid graph."""
        require_valid(self)
        return {h: vi for vi, triple in enumerate(self.vertices) for h in triple}

    @cached_property
    def edge_of(self) -> dict[int, int]:
        """The index in ``edges`` of each half-edge's edge."""
        self.vertex_of  # raises InvalidGraph on an invalid graph
        return {
            h: ei
            for ei, e in enumerate(self.edges)
            for h in (e.ends if isinstance(e, CompactEdge) else (e.end,))
        }

    @cached_property
    def compact_pairs(self) -> tuple[tuple[int, int], ...]:
        """Endpoint vertex pairs of the compact edges, in edge order."""
        vertex_of = self.vertex_of
        return tuple((vertex_of[e.ends[0]], vertex_of[e.ends[1]]) for _, e in self.compact_edges())

    @cached_property
    def tree(self) -> dict[int, tuple[int, int]]:
        """The lowest-edge-index spanning tree of the compact edges, as
        ``{vertex: (parent, compact edge index)}`` breadth-first from vertex
        0, each vertex's children in edge order.  Raises
        :class:`DisconnectedGraph` unless the compact edges connect them."""
        pairs, n = self.compact_pairs, len(self.vertices)
        _, tree = spanning_forest(n, pairs)
        if len(tree) != n - 1:  # also the empty graph: 0 != -1
            raise DisconnectedGraph("graph is not connected")
        links: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
        for idx in tree:
            u, v = pairs[idx]
            links[u].append((v, idx))
            links[v].append((u, idx))
        parents: dict[int, tuple[int, int]] = {}
        queue = [0]
        for x in queue:  # grows as it is read: first in, first out
            for y, idx in links[x]:
                if y != 0 and y not in parents:
                    parents[y] = (x, idx)
                    queue.append(y)
        return parents

    @cached_property
    def cycle_edges(self) -> tuple[tuple[int, tuple[int, int]], ...]:
        """``(compact edge index, endpoints)`` of each compact edge outside
        :attr:`tree`, in edge order: one per cycle it closes."""
        in_tree = {idx for _, idx in self.tree.values()}
        return tuple((i, ends) for i, ends in enumerate(self.compact_pairs) if i not in in_tree)

    @cached_property
    def flag_parity(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """Reversing-flag parity of each vertex along :attr:`tree`, and
        ``(index, w1)`` for each compact edge of :attr:`cycle_edges`, read
        by :func:`orientability` and :func:`orientation_gauge`."""
        rev = [e.reversing for _, e in self.compact_edges()]
        parity = [0] * len(self.vertices)
        for v, (u, idx) in self.tree.items():
            parity[v] = parity[u] ^ rev[idx]
        w1 = tuple((i, parity[u] ^ parity[v] ^ rev[i]) for i, (u, v) in self.cycle_edges)
        return tuple(parity), w1

    def half_edges(self) -> list[int]:
        out = []
        for e in self.edges:
            if isinstance(e, CompactEdge):
                out.extend(e.ends)
            else:
                out.append(e.end)
        return out

    def compact_edges(self) -> list[tuple[int, CompactEdge]]:
        return [(i, e) for i, e in enumerate(self.edges) if isinstance(e, CompactEdge)]

    def legs(self) -> list[tuple[int, Leg]]:
        return [(i, e) for i, e in enumerate(self.edges) if isinstance(e, Leg)]


def validate_graph(g: DecoratedGraph) -> list[str]:
    """Return the list of violated invariants; empty iff the graph is valid."""
    report = [
        f"vertex {vi} not trivalent" for vi, t in enumerate(g.vertices) if len(t) != 3 or len(set(t)) != 3
    ]
    seen_vertex = Counter(h for triple in g.vertices for h in triple)
    seen_edge = Counter(g.half_edges())
    for h, count in sorted(seen_vertex.items()):
        if count > 1:
            report.append(f"half-edge {in_full(h)} attached to {count} vertices")
        if h not in seen_edge:
            report.append(f"half-edge {in_full(h)} belongs to no edge")
    for h, count in sorted(seen_edge.items()):
        if count > 1:
            report.append(f"half-edge {in_full(h)} used by {count} edges")
        if h not in seen_vertex:
            report.append(f"half-edge {in_full(h)} attached to no vertex")
    for ei, e in g.compact_edges():
        if e.self_intersections is not None and e.twist != sum(e.self_intersections) + 2:
            expected, got = in_full(sum(e.self_intersections) + 2), in_full(e.twist)
            report.append(f"edge {ei}: triple point formula: expected n_e = {expected}, got {got}")
    return report


def require_valid(g: DecoratedGraph) -> None:
    if instance(g, DecoratedGraph).violations:
        raise InvalidGraph(g.violations)


def spanning_forest(n: int, pairs: Sequence[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Union-find over ``pairs`` taken in order.

    Returns the component label of each vertex (labels numbered by their
    smallest vertex) and the indices of the pairs that joined two
    components, i.e. the lowest-index-first spanning forest.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for idx, (u, v) in enumerate(pairs):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append(idx)
    labels: dict[int, int] = {}
    return [labels.setdefault(find(v), len(labels)) for v in range(n)], tree


# ---------------------------------------------------------------------------
# Orientability
# ---------------------------------------------------------------------------


def orientability(g: DecoratedGraph) -> tuple[bool, list[int]]:
    """Decide whether the reversing flags can be gauged away.

    Returns ``(orientable, w1)`` where ``w1`` lists the Z/2 holonomy of the
    reversing flags on the cycle that each compact edge outside
    :attr:`DecoratedGraph.tree` closes, in edge order.  Flipping a vertex
    toggles the flag of every non-loop edge end at it, so the cycle
    holonomies are the complete obstruction.
    """
    w1 = [x for _, x in g.flag_parity[1]]
    return all(x == 0 for x in w1), w1


def orientation_gauge(g: DecoratedGraph) -> list[int]:
    """Vertex flips (0/1 per vertex) that gauge all reversing flags to False.

    The gauge is the deterministic one rooted at vertex 0 over the
    lowest-index spanning tree :attr:`DecoratedGraph.tree`.  This is the
    gate for every construction that needs w1 = 0: it raises
    :class:`InvalidValue` on a value that is not a graph, and
    :class:`NonOrientable`, naming by its index in ``g.edges`` the first
    compact edge whose cycle has w1 = 1, if no such gauge exists.
    """
    flips, w1 = instance(g, DecoratedGraph).flag_parity
    for idx, x in w1:
        if x:
            edge = g.compact_edges()[idx][0]
            raise NonOrientable(f"reversing flags have nontrivial holonomy (edge {edge})")
    return list(flips)


def flip_vertex(g: DecoratedGraph, vertex: int) -> DecoratedGraph:
    """Reverse one vertex's cyclic order and toggle its incident flags.

    A self-loop at the vertex is toggled twice, i.e. left unchanged.
    """
    vertex = integer(vertex)
    if not 0 <= vertex < len(g.vertices):
        raise InvalidValue(f"no vertex {in_full(vertex)}")
    vertices = list(g.vertices)
    vertices[vertex] = tuple(reversed(vertices[vertex]))
    at_vertex = set(g.vertices[vertex])
    edges = []
    for e in g.edges:
        if isinstance(e, CompactEdge):
            touches = sum(1 for h in e.ends if h in at_vertex)
            if touches == 1:
                e = e.replace(reversing=not e.reversing)
        edges.append(e)
    return DecoratedGraph(vertices, edges)


# ---------------------------------------------------------------------------
# Dual surface
# ---------------------------------------------------------------------------


class DualSurface(Record):
    """The pants-decomposition surface carried by the graph.

    One orientable pair of pants per vertex, glued along the compact
    edges; legs are free boundary circles.  Hence chi = -V and, in the
    orientable case, genus = E_compact - V + 1.  When the gluing is
    non-orientable, ``genus`` holds the crosscap number (chi = 2 - genus -
    boundary).
    """

    genus: int
    boundary_circles: int
    orientable: bool
    face_walks: tuple[tuple[int, ...], ...]


def _face_walks(g: DecoratedGraph) -> tuple[tuple[int, ...], ...]:
    # A walk state is (half-edge h, direction d).  One step crosses the
    # edge at h to its partner (a leg is its own partner), negates d when
    # that edge is reversing, and turns to the cyclic successor at the
    # vertex reached (the predecessor when d is -1).  The step is a
    # permutation; each face is one orbit walked forward and its mirror
    # orbit walked backward.
    turn: dict[int, dict[int, int]] = {1: {}, -1: {}}
    for a, b, c in g.vertices:
        turn[1].update({a: b, b: c, c: a})
        turn[-1].update({b: a, c: b, a: c})
    partner = {h: h for h in turn[1]}
    flip = dict.fromkeys(partner, 1)
    for _, e in g.compact_edges():
        h1, h2 = e.ends
        partner[h1], partner[h2] = h2, h1
        flip[h1] = flip[h2] = -1 if e.reversing else 1
    # Visited in (h, -d) order, each orbit is found at its least state.
    orbit_of: dict[tuple[int, int], int] = {}
    orbits = []
    for start in [(h, d) for h in sorted(partner) for d in (1, -1)]:
        orbit, (h, d) = [], start
        while (h, d) not in orbit_of:
            orbit_of[h, d] = len(orbits)
            orbit.append((h, d))
            d *= flip[h]
            h = turn[d][partner[h]]
        if orbit:
            orbits.append(orbit)
    # (partner, -d * flip) of a state lies on the mirror orbit.  One walk
    # per mirror pair: the first orbit that steps forward.  An orbit that
    # never does mirrors one that only does, so without reversing flags
    # each half-edge is listed exactly once across the walks.
    walks, taken = [], set()
    for i, orbit in enumerate(orbits):
        h, d = orbit[0]
        if any(x > 0 for _, x in orbit) and orbit_of[partner[h], -d * flip[h]] not in taken:
            taken.add(i)
            walks.append(tuple(x for x, _ in orbit))
    return tuple(walks)


def dual_surface(g: DecoratedGraph) -> DualSurface:
    num_v = len(g.vertices)
    num_legs = len(g.legs())
    orientable, _ = orientability(g)
    chi = -num_v
    if orientable:
        genus2 = 2 - chi - num_legs
        assert genus2 % 2 == 0
        genus = genus2 // 2
    else:
        genus = 2 - chi - num_legs
    return DualSurface(genus, num_legs, orientable, _face_walks(g))
