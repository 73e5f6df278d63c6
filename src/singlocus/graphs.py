"""Decorated trivalent ribbon graphs and their index categories.

A :class:`DecoratedGraph` is the combinatorial model of a graph-like
singular locus: vertices are triple points carrying a cyclic order of
three half-edges (the ribbon structure), compact edges are the closed
curve components with their defect/holonomy decorations, and legs are the
affine components.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .errors import InvalidGraph, InvalidValue, NonOrientable, SingLocusError
from .errors import in_full, integer, integers, items, nonzero, pair
from .intlinalg import _bfs_parents, _spanning_tree
from .record import Record


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
    self_intersections: Optional[tuple[int, int]] = None

    def __post_init__(self):
        object.__setattr__(self, "ends", pair(self.ends))
        object.__setattr__(self, "twist", integer(self.twist))
        object.__setattr__(self, "holonomy", nonzero(self.holonomy, "holonomy"))
        object.__setattr__(self, "base_scalar", nonzero(self.base_scalar, "base scalar"))
        if type(self.reversing) is not bool:
            raise InvalidValue(f"expected true or false, got {self.reversing!r}")
        if self.self_intersections is not None:
            object.__setattr__(self, "self_intersections", pair(self.self_intersections))


class Leg(Record):
    """An affine component: a single half-edge with no decoration."""

    end: int

    def __post_init__(self):
        object.__setattr__(self, "end", integer(self.end))


Edge = Union[CompactEdge, Leg]


class DecoratedGraph(Record):
    """Vertices (cyclic half-edge triples) and edges, as lists or tuples.

    The derived data below is computed on first use and kept on the
    value (treat it as read-only), so each graph is validated, indexed
    and gauged at most once.  Every table is built from :attr:`incidence`,
    which raises :class:`InvalidGraph` first on an invalid graph.
    """

    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(map(integers, items(self.vertices))))
        object.__setattr__(self, "edges", items(self.edges))
        for e in self.edges:
            if not isinstance(e, (CompactEdge, Leg)):
                raise InvalidValue(f"expected a CompactEdge or Leg, got {e!r}")

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """:func:`validate_graph` of this graph."""
        return tuple(validate_graph(self))

    @cached_property
    def incidence(self) -> "Incidence":
        """Lookup tables; raises :class:`InvalidGraph` on an invalid graph."""
        require_valid(self)
        return Incidence.of(self)

    @cached_property
    def compact_pairs(self) -> tuple[tuple[int, int], ...]:
        """Endpoint vertex pairs of the compact edges, in edge order."""
        return tuple(self.incidence.endpoints.values())

    @cached_property
    def tree(self) -> dict[int, tuple[int, int, int]]:
        """The lowest-edge-index spanning tree of the compact edges, as
        ``{vertex: (parent, compact edge index, sign)}`` breadth-first from
        vertex 0; sign +1 means the edge is stored parent -> child."""
        return _bfs_parents(_spanning_tree(len(self.vertices), self.compact_pairs), 0)

    @cached_property
    def flag_parity(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """The reversing-flag parity: the vertex flips and the w1 of each
        cycle, read by :func:`orientability` and :func:`orientation_gauge`."""
        return _flag_parity(self)

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
    report = []
    seen_vertex: dict[int, int] = {}
    for vi, triple in enumerate(g.vertices):
        if len(triple) != 3 or len(set(triple)) != 3:
            report.append(f"vertex {vi} not trivalent")
        for h in triple:
            seen_vertex[h] = seen_vertex.get(h, 0) + 1
    seen_edge: dict[int, int] = {}
    for h in g.half_edges():
        seen_edge[h] = seen_edge.get(h, 0) + 1
    for h, count in sorted(seen_vertex.items()):
        if count > 1:
            report.append(f"half-edge {h} attached to {count} vertices")
        if seen_edge.get(h, 0) == 0:
            report.append(f"half-edge {h} belongs to no edge")
    for h, count in sorted(seen_edge.items()):
        if count > 1:
            report.append(f"half-edge {h} used by {count} edges")
        if h not in seen_vertex:
            report.append(f"half-edge {h} attached to no vertex")
    for ei, e in g.compact_edges():
        if e.self_intersections is not None:
            a, b = e.self_intersections
            expected = a + b + 2
            if e.twist != expected:
                report.append(
                    f"edge {ei}: triple point formula: expected n_e = {in_full(expected)}, got {e.twist}"
                )
    return report


def require_valid(g: DecoratedGraph) -> None:
    if g.violations:
        raise InvalidGraph(g.violations)


class Incidence(Record):
    """Precomputed lookup tables for a valid graph."""

    vertex_of: dict[int, int]
    position_of: dict[int, int]
    partner: dict[int, int]
    edge_of: dict[int, int]
    endpoints: dict[int, tuple[int, int]]

    @classmethod
    def of(cls, g: DecoratedGraph) -> "Incidence":
        vertex_of, position_of = {}, {}
        for vi, triple in enumerate(g.vertices):
            for pos, h in enumerate(triple):
                vertex_of[h] = vi
                position_of[h] = pos
        partner, edge_of, endpoints = {}, {}, {}
        for ei, e in enumerate(g.edges):
            if isinstance(e, CompactEdge):
                h1, h2 = e.ends
                partner[h1], partner[h2] = h2, h1
                edge_of[h1] = edge_of[h2] = ei
                endpoints[ei] = (vertex_of[h1], vertex_of[h2])
            else:
                edge_of[e.end] = ei
        return cls(vertex_of, position_of, partner, edge_of, endpoints)


# ---------------------------------------------------------------------------
# Orientability
# ---------------------------------------------------------------------------


def _non_tree_edges(g: DecoratedGraph) -> list[tuple[int, tuple[int, int]]]:
    """``(index, endpoints)`` of each compact edge outside ``g.tree``: one per cycle."""
    in_tree = {idx for _, idx, _ in g.tree.values()}
    return [(i, ends) for i, ends in enumerate(g.compact_pairs) if i not in in_tree]


def _flag_parity(g: DecoratedGraph) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Reversing-flag parity of each vertex along ``g.tree``, and
    ``(index, w1)`` for each compact edge of :func:`_non_tree_edges`."""
    rev = [e.reversing for _, e in g.compact_edges()]
    parity = [0] * len(g.vertices)
    for v, (u, idx, _) in g.tree.items():
        parity[v] = parity[u] ^ rev[idx]
    w1 = tuple((i, parity[u] ^ parity[v] ^ rev[i]) for i, (u, v) in _non_tree_edges(g))
    return tuple(parity), w1


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
    :class:`NonOrientable`, naming by its index in ``g.edges`` the first
    compact edge whose cycle has w1 = 1, if no such gauge exists.
    """
    flips, w1 = g.flag_parity
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
        raise InvalidValue(f"no vertex {vertex}")
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


def oriented_form(g: DecoratedGraph) -> DecoratedGraph:
    """Apply :func:`orientation_gauge`, producing all-False reversing flags.

    Equals :func:`flip_vertex` at each flipped vertex in turn, in one pass.
    """
    flips = orientation_gauge(g)
    vertices = tuple(t[::-1] if f else t for t, f in zip(g.vertices, flips))
    endpoints = g.incidence.endpoints
    edges = list(g.edges)
    for ei, e in g.compact_edges():
        u, v = endpoints[ei]
        if flips[u] ^ flips[v]:
            edges[ei] = e.replace(reversing=not e.reversing)
    out = DecoratedGraph(vertices, edges)
    assert all(not e.reversing for _, e in out.compact_edges())
    return out


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


def _face_walks(g: DecoratedGraph) -> list[list[int]]:
    # Walk states are (half-edge, direction); the next half-edge is the
    # cyclic successor at the far vertex (predecessor when direction is
    # flipped), reversal toggled by the traversed edge's flag.  Legs bounce:
    # the walk slides around the tip and continues at the same vertex.
    inc = g.incidence

    def step(h: int, d: int) -> tuple[int, int]:
        ei = inc.edge_of[h]
        e = g.edges[ei]
        if isinstance(e, CompactEdge):
            h2 = inc.partner[h]
            d2 = -d if e.reversing else d
        else:
            h2, d2 = h, d
        triple = g.vertices[inc.vertex_of[h2]]
        pos = inc.position_of[h2]
        nxt = triple[(pos + d2) % 3]
        return nxt, d2

    def reverse_state(h: int, d: int) -> tuple[int, int]:
        # Conjugates the step map to its inverse, i.e. walks the same
        # boundary circle backwards.
        e = g.edges[inc.edge_of[h]]
        if isinstance(e, CompactEdge):
            return inc.partner[h], (d if e.reversing else -d)
        return h, -d

    states = [(h, d) for h in sorted(inc.vertex_of) for d in (+1, -1)]
    unseen = set(states)
    orbits = []
    for start in states:
        if start not in unseen:
            continue
        orbit = []
        cur = start
        while cur in unseen:
            unseen.discard(cur)
            orbit.append(cur)
            cur = step(*cur)
        orbits.append(orbit)
    # Every face is traced in both directions; report one walk per mirror
    # pair of orbits (a self-mirror orbit is reported once).  Forward
    # orbits win, so without reversing flags each half-edge is listed
    # exactly once across the reported walks.
    def key(orbit):
        forward = any(d > 0 for _, d in orbit)
        return (0 if forward else 1, min((h, -d) for h, d in orbit))

    orbits.sort(key=key)
    taken: list[list[int]] = []
    taken_sets: set[frozenset] = set()
    for orbit in orbits:
        mirror = frozenset(reverse_state(h, d) for h, d in orbit)
        if mirror in taken_sets:
            continue
        taken_sets.add(frozenset(orbit))
        pivot = min(range(len(orbit)), key=lambda i: (orbit[i][0], -orbit[i][1]))
        taken.append([h for h, _ in orbit[pivot:] + orbit[:pivot]])
    return taken


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
    walks = tuple(tuple(w) for w in _face_walks(g))
    return DualSurface(genus, num_legs, orientable, walks)


# ---------------------------------------------------------------------------
# Index categories
# ---------------------------------------------------------------------------


class FiniteCategory(Record, uncompared=("arrows", "identities", "compose")):
    """A finite category given by an explicit composition table.

    ``arrows`` maps a name to ``(source, target)``; ``compose`` maps the
    composable pair ``(g, f)`` (apply f first) to the name of ``g o f``.
    """

    objects: tuple[str, ...]
    arrows: dict[str, tuple[str, str]]
    identities: dict[str, str]
    compose: dict[tuple[str, str], str]

    def check(self) -> None:
        """Raise :class:`SingLocusError` unless the tables satisfy the
        category axioms; a missing identity or composite fails them."""
        arrows, compose = self.arrows, self.compose
        for obj, ident in self.identities.items():
            if arrows.get(ident) != (obj, obj):
                raise SingLocusError(f"identity of {obj} is not an endo-arrow")
        names = list(arrows)
        for f in names:
            fs, ft = arrows[f]
            if compose.get((self.identities.get(ft), f)) != f:
                raise SingLocusError(f"left unit fails for {f}")
            if compose.get((f, self.identities.get(fs))) != f:
                raise SingLocusError(f"right unit fails for {f}")
        for f in names:
            fs, ft = arrows[f]
            for h in names:
                hs, ht = arrows[h]
                if hs != ft:
                    continue
                hf = compose.get((h, f))
                if arrows.get(hf) != (fs, ht):
                    raise SingLocusError(f"composite {h} o {f} has wrong endpoints")
                for k in names:
                    ks, kt = arrows[k]
                    if ks != ht:
                        continue
                    if compose.get((k, hf)) != compose.get((compose.get((k, h)), f)):
                        raise SingLocusError(
                            f"associativity fails on ({k}, {h}, {f})"
                        )


def _category(
    objects: list[str], arrows: dict[str, tuple[str, str]], compose: dict[tuple[str, str], str]
) -> FiniteCategory:
    """Add an identity ``id:<obj>`` per object and the unit composites to
    the non-unit ``arrows`` and ``compose``."""
    identities = {obj: f"id:{obj}" for obj in objects}
    arrows = {**{i: (obj, obj) for obj, i in identities.items()}, **arrows}
    for f, (fs, ft) in arrows.items():
        compose[(identities[ft], f)] = f
        compose[(f, identities[fs])] = f
    return FiniteCategory(tuple(objects), arrows, identities, compose)


def build_j(g: DecoratedGraph) -> FiniteCategory:
    """The category with objects = vertices and edges, one arrow per flag."""
    inc = g.incidence
    objects = [f"v{vi}" for vi in range(len(g.vertices))]
    objects += [f"e{ei}" for ei in range(len(g.edges))]
    arrows = {
        f"flag:h{h}": (f"v{inc.vertex_of[h]}", f"e{inc.edge_of[h]}") for h in sorted(inc.vertex_of)
    }
    return _category(objects, arrows, {})


def build_i(g: DecoratedGraph) -> FiniteCategory:
    """The flag-duplicated category: the edge object split into its flags.

    Objects are the vertices and the flags (one per half-edge); there is
    an arrow per flag and a two-sided isomorphism pair per compact edge.
    The only nonidentity arrows are the flags, the isos and flag-then-iso
    (named ``flag:h<h>*<iso>``), so V + 2H + 4C arrows in all.  A flag
    object has one non-unit arrow out of it, the iso of its edge, so the
    non-unit composites are three per iso: iso o flag, inverse o iso and
    inverse o (flag-then-iso).
    """
    inc = g.incidence
    objects = [f"v{vi}" for vi in range(len(g.vertices))]
    objects += [f"f{h}" for h in sorted(inc.vertex_of)]
    arrows = {f"flag:h{h}": (f"v{inc.vertex_of[h]}", f"f{h}") for h in sorted(inc.vertex_of)}
    compose: dict[tuple[str, str], str] = {}
    for ei, e in g.compact_edges():
        fwd, rev = f"iso:e{ei}:fwd", f"iso:e{ei}:rev"
        for (h, h_out), iso, inverse in ((e.ends, fwd, rev), (e.ends[::-1], rev, fwd)):
            flag, word = f"flag:h{h}", f"flag:h{h}*{iso}"
            arrows[iso] = (f"f{h}", f"f{h_out}")
            arrows[word] = (f"v{inc.vertex_of[h]}", f"f{h_out}")
            compose[(iso, flag)] = word
            compose[(inverse, iso)] = f"id:f{h}"
            compose[(inverse, word)] = flag
    return _category(objects, arrows, compose)


def collapse_functor(g: DecoratedGraph) -> dict[str, str]:
    """Object map of the equivalence from :func:`build_i` to :func:`build_j`,
    sending each flag object to its edge object.  Like both categories it
    reads :attr:`DecoratedGraph.incidence`, so an invalid graph raises
    :class:`InvalidGraph`."""
    inc = g.incidence
    mapping = {f"v{vi}": f"v{vi}" for vi in range(len(g.vertices))}
    for h, ei in inc.edge_of.items():
        mapping[f"f{h}"] = f"e{ei}"
    return mapping
