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

from .errors import DisconnectedGraph, InvalidGraph, NonOrientable, SingLocusError
from .intlinalg import _bfs_parents, _spanning_forest, _spanning_tree
from .localmodels import _nonzero
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
        object.__setattr__(self, "ends", (int(self.ends[0]), int(self.ends[1])))
        object.__setattr__(self, "twist", int(self.twist))
        object.__setattr__(self, "holonomy", _nonzero(self.holonomy, "holonomy"))
        object.__setattr__(self, "base_scalar", _nonzero(self.base_scalar, "base scalar"))
        if self.self_intersections is not None:
            a, b = self.self_intersections
            object.__setattr__(self, "self_intersections", (int(a), int(b)))


class Leg(Record):
    """An affine component: a single half-edge with no decoration."""

    end: int


Edge = Union[CompactEdge, Leg]


class DecoratedGraph(Record):
    """Vertices (cyclic half-edge triples) and edges.

    The derived data below is computed on first use and kept on the
    value (treat it as read-only), so each graph is validated, indexed
    and gauged at most once.
    """

    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[Edge, ...]

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """:func:`validate_graph` of this graph."""
        return tuple(validate_graph(self))

    @cached_property
    def incidence(self) -> "Incidence":
        """Lookup tables; meaningful only for a valid graph."""
        return Incidence.of(self)

    @cached_property
    def compact_pairs(self) -> tuple[tuple[int, int], ...]:
        """:func:`compact_edge_pairs` of this graph."""
        return tuple(compact_edge_pairs(self))

    @cached_property
    def tree(self) -> dict[int, tuple[int, int, int]]:
        """The lowest-edge-index spanning tree of the compact edges, as
        ``{vertex: (parent, compact edge index, sign)}`` breadth-first from
        vertex 0; sign +1 means the edge is stored parent -> child."""
        return _bfs_parents(_spanning_tree(len(self.vertices), self.compact_pairs), 0)

    @cached_property
    def oriented(self) -> "DecoratedGraph":
        """:func:`oriented_form` of this graph."""
        return oriented_form(self)

    @classmethod
    def build(cls, vertices, edges) -> "DecoratedGraph":
        return cls(tuple(tuple(v) for v in vertices), tuple(edges))

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
                    f"edge {ei}: triple point formula: expected n_e = {expected}, got {e.twist}"
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


def compact_edge_pairs(g: DecoratedGraph) -> list[tuple[int, int]]:
    """Endpoint vertex pairs of the compact edges, in edge order."""
    inc = g.incidence
    return [inc.endpoints[ei] for ei, _ in g.compact_edges()]


def is_connected(g: DecoratedGraph) -> bool:
    if not g.vertices:
        return False
    _, tree = _spanning_forest(len(g.vertices), g.compact_pairs)
    return len(tree) == len(g.vertices) - 1


def require_connected(g: DecoratedGraph) -> None:
    if not is_connected(g):
        raise DisconnectedGraph("graph is not connected")


# ---------------------------------------------------------------------------
# Orientability
# ---------------------------------------------------------------------------


def _non_tree_edges(g: DecoratedGraph) -> list[tuple[int, tuple[int, int]]]:
    """``(index, endpoints)`` of each compact edge outside ``g.tree``: one per cycle."""
    in_tree = {idx for _, idx, _ in g.tree.values()}
    return [(i, pair) for i, pair in enumerate(g.compact_pairs) if i not in in_tree]


def _flag_parity(g: DecoratedGraph) -> tuple[list[int], list[tuple[int, int]]]:
    """Reversing-flag parity of each vertex along ``g.tree``, and
    ``(edge, w1)`` for each edge of :func:`_non_tree_edges`."""
    rev = [int(e.reversing) for _, e in g.compact_edges()]
    parity = [0] * len(g.vertices)
    for v, (u, idx, _) in g.tree.items():
        parity[v] = parity[u] ^ rev[idx]
    return parity, [(i, parity[u] ^ parity[v] ^ rev[i]) for i, (u, v) in _non_tree_edges(g)]


def orientability(g: DecoratedGraph) -> tuple[bool, list[int]]:
    """Decide whether the reversing flags can be gauged away.

    Returns ``(orientable, w1)`` where ``w1`` lists the Z/2 holonomy of the
    reversing flags on the cycle that each compact edge outside
    :attr:`DecoratedGraph.tree` closes, in edge order.  Flipping a vertex
    toggles the flag of every non-loop edge end at it, so the cycle
    holonomies are the complete obstruction.
    """
    require_valid(g)
    require_connected(g)
    w1 = [x for _, x in _flag_parity(g)[1]]
    return all(x == 0 for x in w1), w1


def orientation_gauge(g: DecoratedGraph) -> list[int]:
    """Vertex flips (0/1 per vertex) that gauge all reversing flags to False.

    The gauge is the deterministic one rooted at vertex 0 over the
    lowest-index spanning tree :attr:`DecoratedGraph.tree`.  Raises
    :class:`NonOrientable`, naming the first edge whose cycle has w1 = 1,
    if no such gauge exists.
    """
    require_valid(g)
    require_connected(g)
    flips, w1 = _flag_parity(g)
    for idx, x in w1:
        if x:
            raise NonOrientable(f"reversing flags have nontrivial holonomy (edge {idx})")
    return flips


def flip_vertex(g: DecoratedGraph, vertex: int) -> DecoratedGraph:
    """Reverse one vertex's cyclic order and toggle its incident flags.

    A self-loop at the vertex is toggled twice, i.e. left unchanged.
    """
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
    return DecoratedGraph(tuple(vertices), tuple(edges))


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
    out = DecoratedGraph(vertices, tuple(edges))
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
        for obj, ident in self.identities.items():
            src, tgt = self.arrows[ident]
            if src != obj or tgt != obj:
                raise SingLocusError(f"identity of {obj} is not an endo-arrow")
        names = list(self.arrows)
        for f in names:
            fs, ft = self.arrows[f]
            if self.compose[(self.identities[ft], f)] != f:
                raise SingLocusError(f"left unit fails for {f}")
            if self.compose[(f, self.identities[fs])] != f:
                raise SingLocusError(f"right unit fails for {f}")
        for f in names:
            fs, ft = self.arrows[f]
            for h in names:
                hs, ht = self.arrows[h]
                if hs != ft:
                    continue
                hf = self.compose[(h, f)]
                if self.arrows[hf] != (fs, ht):
                    raise SingLocusError(f"composite {h} o {f} has wrong endpoints")
                for k in names:
                    ks, kt = self.arrows[k]
                    if ks != ht:
                        continue
                    if self.compose[(k, hf)] != self.compose[(self.compose[(k, h)], f)]:
                        raise SingLocusError(
                            f"associativity fails on ({k}, {h}, {f})"
                        )


def build_j(g: DecoratedGraph, check: bool = True) -> FiniteCategory:
    """The category with objects = vertices and edges, one arrow per flag."""
    require_valid(g)
    inc = g.incidence
    objects = [f"v{vi}" for vi in range(len(g.vertices))]
    objects += [f"e{ei}" for ei in range(len(g.edges))]
    arrows: dict[str, tuple[str, str]] = {}
    identities: dict[str, str] = {}
    for obj in objects:
        name = f"id:{obj}"
        arrows[name] = (obj, obj)
        identities[obj] = name
    for h in sorted(inc.vertex_of):
        arrows[f"flag:h{h}"] = (f"v{inc.vertex_of[h]}", f"e{inc.edge_of[h]}")
    compose: dict[tuple[str, str], str] = {}
    for f, (fs, ft) in arrows.items():
        compose[(identities[ft], f)] = f
        compose[(f, identities[fs])] = f
    cat = FiniteCategory(tuple(objects), arrows, identities, compose)
    if check:
        cat.check()
    return cat


def build_i(g: DecoratedGraph, check: bool = True) -> FiniteCategory:
    """The flag-duplicated category: the edge object split into its flags.

    Objects are the vertices and the flags (one per half-edge); there is
    an arrow per flag and a two-sided isomorphism pair per compact edge.
    Arrows are reduced words in these generators, where the two isos of
    an edge cancel; the only nonidentity words are the flags, the isos
    and flag-then-iso, so V + 2H + 4C arrows in all.
    """
    require_valid(g)
    inc = g.incidence
    objects = [f"v{vi}" for vi in range(len(g.vertices))]
    objects += [f"f{h}" for h in sorted(inc.vertex_of)]

    # word -> (source, target); identity words are () tagged by object.
    words: dict[tuple, tuple[str, str]] = {("id", obj): (obj, obj) for obj in objects}
    inverse_of: dict[str, str] = {}
    for h in sorted(inc.vertex_of):
        words[("w", (f"flag:h{h}",))] = (f"v{inc.vertex_of[h]}", f"f{h}")
    isos = []
    for ei, e in g.compact_edges():
        h1, h2 = e.ends
        fwd, rev = f"iso:e{ei}:fwd", f"iso:e{ei}:rev"
        words[("w", (fwd,))] = (f"f{h1}", f"f{h2}")
        words[("w", (rev,))] = (f"f{h2}", f"f{h1}")
        inverse_of[fwd], inverse_of[rev] = rev, fwd
        isos += [(h1, fwd, h2), (h2, rev, h1)]
    for h, iso, h_out in isos:
        words[("w", (f"flag:h{h}", iso))] = (f"v{inc.vertex_of[h]}", f"f{h_out}")

    def reduce_word(word: tuple[str, ...]) -> tuple[str, ...]:
        out: list[str] = []
        for gname in word:
            if out and inverse_of.get(out[-1]) == gname:
                out.pop()
            else:
                out.append(gname)
        return tuple(out)

    def name(key) -> str:
        if key[0] == "id":
            return f"id:{key[1]}"
        return "*".join(key[1])

    arrows = {name(k): st for k, st in words.items()}
    identities = {obj: f"id:{obj}" for obj in objects}
    out_of: dict[str, list[tuple]] = {obj: [] for obj in objects}
    for key, (src, _) in words.items():
        out_of[src].append(key)
    compose: dict[tuple[str, str], str] = {}
    for f_key, (fs, ft) in words.items():
        for g_key in out_of[ft]:
            if f_key[0] == "id":
                result = g_key
            elif g_key[0] == "id":
                result = f_key
            else:
                word = reduce_word(f_key[1] + g_key[1])
                result = ("id", fs) if not word else ("w", word)
            compose[(name(g_key), name(f_key))] = name(result)
    cat = FiniteCategory(tuple(objects), arrows, identities, compose)
    if check:
        cat.check()
    return cat


def collapse_functor(g: DecoratedGraph) -> dict[str, str]:
    """Object map of the equivalence from :func:`build_i` to :func:`build_j`,
    sending each flag object to its edge object."""
    inc = g.incidence
    mapping = {f"v{vi}": f"v{vi}" for vi in range(len(g.vertices))}
    for h, ei in inc.edge_of.items():
        mapping[f"f{h}"] = f"e{ei}"
    return mapping
