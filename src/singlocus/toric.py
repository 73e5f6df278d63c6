"""Fans of smooth toric 3-folds and their boundary graphs.

The boundary surface of a smooth toric 3-fold is a normal-crossings
surface whose singular locus is the union of the invariant curves; its
graph has one vertex per maximal cone and one edge per wall.  For an
interior wall the defect of the curve is computed twice:

* a + b + 2 from the two divisor-level self-intersections, each read off
  a 2D wall relation in a star fan, and
* the anticanonical degree 2 + c_i + c_j from the 3D wall relation
  u1 + u2 + c_i v_i + c_j v_j = 0.

Sign conventions: in a smooth 2D fan, a ray w with cyclic neighbors u1,
u2 satisfies u1 + u2 + s w = 0 where s is the self-intersection of the
curve of w (so the ray of a line in the plane fan of P^2 gets s = 1).
These conventions are pinned by the P^3 regression tests.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import Sequence

from .errors import BoundaryWall, InvalidFan, NotAWall
from .graphs import CompactEdge, DecoratedGraph, Leg
from .intlinalg import _egcd
from .record import Record

Vec = tuple[int, int, int]


def _det3(a: Vec, b: Vec, c: Vec) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _cross(a: Vec, b: Vec) -> Vec:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _is_primitive(v: Vec) -> bool:
    return gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2])) == 1


def _basis_completion(v: Vec) -> tuple[Vec, Vec]:
    """Two vectors completing the primitive v to a positive basis of Z^3.

    Built from two extended-gcd steps; det(v, w1, w2) = 1 exactly.
    """
    a, b, c = v
    g_ab, s, t = _egcd(a, b)  # s*a + t*b = g_ab
    g, u, w = _egcd(g_ab, c)  # u*g_ab + w*c = 1
    if g != 1:
        raise ValueError(f"{v} is not primitive")
    if g_ab == 0:
        w1: Vec = (1, 0, 0)
        w2: Vec = (0, 1 if c > 0 else -1, 0)
    else:
        w1 = (-t, s, 0)
        w2 = (-(a // g_ab) * w, -(b // g_ab) * w, u)
    assert _det3(v, w1, w2) == 1
    return w1, w2


def _project_mod(v: Vec, w1: Vec, w2: Vec, u: Vec) -> tuple[int, int]:
    """Coordinates of u in Z^3 / Z v, using the completion basis (w1, w2)."""
    # u = x v + y w1 + z w2; Cramer with determinant 1.
    y = _det3(v, u, w2)
    z = _det3(v, w1, u)
    return (y, z)


class Fan(Record):
    """Rays (primitive integer vectors) and maximal cones (ray-index triples).

    The derived data below is computed on first use and kept on the
    value (treat it as read-only), so each fan is validated at most once.
    """

    rays: tuple[Vec, ...]
    cones: tuple[tuple[int, int, int], ...]

    @classmethod
    def build(cls, rays: Sequence[Sequence[int]], cones: Sequence[Sequence[int]]) -> "Fan":
        return cls(
            tuple(tuple(int(x) for x in r) for r in rays),
            tuple(tuple(int(i) for i in c) for c in cones),
        )

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """:func:`validate_fan` of this fan."""
        return tuple(validate_fan(self))

    @cached_property
    def wall_table(self) -> dict[tuple[int, int], list[int]]:
        """wall (sorted ray pair) -> indices of maximal cones containing it."""
        out: dict[tuple[int, int], list[int]] = {}
        for ci, cone in enumerate(self.cones):
            s = sorted(cone)
            for pair in ((s[0], s[1]), (s[0], s[2]), (s[1], s[2])):
                out.setdefault(pair, []).append(ci)
        return out

    @cached_property
    def wall_reports(self) -> dict[tuple[int, int], "WallReport"]:
        """Report of every interior wall; raises :class:`InvalidFan`."""
        require_valid_fan(self)
        return {
            wall: _wall_report(self, wall, cones)
            for wall, cones in self.wall_table.items()
            if len(cones) == 2
        }


def validate_fan(f: Fan) -> list[str]:
    """Violations: non-primitive/duplicate rays, non-unimodular cones,
    improperly intersecting cones.  Empty iff the fan is a smooth fan."""
    report = []
    seen: dict[Vec, int] = {}
    not_3d = set()
    for i, r in enumerate(f.rays):
        if len(r) != 3:
            report.append(f"ray {i} is not a 3-vector")
            not_3d.add(i)
            continue
        if r == (0, 0, 0) or not _is_primitive(r):
            report.append(f"ray {i} = {r} not primitive")
        if r in seen:
            report.append(f"ray {i} duplicates ray {seen[r]}")
        else:
            seen[r] = i
    cone_sets: set[frozenset[int]] = set()
    for ci, cone in enumerate(f.cones):
        if len(cone) != 3 or len(set(cone)) != 3:
            report.append(f"cone {ci} does not have three distinct rays")
            continue
        if any(i < 0 or i >= len(f.rays) for i in cone):
            report.append(f"cone {ci} has an out-of-range ray index")
            continue
        if not_3d.intersection(cone):
            continue  # the ray is already reported; it has no determinant
        d = _det3(*(f.rays[i] for i in cone))
        if abs(d) != 1:
            report.append(f"non-unimodular cone {ci} (det = {d})")
        if frozenset(cone) in cone_sets:
            report.append(f"cone {ci} duplicates another cone")
        cone_sets.add(frozenset(cone))
    if report:
        return report

    # Face-intersection checks on the wall structure: a wall may belong to
    # at most two cones, and when it belongs to two, the opposite rays must
    # lie strictly on opposite sides of the wall's plane.
    for wall, cones in sorted(f.wall_table.items()):
        if len(cones) > 2:
            report.append(f"wall {wall} belongs to {len(cones)} cones")
            continue
        if len(cones) == 2:
            vi, vj = (f.rays[k] for k in wall)
            sides = []
            for ci in cones:
                (opp,) = set(f.cones[ci]) - set(wall)
                sides.append(_det3(vi, vj, f.rays[opp]))
            if sides[0] * sides[1] >= 0:
                report.append(f"cones {cones[0]} and {cones[1]} overlap across wall {wall}")
    # No ray may meet the relative interior of a foreign cone or of one of
    # its walls (two or more strictly positive cone coordinates).  Every cone
    # is unimodular here, so its inverse is d * adj with d = +-1, and the
    # coordinates of v are v . d(r2 x r3), v . d(r3 x r1), v . d(r1 x r2).
    inverses = []
    for cone in f.cones:
        r1, r2, r3 = (f.rays[i] for i in cone)
        d = _det3(r1, r2, r3)
        inverses.append([tuple(d * x for x in _cross(a, b)) for a, b in ((r2, r3), (r3, r1), (r1, r2))])
    for ri, (x, y, z) in enumerate(f.rays):
        for ci, cone in enumerate(f.cones):
            if ri in cone:
                continue
            positive = 0
            for a, b, c in inverses[ci]:
                t = a * x + b * y + c * z
                if t < 0:
                    break
                positive += t > 0
            else:
                if positive >= 2:
                    report.append(f"ray {ri} lies inside cone {ci}")
    return report


def require_valid_fan(f: Fan) -> None:
    if f.violations:
        raise InvalidFan(f.violations)


def walls(f: Fan) -> list[tuple[int, int]]:
    return sorted(f.wall_table)


class WallReport(Record):
    """Intersection data of the invariant curve of one wall."""

    wall: tuple[int, int]
    adjacent_cones: tuple[int, ...]
    self_intersections: tuple[int, int]
    defect: int
    anticanonical_degree: int


def _star_self_intersection(f: Fan, ray: int, wall_ray: int, opposite: tuple[int, int]) -> int:
    """Self-intersection of the wall curve inside the divisor of ``ray``.

    ``opposite`` holds the third rays of the two cones containing the wall
    (the cyclic neighbors of ``wall_ray`` in the star fan of ``ray``); the
    2D relation  u1 + u2 + s * w = 0  in Z^3 / Z ray  yields s.
    """
    v = f.rays[ray]
    w1, w2 = _basis_completion(v)
    wbar = _project_mod(v, w1, w2, f.rays[wall_ray])
    u1bar = _project_mod(v, w1, w2, f.rays[opposite[0]])
    u2bar = _project_mod(v, w1, w2, f.rays[opposite[1]])
    total = (u1bar[0] + u2bar[0], u1bar[1] + u2bar[1])
    # total must be -s * wbar for an integer s (smoothness of the star).
    if wbar[0] != 0:
        if total[0] % wbar[0]:
            raise InvalidFan([f"star of ray {ray} is not smooth at wall ray {wall_ray}"])
        s = -(total[0] // wbar[0])
    else:
        if total[0] != 0 or wbar[1] == 0 or total[1] % wbar[1]:
            raise InvalidFan([f"star of ray {ray} is not smooth at wall ray {wall_ray}"])
        s = -(total[1] // wbar[1])
    if (total[0] + s * wbar[0], total[1] + s * wbar[1]) != (0, 0):
        raise InvalidFan([f"wall relation fails in the star of ray {ray}"])
    return s


def wall_data(f: Fan, wall: tuple[int, int]) -> WallReport:
    """Defect and intersection data of one wall.

    Raises :class:`NotAWall` if the ray pair spans no 2-face, and
    :class:`BoundaryWall` (carrying the single cone index) for a wall that
    lies in only one maximal cone, where no defect is defined.
    """
    require_valid_fan(f)
    key = (min(wall), max(wall))
    if key not in f.wall_table:
        raise NotAWall(f"{wall} is not a wall of the fan")
    cones = f.wall_table[key]
    if len(cones) == 1:
        raise BoundaryWall(key, cones[0])
    return f.wall_reports[key]


def _wall_report(f: Fan, key: tuple[int, int], cones: list[int]) -> WallReport:
    """Report of the interior wall ``key`` (sorted) of a valid fan."""
    i, j = key
    opposite = []
    for ci in cones:
        (opp,) = set(f.cones[ci]) - {i, j}
        opposite.append(opp)
    opposite = tuple(opposite)

    a = _star_self_intersection(f, i, j, opposite)
    b = _star_self_intersection(f, j, i, opposite)
    defect = a + b + 2

    # Independent check from the 3D wall relation u1 + u2 + ci vi + cj vj = 0.
    u1, u2 = (f.rays[k] for k in opposite)
    vi, vj = f.rays[i], f.rays[j]
    total = tuple(u1[k] + u2[k] for k in range(3))
    # Solve total = x vi + y vj (+ 0 * u1); (vi, vj, u1) is a cone, so d = +-1.
    if _det3(vi, vj, total) != 0:
        raise InvalidFan([f"wall {key} has no integral wall relation"])
    d = _det3(vi, vj, u1)
    anticanonical = 2 - d * _det3(total, vj, u1) - d * _det3(vi, total, u1)
    return WallReport(key, tuple(cones), (a, b), defect, anticanonical)


def boundary_graph(f: Fan) -> DecoratedGraph:
    """The decorated graph of the boundary surface.

    Vertices are the maximal cones with the cyclic order of their walls
    induced by orienting every ray triple positively in the ambient Z^3;
    interior walls become compact edges with twist = defect, boundary
    walls become legs.  Scalar decorations default to 1.
    """
    require_valid_fan(f)
    table = f.wall_table

    # Orient each cone positively, then list its walls opposite each ray.
    cone_walls: list[list[tuple[int, int]]] = []
    for cone in f.cones:
        tri = list(cone)
        if _det3(*(f.rays[i] for i in tri)) < 0:
            tri[1], tri[2] = tri[2], tri[1]
        opposite_walls = [
            tuple(sorted((tri[1], tri[2]))),
            tuple(sorted((tri[2], tri[0]))),
            tuple(sorted((tri[0], tri[1]))),
        ]
        cone_walls.append(opposite_walls)

    # Half-edge ids: 3 * cone + position.
    vertices = tuple((3 * ci, 3 * ci + 1, 3 * ci + 2) for ci in range(len(f.cones)))
    half_edge_of: dict[tuple[tuple[int, int], int], int] = {}
    for ci, wlist in enumerate(cone_walls):
        for pos, wall in enumerate(wlist):
            half_edge_of[(wall, ci)] = 3 * ci + pos

    edges: list = []
    for wall in sorted(table):
        cones = table[wall]
        if len(cones) == 2:
            report = f.wall_reports[wall]
            ends = (half_edge_of[(wall, cones[0])], half_edge_of[(wall, cones[1])])
            edges.append(
                CompactEdge(
                    ends,
                    twist=report.defect,
                    self_intersections=report.self_intersections,
                )
            )
        else:
            edges.append(Leg(half_edge_of[(wall, cones[0])]))
    return DecoratedGraph(vertices, tuple(edges))


def divisor_classification(f: Fan) -> list[dict]:
    """Per-ray boundary self-intersection cycles of the invariant divisors.

    For each ray the star fan's walls are walked in cyclic order; the
    returned ``selfIntersections`` lists the self-intersection numbers of
    the boundary curves of the divisor, normalized up to rotation and
    reflection for a complete star (``kind = "cycle"``) and up to
    reflection for an incomplete one (``kind = "chain"``, interior walls
    only).
    """
    require_valid_fan(f)
    stars: list[list[int]] = [[] for _ in f.rays]
    for ci, cone in enumerate(f.cones):
        for k in cone:
            stars[k].append(ci)
    out = []
    for ri, star_cones in enumerate(stars):
        # Neighbor rays and the cones of the star, in walk order.
        if not star_cones:
            out.append({"ray": ri, "kind": "chain", "selfIntersections": ()})
            continue
        # adjacency between neighbor rays through the star's cones
        neighbor_links: dict[int, list[int]] = {}
        for ci in star_cones:
            others = [k for k in f.cones[ci] if k != ri]
            neighbor_links.setdefault(others[0], []).append(others[1])
            neighbor_links.setdefault(others[1], []).append(others[0])
        boundary_rays = sorted(k for k, v in neighbor_links.items() if len(v) == 1)
        complete = not boundary_rays
        start = boundary_rays[0] if boundary_rays else min(neighbor_links)
        order = [start]
        prev = None
        while True:
            nxts = [x for x in neighbor_links[order[-1]] if x != prev]
            if not nxts:
                break
            prev = order[-1]
            order.append(nxts[0])
            if complete and order[-1] == start:
                order.pop()
                break
            if len(order) > len(neighbor_links):
                raise InvalidFan([f"star of ray {ri} is not a cycle or chain"])
        values = []
        for w in order:
            report = f.wall_reports.get((min(ri, w), max(ri, w)))
            if report is not None:
                values.append(report.self_intersections[0 if ri < w else 1])
        if complete:
            canon = _canonical_cycle(values)
            kind = "cycle"
        else:
            canon = min(tuple(values), tuple(reversed(values)))
            kind = "chain"
        out.append({"ray": ri, "kind": kind, "selfIntersections": canon})
    return out


def _canonical_cycle(values: list[int]) -> tuple[int, ...]:
    if not values:
        return ()
    candidates = []
    for seq in (values, list(reversed(values))):
        for shift in range(len(seq)):
            candidates.append(tuple(seq[shift:] + seq[:shift]))
    return min(candidates)


def quartic_mirror_fan() -> Fan:
    """The fan over the unit triangulation of the boundary of the
    reflexive tetrahedron conv{(-1,-1,-1), (3,-1,-1), (-1,3,-1), (-1,-1,3)}.

    Each of the four facets (lattice side 4) is subdivided into 16 unit
    triangles with sides parallel to the edges; the 34 boundary lattice
    points are the rays and the 64 cones over the triangles are the
    maximal cones.
    """
    corners = [(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)]
    facets = [
        (corners[0], corners[1], corners[2]),
        (corners[0], corners[1], corners[3]),
        (corners[0], corners[2], corners[3]),
        (corners[1], corners[2], corners[3]),
    ]
    side = 4
    points: set[Vec] = set()
    triangles: set[tuple[Vec, Vec, Vec]] = set()
    for a, bb, cc in facets:
        du = tuple((bb[k] - a[k]) // side for k in range(3))
        dv = tuple((cc[k] - a[k]) // side for k in range(3))

        def pt(i: int, j: int) -> Vec:
            return tuple(a[k] + i * du[k] + j * dv[k] for k in range(3))

        for i in range(side + 1):
            for j in range(side + 1 - i):
                points.add(pt(i, j))
        for i in range(side):
            for j in range(side - i):
                triangles.add(tuple(sorted((pt(i, j), pt(i + 1, j), pt(i, j + 1)))))
                if i + j <= side - 2:
                    triangles.add(
                        tuple(sorted((pt(i + 1, j), pt(i, j + 1), pt(i + 1, j + 1))))
                    )
    rays = tuple(sorted(points))
    index = {r: k for k, r in enumerate(rays)}
    cones = tuple(sorted(tuple(sorted(index[p] for p in tri)) for tri in triangles))
    return Fan(rays, cones)
