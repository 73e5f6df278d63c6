"""Fans of smooth toric 3-folds and their boundary graphs.

The boundary surface of a smooth toric 3-fold is a normal-crossings
surface whose singular locus is the union of the invariant curves; its
graph has one vertex per maximal cone and one edge per wall.  Every
number of an interior wall is read off its 3D wall relation

    u1 + u2 = x v_i + y v_j,

where u1, u2 are the opposite rays of the wall's two cones.  Taken modulo
v_i it is the 2D relation of the star fan of v_i (and likewise for v_j),
so the curve's self-intersections in the two divisors are (a, b) =
(-y, -x), and its defect a + b + 2 (the triple point formula) is the
anticanonical degree 2 - x - y.  The tests compare these numbers with an
independent computation in each star fan.

Each cone is oriented once, in :attr:`Fan.oriented_cones` (its rays in
the order of determinant +1, the cyclic order of its walls at its vertex);
the wall-side check, the star walks (counterclockwise around each ray),
the sphere certificate, the ray scan and the boundary graph all read it.

Validation (:func:`validate_fan`) is exact and integer-only, and its
report is empty iff the fan is a smooth fan.  A smooth complete fan
is certified in linear time: every star one cycle winding once around
its ray, and Euler characteristic 2, so the cones cover the sphere of
directions once.  Any other fan is scanned for rays inside foreign cones
and for boundary walls that cross foreign walls.

Sign conventions: in a smooth 2D fan, a ray w with cyclic neighbors u1,
u2 satisfies u1 + u2 + s w = 0 where s is the self-intersection of the
curve of w (so the ray of a line in the plane fan of P^2 gets s = 1).
These conventions are pinned by the P^3 regression tests.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .errors import BoundaryWall, InvalidFan, InvalidValue, NotAWall, Record, SplitStar, in_full, shown
from .errors import instance, integers, items, pair
from .graphs import CompactEdge, DecoratedGraph, Leg

Vec = tuple[int, int, int]


def _det3(a: Vec, b: Vec, c: Vec) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _cross(a: Vec, b: Vec) -> Vec:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


class Fan(Record):
    """Rays (primitive integer vectors) and maximal cones (ray-index triples).

    The derived data below is computed on first use and kept on the
    value (treat it as read-only), so each fan is validated at most once.
    """

    rays: tuple[Vec, ...]
    cones: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(map(integers, items(self.rays))))
        object.__setattr__(self, "cones", tuple(map(integers, items(self.cones))))

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """:func:`validate_fan` of this fan."""
        return tuple(validate_fan(self))

    @cached_property
    def local_violations(self) -> tuple[str, ...]:
        """The violations of single rays and cones, which
        :func:`validate_fan` reports first; the tables below raise
        :class:`InvalidFan` unless there are none."""
        report = []
        seen: dict[Vec, int] = {}
        not_3d = set()
        for i, r in enumerate(self.rays):
            if len(r) != 3:
                report.append(f"ray {i} is not a 3-vector")
                not_3d.add(i)
                continue
            if gcd(*r) != 1:  # gcd(0, 0, 0) == 0
                report.append(f"ray {i} = {shown(r)} not primitive")
            if r in seen:
                report.append(f"ray {i} duplicates ray {seen[r]}")
            else:
                seen[r] = i
        cone_sets: set[frozenset[int]] = set()
        for ci, cone in enumerate(self.cones):
            if len(cone) != 3 or len(set(cone)) != 3:
                report.append(f"cone {ci} does not have three distinct rays")
                continue
            if any(i < 0 or i >= len(self.rays) for i in cone):
                report.append(f"cone {ci} has an out-of-range ray index")
                continue
            if not_3d.intersection(cone):
                continue  # the ray is already reported; it has no determinant
            d = _det3(*(self.rays[i] for i in cone))
            if abs(d) != 1:
                report.append(f"non-unimodular cone {ci} (det = {in_full(d)})")
            if frozenset(cone) in cone_sets:
                report.append(f"cone {ci} duplicates another cone")
            cone_sets.add(frozenset(cone))
        return tuple(report)

    @cached_property
    def wall_table(self) -> dict[tuple[int, int], list[int]]:
        """wall (sorted ray pair) -> indices of maximal cones containing it."""
        _require_well_formed(self)
        out: dict[tuple[int, int], list[int]] = {}
        for ci, cone in enumerate(self.cones):
            s = sorted(cone)
            for pair in ((s[0], s[1]), (s[0], s[2]), (s[1], s[2])):
                out.setdefault(pair, []).append(ci)
        return out

    @cached_property
    def oriented_cones(self) -> tuple[tuple[int, int, int], ...]:
        """Each cone as a positive triple: its rays in the given order, or
        with the last two swapped where that order has determinant -1."""
        _require_well_formed(self)
        rays = self.rays
        return tuple(
            (a, b, c) if _det3(rays[a], rays[b], rays[c]) > 0 else (a, c, b)
            for a, b, c in self.cones
        )

    @cached_property
    def stars(self) -> tuple[tuple[tuple[int, ...], bool] | None, ...]:
        """Per ray v, the link of its star (the neighbour rays of the cones
        through it) in walk order and whether the link is a cycle; None when
        the link is neither one cycle nor one chain.  The walk steps from x
        to y for each positive cone (v, x, y), so it runs counterclockwise
        as seen from v: a cycle from its smallest ray, a chain from its
        first end.  A ray in no cone has the empty chain."""
        links: list[dict[int, int] | None] = [{} for _ in self.rays]
        for a, b, c in self.oriented_cones:
            for v, x, y in ((a, b, c), (b, c, a), (c, a, b)):
                link = links[v]
                # Two successors of x: cones on one side of the wall (v, x).
                if link is not None and link.setdefault(x, y) != y:
                    links[v] = None
        return tuple(None if link is None else _walk_link(link) for link in links)

    @cached_property
    def wall_reports(self) -> dict[tuple[int, int], "WallReport"]:
        """Report of every interior wall; raises :class:`InvalidFan`."""
        require_valid_fan(self)
        return {
            wall: _wall_report(self, wall, cones)
            for wall, cones in self.wall_table.items()
            if len(cones) == 2
        }


def _walk_link(successor: dict[int, int]) -> tuple[tuple[int, ...], bool] | None:
    """The walk of one star's link along its successor map."""
    if not successor:
        return (), False
    heads = successor.keys() - successor.values()  # rays with no predecessor
    complete = not heads
    start = min(heads or successor)
    size = len(successor) + (not complete)
    order = [start]
    here = successor.get(start)
    while here is not None and here != start and len(order) <= size:
        order.append(here)
        here = successor.get(here)
    # Too long: the walk repeats a ray; too short: it missed a component.
    return (tuple(order), complete) if len(order) == size else None


def validate_fan(f: Fan) -> list[str]:
    """Violations: non-primitive/duplicate rays, non-unimodular cones,
    improperly intersecting cones.  Empty iff the fan is a smooth fan.

    A smooth complete fan is certified in time linear in its size (see
    :func:`_covers_sphere_once`).  Any other fan that passes the local
    checks is scanned for rays inside foreign cones, O(rays x cones), and
    then for crossing walls, O(boundary walls x walls); the scan is the
    only code that reports an improper intersection."""
    report = list(instance(f, Fan).local_violations)
    if report:
        return report

    # Face-intersection checks on the wall structure: a wall may belong to
    # at most two cones, and when it belongs to two, they must lie on
    # opposite sides of it, as positive cones (i, j, x) and (j, i, y) do:
    # their cyclic orders run through the wall in opposite directions.
    oriented = f.oriented_cones
    for wall, cones in sorted(f.wall_table.items()):
        if len(cones) > 2:
            report.append(f"wall {wall} belongs to {len(cones)} cones")
            continue
        if len(cones) == 2:
            forward = [wall in ((a, b), (b, c), (c, a)) for a, b, c in (oriented[ci] for ci in cones)]
            if forward[0] == forward[1]:
                report.append(f"cones {cones[0]} and {cones[1]} overlap across wall {wall}")
    if not report and _covers_sphere_once(f):
        return report
    # No ray may meet the relative interior of a foreign cone or of one of
    # its walls (two or more strictly positive cone coordinates).  The
    # inverse of a positive unimodular cone (r1, r2, r3) is its adjugate, so
    # the coordinates of v are v . (r2 x r3), v . (r3 x r1), v . (r1 x r2).
    inverses = []
    for cone in oriented:
        r1, r2, r3 = (f.rays[i] for i in cone)
        inverses.append([_cross(r2, r3), _cross(r3, r1), _cross(r1, r2)])
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
    if report:
        return report
    # Two cones can still overlap with no ray inside the other; the edge of
    # their overlap is then a boundary wall crossing a foreign wall.  Walls
    # (a, b) and (c, d) cross iff the kernel of [a b -c -d] has one sign.
    table = f.wall_table
    crossings = set()
    for wall, cones in table.items():
        if len(cones) != 1:
            continue
        a, b = (f.rays[k] for k in wall)
        for other in table:
            if wall[0] in other or wall[1] in other:
                continue
            c, d = (f.rays[k] for k in other)
            s1 = _det3(a, b, c)
            if s1 * _det3(a, b, d) < 0:
                s3 = _det3(c, d, a)
                if s3 * _det3(c, d, b) < 0 and s1 * s3 < 0:
                    crossings.add((min(wall, other), max(wall, other)))
    report.extend(f"walls {w} and {x} cross" for w, x in sorted(crossings))
    return report


def _covers_sphere_once(f: Fan) -> bool:
    """Whether the cones of ``f`` cover R^3 exactly once, certified from
    the star walks and one Euler characteristic.

    Only read after the checks before the ray scan of :func:`validate_fan`
    have passed: the cones are unimodular and every wall has at most two
    cones, on opposite sides.  When every link is one cycle, every wall
    (v, x) has two cones: x has a successor y and a predecessor z in the
    link of v, from the distinct positive cones (v, x, y) and (v, z, x).
    When moreover every star winds once around its ray, the map from the
    cone complex to the sphere of directions is a local homeomorphism of a
    closed surface, hence a covering of degree chi / 2; rays - walls +
    cones = 2 leaves one sheet, so no ray meets a foreign cone and no two
    walls cross.
    """
    if len(f.rays) - len(f.wall_table) + len(f.cones) != 2:
        return False
    for v, star in zip(f.rays, f.stars):
        if star is None or not star[1]:
            return False
        order = star[0]
        # det(v, u, u0) per link ray u; det(v, u0, u1) = +1 by the walk.
        m = _cross(f.rays[order[0]], v)
        sides = [m[0] * x + m[1] * y + m[2] * z for x, y, z in (f.rays[k] for k in order)]
        # The half-open 2D cones [u_k, u_k+1) that contain u0: the winding.
        winding = sum(1 for k in range(len(sides)) if sides[k - 1] >= 0 > sides[k])
        if winding != 1:
            return False
    return True


def _require_well_formed(f: Fan) -> None:
    if f.local_violations:
        raise InvalidFan(f.local_violations)


def require_valid_fan(f: Fan) -> None:
    if instance(f, Fan).violations:
        raise InvalidFan(f.violations)


def walls(f: Fan) -> list[tuple[int, int]]:
    """Every wall (sorted ray pair) of a valid fan, sorted; raises
    :class:`InvalidFan` otherwise."""
    require_valid_fan(f)
    return sorted(f.wall_table)


class WallReport(Record):
    """Intersection data of the invariant curve of one wall; ``defect`` is its anticanonical degree."""

    wall: tuple[int, int]
    adjacent_cones: tuple[int, ...]
    self_intersections: tuple[int, int]
    defect: int


def wall_data(f: Fan, wall: tuple[int, int]) -> WallReport:
    """Defect and intersection data of one wall.

    Raises :class:`NotAWall` unless ``wall`` is a ray pair spanning a
    2-face, and :class:`BoundaryWall` (carrying the single cone index) for
    a wall that lies in only one maximal cone, where no defect is defined.
    """
    require_valid_fan(f)
    try:
        key = tuple(sorted(pair(wall)))
    except InvalidValue:
        key = None
    if key not in f.wall_table:
        raise NotAWall(f"{shown(wall)} is not a wall of the fan")
    cones = f.wall_table[key]
    if len(cones) == 1:
        raise BoundaryWall(key, cones[0])
    return f.wall_reports[key]


def _wall_report(f: Fan, key: tuple[int, int], cones: list[int]) -> WallReport:
    """Report of the interior wall ``key`` (sorted) of a valid fan."""
    i, j = key
    u1, u2 = (f.rays[k] for ci in cones for k in f.cones[ci] if k not in key)
    vi, vj = f.rays[i], f.rays[j]
    # In the basis (vi, vj, u1), u2 has u1-coefficient det(vi, vj, u2) /
    # det(vi, vj, u1) = -1, as the unimodular cones lie on opposite sides
    # of the wall; so u1 + u2 = x vi + y vj, by Cramer's rule with
    # d = det(vi, vj, u1), which is +1 iff (i, j) runs forward in the
    # positive triple of the first cone.
    a, b, c = f.oriented_cones[cones[0]]
    d = 1 if (i, j) in ((a, b), (b, c), (c, a)) else -1
    x, y = d * _det3(u2, vj, u1), d * _det3(vi, u2, u1)
    defect = 2 - x - y
    # Modulo vi the relation is u1 + u2 + (-y) vj = 0, the star relation of vi.
    return WallReport(key, tuple(cones), (-y, -x), defect)


def boundary_graph(f: Fan) -> DecoratedGraph:
    """The decorated graph of the boundary surface.

    Vertices are the maximal cones with the cyclic order of their walls
    induced by orienting every ray triple positively in the ambient Z^3;
    interior walls become compact edges with twist = defect, boundary
    walls become legs.  Scalar decorations default to 1.
    """
    require_valid_fan(f)
    table, oriented = f.wall_table, f.oriented_cones
    vertices = tuple((3 * ci, 3 * ci + 1, 3 * ci + 2) for ci in range(len(f.cones)))
    edges: list = []
    for wall in sorted(table):
        ends = []
        for ci in table[wall]:
            # Half-edge id: 3 * cone + k, at the wall opposite the cone's k-th positive ray.
            a, b, _ = oriented[ci]
            ends.append(3 * ci + (0 if a not in wall else 1 if b not in wall else 2))
        if len(ends) == 2:
            report = f.wall_reports[wall]
            edges.append(CompactEdge(tuple(ends), twist=report.defect, self_intersections=report.self_intersections))
        else:
            edges.append(Leg(ends[0]))
    return DecoratedGraph(vertices, edges)


def divisor_classification(f: Fan) -> list[dict]:
    """Per-ray boundary self-intersection cycles of the invariant divisors.

    For each ray the star fan's walls are walked in cyclic order; the
    returned ``selfIntersections`` lists the self-intersection numbers of
    the boundary curves of the divisor, normalized up to rotation and
    reflection for a complete star (``kind = "cycle"``) and up to
    reflection for an incomplete one (``kind = "chain"``, interior walls
    only).  Raises :class:`SplitStar` for a star of two or more chains.
    """
    require_valid_fan(f)
    out = []
    for ri, star in enumerate(f.stars):
        if star is None:
            raise SplitStar(
                f"star of ray {ri} is not one cycle or one chain; its divisor is not classified"
            )
        order, complete = star
        values = []
        for w in order:
            report = f.wall_reports.get((min(ri, w), max(ri, w)))
            if report is not None:
                values.append(report.self_intersections[0 if ri < w else 1])
        if complete:
            canon = min(_least_rotation(values), _least_rotation(values[::-1]))
            kind = "cycle"
        else:
            canon = min(tuple(values), tuple(reversed(values)))
            kind = "chain"
        out.append({"ray": ri, "kind": kind, "selfIntersections": canon})
    return out


def _least_rotation(seq: list[int]) -> tuple[int, ...]:
    """The least rotation of ``seq`` in linear time: keep two candidate
    starts i < j and the length k of their common prefix, and on the first
    difference rule out the larger start and the k after it."""
    n, doubled = len(seq), tuple(seq) * 2
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j, i + k) + 1
        else:
            j += k + 1
        k = 0
    return doubled[i : i + n]
