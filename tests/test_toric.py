import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlocus.errors import BoundaryWall, InvalidFan, NotAWall, SplitStar
from singlocus.examples import conifold_fan, p1p1p1_fan, p3_fan, quartic_mirror_fan
from singlocus.graphs import dual_surface, validate_graph
from singlocus.toric import (
    Fan,
    _covers_sphere_once,
    _walk_link,
    boundary_graph,
    divisor_classification,
    validate_fan,
    wall_data,
    walls,
)

from oracles import (
    _det3,
    anticanonical_degree_oracle,
    blowup_fan,
    fan_violations_oracle,
    wall_self_intersections_oracle,
)

ALL_FIXTURE_FANS = {
    "p3": p3_fan,
    "conifold": conifold_fan,
    "p1p1p1": p1p1p1_fan,
    "quartic": quartic_mirror_fan,
}

# A valid fan whose ray 0 has a star of two separate chains, 1-2-5 and 3-6-4.
SPLIT_STAR_FAN = Fan(
    [[0, 0, 1], [1, 0, 0], [0, 1, 0], [0, -1, 0], [-1, -1, 0], [-1, 1, 0], [-1, -2, 0]],
    [[0, 1, 2], [0, 2, 5], [0, 3, 6], [0, 6, 4]],
)


# --- validation --------------------------------------------------------


def test_fixture_fans_valid():
    for name, factory in ALL_FIXTURE_FANS.items():
        assert validate_fan(factory()) == [], name
        # every fixture but the conifold is complete, and certified so
        assert _covers_sphere_once(factory()) == (name != "conifold"), name


def test_non_unimodular_cone():
    f = Fan([[1, 0, 0], [0, 1, 0], [1, 1, 2]], [[0, 1, 2]])
    assert any("non-unimodular" in v for v in validate_fan(f))


def test_duplicate_and_nonprimitive_ray():
    f = Fan([[1, 0, 0], [1, 0, 0], [0, 2, 0]], [[0, 1, 2]])
    report = validate_fan(f)
    assert any("duplicates" in v for v in report)
    assert any("not primitive" in v for v in report)


def test_overlapping_cones_detected():
    # two unimodular cones on the same side of their shared wall
    f = Fan(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
        [[0, 1, 2], [0, 1, 3]],
    )
    assert any("overlap" in v for v in validate_fan(f))


def test_star_folded_over_a_wall_is_not_walked():
    # Both cones lie on one side of wall (0, 1): around ray 0, ray 1 has
    # two successors, 2 and 3; around ray 1, ray 0 has two predecessors.
    f = Fan([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], [[0, 1, 2], [0, 1, 3]])
    assert f.stars[0] is None and f.stars[1] is None
    assert f.stars[2] == ((0, 1), False)


@pytest.mark.parametrize(
    "successor, walk",
    [
        pytest.param({}, ((), False), id="empty"),
        pytest.param({5: 2, 2: 7, 7: 5}, ((2, 7, 5), True), id="cycle"),
        pytest.param({5: 2, 2: 7}, ((5, 2, 7), False), id="chain"),
        pytest.param({1: 2, 3: 4}, None, id="two-chains"),
        pytest.param({1: 2, 2: 1, 3: 4, 4: 3}, None, id="two-cycles"),
        pytest.param({1: 2, 2: 1, 3: 4}, None, id="cycle-and-chain"),
        pytest.param({0: 1, 1: 2, 2: 3, 3: 1}, None, id="chain-into-cycle"),
        pytest.param({0: 2, 1: 2}, None, id="two-heads"),
    ],
)
def test_walk_link_shapes(successor, walk):
    assert _walk_link(successor) == walk


E123 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


# Fans that fail a check of one ray or cone: a cone with two rays, a cone
# on a ray that does not exist, a ray with two coordinates, and a cone of
# determinant 2.
INVALID_FANS = {
    "two-ray-cone": lambda: Fan(E123, [[0, 1]]),
    "out-of-range-ray": lambda: Fan(E123, [[0, 1, 5]]),
    "short-ray": lambda: Fan([[1, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]]),
    "non-unimodular": lambda: Fan([[1, 0, 0], [0, 1, 0], [1, 1, 2]], [[0, 1, 2]]),
}
FAN_ENTRIES = {
    "wall_table": lambda f: f.wall_table,
    "oriented_cones": lambda f: f.oriented_cones,
    "stars": lambda f: f.stars,
    "walls": walls,
    "wall_data": lambda f: wall_data(f, (0, 1)),
    "boundary_graph": boundary_graph,
    "divisor_classification": divisor_classification,
}


@pytest.mark.parametrize("entry", FAN_ENTRIES)
@pytest.mark.parametrize("fan", INVALID_FANS)
def test_every_fan_entry_refuses_an_invalid_fan(fan, entry):
    f = INVALID_FANS[fan]()
    with pytest.raises(InvalidFan) as info:
        FAN_ENTRIES[entry](f)
    assert info.value.report == list(f.violations)


@pytest.mark.parametrize(
    "rays, cones, expected",
    [
        pytest.param(E123 + [[1, 1, 1]], [[0, 1, 2]], ["ray 3 lies inside cone 0"], id="inside"),
        # a ray in the relative interior of a shared wall meets both cones
        pytest.param(
            E123 + [[0, 0, -1], [1, 1, 0]],
            [[0, 1, 2], [0, 1, 3]],
            ["ray 4 lies inside cone 0", "ray 4 lies inside cone 1"],
            id="on-shared-wall",
        ),
        pytest.param(E123, [[0, 1, 2], [0, 2, 1]], ["cone 1 duplicates another cone"], id="duplicate"),
        pytest.param(
            E123 + [[0, 0, -1], [1, 1, 1]],
            [[0, 1, 2], [0, 1, 3], [0, 1, 4]],
            ["wall (0, 1) belongs to 3 cones", "ray 4 lies inside cone 0"],
            id="wall-of-three",
        ),
        pytest.param(
            E123,
            [[0, 0, 1], [0, 1]],
            ["cone 0 does not have three distinct rays", "cone 1 does not have three distinct rays"],
            id="not-three",
        ),
        pytest.param(E123, [[0, 1, 3]], ["cone 0 has an out-of-range ray index"], id="out-of-range"),
        # the cones share the interior point (5, -3, -12), but no ray lies in the other
        pytest.param(
            [[-1, -1, 1], [1, 0, -2], [-1, -2, 1], [3, -2, 1], [0, 0, -1], [2, -1, -2]],
            [[0, 1, 2], [3, 4, 5]],
            [
                "walls (0, 1) and (3, 4) cross",
                "walls (0, 1) and (4, 5) cross",
                "walls (1, 2) and (3, 4) cross",
                "walls (1, 2) and (4, 5) cross",
            ],
            id="crossing-walls",
        ),
    ],
)
def test_fan_diagnostics(rays, cones, expected):
    f = Fan(rays, cones)
    assert validate_fan(f) == expected
    assert fan_violations_oracle(f) == expected


def two_sheets(fan, draw):
    """``fan`` plus its image under a unimodular map that moves every ray
    off the rays of ``fan``: two complete fans, Euler characteristic 4.

    With B the largest |coordinate|, K > 2B and r = (x, y, z), the shears
    give (x + K y, y + K (z + K x), z + K x), whose third, first or second
    coordinate exceeds B when x != 0, x = 0 != y or x = y = 0; a signed
    permutation keeps that."""
    big = max(abs(x) for r in fan.rays for x in r)
    k = 2 * big + draw(st.integers(1, 5))
    perm = draw(st.permutations(range(3)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=3))

    def image(r):
        x, y, z = r
        z += k * x
        x, y = x + k * y, y + k * z
        v = (x, y, z)
        return [signs[i] * v[perm[i]] for i in range(3)]

    rays = [list(r) for r in fan.rays] + [image(r) for r in fan.rays]
    n = len(fan.rays)
    cones = [list(c) for c in fan.cones] + [[i + n for i in c] for c in fan.cones]
    return Fan(rays, cones)


@st.composite
def mutated_blowups(draw):
    """Blowups of 0-25 steps, valid, with one mutation, with some cones
    dropped (incomplete) or doubled into two sheets.  A fold replaces the
    ray a of one cone opposite one of its walls by -a, so the cone moves
    to the side of that wall where its neighbour across it lies."""
    fan, _ = blowup_fan(random.Random(draw(st.integers(0, 2**32))), draw(st.integers(0, 25)))
    rays = [list(r) for r in fan.rays]
    cones = [list(c) for c in fan.cones]
    cone = cones[draw(st.integers(0, len(cones) - 1))]
    kind = draw(
        st.sampled_from(
            ["none", "ray", "index", "extra", "drop", "drop-some", "two-sheet", "duplicate", "permute", "fold"]
        )
    )
    if kind == "two-sheet":
        return two_sheets(fan, draw)
    if kind == "ray":
        ray = rays[draw(st.integers(0, len(rays) - 1))]
        ray[draw(st.integers(0, 2))] += draw(st.sampled_from([-2, -1, 1, 2]))
    elif kind == "index":
        cone[draw(st.integers(0, 2))] = draw(st.integers(-1, len(rays)))
    elif kind == "extra":
        # a small combination of one cone's rays: inside it, on a face or outside
        weights = draw(st.lists(st.integers(-1, 2), min_size=3, max_size=3))
        rays.append([sum(w * rays[i][k] for w, i in zip(weights, cone)) for k in range(3)])
    elif kind == "drop":
        cones.remove(cone)
    elif kind == "drop-some":
        keep = draw(st.lists(st.booleans(), min_size=len(cones), max_size=len(cones)))
        cones = [c for c, kept in zip(cones, keep) if kept]
    elif kind == "duplicate":
        cones.append(draw(st.permutations(cone)))
    elif kind == "permute":
        cone[:] = draw(st.permutations(cone))
    elif kind == "fold":
        k = draw(st.integers(0, 2))
        folded = [-x for x in rays[cone[k]]]
        if folded not in rays:
            rays.append(folded)
        cone[k] = rays.index(folded)
    return Fan(rays, cones)


@settings(max_examples=300, deadline=None)
@given(mutated_blowups())
def test_validate_fan_matches_rational_oracle(f):
    assert validate_fan(f) == fan_violations_oracle(f)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 80), st.data())
def test_certificate_accepts_blowups_and_refuses_two_sheets(seed, steps, data):
    f, _ = blowup_fan(random.Random(seed), steps)
    assert _covers_sphere_once(f)
    assert validate_fan(f) == []
    if steps <= 25:
        doubled = two_sheets(f, data.draw)
        assert not _covers_sphere_once(doubled)
        report = validate_fan(doubled)
        assert report and report == fan_violations_oracle(doubled)


def assert_oriented(f):
    """Each oriented cone is its cone, or its cone with the last two rays
    swapped, of determinant +1; each step x -> y of a star walk around v,
    the closing step of a cycle too, has det(v, x, y) = +1."""
    rays = f.rays
    for (a, b, c), tri in zip(f.cones, f.oriented_cones):
        assert tri in ((a, b, c), (a, c, b))
        assert _det3(*(rays[i] for i in tri)) == 1
    for v, (order, complete) in zip(rays, f.stars):
        steps = zip(order, order[1:] + order[:1] if complete else order[1:])
        assert all(_det3(v, rays[x], rays[y]) == 1 for x, y in steps)


@pytest.mark.parametrize("name", ALL_FIXTURE_FANS)
def test_fixture_fans_are_oriented_once(name):
    f = ALL_FIXTURE_FANS[name]()
    assert_oriented(f)
    assert_oriented(f.replace(cones=f.cones[1:]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 80), st.booleans())
def test_blowups_are_oriented_once(seed, steps, drop_first):
    f, _ = blowup_fan(random.Random(seed), steps)
    if drop_first:
        f = f.replace(cones=f.cones[1:])
    assert_oriented(f)


def test_certificate_refuses_a_star_that_winds_twice():
    # Two poles over an equator link that goes around twice, the second
    # lap raised by e3: a sphere of cones (chi = 2), each wall in two cones
    # on opposite sides, but the map to directions is a double cover
    # branched at the poles.
    laps = [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]
    f = Fan([[0, 0, 1], [0, 0, -1]] + laps, [[p, 2 + k, 2 + (k + 1) % 8] for p in (0, 1) for k in range(8)])
    assert len(f.rays) - len(f.wall_table) + len(f.cones) == 2
    assert not _covers_sphere_once(f)
    report = validate_fan(f)
    assert len(report) == 16 and report == fan_violations_oracle(f)


def test_validate_fan_400_step_blowup_is_fast():
    f, _ = blowup_fan(random.Random(400), 400)
    start = time.perf_counter()
    report = validate_fan(f)
    seconds = time.perf_counter() - start
    assert report == []
    assert seconds < 1.0


def test_validate_fan_1600_step_blowup_is_fast():
    f, _ = blowup_fan(random.Random(1600), 1600)
    start = time.perf_counter()
    report = validate_fan(f)
    seconds = time.perf_counter() - start
    assert report == []
    assert seconds < 0.5


# --- wall data ---------------------------------------------------------


def test_p3_wall():
    f = p3_fan()
    for wall in walls(f):
        report = wall_data(f, wall)
        assert report.self_intersections == (1, 1)
        assert report.defect == 4 == anticanonical_degree_oracle(f, wall)


def test_conifold_zero_section():
    f = conifold_fan()
    report = wall_data(f, (1, 2))
    assert report.self_intersections == (-1, -1)
    assert report.defect == 0 == anticanonical_degree_oracle(f, (1, 2))


def test_conifold_boundary_wall():
    f = conifold_fan()
    with pytest.raises(BoundaryWall) as info:
        wall_data(f, (0, 1))
    assert info.value.cone == 0


def test_not_a_wall():
    with pytest.raises(NotAWall):
        wall_data(conifold_fan(), (0, 3))
    # Three rays are no wall, though their least and greatest (0, 3) are.
    with pytest.raises(NotAWall):
        wall_data(p3_fan(), (0, 3, 1))
    # Nor is what is not a pair of integers.
    for wall in (None, 5, (0, "a"), (0, 1.0), (True, 2)):
        with pytest.raises(NotAWall):
            wall_data(p3_fan(), wall)


def test_p1p1p1_walls():
    f = p1p1p1_fan()
    for wall in walls(f):
        report = wall_data(f, wall)
        assert report.self_intersections == (0, 0)
        assert report.defect == 2 == anticanonical_degree_oracle(f, wall)


def check_walls_against_star_oracle(f):
    """Every interior wall's self-intersections equal the star-fan oracle's,
    and its defect is the anticanonical degree and a + b + 2."""
    for wall in walls(f):
        try:
            report = wall_data(f, wall)
        except BoundaryWall:
            continue
        a, b = report.self_intersections
        assert (a, b) == wall_self_intersections_oracle(f, wall), wall
        assert report.defect == anticanonical_degree_oracle(f, wall) == a + b + 2, wall
    assert boundary_graph(f).violations == ()


def test_triple_point_formula_cross_check_everywhere():
    for factory in ALL_FIXTURE_FANS.values():
        check_walls_against_star_oracle(factory())
    check_walls_against_star_oracle(SPLIT_STAR_FAN)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 50))
def test_blowup_walls_and_exceptional_divisor(seed, steps):
    f, wall = blowup_fan(random.Random(seed), steps)
    check_walls_against_star_oracle(f)
    if not steps:
        return
    (last,) = [e for e in divisor_classification(f) if e["ray"] == len(f.rays) - 1]
    assert last["kind"] == "cycle"
    if wall is None:  # a point blown up: P^2
        assert last["selfIntersections"] == (1, 1, 1)
    else:  # a curve blown up: the Hirzebruch surface F_k, k = |a - b|
        before, _ = blowup_fan(random.Random(seed), steps - 1)
        a, b = before.wall_reports[wall].self_intersections
        k = abs(a - b)
        assert last["selfIntersections"] == (-k, 0, k, 0)


def test_wall_reports_take_two_determinants_per_interior_wall(monkeypatch):
    # The sign of det(v_i, v_j, u1) is read off the first cone's positive
    # triple, so only x and y take a determinant.
    from singlocus import toric

    for fan in (quartic_mirror_fan(), blowup_fan(random.Random(3), 40)[0], SPLIT_STAR_FAN):
        f = Fan(fan.rays, fan.cones)  # a copy whose tables are not cached yet
        assert f.violations == () and f.oriented_cones  # validated and oriented first
        calls = []
        det3 = toric._det3
        monkeypatch.setattr(toric, "_det3", lambda *vs: calls.append(vs) or det3(*vs))
        interior = f.wall_reports
        monkeypatch.undo()
        assert len(interior) == sum(len(cones) == 2 for cones in f.wall_table.values()) > 0
        assert len(calls) == 2 * len(interior)


# --- boundary graphs ---------------------------------------------------


def test_p3_gives_k4():
    g = boundary_graph(p3_fan())
    assert validate_graph(g) == []
    assert len(g.vertices) == 4
    compact = [e for _, e in g.compact_edges()]
    assert len(compact) == 6 and not g.legs()
    assert all(e.twist == 4 for e in compact)
    # complete graph: every vertex pair joined exactly once
    pairs = Counter(tuple(sorted(p)) for p in g.compact_pairs)
    assert pairs == Counter({(a, b): 1 for a in range(4) for b in range(a + 1, 4)})


def test_conifold_graph_shape():
    g = boundary_graph(conifold_fan())
    assert validate_graph(g) == []
    assert len(g.vertices) == 2
    assert len(g.compact_edges()) == 1
    assert len(g.legs()) == 4  # trivalence: 3*2 half-edges = 2 + legs
    (_, edge), = g.compact_edges()
    assert edge.twist == 0


def test_quartic_graph_counts():
    f = quartic_mirror_fan()
    assert len(f.rays) == 34
    assert len(f.cones) == 64
    assert len(walls(f)) == 96
    g = boundary_graph(f)
    assert validate_graph(g) == []
    twists = Counter(e.twist for _, e in g.compact_edges())
    assert twists == Counter({0: 72, 1: 24})
    assert dual_surface(g).genus == 33


def test_quartic_defect_edges_sit_on_four_per_tetrahedron_edge():
    # the 24 defect walls join triangles of different facets; each of the
    # six tetrahedron edges carries four of them
    f = quartic_mirror_fan()
    defect_walls = [w for w in walls(f) if wall_data_defect(f, w) == 1]
    assert len(defect_walls) == 24
    # group by the tetrahedron edge: both rays lie on the same edge of the
    # simplex, i.e. they satisfy the same two of the four facet equalities
    def facet_signature(ray):
        x, y, z = ray
        return (x == -1, y == -1, z == -1, x + y + z == 1)

    groups = Counter()
    for i, j in defect_walls:
        sig_i, sig_j = facet_signature(f.rays[i]), facet_signature(f.rays[j])
        shared = tuple(a and b for a, b in zip(sig_i, sig_j))
        assert sum(shared) == 2
        groups[shared] += 1
    assert sorted(groups.values()) == [4] * 6


def wall_data_defect(f, w):
    try:
        return wall_data(f, w).defect
    except BoundaryWall:
        return None


def test_boundary_graph_carries_self_intersections():
    g = boundary_graph(p3_fan())
    for _, e in g.compact_edges():
        assert e.self_intersections == (1, 1)
        assert e.twist == sum(e.self_intersections) + 2


# --- divisor classification -------------------------------------------


def test_p3_divisors_are_planes():
    for entry in divisor_classification(p3_fan()):
        assert entry["kind"] == "cycle"
        assert entry["selfIntersections"] == (1, 1, 1)


def test_p1p1p1_divisors():
    for entry in divisor_classification(p1p1p1_fan()):
        assert entry["kind"] == "cycle"
        assert entry["selfIntersections"] == (0, 0, 0, 0)


def test_quartic_divisor_split():
    entries = divisor_classification(quartic_mirror_fan())
    classes = Counter(e["selfIntersections"] for e in entries)
    assert len(classes) == 3
    assert sorted(classes.values()) == [4, 12, 18]
    # the four triangle divisors are planes
    assert classes[(1, 1, 1)] == 4


def test_classification_normalization_stable():
    entries = divisor_classification(p3_fan())
    rotated = [e["selfIntersections"] for e in entries]
    assert len(set(rotated)) == 1


def test_conifold_divisors_are_chains():
    entries = divisor_classification(conifold_fan())
    assert all(e["kind"] == "chain" for e in entries)


def test_split_star_is_not_classified():
    # The walk along the star of ray 0 from boundary ray 1 ends at ray 5;
    # the chain 3-6-4 must not be dropped silently.
    assert validate_fan(SPLIT_STAR_FAN) == []
    with pytest.raises(SplitStar) as info:
        divisor_classification(SPLIT_STAR_FAN)
    assert str(info.value) == "star of ray 0 is not one cycle or one chain; its divisor is not classified"
