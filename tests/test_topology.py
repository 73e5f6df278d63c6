import random
from dataclasses import replace

import pytest

from singlocus.errors import NegativeDefect, NonOrientable
from singlocus.examples import (
    circular_ladder_graph,
    quartic_mirror_graph,
    theta_graph,
)
from singlocus.graphs import (
    CompactEdge,
    DecoratedGraph,
    Leg,
    dual_surface,
    flip_vertex,
)
from singlocus.intlinalg import snf
from singlocus.topology import (
    ShearMatrix,
    dehn_twist_record,
    h1_graph_manifold,
    pencil_localization,
    plumbing_presentation,
)
from singlocus.toric import Fan, boundary_graph


def pants_graph():
    return DecoratedGraph(((0, 1, 2),), (Leg(0), Leg(1), Leg(2)))


def gysin_h1(genus):
    """H1 of the unit circle bundle over a closed genus-g surface."""
    return (2 * genus, (2 * genus - 2,))


def relabel(g, vperm, rng):
    """Relabel vertices (keeping half-edge names) and shuffle edge order."""
    vertices = tuple(g.vertices[vperm.index(i)] for i in range(len(g.vertices)))
    edges = list(g.edges)
    rng.shuffle(edges)
    return DecoratedGraph(vertices, tuple(edges))


# --- shear -------------------------------------------------------------


def test_shear_self_inverse():
    for n in range(-4, 5):
        m = ShearMatrix(n)
        twice = m.apply(*m.apply(1, 0)), m.apply(*m.apply(0, 1))
        assert twice == ((1, 0), (0, 1))


# --- plumbing / H1 -----------------------------------------------------


def test_pants_presentation_trivial():
    from singlocus.topology import H1Result

    pres = plumbing_presentation(pants_graph())
    assert pres.relation_matrix.rows == 3
    assert pres.relation_matrix.cols == 0
    assert h1_graph_manifold(pants_graph()) == H1Result(3, ())


def test_theta_presentation_shape():
    pres = plumbing_presentation(theta_graph())
    assert pres.relation_matrix.rows == 6
    assert pres.relation_matrix.cols == 6


def test_unit_circle_bundle_values():
    for genus in (2, 3, 4, 5):
        g = circular_ladder_graph(genus - 1)
        h1 = h1_graph_manifold(g)
        assert (h1.free_rank, h1.torsion) == gysin_h1(genus)


def test_h1_invariances():
    rng = random.Random(21)
    g = circular_ladder_graph(2)
    base = h1_graph_manifold(g)
    # relabeling
    for _ in range(10):
        vperm = list(range(len(g.vertices)))
        rng.shuffle(vperm)
        assert h1_graph_manifold(relabel(g, vperm, rng)) == base
    # stored-direction reversal
    flipped_edges = tuple(
        replace(e, ends=(e.ends[1], e.ends[0])) if isinstance(e, CompactEdge) else e
        for e in g.edges
    )
    assert h1_graph_manifold(DecoratedGraph(g.vertices, flipped_edges)) == base
    # ribbon gauge: flip a vertex and toggle its incident flags
    for v in range(len(g.vertices)):
        assert h1_graph_manifold(flip_vertex(g, v)) == base


def test_h1_with_twists_changes_torsion():
    g = theta_graph(twists=(1, 0, 0))
    h1 = h1_graph_manifold(g)
    # still rank 4 free but torsion shifts away from Z/2
    assert h1.free_rank + len(h1.torsion) <= 5
    assert h1 != h1_graph_manifold(theta_graph())


def test_h1_rejects_non_orientable():
    g = theta_graph(reversing=(True, False, False))
    with pytest.raises(NonOrientable):
        h1_graph_manifold(g)


# --- dehn record -------------------------------------------------------


def test_dehn_record():
    assert dehn_twist_record(theta_graph()) == []
    assert dehn_twist_record(theta_graph(twists=(3, 0, 0))) == [(0, 3)]
    record = dehn_twist_record(quartic_mirror_graph())
    assert len(record) == 24
    assert all(mult == 1 for _, mult in record)


# --- pencil localization -----------------------------------------------


def euler_conservation(g, report):
    total = sum(2 - 2 * genus - boundary for genus, boundary in report.components)
    # annuli have euler characteristic zero
    return total == -len(g.vertices)


def test_pencil_smooth_case():
    g = theta_graph()
    report = pencil_localization(g)
    assert report.components == ((dual_surface(g).genus, 0),)
    assert report.nodes == 0
    assert report.sphere_components == 0
    assert euler_conservation(g, report)


def test_pencil_theta_two_zero_zero():
    g = theta_graph(twists=(2, 0, 0))
    report = pencil_localization(g)
    assert report.components == ((1, 2),)
    assert report.sphere_components == 1
    assert report.nodes == 2
    assert report.incidence == {(0, 1): 2}
    assert euler_conservation(g, report)


def test_pencil_quartic():
    g = quartic_mirror_graph()
    report = pencil_localization(g)
    assert report.components == ((3, 12),) * 4
    assert report.nodes == 24
    assert report.sphere_components == 0
    assert sorted(report.incidence) == [(a, b) for a in range(4) for b in range(a + 1, 4)]
    assert set(report.incidence.values()) == {4}
    assert euler_conservation(g, report)


def test_pencil_node_total_and_conservation_randomized():
    rng = random.Random(22)
    for _ in range(30):
        twists = tuple(rng.randint(0, 3) for _ in range(3))
        g = theta_graph(twists=twists)
        report = pencil_localization(g)
        assert report.nodes == sum(twists)
        assert sum(report.incidence.values()) == report.nodes
        assert euler_conservation(g, report)
        spheres = sum(max(t - 1, 0) for t in twists)
        assert report.sphere_components == spheres


def test_pencil_rejects_negative_defect():
    with pytest.raises(NegativeDefect):
        pencil_localization(theta_graph(twists=(-1, 0, 0)))


def test_pencil_rejects_non_orientable():
    with pytest.raises(NonOrientable):
        pencil_localization(theta_graph(reversing=(True, False, False)))


def test_pencil_single_component_genus_matches_surface():
    for g in (theta_graph(), circular_ladder_graph(3), pants_graph()):
        report = pencil_localization(g)
        assert len(report.components) == 1
        assert report.components[0][0] == dual_surface(g).genus


def test_pencil_counts_legs_as_boundary():
    from singlocus.examples import conifold_graph

    g = conifold_graph()
    report = pencil_localization(g)
    assert report.components == ((0, 4),)
    assert report.nodes == 0
    assert euler_conservation(g, report)


def test_h1_single_twist_family():
    # Independent oracle: cut the genus-2 circle bundle along the torus of
    # one pants curve and reglue with the shear n.  The cut piece is a
    # product over a genus-1 surface with two boundary circles, so its H1
    # is Z^4 = <a, b, C, f>; the regluing imposes 2f = 0 (boundary lifts
    # sum to the euler characteristic) and n(C + t f) = 0, leaving
    # Z^2 + Z/2 + Z/n plus one free rank from the connecting map:
    # H1 = Z^3 + (Z/2 x Z/n).
    from math import gcd

    for n in range(1, 7):
        h1 = h1_graph_manifold(theta_graph(twists=(n, 0, 0)))
        g = gcd(2, n)
        torsion = tuple(d for d in (g, 2 * n // g) if d > 1)
        assert (h1.free_rank, h1.torsion) == (3, torsion)


def blowup_fan(rng, steps):
    """P^3 after ``steps`` random star subdivisions: a point blowup adds
    v1+v2+v3 and splits a cone into 3, a curve blowup adds vi+vj and splits
    the wall's 2 cones into 4 (Cox-Little-Schenck, section 3.3)."""
    rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
    cones = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    for _ in range(steps):
        n = len(rays)
        ci = rng.randrange(len(cones))
        if rng.random() < 0.5:
            i, j, k = cones[ci]
            rays.append([a + b + c for a, b, c in zip(rays[i], rays[j], rays[k])])
            cones[ci] = [i, j, n]
            cones += [[i, k, n], [j, k, n]]
            continue
        i, j, a = rng.sample(cones[ci], 3)
        (other,) = [c for c in range(len(cones)) if c != ci and i in cones[c] and j in cones[c]]
        (b,) = [r for r in cones[other] if r not in (i, j)]
        rays.append([x + y for x, y in zip(rays[i], rays[j])])
        cones[ci], cones[other] = [i, n, a], [i, n, b]
        cones += [[j, n, a], [j, n, b]]
    return Fan.build(rays, cones)


def dense_h1(g):
    """H1 with the cokernel read off the dense ``snf`` diagonal."""
    diag = snf(plumbing_presentation(g).relation_matrix).diagonal
    cycle_rank = len(g.compact_pairs) - len(g.vertices) + 1
    free = 3 * len(g.vertices) - sum(1 for d in diag if d != 0) + cycle_rank
    return free, tuple(d for d in diag if d > 1)


@pytest.mark.parametrize(
    "graph",
    [
        pytest.param(lambda: circular_ladder_graph(16), id="ladder16"),
        pytest.param(lambda: boundary_graph(blowup_fan(random.Random(20), 20)), id="blowup20"),
    ],
)
def test_h1_matches_dense_snf(graph):
    g = graph()
    h1 = h1_graph_manifold(g)
    assert (h1.free_rank, h1.torsion) == dense_h1(g)


def test_h1_ladder_128_closed_form():
    # g = 129: Z^258 + Z/256, from a 768 x 768 relation matrix
    h1 = h1_graph_manifold(circular_ladder_graph(128))
    assert (h1.free_rank, h1.torsion) == gysin_h1(129)


def test_h1_quartic_regression():
    # Pinned output; guards the framing conventions on a large graph.
    h1 = h1_graph_manifold(quartic_mirror_graph())
    assert (h1.free_rank, h1.torsion) == (48, (4,))


def test_gauge_trivial_flags_are_accepted():
    # flipping a vertex produces reversing flags with trivial holonomy;
    # both topology operations must gauge them away and agree
    g = theta_graph(twists=(2, 1, 0))
    flipped = flip_vertex(g, 0)
    assert any(e.reversing for e in flipped.edges)
    assert h1_graph_manifold(flipped) == h1_graph_manifold(g)
    a, b = pencil_localization(flipped), pencil_localization(g)
    assert (a.components, a.nodes, a.sphere_components) == (
        b.components,
        b.nodes,
        b.sphere_components,
    )


def test_pencil_multi_component_cuts():
    # cutting rungs of a circular ladder separates the two cycles
    rng = random.Random(31)
    for m in (2, 3, 4):
        g = circular_ladder_graph(m)
        # rungs are the last m edges; give each one vanishing circle
        edges = []
        for i, e in enumerate(g.edges):
            twist = 1 if i >= 2 * m else 0
            edges.append(CompactEdge(e.ends, twist=twist))
        cut = DecoratedGraph(g.vertices, tuple(edges))
        report = pencil_localization(cut)
        # two main components (outer and inner cycle), each a genus-1
        # piece with m boundary circles
        assert report.components == ((1, m), (1, m))
        assert report.nodes == m
        assert report.sphere_components == 0
        assert report.incidence == {(0, 1): m}
        assert euler_conservation(cut, report)
