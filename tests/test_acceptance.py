"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import wraps

from singlocus.descent import (
    assemble_diagram,
    diagrams_equivalent,
    gauge,
    pic_invariants,
)
from singlocus.errors import BoundaryWall
from singlocus.examples import (
    circular_ladder_graph,
    conifold_fan,
    conifold_graph,
    k4_graph,
    p1p1p1_fan,
    p3_fan,
    quartic_mirror_fan,
    quartic_mirror_graph,
    theta_graph,
)
from singlocus.graphs import CompactEdge, DecoratedGraph, dual_surface, flip_vertex
from singlocus.intlinalg import cokernel_abelian_group
from singlocus.localmodels import (
    EDGE_IDENTITY,
    VERTEX_IDENTITY,
    EdgeAut,
    TwoPerE,
    TwoPerV,
    VertexAut,
    act_on_two_per_v,
    compose_edge_aut,
    compose_vertex_aut,
    edge_aut_inverse,
    stabilizer_check_e,
    stabilizer_check_v,
    transporter_unit,
    vertex_aut_inverse,
)
from singlocus.toric import wall_data, walls
from singlocus.topology import h1_graph_manifold, pencil_localization

from oracles import (
    anticanonical_degree_oracle,
    columns,
    det_bareiss,
    enumerate_cokernel,
    incidence,
    matmul,
    smith_diagonal_oracle,
    snf,
)


def criterion(number, label):
    def wrap(fn):
        @wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number}: {label}")
                raise
            print(f"PASS criterion {number}: {label}")

        return run

    return wrap


@criterion(1, "quartic-mirror counts via the CLI pipe (< 5 s)")
def test_criterion_1_quartic_counts():
    start = time.monotonic()
    pipe = subprocess.run(
        f"{sys.executable} -m singlocus toric quartic-mirror | "
        f"{sys.executable} -m singlocus toric extract",
        shell=True,
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - start
    assert pipe.returncode == 0, pipe.stderr
    result = json.loads(pipe.stdout)["result"]
    counts = result["counts"]
    assert counts["rays"] == 34
    assert counts["maximalCones"] == 64
    assert counts["walls"] == 96
    assert counts["defects"] == {"0": 72, "1": 24}
    split = Counter(tuple(d["selfIntersections"]) for d in result["divisors"])
    assert len(split) == 3
    assert sorted(split.values()) == [4, 12, 18]
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f} s"


@criterion(2, "quartic-mirror pencil localization and dual surface genus")
def test_criterion_2_quartic_pencil():
    g = quartic_mirror_graph()
    report = pencil_localization(g)
    assert report.components == ((3, 12),) * 4
    assert report.nodes == 24
    assert report.sphere_components == 0
    assert sorted(incidence(report)) == [
        (a, b) for a in range(4) for b in range(a + 1, 4)
    ]
    assert all(n == 4 for n in incidence(report).values())
    assert dual_surface(g).genus == 33
    assert dual_surface(g).boundary_circles == 0


@criterion(3, "triple point formula equals anticanonical degree on all fixtures")
def test_criterion_3_triple_point_cross_check():
    fixtures = {
        "p3": p3_fan(),
        "conifold": conifold_fan(),
        "p1p1p1": p1p1p1_fan(),
        "quartic-mirror": quartic_mirror_fan(),
    }
    discrepancies = []
    checked = 0
    for name, fan in fixtures.items():
        for wall in walls(fan):
            try:
                report = wall_data(fan, wall)
            except BoundaryWall:
                continue
            checked += 1
            a, b = report.self_intersections
            if report.defect != a + b + 2 or report.defect != anticanonical_degree_oracle(fan, wall):
                discrepancies.append((name, wall, report))
    assert checked >= 6 + 1 + 12 + 96
    assert discrepancies == []


@criterion(4, "local-model group/torsor/stabilizer suite (>= 10^4 cases)")
def test_criterion_4_local_model_suite():
    rng = random.Random(0xC0FFEE)
    cases = 0

    def fraction():
        num = rng.randint(1, 12) * (1 if rng.random() < 0.5 else -1)
        return Fraction(num, rng.randint(1, 12))

    def edge_aut():
        return EdgeAut(
            rng.choice((-1, 1)), rng.randint(-8, 8), fraction(), fraction(), rng.randint(0, 1)
        )

    def vertex_aut():
        perm = [0, 1, 2]
        rng.shuffle(perm)
        return VertexAut((fraction(), fraction(), fraction()), tuple(perm), rng.randint(0, 1))

    for _ in range(1500):
        a, b, c = edge_aut(), edge_aut(), edge_aut()
        assert compose_edge_aut(compose_edge_aut(a, b), c) == compose_edge_aut(
            a, compose_edge_aut(b, c)
        )
        assert compose_edge_aut(a, EDGE_IDENTITY) == a
        inv = edge_aut_inverse(a)
        assert compose_edge_aut(a, inv) == EDGE_IDENTITY
        assert compose_edge_aut(inv, a) == EDGE_IDENTITY
        cases += 4

    for _ in range(1500):
        a, b, c = vertex_aut(), vertex_aut(), vertex_aut()
        assert compose_vertex_aut(compose_vertex_aut(a, b), c) == compose_vertex_aut(
            a, compose_vertex_aut(b, c)
        )
        assert compose_vertex_aut(a, VERTEX_IDENTITY) == a
        inv = vertex_aut_inverse(a)
        assert compose_vertex_aut(a, inv) == VERTEX_IDENTITY
        assert compose_vertex_aut(inv, a) == VERTEX_IDENTITY
        cases += 4

    u = TwoPerE(Fraction(1), 0)
    for _ in range(1500):
        # torsor: unique transporter between any two 2-periodic structures
        t1 = TwoPerE(fraction(), rng.randint(-6, 6))
        t2 = TwoPerE(fraction(), rng.randint(-6, 6))
        unit = transporter_unit(t1, t2)
        assert TwoPerE(unit.coeff * t1.coeff, unit.x_exp + t1.x_exp) == t2
        # vertex torsor: the action of the scalar group is simply transitive
        s1, s2 = TwoPerV(fraction()), TwoPerV(fraction())
        ratio = s2.value / s1.value
        scaling = VertexAut((1 / ratio, Fraction(1), Fraction(1)))
        assert act_on_two_per_v(scaling, s1) == s2
        cases += 2

    for _ in range(1500):
        a = edge_aut()
        assert stabilizer_check_e(a, u) == (a.n == 0 and a.lam_u == 1)
        v = vertex_aut()
        product = v.lams[0] * v.lams[1] * v.lams[2]
        assert stabilizer_check_v(v, TwoPerV(fraction())) == (product == 1)
        cases += 2

    for n in range(-500, 501):
        shear = EdgeAut(-1, n, 1, 1, 1)
        assert compose_edge_aut(shear, shear) == EDGE_IDENTITY
        cases += 1

    assert cases >= 10_000, cases


@criterion(5, "descent invariance under >= 100 random gauges per fixture")
def test_criterion_5_descent_invariance():
    rng = random.Random(0xBEEF)

    def scalar():
        num = rng.randint(1, 9) * (1 if rng.random() < 0.5 else -1)
        return Fraction(num, rng.randint(1, 9))

    fixtures = [
        theta_graph(holonomies=(2, 3, 5), base_scalars=(1, 7, 1)),
        k4_graph(),
        conifold_graph(),
        quartic_mirror_graph(),
    ]
    for g in fixtures:
        d = assemble_diagram(g)
        base_pic = pic_invariants(d)
        base_periodic = pic_invariants(d).is_trivial()
        for _ in range(100):
            gauged = gauge(d, [scalar() for _ in g.vertices])
            assert pic_invariants(gauged) == base_pic
            assert pic_invariants(gauged).is_trivial() == base_periodic
            assert diagrams_equivalent(d, gauged)


@criterion(6, "graph-manifold H1 = Z^2g + Z/(2g-2) for g = 2..5 (< 1 s each)")
def test_criterion_6_graph_manifold_homology():
    rng = random.Random(0xF00D)
    for genus in (2, 3, 4, 5):
        g = circular_ladder_graph(genus - 1)
        start = time.monotonic()
        h1 = h1_graph_manifold(g)
        elapsed = time.monotonic() - start
        assert (h1.free_rank, h1.torsion) == (2 * genus, (2 * genus - 2,))
        assert elapsed < 1.0, f"genus {genus} took {elapsed:.2f} s"
        # relabeling invariance
        vperm = list(range(len(g.vertices)))
        rng.shuffle(vperm)
        vertices = tuple(g.vertices[vperm.index(i)] for i in range(len(g.vertices)))
        edges = list(g.edges)
        rng.shuffle(edges)
        assert h1_graph_manifold(DecoratedGraph(vertices, tuple(edges))) == h1
        # stored-direction reversal
        swapped = tuple(
            e.replace(ends=(e.ends[1], e.ends[0])) if isinstance(e, CompactEdge) else e
            for e in g.edges
        )
        assert h1_graph_manifold(DecoratedGraph(g.vertices, swapped)) == h1
        # ribbon gauge
        assert h1_graph_manifold(flip_vertex(g, rng.randrange(len(g.vertices)))) == h1


@criterion(7, "SNF vs minors oracle (>= 10^3) and cokernel vs enumeration")
def test_criterion_7_exact_algebra_oracles():
    rng = random.Random(0xACE)
    for _ in range(1000):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        form = snf(rows)
        assert list(form.diagonal) == smith_diagonal_oracle(rows)
        diag = [d for d in form.diagonal if d]
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        product = matmul(matmul(form.left, rows), form.right)
        for i in range(nr):
            for j in range(nc):
                expected = form.diagonal[i] if i == j else 0
                assert product[i][j] == expected
        assert abs(det_bareiss(form.left)) == 1
        assert abs(det_bareiss(form.right)) == 1

    checked = 0
    attempts = 0
    while checked < 30 and attempts < 5000:
        attempts += 1
        n = rng.randint(1, 3)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        d = det_bareiss(rows)
        if d == 0 or abs(d) > 200:
            continue
        oracle = enumerate_cokernel(rows, cap=201)
        assert oracle is not None
        order, kill_counts = oracle
        free, torsion = cokernel_abelian_group(columns(rows, n))
        assert free == 0
        prod = 1
        for t in torsion:
            prod *= t
        assert prod == order == abs(d)
        from math import gcd

        for m_div, count in kill_counts.items():
            expected = 1
            for t in torsion:
                expected *= gcd(m_div, t)
            assert count == expected
        checked += 1
    assert checked == 30
