import json
import random
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlocus.descent import assemble_diagram, pic_invariants
from singlocus.errors import NegativeDefect, NonOrientable, SingLocusError
from singlocus.examples import (
    circular_ladder_graph,
    k4_graph,
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
from singlocus.intlinalg import cokernel_abelian_group
from singlocus.serialize import (
    diagram_to_json,
    dumps_canonical,
    nodal_curve_to_json,
    pic_to_json,
    surface_to_json,
)
from singlocus.topology import (
    dehn_twist_record,
    h1_graph_manifold,
    pencil_localization,
    plumbing_presentation,
)
from singlocus.toric import boundary_graph

from growth import assert_linear, slope
from oracles import (
    blowup_fan,
    check_fp_ranks,
    columns,
    dense_relations,
    expand_incidence,
    incidence,
    pencil_incidence_oracle,
    per_pair_incidence,
    random_multigraph,
    snf,
    stored_direction_relations,
)


def pants_graph():
    return DecoratedGraph(((0, 1, 2),), (Leg(0), Leg(1), Leg(2)))


def gysin_h1(genus):
    """H1 of the unit circle bundle over a closed genus-g surface."""
    return (2 * genus, (2 * genus - 2,))


def permute_half_edges(g, rng):
    """Shuffle each vertex's half-edge triple, which changes the cyclic orders."""
    return DecoratedGraph(tuple(tuple(rng.sample(t, len(t))) for t in g.vertices), g.edges)


def relabel(g, vperm, rng):
    """Relabel vertices (keeping half-edge names) and shuffle edge order."""
    vertices = tuple(g.vertices[vperm.index(i)] for i in range(len(g.vertices)))
    edges = list(g.edges)
    rng.shuffle(edges)
    return DecoratedGraph(vertices, tuple(edges))


# --- plumbing / H1 -----------------------------------------------------


def test_pants_presentation_trivial():
    from singlocus.topology import H1Result

    # One fiber and three leg cuffs; one vertex relation.
    relations = dense_relations(plumbing_presentation(pants_graph()))
    assert len(relations) == 4
    assert len(relations[0]) == 1
    assert h1_graph_manifold(pants_graph()) == H1Result(3, ())


def test_theta_presentation_shape():
    # Two fibers and three cuffs; two vertex and three edge relations.
    relations = dense_relations(plumbing_presentation(theta_graph()))
    assert len(relations) == 5
    assert len(relations[0]) == 5


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
        e.replace(ends=(e.ends[1], e.ends[0])) if isinstance(e, CompactEdge) else e
        for e in g.edges
    )
    assert h1_graph_manifold(DecoratedGraph(g.vertices, flipped_edges)) == base
    # ribbon gauge: flip a vertex and toggle its incident flags
    for v in range(len(g.vertices)):
        assert h1_graph_manifold(flip_vertex(g, v)) == base
    # cyclic orders: H1 does not depend on them, also by the oracle
    permuted = permute_half_edges(g, rng)
    assert permuted.vertices != g.vertices
    assert h1_graph_manifold(permuted) == base
    assert stored_direction_h1(permuted) == _h1_pair(base)


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
    assert incidence(report) == {(0, 1): 2}
    assert euler_conservation(g, report)


def test_pencil_quartic():
    g = quartic_mirror_graph()
    report = pencil_localization(g)
    assert report.components == ((3, 12),) * 4
    assert report.nodes == 24
    assert report.sphere_components == 0
    assert sorted(incidence(report)) == [(a, b) for a in range(4) for b in range(a + 1, 4)]
    assert set(incidence(report).values()) == {4}
    assert euler_conservation(g, report)


def test_pencil_node_total_and_conservation_randomized():
    rng = random.Random(22)
    for _ in range(30):
        twists = tuple(rng.randint(0, 3) for _ in range(3))
        g = theta_graph(twists=twists)
        report = pencil_localization(g)
        assert report.nodes == sum(twists)
        assert sum(incidence(report).values()) == report.nodes
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


def dense_h1(g):
    """H1 with the cokernel read off the dense ``snf`` diagonal."""
    relations = dense_relations(plumbing_presentation(g))
    diag = snf(relations).diagonal
    cycle_rank = len(g.compact_pairs) - len(g.vertices) + 1
    free = len(relations) - sum(1 for d in diag if d != 0) + cycle_rank
    return free, tuple(d for d in diag if d > 1)


def twisted_ladder(rungs, low=1, high=10):
    """A circular ladder with a twist from ``randrange(low, high)`` on each
    compact edge, drawn from ``random.Random(rungs)``; by default twists
    1..9, so that the pencil cuts every edge."""
    rng, g = random.Random(rungs), circular_ladder_graph(rungs)
    return DecoratedGraph(g.vertices, [e.replace(twist=rng.randrange(low, high)) for e in g.edges])


@pytest.mark.parametrize(
    "graph",
    [
        pytest.param(lambda: circular_ladder_graph(16), id="ladder16"),
        pytest.param(lambda: boundary_graph(blowup_fan(random.Random(20), 20)[0]), id="blowup20"),
        # The minor of a twisted ladder's residue has one large part, whose
        # local pass runs modulo that part itself.
        pytest.param(lambda: twisted_ladder(8), id="ladder8-twists1to9"),
        pytest.param(lambda: twisted_ladder(16), id="ladder16-twists1to9"),
        pytest.param(lambda: twisted_ladder(8, 10**19, 10**20), id="ladder8-20digit"),
        pytest.param(lambda: twisted_ladder(6, 10**79, 10**80), id="ladder6-80digit"),
    ],
)
def test_h1_matches_dense_snf(graph):
    g = graph()
    h1 = h1_graph_manifold(g)
    assert (h1.free_rank, h1.torsion) == dense_h1(g)


@pytest.mark.parametrize("steps", [10, 20])
def test_h1_of_blowup_sweep_matches_dense_snf(steps):
    for seed in range(1, 31):
        g = boundary_graph(blowup_fan(random.Random(seed), steps)[0])
        h1 = h1_graph_manifold(g)
        assert (h1.free_rank, h1.torsion) == dense_h1(g), seed


def _outcome(f, g):
    try:
        return f(g)
    except SingLocusError as exc:
        return type(exc)


def _h1_pair(h):
    return h.free_rank, h.torsion


def stored_direction_h1(g):
    """H1 from the cokernel of the stored-direction relations."""
    relations = stored_direction_relations(g)
    free, torsion = cokernel_abelian_group(columns(relations, len(relations[0])))
    return free + len(g.compact_pairs) - len(g.vertices) + 1, torsion


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 12), st.data())
def test_h1_matches_dense_snf_on_random_multigraphs(seed, vertices, data):
    g = random_multigraph(random.Random(seed), vertices, orientable=True)
    twists = iter(data.draw(st.lists(st.integers(-3, 6), min_size=len(g.edges), max_size=len(g.edges))))
    g = DecoratedGraph(g.vertices, tuple(
        e.replace(twist=next(twists)) if isinstance(e, CompactEdge) else e for e in g.edges
    ))
    h1 = _outcome(lambda g: _h1_pair(h1_graph_manifold(g)), g)
    assert h1 == _outcome(dense_h1, g)
    assert h1 == _outcome(stored_direction_h1, g)
    permuted = permute_half_edges(g, random.Random(seed))
    assert h1 == _outcome(lambda g: _h1_pair(h1_graph_manifold(g)), permuted)
    assert h1 == _outcome(stored_direction_h1, permuted)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_h1_of_50_step_blowups_matches_fp_ranks(seed):
    # Dense snf cannot finish on these presentations (260 x 260).
    g = boundary_graph(blowup_fan(random.Random(seed), 50)[0])
    start = time.perf_counter()
    h1 = h1_graph_manifold(g)
    assert time.perf_counter() - start < 2.0
    cycle_rank = len(g.compact_pairs) - len(g.vertices) + 1
    check_fp_ranks(dense_relations(plumbing_presentation(g)), h1.free_rank - cycle_rank, h1.torsion)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 100))
def test_h1_of_random_blowups_matches_fp_ranks(seed, steps):
    # Every F_p dimension of H1 against a rank mod p of the dense relations.
    g = boundary_graph(blowup_fan(random.Random(seed), steps)[0])
    h1 = h1_graph_manifold(g)
    cycle_rank = len(g.compact_pairs) - len(g.vertices) + 1
    check_fp_ranks(dense_relations(plumbing_presentation(g)), h1.free_rank - cycle_rank, h1.torsion)


def test_h1_ladder_1024_is_fast():
    g = circular_ladder_graph(1024)
    start = time.perf_counter()
    h1 = h1_graph_manifold(g)
    assert time.perf_counter() - start < 1.0
    assert (h1.free_rank, h1.torsion) == gysin_h1(1025)


@pytest.mark.parametrize(
    "make, run",
    [
        (circular_ladder_graph, h1_graph_manifold),
        (twisted_ladder, pencil_localization),
        (twisted_ladder, dehn_twist_record),
    ],
    ids=["h1-untwisted", "pencil-twisted", "dehn-twisted"],
)
def test_ladder_paths_grow_linearly(make, run):
    assert_linear(make, run, (128, 256, 512, 1024))


@pytest.mark.parametrize(
    "make, section",
    [
        (circular_ladder_graph, lambda g: diagram_to_json(assemble_diagram(g))),
        (circular_ladder_graph, lambda g: pic_to_json(pic_invariants(assemble_diagram(g)))),
        (circular_ladder_graph, lambda g: surface_to_json(dual_surface(g))),
        (twisted_ladder, lambda g: nodal_curve_to_json(pencil_localization(g))),
        (twisted_ladder, lambda g: [{"edge": e, "multiplicity": m} for e, m in dehn_twist_record(g)]),
    ],
    ids=["descent", "pic-unit-scalars", "surface", "pencil-twisted", "dehn-twisted"],
)
def test_ladder_section_bytes_grow_linearly(make, section):
    # The slope of log(bytes of the section's canonical JSON, as the CLI
    # writes it) against log(rungs).  Lengths are exact, so one fit is
    # enough: about 1.0 on each section (1.1 on the surface, whose face
    # indices gain digits), where output that grows as n log n fits about
    # 1.17 at these sizes.
    points = [(n, len(dumps_canonical(section(make(n))))) for n in (128, 256, 512, 1024)]
    assert slope(points) < 1.15, points


def test_h1_ladder_128_closed_form():
    # g = 129: Z^258 + Z/256, from a 640 x 640 relation matrix
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
        assert incidence(report) == {(0, 1): m}
        assert euler_conservation(cut, report)


# --- run-length nodal curve ----------------------------------------------


def bigon_with_legs():
    """Two vertices joined by two parallel edges, one leg on each vertex."""
    return DecoratedGraph(
        ((0, 1, 2), (3, 4, 5)),
        (CompactEdge((0, 3)), CompactEdge((1, 4)), Leg(2), Leg(5)),
    )


PENCIL_SHAPES = {
    "theta": theta_graph(),
    "k4": k4_graph(),
    "ladder2": circular_ladder_graph(2),
    "ladder3": circular_ladder_graph(3),
    "ladder4": circular_ladder_graph(4),
    "bigon-with-legs": bigon_with_legs(),
}


def with_twists(g, twists):
    twists = iter(twists)
    edges = tuple(
        e.replace(twist=next(twists), self_intersections=None) if isinstance(e, CompactEdge) else e
        for e in g.edges
    )
    return DecoratedGraph(g.vertices, edges)


@st.composite
def twisted_shapes(draw):
    g = PENCIL_SHAPES[draw(st.sampled_from(sorted(PENCIL_SHAPES)))]
    count = len(g.compact_edges())
    return with_twists(g, draw(st.lists(st.integers(0, 6), min_size=count, max_size=count)))


@settings(max_examples=150, deadline=None)
@given(twisted_shapes())
def test_pencil_incidence_matches_per_annulus_oracle(g):
    report = pencil_localization(g)
    expected = pencil_incidence_oracle(g)
    assert incidence(report) == expected
    assert report.nodes == sum(expected.values())
    # The report's items are lossless: one per positive-twist edge, and
    # expanding them gives the per-annulus incidence back.
    payload = nodal_curve_to_json(report)
    items = payload["incidence"]
    assert expand_incidence(items) == expected
    assert sum(x["nodes"] for x in items) == payload["nodes"] == report.nodes
    assert len(items) == len(report.chains) == sum(1 for _, e in g.compact_edges() if e.twist > 0)
    # The schema before the run-length items: one dict per pair, sorted;
    # everything else is written as before.
    old = {
        "components": [{"genus": a, "boundary": b} for a, b in report.components],
        "nodes": report.nodes,
        "incidence": [{"pair": [a, b], "nodes": n} for (a, b), n in sorted(expected.items())],
        "sphereComponents": report.sphere_components,
    }
    canonical = json.dumps(old, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert dumps_canonical({**payload, "incidence": per_pair_incidence(items)}) == canonical


def test_pencil_merges_pairs_of_one_piece():
    # Cutting one of the two parallel edges keeps both its ends in piece 0.
    report = pencil_localization(with_twists(bigon_with_legs(), (2, 0)))
    assert report.chains == ((0, 1, 1, 0),)
    assert incidence(report) == {(0, 1): 2}
    report = pencil_localization(with_twists(bigon_with_legs(), (1, 0)))
    assert incidence(report) == {(0, 0): 1}


PENCIL_OF_HUGE_TWISTS = """
import json, time
from singlocus.examples import theta_graph
from singlocus.serialize import nodal_curve_to_json
from singlocus.topology import pencil_localization

start = time.perf_counter()
report = pencil_localization(theta_graph(twists=(10**9, 10**9, 1)))
curve = nodal_curve_to_json(report)
print(json.dumps({"seconds": time.perf_counter() - start, "chains": report.chains, "curve": curve}))
"""


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_pencil_cost_is_independent_of_twist_values():
    # In a child limited to 1 GiB of address space: a pencil that built
    # one object per annulus would need memory for 2 * 10**9 of them.
    proc = subprocess.run(
        [sys.executable, "-c", PENCIL_OF_HUGE_TWISTS],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["seconds"] < 1.0
    # Cutting all three edges leaves the two vertices as pieces 0 and 1.
    assert out["chains"] == [[0, 2, 10**9 - 1, 1], [0, 10**9 + 1, 10**9 - 1, 1], [0, 2 * 10**9, 0, 1]]
    curve = out["curve"]
    assert curve["incidence"] == [
        {"ends": [0, 1], "firstAnnulus": 2, "nodes": 10**9},
        {"ends": [0, 1], "firstAnnulus": 10**9 + 1, "nodes": 10**9},
        {"ends": [0, 1], "firstAnnulus": 2 * 10**9, "nodes": 1},
    ]
    assert curve["nodes"] == 2 * 10**9 + 1
    assert curve["sphereComponents"] == 2 * (10**9 - 1)
    assert curve["components"] == [{"genus": 0, "boundary": 3}] * 2
