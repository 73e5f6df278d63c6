import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlocus.descent import (
    assemble_diagram,
    canonical_directions,
    compose_cycle,
    diagrams_equivalent,
    gauge,
    is_two_periodic,
    pic_invariants,
    trivializing_gauge,
)
from singlocus.errors import GraphMismatch, NonOrientable, TwistMismatch
from singlocus.examples import circular_ladder_graph, k4_graph, quartic_mirror_graph, theta_graph
from singlocus.graphs import CompactEdge, DecoratedGraph, Leg, oriented_form
from singlocus.localmodels import EdgeAut, edge_aut_inverse
from oracles import cycle_basis, pic_invariants_oracle, random_multigraph


def rand_scalar(rng):
    num = rng.randint(1, 9)
    if rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, 9))


def tree_graph():
    return DecoratedGraph(
        ((0, 1, 2), (3, 4, 5)),
        (CompactEdge((0, 3), twist=1), Leg(1), Leg(2), Leg(4), Leg(5)),
    )


def test_assemble_trivial_theta():
    d = assemble_diagram(theta_graph())
    for aut in d.transitions:
        assert (aut.eps, aut.n, aut.lam_x, aut.lam_u, aut.shift) == (-1, 0, 1, 1, 1)
    assert d.directions == ((0, 1), (0, 1), (0, 1))


def test_assemble_quartic():
    d = assemble_diagram(quartic_mirror_graph())
    degrees = pic_invariants(d).degree_vector
    assert sorted(degrees).count(1) == 24
    assert sorted(degrees).count(0) == 72
    assert not is_two_periodic(d)


def test_assemble_rejects_bad_transitions():
    g = theta_graph()
    dirs = canonical_directions(g)
    good = [(dirs[i], EdgeAut(-1, 0, 1, 1, 1)) for i in range(3)]
    assemble_diagram(g, None, good)
    bad_eps = list(good)
    bad_eps[0] = (dirs[0], EdgeAut(1, 0, 1, 1, 1))
    with pytest.raises(TwistMismatch):
        assemble_diagram(g, None, bad_eps)
    bad_shift = list(good)
    bad_shift[1] = (dirs[1], EdgeAut(-1, 0, 1, 1, 0))
    with pytest.raises(TwistMismatch):
        assemble_diagram(g, None, bad_shift)
    bad_twist = list(good)
    bad_twist[2] = (dirs[2], EdgeAut(-1, 5, 1, 1, 1))
    with pytest.raises(TwistMismatch):
        assemble_diagram(g, None, bad_twist)


def test_assemble_rejects_non_orientable():
    g = theta_graph(reversing=(True, False, False))
    with pytest.raises(NonOrientable):
        assemble_diagram(g)


def test_direction_reversal_is_normalized_away():
    rng = random.Random(11)
    g = theta_graph(twists=(0, 2, -1), holonomies=(2, 3, 5), base_scalars=(7, 1, 2))
    base = assemble_diagram(g)
    dirs = canonical_directions(g)
    reversed_supply = [
        ((dirs[i][1], dirs[i][0]), edge_aut_inverse(base.transitions[i]))
        for i in range(3)
    ]
    again = assemble_diagram(g, None, reversed_supply)
    assert again.transitions == base.transitions
    assert pic_invariants(again) == pic_invariants(base)


def test_gauge_examples():
    d = assemble_diagram(theta_graph())
    assert gauge(d, [1, 1]) .transitions == d.transitions
    gauged = gauge(d, [Fraction(2), Fraction(1)])
    assert all(aut.lam_u == 2 for aut in gauged.transitions)
    assert pic_invariants(gauged) == pic_invariants(d)


def test_pic_invariants_theta():
    d = assemble_diagram(theta_graph(holonomies=(2, 3, 5)))
    pic = pic_invariants(d)
    assert pic.degree_vector == (0, 0, 0)
    assert pic.beta_holonomies == (Fraction(2, 3), Fraction(2, 5))


def test_pic_invariants_tree():
    d = assemble_diagram(tree_graph())
    pic = pic_invariants(d)
    assert pic.degree_vector == (1,)
    assert pic.beta_holonomies == ()
    assert pic.alpha_holonomies == ()


def test_two_periodicity():
    assert is_two_periodic(assemble_diagram(theta_graph()))
    assert not is_two_periodic(assemble_diagram(theta_graph(holonomies=(2, 1, 1))))
    assert not is_two_periodic(assemble_diagram(quartic_mirror_graph()))


def test_pic_triviality_matches_two_periodicity():
    graphs = (theta_graph(), theta_graph(holonomies=(2, 3, 5)), k4_graph())
    trivial = [pic_invariants(assemble_diagram(g)).is_trivial() for g in graphs]
    assert trivial == [is_two_periodic(assemble_diagram(g)) for g in graphs]
    assert trivial == [True, False, False]


def test_diagrams_equivalent():
    g = theta_graph(holonomies=(2, 3, 5))
    d = assemble_diagram(g)
    assert diagrams_equivalent(d, d)
    rng = random.Random(12)
    gauged = gauge(d, [rand_scalar(rng) for _ in g.vertices])
    assert diagrams_equivalent(d, gauged)
    # same combinatorial graph, beta holonomies (2/3, 2/5) vs (1, 1)
    trivial = assemble_diagram(theta_graph())
    assert not diagrams_equivalent(d, trivial)
    # scalars supplied directly rather than via decorations
    different = assemble_diagram(
        g,
        None,
        [
            (dir_, EdgeAut(-1, e.twist, e.base_scalar, Fraction(1), 1))
            for (dir_, (ei, e)) in zip(canonical_directions(g), g.compact_edges())
        ],
    )
    assert not diagrams_equivalent(d, different)
    # genuinely different graphs are rejected
    with pytest.raises(GraphMismatch):
        diagrams_equivalent(d, assemble_diagram(k4_graph()))


def test_gauge_invariance_randomized():
    rng = random.Random(13)
    for g in (theta_graph(holonomies=(2, 3, 5)), k4_graph()):
        d = assemble_diagram(g)
        base = pic_invariants(d)
        base_p = is_two_periodic(d)
        for _ in range(120):
            scalars = [rand_scalar(rng) for _ in g.vertices]
            gauged = gauge(d, scalars)
            assert pic_invariants(gauged) == base
            assert is_two_periodic(gauged) == base_p
            assert diagrams_equivalent(d, gauged)


def test_trivializing_gauge_search():
    # constructive equivalence: trivial invariants <=> gauge to all-1 scalars
    rng = random.Random(14)
    for _ in range(40):
        d = assemble_diagram(theta_graph())
        scalars = [rand_scalar(rng) for _ in range(2)]
        gauged = gauge(d, scalars)
        found = trivializing_gauge(gauged)
        assert found is not None
        normalized = gauge(gauged, found)
        assert all(aut.lam_u == 1 for aut in normalized.transitions)
    assert trivializing_gauge(assemble_diagram(theta_graph(holonomies=(2, 1, 1)))) is None


def test_two_periodicity_constructive_on_small_graphs():
    # on graphs up to 6 vertices: a diagram is 2-periodic exactly when a
    # gauge puts every transition in the all-1, twist-0 normal form
    from singlocus.examples import circular_ladder_graph

    rng = random.Random(15)
    for g in (theta_graph(), circular_ladder_graph(2), circular_ladder_graph(3)):
        trivial = assemble_diagram(g)
        for _ in range(25):
            gauged = gauge(trivial, [rand_scalar(rng) for _ in g.vertices])
            assert is_two_periodic(gauged)
            found = trivializing_gauge(gauged)
            assert found is not None
            assert all(
                aut.lam_u == 1 and aut.n == 0
                for aut in gauge(gauged, found).transitions
            )


def test_cycle_composites_land_in_h():
    g = theta_graph(twists=(1, 3, -2))
    d = assemble_diagram(g)
    cycles = cycle_basis(len(g.vertices), list(d.directions))
    twists = [e.twist for _, e in g.compact_edges()]
    for cyc in cycles:
        comp = compose_cycle(d, cyc)
        assert comp.eps == (-1) ** len(cyc)
        if len(cyc) % 2 == 0:
            assert comp.n == sum(s * twists[e] for e, s in cyc)


def test_odd_cycle_composite_parity():
    g = k4_graph()
    d = assemble_diagram(g)
    cycles = cycle_basis(len(g.vertices), list(d.directions))
    assert any(len(c) % 2 == 1 for c in cycles)
    for cyc in cycles:
        comp = compose_cycle(d, cyc)
        assert comp.eps == (-1) ** len(cyc)
        assert comp.shift == len(cyc) % 2


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 9), st.booleans(), st.booleans())
def test_pic_and_trivializing_gauge_match_cycle_oracle(seed, vertices, unit, gauged):
    rng = random.Random(seed)
    d = assemble_diagram(random_multigraph(rng, vertices, orientable=True, unit_holonomy=unit))
    if gauged:
        d = gauge(d, [rand_scalar(rng) for _ in range(vertices)])
    expected = pic_invariants_oracle(d)
    assert pic_invariants(d) == expected
    found = trivializing_gauge(d)
    assert (found is None) == any(b != 1 for b in expected.beta_holonomies)
    if found is not None:
        assert found[0] == 1
        assert all(aut.lam_u == 1 for aut in gauge(d, found).transitions)


def test_ladder_512_oriented_form_and_pic_are_fast():
    # reversing flags from a 2-colouring, so the graph is orientable but
    # half the vertices need flipping
    rng = random.Random(512)
    g = circular_ladder_graph(512)
    colour = [rng.randint(0, 1) for _ in g.vertices]
    edges = tuple(
        e.replace(reversing=colour[e.ends[0] // 3] != colour[e.ends[1] // 3], holonomy=rand_scalar(rng))
        for e in g.edges
    )
    g = DecoratedGraph(g.vertices, edges)
    start = time.perf_counter()
    flipped = oriented_form(g)
    pic = pic_invariants(assemble_diagram(g))
    seconds = time.perf_counter() - start
    assert flipped.vertices != g.vertices
    assert len(pic.beta_holonomies) == 513
    assert seconds < 1.5
