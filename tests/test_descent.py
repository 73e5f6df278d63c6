import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlocus.descent import (
    DescentDiagram,
    assemble_diagram,
    canonical_directions,
    diagrams_equivalent,
    gauge,
    pic_invariants,
)
from singlocus.errors import DisconnectedGraph, GraphMismatch, NonOrientable, TwistMismatch
from singlocus.examples import circular_ladder_graph, k4_graph, quartic_mirror_graph, theta_graph
from singlocus.graphs import CompactEdge, DecoratedGraph, Leg, orientation_gauge
from singlocus.localmodels import EdgeAut, edge_aut_inverse
from oracles import (
    _rational,
    compose_cycle,
    cycle_basis,
    pic_invariants_oracle,
    random_multigraph,
    trivializing_gauge,
)


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
    assert not pic_invariants(d).is_trivial()


def test_assemble_rejects_bad_transitions():
    g = theta_graph()
    good = [EdgeAut(-1, 0, 1, 1, 1)] * 3
    DescentDiagram(g, (1, 1), good)
    bad = (EdgeAut(1, 0, 1, 1, 1), EdgeAut(-1, 0, 1, 1, 0), EdgeAut(-1, 5, 1, 1, 1))
    for k, aut in enumerate(bad):  # eps, shift and twist, on edges 0, 1 and 2
        transitions = list(good)
        transitions[k] = aut
        with pytest.raises(TwistMismatch):
            DescentDiagram(g, (1, 1), transitions)


@pytest.mark.parametrize(
    "aut, message",
    [
        (EdgeAut(-1, 5, 1, 1, 1), "edge 1: transition twist 5 != edge defect 2"),
        (EdgeAut(1, 2, 1, 1, 1), "edge 1: transition must have eps = -1"),
        (EdgeAut(-1, 2, 1, 1, 0), "edge 1: transition must involve the shift"),
    ],
)
def test_constructor_refuses_a_bad_transition(aut, message):
    g = theta_graph(twists=(0, 2, -1))
    transitions = list(assemble_diagram(g).transitions)
    transitions[1] = aut
    with pytest.raises(TwistMismatch) as info:
        DescentDiagram(g, (1, 1), tuple(transitions))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "charts, count, message",
    [
        ((1,), 3, "need one chart scalar per vertex"),
        ((1, 1, 1), 3, "need one chart scalar per vertex"),
        ((1, 1), 2, "need one transition per compact edge"),
        ((1, 1), 4, "need one transition per compact edge"),
        ((1, 0), 3, "trivialization must be nonzero"),
    ],
)
def test_constructor_refuses_bad_counts_and_zero_charts(charts, count, message):
    g = theta_graph()
    transitions = assemble_diagram(g).transitions
    with pytest.raises(ValueError) as info:
        DescentDiagram(g, charts, (transitions * 2)[:count])
    assert str(info.value) == message


def test_constructor_keeps_scalar_charts_and_derives_directions():
    g = theta_graph(holonomies=(2, 3, 5))
    d = DescentDiagram(g, (2, Fraction(1, 3)), assemble_diagram(g).transitions)
    assert d.charts == (Fraction(2), Fraction(1, 3))
    assert all(type(c) is Fraction for c in d.charts)
    assert d.directions == tuple(canonical_directions(g)) == ((0, 1),) * 3
    assert d.replace(charts=(1, 1)) == assemble_diagram(g)
    with pytest.raises(TypeError):  # directions are the graph's, not data
        DescentDiagram(g, d.charts, d.transitions, ((1, 0),) * 3)
    assert pic_invariants(d).beta_holonomies == (Fraction(2, 3), Fraction(2, 5))


def test_assemble_rejects_non_orientable():
    g = theta_graph(reversing=(True, False, False))
    with pytest.raises(NonOrientable):
        assemble_diagram(g)
    with pytest.raises(NonOrientable):
        DescentDiagram(g, (1, 1), assemble_diagram(theta_graph()).transitions)


def test_constructor_refuses_a_disconnected_graph():
    # Two theta graphs side by side; the counts of charts and transitions fit.
    g = DecoratedGraph(
        ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)),
        tuple(CompactEdge((h, h + 3)) for h in (0, 1, 2, 6, 7, 8)),
    )
    with pytest.raises(DisconnectedGraph):
        DescentDiagram(g, (1,) * 4, (EdgeAut(-1, 0, 1, 1, 1),) * 6)


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
    assert pic_invariants(assemble_diagram(theta_graph())).is_trivial()
    assert not pic_invariants(assemble_diagram(theta_graph(holonomies=(2, 1, 1)))).is_trivial()
    assert not pic_invariants(assemble_diagram(quartic_mirror_graph())).is_trivial()


def test_pic_triviality_matches_two_periodicity():
    graphs = (theta_graph(), theta_graph(holonomies=(2, 3, 5)), k4_graph())
    trivial = [pic_invariants(assemble_diagram(g)).is_trivial() for g in graphs]
    assert trivial == [pic_invariants(assemble_diagram(g)).is_trivial() for g in graphs]
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
    different = DescentDiagram(
        g, (1, 1), [EdgeAut(-1, e.twist, e.base_scalar, Fraction(1), 1) for _, e in g.compact_edges()]
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
        base_p = pic_invariants(d).is_trivial()
        for _ in range(120):
            scalars = [rand_scalar(rng) for _ in g.vertices]
            gauged = gauge(d, scalars)
            assert pic_invariants(gauged) == base
            assert pic_invariants(gauged).is_trivial() == base_p
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
            assert pic_invariants(gauged).is_trivial()
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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 8))
def test_transitions_given_against_random_directions(seed, vertices):
    # Each transition is known along or against its stored direction at
    # random; one known against it is given as its inverse.
    rng = random.Random(seed)
    g = random_multigraph(rng, vertices, orientable=True)
    stored = [EdgeAut(-1, e.twist, _rational(rng), _rational(rng), 1) for _, e in g.compact_edges()]
    known = [
        ((t, s), edge_aut_inverse(aut)) if s != t and rng.random() < 0.5 else ((s, t), aut)
        for (s, t), aut in zip(canonical_directions(g), stored)
    ]
    transitions = [
        aut if direction == canon else edge_aut_inverse(aut)
        for (direction, aut), canon in zip(known, canonical_directions(g))
    ]
    charts = [_rational(rng) for _ in range(vertices)]
    d = DescentDiagram(g, charts, transitions)
    assert d.transitions == tuple(stored) and d.charts == tuple(charts)
    assert pic_invariants(d) == pic_invariants_oracle(d)


def test_ladder_512_pic_is_fast():
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
    flips = orientation_gauge(g)
    pic = pic_invariants(assemble_diagram(g))
    seconds = time.perf_counter() - start
    assert any(flips)
    assert len(pic.beta_holonomies) == 513
    assert seconds < 1.5
