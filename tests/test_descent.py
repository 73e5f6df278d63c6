import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlocus.descent import (
    DescentDiagram,
    assemble_diagram,
    diagrams_equivalent,
    gauge,
    pic_invariants,
)
from singlocus.errors import DisconnectedGraph, GraphMismatch, InvalidValue, NonOrientable
from singlocus.examples import circular_ladder_graph, p3_fan, quartic_mirror_fan, theta_graph
from singlocus.graphs import CompactEdge, DecoratedGraph, Leg, orientation_gauge
from singlocus.serialize import diagram_to_json
from singlocus.toric import boundary_graph
from growth import assert_linear
from models import EdgeAut, edge_aut_inverse
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
    assert d.transitions == ((1, 1),) * 3
    assert all(type(s) is Fraction for pair in d.transitions for s in pair)
    assert d.directions == ((0, 1), (0, 1), (0, 1))


def test_assemble_quartic():
    d = assemble_diagram(boundary_graph(quartic_mirror_fan()))
    degrees = pic_invariants(d).degree_vector
    assert sorted(degrees).count(1) == 24
    assert sorted(degrees).count(0) == 72
    assert not pic_invariants(d).is_trivial()


def test_assemble_rejects_bad_transitions():
    # The graph fixes the discrete part, so only the two scalars are given.
    g = theta_graph()
    good = [(1, Fraction(2, 3))] * 3
    assert DescentDiagram(g, (1, 1), good).transitions == ((1, Fraction(2, 3)),) * 3
    bad = (EdgeAut(-1, 0, 1, 1, 1), (-1, 0, 1, 1, 1), (1, 0))
    for k, transition in enumerate(bad):  # on edges 0, 1 and 2
        transitions = list(good)
        transitions[k] = transition
        with pytest.raises(InvalidValue):
            DescentDiagram(g, (1, 1), transitions)


@pytest.mark.parametrize(
    "transition, message",
    [
        pytest.param(EdgeAut(-1, 2, 1, 1, 1), "expected a list of 2 items, got EdgeAut(eps=-1, n=2, "
                     "lam_x=Fraction(1, 1), lam_u=Fraction(1, 1), shift=1)", id="edge-aut"),
        pytest.param((1, 1, 1), "expected a list of 2 items, got (1, 1, 1)", id="three-items"),
        pytest.param(Fraction(1), "expected a list of 2 items, got Fraction(1, 1)", id="scalar"),
        pytest.param((1.5, 1), "lam_x must be an int or Fraction, got 1.5", id="float"),
        pytest.param((0, 1), "lam_x must be nonzero", id="zero-lam-x"),
        pytest.param([1, Fraction(0)], "lam_u must be nonzero", id="zero-lam-u"),
    ],
)
def test_constructor_refuses_a_bad_transition(transition, message):
    g = theta_graph(twists=(0, 2, -1))
    transitions = list(assemble_diagram(g).transitions)
    transitions[1] = transition
    with pytest.raises(InvalidValue) as info:
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
    assert d.directions == ((0, 1),) * 3
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
        DescentDiagram(g, (1,) * 4, ((1, 1),) * 6)


def test_gauge_examples():
    d = assemble_diagram(theta_graph())
    assert gauge(d, [1, 1]) .transitions == d.transitions
    gauged = gauge(d, [Fraction(2), Fraction(1)])
    assert gauged.transitions == ((1, 2),) * 3
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
    assert not pic_invariants(assemble_diagram(boundary_graph(quartic_mirror_fan()))).is_trivial()


def test_pic_triviality_matches_two_periodicity():
    graphs = (theta_graph(), theta_graph(holonomies=(2, 3, 5)), boundary_graph(p3_fan()))
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
    different = DescentDiagram(g, (1, 1), [(e.base_scalar, 1) for _, e in g.compact_edges()])
    assert not diagrams_equivalent(d, different)
    # genuinely different graphs are rejected
    with pytest.raises(GraphMismatch):
        diagrams_equivalent(d, assemble_diagram(boundary_graph(p3_fan())))


def test_gauge_invariance_randomized():
    rng = random.Random(13)
    for g in (theta_graph(holonomies=(2, 3, 5)), boundary_graph(p3_fan())):
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
        assert all(lam_u == 1 for _, lam_u in normalized.transitions)
    assert trivializing_gauge(assemble_diagram(theta_graph(holonomies=(2, 1, 1)))) is None


def test_two_periodicity_constructive_on_small_graphs():
    # on graphs up to 6 vertices with twist 0: a diagram is 2-periodic
    # exactly when a gauge puts every lam_u to 1
    from singlocus.examples import circular_ladder_graph

    rng = random.Random(15)
    for g in (theta_graph(), circular_ladder_graph(2), circular_ladder_graph(3)):
        trivial = assemble_diagram(g)
        for _ in range(25):
            gauged = gauge(trivial, [rand_scalar(rng) for _ in g.vertices])
            assert pic_invariants(gauged).is_trivial()
            found = trivializing_gauge(gauged)
            assert found is not None
            assert all(lam_u == 1 for _, lam_u in gauge(gauged, found).transitions)
            assert pic_invariants(gauged).degree_vector == (0,) * len(gauged.transitions)


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
    g = boundary_graph(p3_fan())
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
        assert all(lam_u == 1 for _, lam_u in gauge(d, found).transitions)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 8))
def test_transitions_given_against_random_directions(seed, vertices):
    # Each transition is known along or against its stored direction at
    # random; one known against it is given as (lam_x, lam_x^-n / lam_u),
    # the scalars of its inverse.
    rng = random.Random(seed)
    g = random_multigraph(rng, vertices, orientable=True)
    twists = [e.twist for _, e in g.compact_edges()]
    stored = [EdgeAut(-1, n, _rational(rng), _rational(rng), 1) for n in twists]
    directions = assemble_diagram(g).directions
    known = [
        ((t, s), edge_aut_inverse(aut)) if s != t and rng.random() < 0.5 else ((s, t), aut)
        for (s, t), aut in zip(directions, stored)
    ]
    transitions = [
        (aut.lam_x, aut.lam_u) if direction == canon else (aut.lam_x, aut.lam_x**-aut.n / aut.lam_u)
        for (direction, aut), canon in zip(known, directions)
    ]
    charts = [_rational(rng) for _ in range(vertices)]
    d = DescentDiagram(g, charts, transitions)
    assert d.transitions == tuple((aut.lam_x, aut.lam_u) for aut in stored) and d.charts == tuple(charts)
    assert [EdgeAut(-1, n, *t, 1) for n, t in zip(twists, d.transitions)] == stored
    assert pic_invariants(d) == pic_invariants_oracle(d)


@pytest.mark.parametrize(
    "make, run",
    [
        (circular_ladder_graph, lambda g: diagram_to_json(assemble_diagram(g))),
        (lambda rungs: assemble_diagram(circular_ladder_graph(rungs)), pic_invariants),
    ],
    ids=["descent-section", "pic-unit-scalars"],
)
def test_ladder_paths_grow_linearly(make, run):
    # Unit scalars keep every holonomy 1, so only the graph's size grows.
    assert_linear(make, run, (128, 256, 512, 1024))


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
