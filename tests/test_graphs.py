import random
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlocus.categories import FiniteCategory, build_i, build_j, collapse_functor
from singlocus.descent import DescentDiagram, assemble_diagram
from singlocus.errors import DisconnectedGraph, InvalidGraph, InvalidValue, NonOrientable, SingLocusError
from singlocus.examples import (
    circular_ladder_graph,
    conifold_graph,
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
    orientability,
    orientation_gauge,
    validate_graph,
)
from singlocus.topology import (
    dehn_twist_record,
    h1_graph_manifold,
    pencil_localization,
    plumbing_presentation,
)
from growth import assert_linear
from oracles import (
    category_violation_oracle,
    cycle_basis,
    face_walks_oracle,
    flip_each,
    random_multigraph,
    spanning_tree,
    w1_oracle,
)


def pants_graph():
    return DecoratedGraph(((0, 1, 2),), (Leg(0), Leg(1), Leg(2)))


def with_reversing(g, which):
    edges = []
    for i, e in enumerate(g.edges):
        if isinstance(e, CompactEdge) and i in which:
            e = e.replace(reversing=True)
        edges.append(e)
    return DecoratedGraph(g.vertices, tuple(edges))


# --- validation --------------------------------------------------------


def test_theta_valid():
    assert validate_graph(theta_graph()) == []


def test_non_trivalent_vertex():
    g = DecoratedGraph(((0, 1),), (Leg(0), Leg(1)))
    assert any("not trivalent" in v for v in validate_graph(g))


def test_triple_point_formula_violation():
    g = DecoratedGraph(
        ((0, 1, 2), (3, 4, 5)),
        (
            CompactEdge((0, 3), twist=1, self_intersections=(0, 0)),
            CompactEdge((1, 4)),
            CompactEdge((2, 5)),
        ),
    )
    assert any("triple point formula: expected n_e = 2" in v for v in validate_graph(g))


def test_half_edge_bookkeeping():
    g = DecoratedGraph(((0, 1, 2),), (Leg(0), Leg(0), Leg(1)))
    report = validate_graph(g)
    assert any("used by 2 edges" in v for v in report)
    assert any("belongs to no edge" in v for v in report)
    g = DecoratedGraph(((0, 1, 2), (0, 3, 4)), tuple(Leg(h) for h in range(5)))
    assert validate_graph(g) == ["half-edge 0 attached to 2 vertices"]


# Theta graphs broken one way each; every public entry must refuse them.
INVALID_GRAPHS = {
    # Half-edge 7 is on no vertex, and half-edge 5 in no edge.
    "dangling-half-edge": lambda: DecoratedGraph(
        ((0, 1, 2), (3, 4, 5)), (CompactEdge((0, 3)), CompactEdge((1, 4)), CompactEdge((2, 7)))
    ),
    "shared-half-edge": lambda: DecoratedGraph(
        ((0, 1, 2), (3, 4, 5)),
        (CompactEdge((0, 3)), CompactEdge((1, 4)), CompactEdge((2, 5)), Leg(0)),
    ),
    "non-trivalent-vertex": lambda: DecoratedGraph(
        ((0, 1, 2, 6), (3, 4, 5)),
        (CompactEdge((0, 3)), CompactEdge((1, 4)), CompactEdge((2, 5)), Leg(6)),
    ),
}
GRAPH_ENTRIES = {
    "vertex_of": lambda g: g.vertex_of,
    "edge_of": lambda g: g.edge_of,
    "compact_pairs": lambda g: g.compact_pairs,
    "tree": lambda g: g.tree,
    "collapse_functor": collapse_functor,
    "orientability": orientability,
    "orientation_gauge": orientation_gauge,
    "dual_surface": dual_surface,
    "build_i": build_i,
    "build_j": build_j,
    "assemble_diagram": assemble_diagram,
    "DescentDiagram": lambda g: DescentDiagram(g, (), ()),
    "plumbing_presentation": plumbing_presentation,
    "h1_graph_manifold": h1_graph_manifold,
    "pencil_localization": pencil_localization,
    "dehn_twist_record": dehn_twist_record,
}


@pytest.mark.parametrize("entry", GRAPH_ENTRIES)
@pytest.mark.parametrize("graph", INVALID_GRAPHS)
def test_every_graph_entry_refuses_an_invalid_graph(graph, entry):
    g = INVALID_GRAPHS[graph]()
    with pytest.raises(InvalidGraph) as info:
        GRAPH_ENTRIES[entry](g)
    assert info.value.report == list(g.violations)


def scanned_tables(g):
    """``vertex_of``, ``edge_of`` and ``compact_pairs`` of ``g``, each
    half-edge looked up by a scan of ``g.vertices`` and ``g.edges``."""
    halves = [h for triple in g.vertices for h in triple]
    ends = [e.ends if isinstance(e, CompactEdge) else (e.end,) for e in g.edges]
    vertex_of = {h: next(v for v, triple in enumerate(g.vertices) if h in triple) for h in halves}
    edge_of = {h: next(i for i, hs in enumerate(ends) if h in hs) for h in halves}
    pairs = tuple((vertex_of[hs[0]], vertex_of[hs[1]]) for hs in ends if len(hs) == 2)
    return vertex_of, edge_of, pairs


def test_tables_match_a_scan_of_vertices_and_edges():
    # Legs, self-loops and parallel edges occur throughout the random
    # graphs, and half of them carry arbitrary reversing flags.
    def graphs():
        for seed in range(1000):
            rng = random.Random(seed)
            yield random_multigraph(rng, rng.randint(1, 12), orientable=seed % 2 == 0)
        yield from map(circular_ladder_graph, range(1, 65))

    for g in graphs():
        assert (g.vertex_of, g.edge_of, g.compact_pairs) == scanned_tables(g), g
        assert g.vertex_of is g.vertex_of and g.edge_of is g.edge_of  # built once


# --- categories --------------------------------------------------------


def test_theta_j_counts():
    # direct enumeration: objects = V + E, arrows = identities + flags
    cat = build_j(theta_graph())
    cat.check()
    assert len(cat.objects) == 5
    assert len(cat.arrows) == 11


def test_theta_i_counts():
    cat = build_i(theta_graph())
    cat.check()
    assert len(cat.objects) == 8
    assert len(cat.arrows) == 26


def test_pants_j_equals_i():
    J = build_j(pants_graph())
    I = build_i(pants_graph())
    J.check()
    I.check()
    assert len(J.objects) == 4 and len(J.arrows) == 7
    assert len(I.objects) == 4 and len(I.arrows) == 7


def enumeration_counts(g):
    n_v = len(g.vertices)
    n_e = len(g.edges)
    flags = sum(2 if isinstance(e, CompactEdge) else 1 for e in g.edges)
    compact = sum(1 for e in g.edges if isinstance(e, CompactEdge))
    j = (n_v + n_e, n_v + n_e + flags)
    # identities, flags, isos and flag-then-iso: V + 2H + 4C arrows
    i = (n_v + flags, n_v + flags + flags + 2 * compact + 2 * compact)
    return j, i


def assert_counts_match_enumeration(graph, J, I):
    (j_obj, j_arr), (i_obj, i_arr) = enumeration_counts(graph)
    assert (len(J.objects), len(J.arrows)) == (j_obj, j_arr)
    assert (len(I.objects), len(I.arrows)) == (i_obj, i_arr)


@pytest.mark.parametrize(
    "graph",
    [
        theta_graph(),
        pants_graph(),
        circular_ladder_graph(2),
        circular_ladder_graph(3),
        k4_graph(),
        conifold_graph(),
    ],
    ids=["theta", "pants", "ladder2", "ladder3", "p3", "conifold"],
)
def test_category_counts_match_enumeration(graph):
    J, I = build_j(graph), build_i(graph)
    J.check()
    I.check()
    assert_counts_match_enumeration(graph, J, I)


def self_loop_graph():
    # one self-loop plus a leg at each of two vertices joined by an edge
    return DecoratedGraph(
        ((0, 1, 2), (3, 4, 5)),
        (CompactEdge((0, 1)), CompactEdge((2, 3)), CompactEdge((4, 5))),
    )


def test_categories_scale_to_extracted_graphs():
    g = quartic_mirror_graph()
    J = build_j(g)
    I = build_i(g)
    J.check()
    I.check()
    assert len(J.objects) == 64 + 96
    assert len(J.arrows) == 160 + 192
    assert len(I.objects) == 64 + 192
    assert len(I.arrows) == 256 + 192 + 192 + 192


def assert_collapse_is_equivalence(graph, J, I):
    # Collapsing each flag object to its edge object is an equivalence:
    # surjective on objects with fibers exactly the flag classes, and
    # bijective on every hom-set.
    obj_map = collapse_functor(graph)
    assert set(obj_map) == set(I.objects)
    assert set(obj_map.values()) == set(J.objects)
    hom_i, hom_j = Counter(I.arrows.values()), Counter(J.arrows.values())
    for x in I.objects:
        for y in I.objects:
            assert hom_i[(x, y)] == hom_j[(obj_map[x], obj_map[y])], (x, y)


@pytest.mark.parametrize(
    "graph",
    [
        theta_graph(),
        pants_graph(),
        circular_ladder_graph(2),
        circular_ladder_graph(3),
        self_loop_graph(),
    ],
    ids=["theta", "pants", "ladder2", "ladder3", "selfloop"],
)
def test_collapse_functor_is_equivalence(graph):
    J, I = build_j(graph), build_i(graph)
    J.check()
    I.check()
    assert_collapse_is_equivalence(graph, J, I)


def reduced_word(*names):
    """The arrow names split on ``*`` and concatenated, with each adjacent
    ``iso:eK:fwd``/``iso:eK:rev`` pair cancelled."""
    out = []
    for letter in (x for name in names for x in name.split("*")):
        inverse = letter[:-3] + {"fwd": "rev", "rev": "fwd"}.get(letter[-3:], "")
        if out and letter.startswith("iso:") and out[-1] == inverse:
            out.pop()
        else:
            out.append(letter)
    return "*".join(out)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 12))
def test_categories_of_random_multigraphs(seed, vertices):
    # self-loops, parallel edges and legs: both categories satisfy the
    # axioms, have the enumerated sizes and collapse to an equivalence, and
    # each non-unit composite of build_i is its reduced word (the identity
    # of its source when the word cancels to nothing)
    g = random_multigraph(random.Random(seed), vertices)
    J, I = build_j(g), build_i(g)
    J.check()
    I.check()
    assert_counts_match_enumeration(g, J, I)
    assert_collapse_is_equivalence(g, J, I)
    units = set(I.identities.values())
    for (h, f), hf in I.compose.items():
        if h not in units and f not in units:
            assert hf == (reduced_word(f, h) or I.identities[I.arrows[f][0]]), (h, f)


# A one-object table missing or breaking one entry: each fails check() by its message.
MISSING_ENTRIES = {
    "identity-arrow": (
        {"f": ("a", "a")}, {("f", "f"): "f"}, "identity of a is not an endo-arrow"
    ),
    "unit-composite": (
        {"ia": ("a", "a"), "f": ("a", "a")}, {("ia", "ia"): "ia"}, "left unit fails for f"
    ),
    "composite": (
        {"ia": ("a", "a"), "f": ("a", "a")},
        {("ia", "ia"): "ia", ("ia", "f"): "f", ("f", "ia"): "f"},
        "composite f o f has wrong endpoints",
    ),
    "right-unit": (
        {"ia": ("a", "a"), "f": ("a", "a")}, {("ia", "ia"): "ia", ("ia", "f"): "f"}, "right unit fails for f"
    ),
    # Units and endpoints hold, but f o (f o f) = f o g = ia and (f o f) o f = g o f = f.
    "associativity": (
        {"ia": ("a", "a"), "f": ("a", "a"), "g": ("a", "a")},
        {
            ("ia", "ia"): "ia", ("ia", "f"): "f", ("f", "ia"): "f", ("ia", "g"): "g", ("g", "ia"): "g",
            ("f", "f"): "g", ("f", "g"): "ia", ("g", "f"): "f", ("g", "g"): "g",
        },
        "associativity fails on (f, f, f)",
    ),
}


@pytest.mark.parametrize("case", MISSING_ENTRIES)
def test_check_refuses_a_missing_entry(case):
    arrows, compose, message = MISSING_ENTRIES[case]
    cat = FiniteCategory(("a",), arrows, {"a": "ia"}, compose)
    with pytest.raises(SingLocusError, match=re.escape(message)):
        cat.check()


def mutated_category(rng):
    """``build_i`` or ``build_j`` of a random multigraph on 1-6 vertices,
    after up to three random mutations: redirect a composite (more often
    one of two non-units), delete a composite, reverse an arrow, point an
    object's identity at another arrow, drop an object, or point an arrow's
    end at a foreign object."""
    g = random_multigraph(rng, rng.randint(1, 6))
    cat = rng.choice((build_i, build_j))(g)
    arrows, identities, compose = dict(cat.arrows), dict(cat.identities), dict(cat.compose)
    objects, names, units = cat.objects, list(arrows), set(identities.values())
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(7)
        if kind < 2:
            pairs = [pair for pair in compose if units.isdisjoint(pair)] if kind else list(compose)
            compose[rng.choice(pairs or list(compose))] = rng.choice(names)
        elif kind == 2:
            del compose[rng.choice(list(compose))]
        elif kind == 3:
            f = rng.choice(names)
            arrows[f] = arrows[f][::-1]
        elif kind == 4:
            identities[rng.choice(cat.objects)] = rng.choice(names)
        elif kind == 5:
            gone = rng.choice(cat.objects)
            objects = tuple(obj for obj in objects if obj != gone)
        else:
            f = rng.choice(names)
            arrows[f] = (arrows[f][0], "foreign")
    return FiniteCategory(objects, arrows, identities, compose)


def test_check_agrees_with_the_all_pairs_scan():
    # Outcome and message of check() against the oracle's scan of every
    # arrow name, on 1500 mutated index categories; each axiom and each
    # agreement with ``objects`` is seen failing, and some tables pass.
    rng, seen = random.Random(0), Counter()
    for _ in range(1500):
        cat = mutated_category(rng)
        try:
            cat.check()
            outcome = None
        except SingLocusError as exc:
            outcome = str(exc)
        assert outcome == category_violation_oracle(cat), cat
        seen[outcome and outcome.split()[0]] += 1
    expected = {None, "identities", "arrow", "identity", "left", "right", "composite", "associativity"}
    assert set(seen) == expected, seen


# Tables that disagree with ``objects``; the first two satisfy every axiom.
DISAGREEING_OBJECTS = {
    "object-without-identity": (
        ("a", "b"), {"ia": ("a", "a")}, {"a": "ia"}, {("ia", "ia"): "ia"}, "identities are not one per object"
    ),
    "foreign-identity": (
        ("a",),
        {"ia": ("a", "a"), "ic": ("c", "c")},
        {"a": "ia", "c": "ic"},
        {("ia", "ia"): "ia", ("ic", "ic"): "ic"},
        "identities are not one per object",
    ),
    "foreign-end": (
        ("a",),
        {"ia": ("a", "a"), "f": ("a", "c")},
        {"a": "ia"},
        {("ia", "ia"): "ia", ("f", "ia"): "f"},
        "arrow f has an end that is not an object",
    ),
}


@pytest.mark.parametrize("case", DISAGREEING_OBJECTS)
def test_check_refuses_tables_that_disagree_with_objects(case):
    *tables, message = DISAGREEING_OBJECTS[case]
    cat = FiniteCategory(*tables)
    with pytest.raises(SingLocusError, match=re.escape(message)):
        cat.check()
    assert category_violation_oracle(cat) == message


@pytest.mark.parametrize("ends", [("a", "a", "a"), None, "aa"], ids=["three-ends", "none", "string"])
def test_check_refuses_arrow_ends_that_are_not_a_pair(ends):
    cat = FiniteCategory(("a",), {"ia": ("a", "a"), "f": ends}, {"a": "ia"}, {("ia", "ia"): "ia"})
    with pytest.raises(InvalidValue, match="expected a list of 2 items"):
        cat.check()


def ladder_category(rungs):
    return build_i(circular_ladder_graph(rungs))


def test_check_of_a_64_rung_ladder_is_fast():
    cat = ladder_category(64)  # 1664 arrows
    start = time.perf_counter()
    cat.check()
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize(
    "make, run, sizes",
    [
        (circular_ladder_graph, validate_graph, (128, 256, 512, 1024)),
        (ladder_category, FiniteCategory.check, (16, 32, 64, 128)),
    ],
    ids=["validate_graph", "category-check"],
)
def test_ladder_paths_grow_linearly(make, run, sizes):
    # A check that scans every arrow name per composable pair fits about 1.9.
    assert_linear(make, run, sizes)


# --- dual surface ------------------------------------------------------


def euler_oracle(g):
    compact = sum(1 for e in g.edges if isinstance(e, CompactEdge))
    legs = sum(1 for e in g.edges if isinstance(e, Leg))
    return 2 * (len(g.vertices) - compact) - legs


def test_pants_surface():
    s = dual_surface(pants_graph())
    assert (s.genus, s.boundary_circles) == (0, 3)


def test_theta_surface():
    s = dual_surface(theta_graph())
    assert (s.genus, s.boundary_circles) == (2, 0)
    assert 2 - 2 * s.genus - s.boundary_circles == euler_oracle(theta_graph())


def test_quartic_surface():
    g = quartic_mirror_graph()
    s = dual_surface(g)
    assert (s.genus, s.boundary_circles) == (33, 0)
    # nodal-curve cross-check: sum of genera + nodes - components + 1
    assert 12 + 24 - 4 + 1 == s.genus


def test_closed_trivalent_genus_formula():
    for m in (1, 2, 3, 4):
        g = circular_ladder_graph(m)
        s = dual_surface(g)
        assert s.genus == 1 + len(g.vertices) // 2
        assert s.boundary_circles == 0


def test_surface_invariant_under_relabeling_and_mirror():
    g = theta_graph()
    mirrored = DecoratedGraph(
        tuple(tuple(reversed(v)) for v in g.vertices), g.edges
    )
    assert dual_surface(mirrored).genus == dual_surface(g).genus
    relabeled = DecoratedGraph((g.vertices[1], g.vertices[0]), g.edges)
    assert dual_surface(relabeled).genus == dual_surface(g).genus


def test_face_walks_closed_with_reversing_flags():
    # with flags the mirror pairing uses the partner map; every reported
    # walk must still be a closed orbit and every half-edge must show up
    # in some walk or in the reverse of one (i.e. as its partner)
    rng = random.Random(17)
    for _ in range(60):
        flags = {i for i in range(3) if rng.random() < 0.5}
        g = with_reversing(theta_graph(), flags)
        s = dual_surface(g)
        seen = {h for walk in s.face_walks for h in walk}
        partners = {0: 3, 1: 4, 2: 5, 3: 0, 4: 1, 5: 2}
        assert all(h in seen or partners[h] in seen for h in range(6))


def test_face_walks_cover_each_half_edge_once():
    # With no reversing flags the walk map preserves direction, so after
    # mirror-deduplication each half-edge appears exactly once in total.
    for graph in (theta_graph(), pants_graph(), circular_ladder_graph(3)):
        s = dual_surface(graph)
        seen = sorted(h for walk in s.face_walks for h in walk)
        half_edges = sum(
            2 if isinstance(e, CompactEdge) else 1 for e in graph.edges
        )
        assert seen == list(range(half_edges))


def test_face_walks_match_the_oracle():
    # Exactly: the walks, their order and where each starts.  Half of the
    # random graphs carry arbitrary reversing flags, so orbits that step
    # both ways occur alongside legs and self-loops.
    for seed in range(2000):
        rng = random.Random(seed)
        g = random_multigraph(rng, rng.randint(1, 12), orientable=seed % 2 == 0)
        assert dual_surface(g).face_walks == face_walks_oracle(g), seed
    for rungs in range(1, 65):
        g = circular_ladder_graph(rungs)
        assert dual_surface(g).face_walks == face_walks_oracle(g), rungs


def test_dual_surface_grows_linearly_on_ladders():
    assert_linear(circular_ladder_graph, dual_surface, (128, 256, 512, 1024))


# --- orientability -----------------------------------------------------


def test_theta_orientable():
    ok, w1 = orientability(theta_graph())
    assert ok and w1 == [0, 0]


def test_one_reversing_edge_detected():
    g = with_reversing(theta_graph(), {1})
    ok, w1 = orientability(g)
    assert not ok
    # cycle-product oracle: cycles pair edge 0 with edges 1 and 2
    assert w1 == [1, 0]


def test_tree_with_reversing_is_orientable():
    g = DecoratedGraph(
        ((0, 1, 2), (3, 4, 5)),
        (CompactEdge((0, 3), reversing=True), Leg(1), Leg(2), Leg(4), Leg(5)),
    )
    ok, _ = orientability(g)
    assert ok


def test_orientability_gauge_invariance():
    rng = random.Random(99)
    for _ in range(40):
        flags = {i for i in range(3) if rng.random() < 0.5}
        g = with_reversing(theta_graph(), flags)
        base = orientability(g)
        vertex = rng.randrange(2)
        flipped = flip_vertex(g, vertex)
        assert orientability(flipped)[0] == base[0]
        assert dual_surface(flipped).genus == dual_surface(g).genus


def test_reversing_self_loop_never_orientable():
    # flipping a vertex toggles a self-loop's flag twice, so a reversing
    # self-loop is a gauge-invariant obstruction
    g = DecoratedGraph(
        ((0, 1, 2), (3, 4, 5)),
        (
            CompactEdge((0, 1), reversing=True),
            CompactEdge((2, 3)),
            CompactEdge((4, 5)),
        ),
    )
    ok, w1 = orientability(g)
    assert not ok
    for v in range(2):
        assert not orientability(flip_vertex(g, v))[0]


def test_orientability_requires_connected():
    g = DecoratedGraph(
        ((0, 1, 2), (3, 4, 5)),
        (Leg(0), Leg(1), Leg(2), Leg(3), Leg(4), Leg(5)),
    )
    with pytest.raises(DisconnectedGraph):
        orientability(g)


def tree_or_error(tree):
    """The spanning tree as an ordered list of items, or the message of
    its DisconnectedGraph."""
    try:
        return list(tree().items())
    except DisconnectedGraph as exc:
        return str(exc)


def cut_or_join(rng, g, how):
    """``g`` itself, ``g`` with one compact edge cut into two legs, or the
    disjoint union of ``g`` and another random multigraph."""
    if how == "cut" and g.compact_edges():
        ei, e = rng.choice(g.compact_edges())
        edges = [*g.edges[:ei], *g.edges[ei + 1:], Leg(e.ends[0]), Leg(e.ends[1])]
        return DecoratedGraph(g.vertices, edges)
    if how == "join":
        other = random_multigraph(rng, rng.randint(1, 4))
        shift = 3 * len(g.vertices)
        vertices = [tuple(h + shift for h in t) for t in other.vertices]
        edges = [
            e.replace(ends=(e.ends[0] + shift, e.ends[1] + shift))
            if isinstance(e, CompactEdge) else Leg(e.end + shift)
            for e in other.edges
        ]
        return DecoratedGraph((*g.vertices, *vertices), (*g.edges, *edges))
    return g


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 9), st.sampled_from(["keep", "cut", "join"]))
def test_tree_matches_the_oracle_tree(seed, vertices, how):
    # The tree that pic and H1 read: the same items in the same order, and
    # DisconnectedGraph on the same graphs.
    rng = random.Random(seed)
    g = cut_or_join(rng, random_multigraph(rng, vertices), how)
    found = tree_or_error(lambda: g.tree)
    assert found == tree_or_error(lambda: spanning_tree(len(g.vertices), g.compact_pairs))
    if how == "join":
        assert found == "graph is not connected"


def test_ladder_tree_matches_the_oracle_tree():
    for rungs in range(1, 65):
        g = circular_ladder_graph(rungs)
        assert list(g.tree.items()) == list(spanning_tree(len(g.vertices), g.compact_pairs).items())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 9))
def test_w1_and_gauge_diagnostic_match_cycle_oracle(seed, vertices):
    # random flags: w1 equals the explicit cycle sums, and a non-orientable
    # graph's diagnostic names, by its index in g.edges, the closing compact
    # edge of the first cycle with w1 = 1
    g = random_multigraph(random.Random(seed), vertices)
    w1 = w1_oracle(g)
    assert orientability(g) == (not any(w1), w1)
    if any(w1):
        cycle = cycle_basis(len(g.vertices), g.compact_pairs)[w1.index(1)]
        with pytest.raises(NonOrientable) as info:
            orientation_gauge(g)
        edge = g.compact_edges()[cycle[-1][0]][0]
        assert str(info.value) == f"reversing flags have nontrivial holonomy (edge {edge})"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 9))
def test_orientation_gauge_flips_clear_every_reversing_flag(seed, vertices):
    g = random_multigraph(random.Random(seed), vertices, orientable=True)
    out = flip_each(g, orientation_gauge(g))
    assert not any(e.reversing for _, e in out.compact_edges())
    assert orientation_gauge(out) == [0] * vertices
