import contextlib
import json
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singlocus.descent import DescentDiagram, assemble_diagram, gauge, pic_invariants
from singlocus.errors import ParseError
from singlocus.localmodels import EdgeAut
from singlocus.examples import circular_ladder_graph, conifold_fan, quartic_mirror_fan, theta_graph
from singlocus.serialize import (
    diagram_to_json,
    dumps_canonical,
    fan_from_json,
    fan_to_json,
    format_rational,
    graph_from_json,
    graph_to_json,
    parse_rational,
)
from singlocus.toric import boundary_graph
from growth import assert_linear


def test_rational_round_trip():
    for value in (Fraction(1), Fraction(-3, 7), Fraction(22, 4)):
        assert parse_rational(format_rational(value)) == value
    assert parse_rational("3") == 3
    assert parse_rational(5) == 5
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational("x")
    with pytest.raises(ParseError):
        parse_rational(1.5)


def test_rationals_past_the_digit_limit():
    # Written in full although str() refuses more than 4300 digits.
    value = Fraction(-(7**6000), 11**5000)
    numerator, denominator = format_rational(value).split("/")
    assert Fraction(int(Decimal(numerator)), int(Decimal(denominator))) == value
    # The exponent is bounded before Fraction builds 10**exponent.
    assert parse_rational("1e4299") == 10**4299
    assert parse_rational("-2.5E-4298") == Fraction(-25, 10**4299)
    for text in ("1e4300", "1.5e4299", "2e-4300", "1e10000000", "1e" + "9" * 5000):
        with pytest.raises(ParseError):
            parse_rational(text)


def test_graph_round_trip():
    for g in (theta_graph(twists=(0, 2, -1), holonomies=(2, 3, Fraction(1, 5))),
              boundary_graph(quartic_mirror_fan())):
        payload = graph_to_json(g)
        again = graph_from_json(json.loads(dumps_canonical(payload)))
        assert again == g


def test_fan_round_trip():
    f = conifold_fan()
    assert fan_from_json(json.loads(dumps_canonical(fan_to_json(f)))) == f


def test_diagram_round_trip_preserves_invariants():
    # diagram_to_json writes the record's charts, and each transition with
    # its edge, stored direction and discrete part; the constructor takes
    # the scalars back.
    g = theta_graph(twists=(0, 2, -1), holonomies=(2, 3, 5), base_scalars=(7, 1, 2))
    d = gauge(assemble_diagram(g), [Fraction(7, 3), Fraction(1, 2)])
    payload = json.loads(dumps_canonical(diagram_to_json(d)))
    charts = [parse_rational(c["trivialization"]) for c in payload["charts"]]
    written = [
        (t["edge"], tuple(t["direction"]),
         EdgeAut(t["eps"], t["n"], parse_rational(t["lamX"]), parse_rational(t["lamU"]), t["shift"]))
        for t in payload["transitions"]
    ]
    assert written == [
        (ei, direction, EdgeAut(-1, e.twist, *transition, 1))
        for (ei, e), direction, transition in zip(g.compact_edges(), d.directions, d.transitions)
    ]
    again = DescentDiagram(graph_from_json(payload), charts, [(a.lam_x, a.lam_u) for _, _, a in written])
    assert again == d
    assert pic_invariants(again) == pic_invariants(d)


def test_diagram_serialization_shape():
    d = assemble_diagram(theta_graph())
    payload = diagram_to_json(d)
    assert [t["eps"] for t in payload["transitions"]] == [-1, -1, -1]
    assert [t["shift"] for t in payload["transitions"]] == [1, 1, 1]
    assert payload["charts"] == [{"trivialization": "1/1"}] * 2


def test_malformed_graph_json():
    with pytest.raises(ParseError):
        graph_from_json({"vertices": [], "edges": [{"kind": "mystery"}]})
    with pytest.raises(ParseError):
        graph_from_json({"vertices": [{"halfEdges": [0, 1, 2]}]})


def test_canonical_output_is_sorted_and_stable():
    payload = graph_to_json(theta_graph())
    assert dumps_canonical(payload) == dumps_canonical(json.loads(dumps_canonical(payload)))


def ladder_json(rungs):
    return graph_to_json(circular_ladder_graph(rungs))


@pytest.mark.parametrize("run", [graph_from_json, dumps_canonical], ids=lambda f: f.__name__)
def test_ladder_json_paths_grow_linearly(run):
    assert_linear(ladder_json, run, (128, 256, 512, 1024))


# --- canonical emission ----------------------------------------------------


def plain_dumps(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=3),  # json turns the keys into strings
    max_leaves=25,
)


def huge_ints(value, scale):
    """``value`` with every int multiplied by ``scale``."""
    if type(value) is int:
        return value * scale
    if type(value) is dict:
        return {key: huge_ints(item, scale) for key, item in value.items()}
    if type(value) is list:
        return [huge_ints(item, scale) for item in value]
    return value


@contextlib.contextmanager
def no_digit_limit():
    # Python versions without the int-to-str digit limit have no setter either.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES, st.sampled_from((1, 10**4300)))
@example({"incidence": [{"ends": [0, 1], "firstAnnulus": 10**4300 + 1, "nodes": 1}]}, 1)
@example({10: None, 2: [1, {"a": -(10**4400), "": True}]}, 1)
def test_dumps_canonical_matches_json_dumps(payload, scale):
    # Ints past the 4300-digit limit are written in full, also inside lists of dicts.
    payload = huge_ints(payload, scale)
    with no_digit_limit():
        expected = plain_dumps(payload)
    assert dumps_canonical(payload) == expected
