import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlocus.descent import assemble_diagram, gauge, pic_invariants
from singlocus.examples import conifold_fan, quartic_mirror_graph, theta_graph
from singlocus.serialize import (
    CanonicalText,
    ParseError,
    diagram_from_json,
    diagram_to_json,
    dumps_canonical,
    fan_from_json,
    fan_to_json,
    format_rational,
    graph_from_json,
    graph_to_json,
    parse_rational,
)


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


def test_graph_round_trip():
    for g in (theta_graph(twists=(0, 2, -1), holonomies=(2, 3, Fraction(1, 5))),
              quartic_mirror_graph()):
        payload = graph_to_json(g)
        again = graph_from_json(json.loads(dumps_canonical(payload)))
        assert again == g


def test_fan_round_trip():
    f = conifold_fan()
    assert fan_from_json(json.loads(dumps_canonical(fan_to_json(f)))) == f


def test_diagram_round_trip_preserves_invariants():
    d = gauge(
        assemble_diagram(theta_graph(holonomies=(2, 3, 5))),
        [Fraction(7, 3), Fraction(1, 2)],
    )
    payload = diagram_to_json(d)
    again = diagram_from_json(json.loads(dumps_canonical(payload)))
    assert again.transitions == d.transitions
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


def test_diagram_json_missing_transition():
    payload = diagram_to_json(assemble_diagram(theta_graph()))
    payload["transitions"] = payload["transitions"][:2]
    with pytest.raises(ParseError):
        diagram_from_json(payload)


def test_diagram_json_transition_order_irrelevant():
    d = assemble_diagram(theta_graph(holonomies=(2, 3, 5)))
    payload = diagram_to_json(d)
    payload["transitions"] = list(reversed(payload["transitions"]))
    again = diagram_from_json(payload)
    assert again.transitions == d.transitions


def test_canonical_output_is_sorted_and_stable():
    payload = graph_to_json(theta_graph())
    assert dumps_canonical(payload) == dumps_canonical(json.loads(dumps_canonical(payload)))


@pytest.mark.parametrize(
    "field, value",
    [
        ("shift", True),
        ("n", 0.9),
        ("eps", "-1"),
        ("direction", ["0", 1]),
        ("direction", [0, 1.0]),
        ("edge", "0"),
        ("edge", False),
    ],
)
def test_diagram_transitions_are_not_coerced(field, value):
    payload = diagram_to_json(assemble_diagram(theta_graph(holonomies=(2, 3, 5))))
    payload["transitions"][0][field] = value
    with pytest.raises(ParseError):
        diagram_from_json(payload)


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


def with_fragments(draw, value):
    """``value`` with some dict values, at any depth below dicts only,
    replaced by their canonical text."""
    if type(value) is not dict:
        return value
    out = {}
    for key, item in value.items():
        how = draw(st.sampled_from(("keep", "splice", "descend")))
        if how == "splice":
            out[key] = CanonicalText(plain_dumps(item))
        else:
            out[key] = with_fragments(draw, item) if how == "descend" else item
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=5)
    | st.dictionaries(st.integers(), JSON_VALUES, max_size=5),
    st.data(),
)
def test_dumps_canonical_splices_fragments(payload, data):
    spliced = with_fragments(data.draw, payload)
    assert dumps_canonical(spliced) == plain_dumps(payload)
    assert dumps_canonical(CanonicalText(plain_dumps(payload))) == plain_dumps(payload)


def test_dumps_canonical_rejects_misplaced_fragments():
    fragment = CanonicalText("[1,2]")
    with pytest.raises(TypeError):
        dumps_canonical({"a": [fragment]})  # inside a list
    with pytest.raises(TypeError):
        dumps_canonical({1: fragment, "b": 2})  # json cannot sort mixed keys either
