import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import incidence_text_oracle

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
    nodal_curve_to_json,
    parse_rational,
)
from singlocus.topology import NodalCurveReport


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
        ("direction", [0, 1, 2]),
        ("direction", [0]),
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


# --- nodal-curve incidence text --------------------------------------------


def nodal_curve(num_main, runs):
    """A report whose main pieces are 0 .. num_main - 1 and whose runs
    (u, annulus count, v) are numbered consecutively after them, as
    ``pencil_localization`` numbers them."""
    chains, first = [], num_main
    for u, count, v in runs:
        chains.append((u, first, count, v))
        first += count
    nodes = sum(count + 1 for _, count, _ in runs)
    return NodalCurveReport(((0, 1),) * num_main, nodes, tuple(chains), first - num_main)


BLOCK_EDGES = (1, 2, 99, 100, 101, 950, 999, 1_000, 1_001, 9_950, 9_999, 10_000)


@st.composite
def nodal_curves(draw):
    """Runs of 0-450 links that start at, end at or cross the 100-link
    blocks of the emitted text, 999 -> 1000 and 9 999 -> 10 000 included."""
    num_main = draw(st.sampled_from(BLOCK_EDGES) | st.integers(1, 12_000))
    runs, first = [], num_main
    for _ in range(draw(st.integers(0, 4))):
        how = draw(st.sampled_from(("listed", "any", "to an edge")))
        if how == "listed":  # 0, 1, 2, 99, 100 or 101 links
            count = draw(st.sampled_from((0, 1, 2, 3, 100, 101, 102)))
        elif how == "any":
            count = draw(st.integers(0, 451))
        else:  # the run's end first + count - 1 is one before, at or one past a block edge
            count = (1 - first) % 100 + 100 * draw(st.integers(0, 2)) + draw(st.integers(-1, 1))
            count = max(count, 0)
        ends = st.integers(0, num_main - 1)
        runs.append((draw(ends), count, draw(ends)))
        first += count
    return nodal_curve(num_main, runs)


@settings(max_examples=300, deadline=None)
@given(nodal_curves())
@example(nodal_curve(950, [(0, 150, 3)]))
@example(nodal_curve(9_950, [(7, 151, 2), (0, 100, 0)]))
@example(nodal_curve(100, [(0, 101, 1), (1, 0, 0), (0, 100, 0)]))
def test_incidence_text_matches_per_node_oracle(report):
    text = dumps_canonical({"incidence": nodal_curve_to_json(report)["incidence"]})
    expected = incidence_text_oracle(report)
    assert text == f'{{"incidence":{expected}}}'
    assert len(json.loads(expected)) == len(report.main_pairs) + sum(
        max(count - 1, 0) for _, _, count, _ in report.chains
    )
