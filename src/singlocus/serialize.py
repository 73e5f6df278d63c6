"""JSON codecs for graphs and fans, and the emitters of diagrams and
analysis reports.

Rationals travel as "p/q" strings to keep everything exact, and every
emitter sorts keys so that identical inputs produce byte-identical
output.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from . import descent, toric, topology
from .errors import InvalidValue, ParseError, in_full, shown
from .graphs import CompactEdge, DecoratedGraph, DualSurface, Leg


# Python's default limit on the digits of an int converted from or to a string.
_MAX_DIGITS = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def format_rational(x: Fraction) -> str:
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # past the int-to-str digit limit
        return f"{in_full(x.numerator)}/{in_full(x.denominator)}"


def parse_rational(text: object) -> Fraction:
    try:
        if isinstance(text, str):
            exponent = _EXPONENT.search(text)
            if exponent:
                # Fraction scales the mantissa by 10**|exponent|: bound the
                # digits of the two together before building either.
                digits = sum(map(str.isdigit, text[: exponent.start()]))
                if digits + abs(int(exponent[1])) > _MAX_DIGITS:
                    raise InvalidValue(f"more than {_MAX_DIGITS} digits")
            return Fraction(text.strip())
        if type(text) is int:
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {shown(text)}: {exc}") from None
    raise ParseError(f"bad rational {shown(text)}")


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode


def dumps_canonical(payload: object) -> str:
    """``json.dumps`` with sorted keys, no spaces and no ASCII escapes,
    writing every int in full."""
    try:
        return _encode(payload)
    except ValueError:  # an int past the int-to-str digit limit
        return _in_full(payload)


def _in_full(value: object) -> str:
    if type(value) is int:
        return in_full(value)
    if type(value) is dict:
        # json sorts the keys first and then turns each into a string (1 -> "1").
        items = (f"{_encode({k: 0})[1:-3]}:{_in_full(value[k])}" for k in sorted(value))
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_in_full, value)) + "]"
    return _encode(value)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def graph_to_json(g: DecoratedGraph) -> dict:
    edges = []
    for e in g.edges:
        if isinstance(e, CompactEdge):
            obj = {
                "kind": "compact",
                "ends": list(e.ends),
                "twist": e.twist,
                "holonomy": format_rational(e.holonomy),
                "baseScalar": format_rational(e.base_scalar),
                "reversing": e.reversing,
            }
            if e.self_intersections is not None:
                obj["selfIntersections"] = list(e.self_intersections)
            edges.append(obj)
        else:
            edges.append({"kind": "leg", "end": e.end})
    return {
        "vertices": [{"halfEdges": list(v)} for v in g.vertices],
        "edges": edges,
    }


def graph_from_json(payload: dict) -> DecoratedGraph:
    try:
        vertices = [v["halfEdges"] for v in payload["vertices"]]
        edges = []
        for e in payload["edges"]:
            if e["kind"] == "compact":
                # All six fields in order: a record binds positional arguments fastest.
                edges.append(CompactEdge(
                    e["ends"], e.get("twist", 0),
                    parse_rational(e.get("holonomy", 1)), parse_rational(e.get("baseScalar", 1)),
                    e.get("reversing", False), e.get("selfIntersections"),
                ))
            elif e["kind"] == "leg":
                edges.append(Leg(e["end"]))
            else:
                raise ParseError(f"unknown edge kind {shown(e['kind'])}")
        return DecoratedGraph(vertices, edges)
    except (KeyError, TypeError, InvalidValue) as exc:
        raise ParseError(f"malformed graph JSON: {exc}") from None


# ---------------------------------------------------------------------------
# Fans
# ---------------------------------------------------------------------------


def fan_to_json(f: toric.Fan) -> dict:
    return {"rays": [list(r) for r in f.rays], "cones": [list(c) for c in f.cones]}


def fan_from_json(payload: dict) -> toric.Fan:
    try:
        return toric.Fan(payload["rays"], payload["cones"])
    except (KeyError, TypeError, InvalidValue) as exc:
        raise ParseError(f"malformed fan JSON: {exc}") from None


# ---------------------------------------------------------------------------
# Descent diagrams
# ---------------------------------------------------------------------------


def diagram_to_json(d: descent.DescentDiagram) -> dict:
    payload = graph_to_json(d.graph)
    payload["charts"] = [{"trivialization": format_rational(c)} for c in d.charts]
    transitions = []
    compact = d.graph.compact_edges()
    for (ei, e), (lam_x, lam_u), direction in zip(compact, d.transitions, d.directions):
        transitions.append(
            {
                "edge": ei,
                "direction": list(direction),
                "eps": -1,
                "n": e.twist,
                "lamX": format_rational(lam_x),
                "lamU": format_rational(lam_u),
                "shift": 1,
            }
        )
    payload["transitions"] = transitions
    return payload


# ---------------------------------------------------------------------------
# Report fragments
# ---------------------------------------------------------------------------


def pic_to_json(p: descent.PicInvariants) -> dict:
    return {
        "degreeVector": list(p.degree_vector),
        "betaHolonomies": [format_rational(x) for x in p.beta_holonomies],
        "alphaHolonomies": [format_rational(x) for x in p.alpha_holonomies],
    }


def surface_to_json(s: DualSurface) -> dict:
    return {
        "genus": s.genus,
        "boundaryCircles": s.boundary_circles,
        "orientable": s.orientable,
        "faceWalks": [list(w) for w in s.face_walks],
    }


def h1_to_json(h: topology.H1Result) -> dict:
    return {"free": h.free_rank, "torsion": list(h.torsion)}


def nodal_curve_to_json(r: topology.NodalCurveReport) -> dict:
    """The nodal curve with one incidence item per cut edge: its n_e nodes
    link main piece u, the annuli f ... f + n_e - 2 in order, and main
    piece v, so the item is {"ends": [u, v], "firstAnnulus": f, "nodes": n_e}."""
    return {
        "components": [{"genus": g, "boundary": b} for g, b in r.components],
        "nodes": r.nodes,
        "incidence": [
            {"ends": [u, v], "firstAnnulus": first, "nodes": count + 1}
            for u, first, count, v in r.chains
        ],
        "sphereComponents": r.sphere_components,
    }


def wall_report_to_json(w: toric.WallReport) -> dict:
    return {
        "wall": list(w.wall),
        "adjacentCones": list(w.adjacent_cones),
        "selfIntersections": list(w.self_intersections),
        "defect": w.defect,
        "anticanonicalDegree": w.defect,
    }
