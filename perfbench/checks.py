"""Output checks for single CLI invocations.

A check is built from facts the benchmark derived itself (see gen.py) and
is called as ``check(exit_code, stdout, stdin)``; it returns the list of
problems it found, empty when the output is right.  Checks judge the
mathematical content of a report, not its bytes, so that a change to the
report layout is judged on its results.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import gen


def _report(problems: list[str], stdout: bytes, command: str, stdin: bytes | None):
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        problems.append(f"stdout is not one JSON document: {exc}")
        return None
    if not isinstance(report, dict) or report.get("command") != command:
        problems.append(f"not a {command!r} report")
        return None
    if stdin is not None and report.get("inputDigest") != hashlib.sha256(stdin).hexdigest():
        problems.append("inputDigest is not the SHA-256 of the input")
    return report


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def validate(kind: str):
    """``singlocus validate`` on a valid graph or fan."""

    def check(code: int, stdout: bytes, stdin: bytes | None) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit code", code, 0)
        report = _report(problems, stdout, "validate", stdin)
        if report is not None:
            _expect(problems, "result", report.get("result"), {"kind": kind, "violations": []})
            _expect(problems, "diagnostics", report.get("diagnostics"), [])
        return problems

    return check


def _main_components(facts: gen.GraphFacts) -> list[tuple[int, int]]:
    """(genus, boundary circles) of the pieces left after cutting every
    positive-twist edge, as the pencil's nodal curve must report them."""
    parent = list(range(facts.vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept = [(u, v) for (u, v), t in zip(facts.ends, facts.twists) if t == 0]
    for u, v in kept:
        parent[find(u)] = find(v)
    vertices, edges, boundary = Counter(), Counter(), Counter()
    for v in range(facts.vertices):
        vertices[find(v)] += 1
    for u, _ in kept:
        edges[find(u)] += 1
    for v in facts.leg_vertices:
        boundary[find(v)] += 1
    for (u, v), t in zip(facts.ends, facts.twists):
        if t > 0:
            boundary[find(u)] += 1
            boundary[find(v)] += 1
    return sorted((edges[r] - vertices[r] + 1, boundary[r]) for r in vertices)


def _check_h1(problems: list[str], h1: dict, facts: gen.GraphFacts) -> None:
    free, torsion = h1.get("free"), h1.get("torsion")
    if not isinstance(free, int) or not isinstance(torsion, list):
        problems.append(f"h1 is malformed: {h1!r}")
        return
    if any(t <= 1 for t in torsion) or any(b % a for a, b in zip(torsion, torsion[1:])):
        problems.append(f"h1 torsion {torsion} is not a chain of invariant factors > 1")
    # The connecting map contributes one free summand per cycle of the graph.
    if free < facts.cycle_rank:
        problems.append(f"h1 free rank {free} is below the cycle rank {facts.cycle_rank}")
    g = facts.genus
    if not facts.leg_vertices and not any(facts.twists) and g >= 2:
        # Untwisted closed graph: the unit circle bundle over the genus-g
        # surface, H1 = Z^{2g} + Z/(2g-2).
        _expect(problems, "h1", (free, torsion), (2 * g, [2 * g - 2]))


def analyze(facts: gen.GraphFacts | None = None):
    """``singlocus analyze --all``.  Without ``facts`` they are read from the
    graph on stdin (a graph payload or a ``toric extract`` report)."""

    def check(code: int, stdout: bytes, stdin: bytes | None) -> list[str]:
        problems: list[str] = []
        report = _report(problems, stdout, "analyze", stdin)
        if report is None:
            return problems
        f = facts
        if f is None:
            payload = json.loads(stdin)
            f = gen.graph_facts(payload["result"]["graph"] if "result" in payload else payload)
        negative = any(t < 0 for t in f.twists)
        _expect(problems, "exit code", code, 1 if negative else 0)
        diagnostics = report.get("diagnostics", [])
        if negative != bool(diagnostics) or not all(
            d.startswith("NegativeDefect:") for d in diagnostics
        ):
            problems.append(f"diagnostics {diagnostics!r} with negative defect = {negative}")
        r = report.get("result", {})
        expected_keys = {"descent", "pic", "twoPeriodic", "surface", "h1", "dehnTwists"}
        if not negative:
            expected_keys.add("nodalCurve")
        _expect(problems, "sections", sorted(r), sorted(expected_keys))
        if problems:
            return problems

        twists = sorted(f.twists)
        _expect(
            problems,
            "surface",
            {k: r["surface"][k] for k in ("genus", "boundaryCircles", "orientable")},
            {"genus": f.genus, "boundaryCircles": len(f.leg_vertices), "orientable": True},
        )
        _check_h1(problems, r["h1"], f)
        d = r["descent"]
        _expect(problems, "descent charts", len(d["charts"]), f.vertices)
        _expect(problems, "descent twists", sorted(t["n"] for t in d["transitions"]), twists)
        _expect(
            problems,
            "descent eps/shift",
            {(t["eps"], t["shift"]) for t in d["transitions"]} - {(-1, 1)},
            set(),
        )
        _expect(problems, "pic degree vector", sorted(r["pic"]["degreeVector"]), twists)
        _expect(problems, "pic holonomies", len(r["pic"]["betaHolonomies"]), f.cycle_rank)
        if any(twists):
            _expect(problems, "twoPeriodic", r["twoPeriodic"], False)
        _expect(
            problems,
            "dehn twists",
            sorted(x["multiplicity"] for x in r["dehnTwists"]),
            [t for t in twists if t],
        )
        if not negative:
            curve = r["nodalCurve"]
            nodes = sum(twists)
            _expect(problems, "nodes", curve["nodes"], nodes)
            _expect(problems, "sphere components", curve["sphereComponents"],
                    sum(t - 1 for t in twists if t > 0))
            _expect(problems, "incidence nodes", sum(x["nodes"] for x in curve["incidence"]), nodes)
            _expect(
                problems,
                "main components",
                sorted((c["genus"], c["boundary"]) for c in curve["components"]),
                _main_components(f),
            )
        return problems

    return check


def extract(fan: dict | None = None, counts: dict | None = None, defect_counts: dict | None = None):
    """``singlocus toric extract``.  ``fan`` gives every wall's defect
    independently; for a built-in fan given only by name, ``counts`` and
    ``defect_counts`` hold its published numbers."""

    def check(code: int, stdout: bytes, stdin: bytes | None) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit code", code, 0)
        report = _report(problems, stdout, "toric extract", stdin)
        if report is None:
            return problems
        _expect(problems, "diagnostics", report.get("diagnostics"), [])
        r = report.get("result", {})
        c = r.get("counts", {})
        rows = r.get("walls", [])
        interior = [w for w in rows if not w.get("boundary")]
        for w in interior:
            a, b = w["selfIntersections"]
            if not a + b + 2 == w["defect"] == w["anticanonicalDegree"]:
                problems.append(f"wall {w['wall']}: a + b + 2, defect and degree disagree")
        defects = Counter(str(w["defect"]) for w in interior)
        _expect(problems, "defect counts", c.get("defects"), dict(defects))
        _expect(problems, "wall count", c.get("walls"), len(rows))
        rays, cones = c.get("rays"), c.get("maximalCones")
        divisors = r.get("divisors", [])
        _expect(problems, "divisors", len(divisors), rays)
        if len(interior) == len(rows):
            # A smooth complete fan: cones = 2 rays - 4, walls = 3 rays - 6,
            # and every divisor is a complete toric surface with k boundary
            # curves whose self-intersections sum to 12 - 3k.
            _expect(problems, "cones of a complete fan", cones, 2 * rays - 4)
            _expect(problems, "walls of a complete fan", len(rows), 3 * rays - 6)
            for dv in divisors:
                s = dv["selfIntersections"]
                if dv["kind"] != "cycle" or sum(s) != 12 - 3 * len(s):
                    problems.append(f"divisor of ray {dv['ray']} breaks 12 - 3k: {s}")
        graph = gen.graph_facts(r.get("graph", {"vertices": [], "edges": []}))
        _expect(problems, "graph vertices", graph.vertices, cones)
        _expect(problems, "graph legs", len(graph.leg_vertices), len(rows) - len(interior))
        _expect(problems, "graph twists", sorted(graph.twists), sorted(w["defect"] for w in interior))
        if fan is not None:
            _expect(problems, "rays", rays, len(fan["rays"]))
            _expect(problems, "cones", cones, len(fan["cones"]))
            _expect(
                problems,
                "wall defects",
                {tuple(w["wall"]): w["defect"] for w in interior},
                gen.wall_defects(fan),
            )
            _expect(
                problems,
                "adjacent cones",
                {tuple(w["wall"]): w["adjacentCones"] for w in rows},
                gen.wall_table(fan),
            )
        if counts is not None:
            _expect(problems, "counts", {k: c.get(k) for k in counts}, counts)
        for key, n in (defect_counts or {}).items():
            _expect(problems, f"walls of defect {key}", defects.get(key, 0), n)
        return problems

    return check
