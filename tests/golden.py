"""Byte-identity corpus: CLI invocations on seeded inputs, each pinned by
its exit code and the SHA-256 of its stdout.

    PYTHONPATH=src python tests/golden.py           # compare with the table
    PYTHONPATH=src python tests/golden.py --write   # rewrite the table

The table is ``golden_digests.json`` next to this file; no output is
committed, and every input is built here from fixtures and seeds.  The
invocations run in-process through ``singlocus.cli.main``.  A change that
alters output bytes on purpose rewrites the table and names the case ids
whose digests changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from singlocus.cli import ANALYZE_SECTIONS, main
from singlocus.examples import CLI_EXAMPLE_FANS, CLI_EXAMPLE_GRAPHS, circular_ladder_graph, theta_graph
from singlocus.graphs import CompactEdge, DecoratedGraph
from singlocus.serialize import dumps_canonical, fan_to_json, graph_to_json

from oracles import blowup_fan, random_multigraph

TABLE = Path(__file__).with_name("golden_digests.json")


def _json(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _graph(g: DecoratedGraph) -> bytes:
    return dumps_canonical(graph_to_json(g)).encode("utf-8")


def _decorated_ladder(rng: random.Random, rungs: int) -> DecoratedGraph:
    """A circular ladder with twists in -1..3 (some defects negative) and
    rational holonomies and base scalars."""
    g = circular_ladder_graph(rungs)
    edges = tuple(
        e.replace(
            twist=rng.randint(-1, 3),
            holonomy=Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9)),
            base_scalar=Fraction(rng.randint(1, 9), rng.randint(1, 9)),
        )
        for e in g.edges
    )
    return DecoratedGraph(g.vertices, edges)


def _two_thetas() -> DecoratedGraph:
    """Two disjoint theta graphs: every section needing a connected graph fails."""
    edges = tuple(CompactEdge((i, 3 + i)) for i in range(3)) + tuple(
        CompactEdge((6 + i, 9 + i), twist=i) for i in range(3)
    )
    return DecoratedGraph(((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)), edges)


# Fans whose diagnostics each pin one rule of validate_fan.
BAD_FANS = {
    "non-unimodular": {"rays": [[1, 0, 0], [0, 1, 0], [1, 1, 2]], "cones": [[0, 1, 2]]},
    "ray-not-3-vector": {"rays": [[1, 0], [0, 1, 0], [0, 0, 1]], "cones": [[0, 1, 2]]},
    # The star of ray 0 is two chains, 1-2-5 and 3-6-4.
    "split-star": {
        "rays": [[0, 0, 1], [1, 0, 0], [0, 1, 0], [0, -1, 0], [-1, -1, 0], [-1, 1, 0], [-1, -2, 0]],
        "cones": [[0, 1, 2], [0, 2, 5], [0, 3, 6], [0, 6, 4]],
    },
    # Two cones that overlap with no ray of one inside the other.
    "crossing-walls": {
        "rays": [[-1, -1, 1], [1, 0, -2], [-1, -2, 1], [3, -2, 1], [0, 0, -1], [2, -1, -2]],
        "cones": [[0, 1, 2], [3, 4, 5]],
    },
}


def _bad_graphs() -> dict[str, bytes]:
    """Graph payloads that must be parse errors (exit 2)."""
    out = {}
    for field, value in (("ends", [0, 3, 7]), ("selfIntersections", [-1, -1, 99]), ("twist", 1.9),
                         ("holonomy", True), ("reversing", "false")):
        payload = graph_to_json(theta_graph())
        payload["edges"][0][field] = value
        out[f"theta-bad-{field}"] = _json(payload)
    return out


BAD_JSON = {
    "empty": b"",
    "not-json": b"{not json",
    "not-utf8": b"\xff\xfe",
    "deeply-nested": b"[" * 100_000,
    "result-not-an-object": b'{"result": 5}',
    "unknown-edge-kind": b'{"vertices": [], "edges": [{"kind": "loop"}]}',
}


def cases() -> list[tuple[str, list[str], bytes | None, str | None]]:
    """(case id, argv, stdin, source): with a source case id, the stdin is
    that case's stdout, as in ``toric extract | analyze``.  Each id is
    added once."""
    out = {}

    def add(case_id, argv, stdin=None, source=None):
        if case_id in out:
            raise ValueError(f"duplicate case id {case_id}")
        out[case_id] = (case_id, argv, stdin, source)

    add("toric-quartic-mirror", ["toric", "quartic-mirror"])
    examples = sorted(set(CLI_EXAMPLE_GRAPHS) | set(CLI_EXAMPLE_FANS))
    for name in examples:
        add(f"validate-example-{name}", ["validate", "--example", name])
    for name in sorted(CLI_EXAMPLE_FANS):
        add(f"extract-example-{name}", ["toric", "extract", "--example", name])
        add(f"analyze-extract-{name}", ["analyze", "--all"], source=f"extract-example-{name}")
    for name in examples:  # analyze reads a fan example as its boundary graph
        add(f"analyze-example-{name}", ["analyze", "--example", name, "--all"])
        add(f"analyze-example-{name}-h1", ["analyze", "--example", name, "--h1"])
    for section in ANALYZE_SECTIONS:
        if section == "h1":
            continue  # analyze-example-theta-h1 is added above
        add(f"analyze-example-theta-{section}", ["analyze", "--example", "theta", f"--{section}"])

    rng = random.Random(16)
    for rungs in (16, 32, 64):
        data = _graph(circular_ladder_graph(rungs))
        add(f"validate-ladder{rungs}", ["validate"], data)
        add(f"analyze-ladder{rungs}", ["analyze", "--all"], data)
        add(f"analyze-decorated-ladder{rungs}", ["analyze", "--all"], _graph(_decorated_ladder(rng, rungs)))

    for seed in range(6):
        orientable = seed % 2 == 0
        g = random_multigraph(random.Random(seed), 3 + 2 * seed, orientable=orientable)
        add(f"analyze-multigraph{seed}", ["analyze", "--all"], _graph(g))
    # The first graph of this series with random flags that is non-orientable
    # and has legs before the closing edge of its first cycle with w1 = 1:
    # compact edge 5, index 10 in g.edges.
    g = random_multigraph(random.Random(2), 7)
    add("analyze-nonorientable-multigraph", ["analyze", "--all"], _graph(g))
    add("analyze-empty-graph", ["analyze", "--all"], b'{"vertices":[],"edges":[]}')
    add("analyze-two-thetas", ["analyze", "--all"], _graph(_two_thetas()))
    twisted = theta_graph(twists=(3, 5, 8), holonomies=(2, -3, 5), reversing=(True, True, False))
    add("analyze-reversing-theta", ["analyze", "--all"], _graph(twisted))

    for steps in (15, 50, 100):
        fan, _ = blowup_fan(random.Random(1), steps)
        data = _json(fan_to_json(fan))
        add(f"validate-blowup{steps}", ["validate"], data)
        add(f"extract-blowup{steps}", ["toric", "extract"], data)
        add(f"analyze-blowup{steps}", ["analyze", "--all"], source=f"extract-blowup{steps}")
    # H1 at scale, where the presentation's elimination order matters most.
    fan, _ = blowup_fan(random.Random(1), 200)
    add("extract-blowup200", ["toric", "extract"], _json(fan_to_json(fan)))
    add("analyze-blowup200-h1", ["analyze", "--h1"], source="extract-blowup200")
    add("analyze-ladder1024-h1", ["analyze", "--h1"], _graph(circular_ladder_graph(1024)))
    # Incomplete and invalid blowups: boundary-wall rows and the fan gate.
    for steps in (50, 100, 200):
        fan, _ = blowup_fan(random.Random(1), steps)
        mutations = {
            "drop-first": fan.cones[1:],
            "drop-alternate": fan.cones[::2],
            "bad-ray": ((*fan.cones[0][:2], len(fan.rays)), *fan.cones[1:]),
        }
        for name, cones in mutations.items():
            data = _json(fan_to_json(fan.replace(cones=cones)))
            add(f"validate-blowup{steps}-{name}", ["validate"], data)
            add(f"extract-blowup{steps}-{name}", ["toric", "extract"], data)

    for name, fan in BAD_FANS.items():
        add(f"validate-fan-{name}", ["validate"], _json(fan))
        add(f"extract-fan-{name}", ["toric", "extract"], _json(fan))
    for name, data in _bad_graphs().items():
        add(f"analyze-{name}", ["analyze", "--all"], data)
    for name, data in BAD_JSON.items():
        for command, argv in (("validate", ["validate"]), ("extract", ["toric", "extract"]),
                              ("analyze", ["analyze", "--all"])):
            add(f"{command}-json-{name}", argv, data)
    return list(out.values())


def run_main(argv: list[str], stdin: bytes) -> tuple[int, bytes]:
    """``main(argv)`` in this process on ``stdin``: (exit code, stdout bytes)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue().encode("utf-8")


def digests() -> dict[str, list]:
    """Case id -> [exit code, stdout SHA-256] for every case, in order."""
    table, stdout = {}, {}
    for case_id, argv, stdin, source in cases():
        code, stdout[case_id] = run_main(argv, stdout[source] if source else stdin or b"")
        table[case_id] = [code, hashlib.sha256(stdout[case_id]).hexdigest()]
    return table


def load() -> dict[str, list]:
    return json.loads(TABLE.read_text())


def mismatches() -> list[str]:
    """Ids of the cases whose exit code or digest differs from the table,
    and of table entries that no case produces."""
    want, got = load(), digests()
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        TABLE.write_text(json.dumps(digests(), indent=1) + "\n")
    elif sys.argv[1:]:
        sys.exit("usage: golden.py [--write]")
    else:
        bad = mismatches()
        print("\n".join(bad) or "all cases match")
        sys.exit(1 if bad else 0)
