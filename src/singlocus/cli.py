"""Command-line front end.

Subcommands::

    singlocus validate  [PATH|-] [--example NAME]
    singlocus toric quartic-mirror
    singlocus toric extract [PATH|-] [--example NAME]
    singlocus analyze   [PATH|-] [--example NAME] [--all | section flags]

Reports are deterministic JSON: keys sorted, rationals as "p/q" strings,
and an ``inputDigest`` tying the report to its input bytes.  Exit codes:
0 success, 1 domain error (violations, failed preconditions), 2 I/O or
parse error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from .descent import assemble_diagram, pic_invariants
from .errors import BoundaryWall, SingLocusError
from .examples import CLI_EXAMPLE_FANS, CLI_EXAMPLE_GRAPHS
from .graphs import dual_surface
from .serialize import (
    ParseError,
    diagram_to_json,
    dumps_canonical,
    fan_from_json,
    fan_to_json,
    graph_from_json,
    graph_to_json,
    nodal_curve_to_json,
    h1_to_json,
    pic_to_json,
    surface_to_json,
    wall_report_to_json,
)
from .toric import boundary_graph, divisor_classification, quartic_mirror_fan, wall_data, walls
from .topology import dehn_twist_record, h1_graph_manifold, pencil_localization

ANALYZE_SECTIONS = ("descent", "pic", "two-periodic", "surface", "h1", "pencil", "dehn")


def _read_payload(args) -> tuple[dict, bytes]:
    if getattr(args, "example", None):
        name = args.example
        if args.command == "validate" and name == "theta":
            obj = graph_to_json(CLI_EXAMPLE_GRAPHS["theta"]())
        elif args.command == "validate":
            obj = fan_to_json(CLI_EXAMPLE_FANS[name]())
        elif args.command == "analyze":
            obj = graph_to_json(CLI_EXAMPLE_GRAPHS[name]())
        else:  # toric extract
            obj = fan_to_json(CLI_EXAMPLE_FANS[name]())
        raw = dumps_canonical(obj).encode("utf-8")
        return obj, raw
    path = getattr(args, "path", None)
    if path in (None, "-"):
        raw = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            raw = handle.read()
    try:
        return json.loads(raw.decode("utf-8")), raw
    except (ValueError, RecursionError) as exc:  # RecursionError: deeply nested arrays
        raise ParseError(str(exc)) from None


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _report(args, command: str, raw: bytes, result: dict, diagnostics: list[str]) -> None:
    report = {
        "command": command,
        "inputDigest": hashlib.sha256(raw).hexdigest(),
        "result": result,
        "diagnostics": diagnostics,
    }
    _emit(args, dumps_canonical(report))


def _cmd_validate(args) -> int:
    try:
        payload, raw = _read_payload(args)
    except (OSError, ParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        if isinstance(payload, dict) and "rays" in payload:
            kind = "fan"
            violations = fan_from_json(payload).violations
        else:
            kind = "graph"
            violations = graph_from_json(payload).violations
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _report(args, "validate", raw, {"kind": kind, "violations": violations}, violations)
    return 1 if violations else 0


def _cmd_toric_quartic(args) -> int:
    _emit(args, dumps_canonical(fan_to_json(quartic_mirror_fan())))
    return 0


def _cmd_toric_extract(args) -> int:
    try:
        payload, raw = _read_payload(args)
        fan = fan_from_json(payload)
    except (OSError, ParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    violations = fan.violations
    if violations:
        _report(args, "toric extract", raw, {"violations": violations}, violations)
        return 1
    try:
        graph = boundary_graph(fan)
        wall_rows = []
        defect_counts: dict[str, int] = {}
        for wall in walls(fan):
            try:
                row = wall_report_to_json(wall_data(fan, wall))
                key = str(row["defect"])
                defect_counts[key] = defect_counts.get(key, 0) + 1
            except BoundaryWall as exc:
                row = {"wall": list(wall), "adjacentCones": [exc.cone], "boundary": True}
            wall_rows.append(row)
        divisors = divisor_classification(fan)
    except SingLocusError as exc:
        diagnostics = [f"{type(exc).__name__}: {exc}"]
        _report(args, "toric extract", raw, {}, diagnostics)
        return 1
    result = {
        "graph": graph_to_json(graph),
        "walls": wall_rows,
        "divisors": divisors,
        "counts": {
            "rays": len(fan.rays),
            "maximalCones": len(fan.cones),
            "walls": len(wall_rows),
            "defects": dict(sorted(defect_counts.items())),
        },
    }
    _report(args, "toric extract", raw, result, [])
    return 0


def _cmd_analyze(args) -> int:
    try:
        payload, raw = _read_payload(args)
    except (OSError, ParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    wrapped = payload.get("result") if isinstance(payload, dict) else None
    if isinstance(wrapped, dict) and "graph" in wrapped:
        payload = wrapped["graph"]
    try:
        graph = graph_from_json(payload)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    requested = [s for s in ANALYZE_SECTIONS if getattr(args, s.replace("-", "_"))]
    if args.all or not requested:
        requested = list(ANALYZE_SECTIONS)

    diagnostics: list[str] = []
    result: dict = {}
    violations = graph.violations
    if violations:
        _report(args, "analyze", raw, {"violations": violations}, violations)
        return 1

    def section(flag, key, fn):
        if flag not in requested:
            return
        try:
            result[key] = fn()
        except SingLocusError as exc:
            diagnostics.append(f"{type(exc).__name__}: {exc}")

    # Built on first use and shared by the sections; a failure is not
    # kept, so each section that needs the value reports it.
    diagram = functools.cache(lambda: assemble_diagram(graph))
    pic = functools.cache(lambda: pic_invariants(diagram()))
    section("descent", "descent", lambda: diagram_to_json(diagram()))
    section("pic", "pic", lambda: pic_to_json(pic()))
    section("two-periodic", "twoPeriodic", lambda: pic().is_trivial())
    section("surface", "surface", lambda: surface_to_json(dual_surface(graph)))
    section("h1", "h1", lambda: h1_to_json(h1_graph_manifold(graph)))
    section("pencil", "nodalCurve", lambda: nodal_curve_to_json(pencil_localization(graph)))
    section(
        "dehn",
        "dehnTwists",
        lambda: [{"edge": e, "multiplicity": m} for e, m in dehn_twist_record(graph)],
    )
    _report(args, "analyze", raw, result, diagnostics)
    return 1 if diagnostics else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singlocus",
        description="Exact invariants of decorated trivalent graphs and smooth toric fans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="validate a graph or fan JSON file")
    validate.add_argument("path", nargs="?", help="input file (default: stdin)")
    validate.add_argument("--example", choices=sorted(set(CLI_EXAMPLE_GRAPHS) | set(CLI_EXAMPLE_FANS)))
    validate.add_argument("--output")

    toric = sub.add_parser("toric", help="toric fan commands")
    toric_sub = toric.add_subparsers(dest="toric_command", required=True)
    quartic = toric_sub.add_parser("quartic-mirror", help="emit the quartic-mirror fan")
    quartic.add_argument("--output")
    extract = toric_sub.add_parser("extract", help="extract the boundary graph of a fan")
    extract.add_argument("path", nargs="?")
    extract.add_argument("--example", choices=sorted(CLI_EXAMPLE_FANS))
    extract.add_argument("--output")

    analyze = sub.add_parser("analyze", help="run analyses on a graph")
    analyze.add_argument("path", nargs="?")
    analyze.add_argument("--example", choices=sorted(CLI_EXAMPLE_GRAPHS))
    analyze.add_argument("--output")
    analyze.add_argument(
        "--all", action="store_true", help="run every section (default when no section flag is given)"
    )
    for name in ANALYZE_SECTIONS:
        analyze.add_argument(f"--{name}", dest=name.replace("-", "_"), action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "toric":
        if args.toric_command == "quartic-mirror":
            return _cmd_toric_quartic(args)
        return _cmd_toric_extract(args)
    return _cmd_analyze(args)


if __name__ == "__main__":
    sys.exit(main())
