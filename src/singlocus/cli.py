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
import json
import sys

try:  # the builtin SHA-256 (3.12+, then 3.10-3.11) does not load OpenSSL, as hashlib does
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import descent, errors, examples, graphs, serialize, toric, topology

ANALYZE_SECTIONS = ("descent", "pic", "two-periodic", "surface", "h1", "pencil", "dehn")


def _read_payload(args) -> tuple[dict, bytes]:
    if args.example:
        name = args.example
        if name in examples.CLI_EXAMPLE_GRAPHS:
            obj = serialize.graph_to_json(examples.CLI_EXAMPLE_GRAPHS[name]())
        elif args.command == "analyze":
            obj = serialize.graph_to_json(toric.boundary_graph(examples.CLI_EXAMPLE_FANS[name]()))
        else:
            obj = serialize.fan_to_json(examples.CLI_EXAMPLE_FANS[name]())
        raw = serialize.dumps_canonical(obj).encode("utf-8")
    elif args.path in (None, "-"):
        raw = sys.stdin.buffer.read()
    else:
        with open(args.path, "rb") as handle:
            raw = handle.read()
    try:
        return json.loads(raw.decode("utf-8")), raw
    except (ValueError, RecursionError) as exc:  # RecursionError: deeply nested arrays
        raise serialize.ParseError(str(exc)) from None


def _emit(args, text: str, code: int) -> int:
    """Write ``text`` and a newline to ``--output`` or stdout and return ``code``."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
    else:
        sys.stdout.write(text)
        sys.stdout.write("\n")
    return code


def _report(args, command: str, raw: bytes, result: dict, diagnostics: list[str], code: int) -> int:
    report = {
        "command": command,
        "inputDigest": sha256(raw).hexdigest(),
        "result": result,
        "diagnostics": diagnostics,
    }
    return _emit(args, serialize.dumps_canonical(report), code)


def _cmd_validate(args) -> int:
    payload, raw = _read_payload(args)
    if isinstance(payload, dict) and "rays" in payload:
        kind = "fan"
        violations = serialize.fan_from_json(payload).violations
    else:
        kind = "graph"
        violations = serialize.graph_from_json(payload).violations
    result = {"kind": kind, "violations": violations}
    return _report(args, "validate", raw, result, violations, 1 if violations else 0)


def _cmd_toric_quartic(args) -> int:
    fan = examples.quartic_mirror_fan()
    return _emit(args, serialize.dumps_canonical(serialize.fan_to_json(fan)), 0)


def _cmd_toric_extract(args) -> int:
    payload, raw = _read_payload(args)
    fan = serialize.fan_from_json(payload)
    violations = fan.violations
    if violations:
        return _report(args, "toric extract", raw, {"violations": violations}, violations, 1)
    try:
        graph = toric.boundary_graph(fan)
        divisors = toric.divisor_classification(fan)
    except errors.SingLocusError as exc:
        diagnostics = [f"{type(exc).__name__}: {exc}"]
        return _report(args, "toric extract", raw, {}, diagnostics, 1)
    reports = fan.wall_reports
    wall_rows = [
        serialize.wall_report_to_json(reports[wall]) if wall in reports
        else {"wall": list(wall), "adjacentCones": cones, "boundary": True}
        for wall, cones in sorted(fan.wall_table.items())
    ]
    defect_counts: dict[str, int] = {}
    for report in reports.values():
        key = errors.in_full(report.defect)
        defect_counts[key] = defect_counts.get(key, 0) + 1
    result = {
        "graph": serialize.graph_to_json(graph),
        "walls": wall_rows,
        "divisors": divisors,
        "counts": {
            "rays": len(fan.rays),
            "maximalCones": len(fan.cones),
            "walls": len(wall_rows),
            "defects": dict(sorted(defect_counts.items())),
        },
    }
    return _report(args, "toric extract", raw, result, [], 0)


def _cmd_analyze(args) -> int:
    payload, raw = _read_payload(args)
    wrapped = payload.get("result") if isinstance(payload, dict) else None
    if isinstance(wrapped, dict) and "graph" in wrapped:
        payload = wrapped["graph"]
    graph = serialize.graph_from_json(payload)

    requested = [s for s in ANALYZE_SECTIONS if getattr(args, s.replace("-", "_"))]
    if args.all or not requested:
        requested = list(ANALYZE_SECTIONS)

    diagnostics: list[str] = []
    result: dict = {}
    violations = graph.violations
    if violations:
        return _report(args, "analyze", raw, {"violations": violations}, violations, 1)

    def section(flag, key, fn):
        if flag not in requested:
            return
        try:
            result[key] = fn()
        except errors.SingLocusError as exc:
            diagnostics.append(f"{type(exc).__name__}: {exc}")

    # Built on first use and shared by the sections; a failure is not
    # kept, so each section that needs the value reports it.
    diagram = functools.cache(lambda: descent.assemble_diagram(graph))
    pic = functools.cache(lambda: descent.pic_invariants(diagram()))
    section("descent", "descent", lambda: serialize.diagram_to_json(diagram()))
    section("pic", "pic", lambda: serialize.pic_to_json(pic()))
    section("two-periodic", "twoPeriodic", lambda: pic().is_trivial())
    section("surface", "surface", lambda: serialize.surface_to_json(graphs.dual_surface(graph)))
    section("h1", "h1", lambda: serialize.h1_to_json(topology.h1_graph_manifold(graph)))
    section(
        "pencil",
        "nodalCurve",
        lambda: serialize.nodal_curve_to_json(topology.pencil_localization(graph)),
    )
    section(
        "dehn",
        "dehnTwists",
        lambda: [{"edge": e, "multiplicity": m} for e, m in topology.dehn_twist_record(graph)],
    )
    # Sections that fail on one precondition give one line, not one each.
    diagnostics = list(dict.fromkeys(diagnostics))
    return _report(args, "analyze", raw, result, diagnostics, 1 if diagnostics else 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singlocus",
        description="Exact invariants of decorated trivalent graphs and smooth toric fans.",
    )
    parser.set_defaults(path=None, example=None)
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="validate a graph or fan JSON file")
    validate.add_argument("path", nargs="?", help="input file (default: stdin)")
    names = sorted(set(examples.CLI_EXAMPLE_GRAPHS) | set(examples.CLI_EXAMPLE_FANS))
    validate.add_argument("--example", choices=names)
    validate.add_argument("--output")
    validate.set_defaults(run=_cmd_validate)

    toric = sub.add_parser("toric", help="toric fan commands")
    toric_sub = toric.add_subparsers(dest="toric_command", required=True)
    quartic = toric_sub.add_parser("quartic-mirror", help="emit the quartic-mirror fan")
    quartic.add_argument("--output")
    quartic.set_defaults(run=_cmd_toric_quartic)
    extract = toric_sub.add_parser("extract", help="extract the boundary graph of a fan")
    extract.add_argument("path", nargs="?")
    extract.add_argument("--example", choices=sorted(examples.CLI_EXAMPLE_FANS))
    extract.add_argument("--output")
    extract.set_defaults(run=_cmd_toric_extract)

    analyze = sub.add_parser("analyze", help="run analyses on a graph")
    analyze.add_argument("path", nargs="?")
    analyze.add_argument("--example", choices=names)
    analyze.add_argument("--output")
    analyze.set_defaults(run=_cmd_analyze)
    analyze.add_argument(
        "--all", action="store_true", help="run every section (default when no section flag is given)"
    )
    for name in ANALYZE_SECTIONS:
        analyze.add_argument(f"--{name}", dest=name.replace("-", "_"), action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, serialize.ParseError) as exc:  # I/O and parse errors: exit 2
        sys.stderr.write(f"error: {exc}\n")
        return 2
