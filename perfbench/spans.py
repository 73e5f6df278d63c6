"""In-process tracing of the singlocus CLI from outside the package.

:func:`install` wraps every public function of the traced modules in a
span recorder.  ``from .x import y`` copies a binding into the importing
module, so each original is snapshot first and then rebound wherever it
is found: in every singlocus module and in module-level registries (the
CLI looks example builders up in dicts).  Wrapping only the defining
module would miss those calls.

Example builders are opaque: inside them no span is recorded, so
building an ``--example`` fixture counts as self time of ``cli.main``.
"""

from __future__ import annotations

import functools
import io
import statistics
import sys
import types
from collections import Counter
from fnmatch import fnmatchcase
from time import perf_counter

TRACED_MODULES = ("cli", "serialize", "graphs", "descent", "intlinalg", "topology", "toric")
OPAQUE_MODULES = ("examples",)

# Per-layer metrics made of the self time of several spans.
SELF_GROUPS = {
    "intlinalg.cokernel_abelian_group.self_s": ("intlinalg.cokernel_abelian_group",),
    "intlinalg.snf.self_s": ("intlinalg.snf",),
    "toric.validate_fan.self_s": ("toric.validate_fan",),
    "toric.boundary_graph.self_s": ("toric.boundary_graph",),
    "toric.divisor_classification.self_s": ("toric.divisor_classification",),
    "graphs.dual_surface.self_s": ("graphs.dual_surface",),
    "descent.assemble_diagram.self_s": ("descent.assemble_diagram",),
    "descent.pic_invariants.self_s": ("descent.pic_invariants",),
    "topology.h1_graph_manifold.self_s": ("topology.h1_graph_manifold",),
    "topology.plumbing_presentation.self_s": ("topology.plumbing_presentation",),
    "topology.pencil_localization.self_s": ("topology.pencil_localization",),
    "serialize.parse.self_s": (
        "serialize.graph_from_json",
        "serialize.fan_from_json",
        "serialize.diagram_from_json",
        "serialize.parse_rational",
    ),
    "serialize.emit.self_s": (
        "serialize.dumps_canonical",
        "serialize.format_rational",
        "serialize.*_to_json",
    ),
    "cli.main.self_s": ("cli.main", "cli.build_parser"),
}
CALL_COUNTS = (
    "intlinalg.snf",
    "toric.validate_fan",
    "graphs.validate_graph",
    "graphs.orientability",
    "graphs.oriented_form",
    "descent.assemble_diagram",
    "intlinalg.cycle_basis",
)
# Counters filled by the observers below.
OBSERVED = (
    "intlinalg.snf.cells",
    "intlinalg.snf.max_transform_bits",
    "topology.pencil_localization.spheres",
    "serialize.emit.bytes",
)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or None, op id)
        self.stack: list[int] = []
        self.op = 0
        self.opaque = 0
        self.calls: Counter = Counter()
        self.observed: Counter = Counter()

    def self_times(self) -> Counter:
        """Span name -> total self time: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def metrics(self) -> dict[str, float]:
        """This pass's per-layer metrics, module totals included."""
        self_s = self.self_times()
        out = {
            metric: sum(
                t for name, t in self_s.items() if any(fnmatchcase(name, m) for m in members)
            )
            for metric, members in SELF_GROUPS.items()
        }
        for module in TRACED_MODULES:
            out[f"{module}.all.self_s"] = sum(
                t for name, t in self_s.items() if name.startswith(module + ".")
            )
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = self.calls[name]
        for name in OBSERVED:
            out[name] = self.observed[name]
        return out


def _observe_snf(tracer: Tracer, args, result) -> None:
    m = args[0]
    tracer.observed["intlinalg.snf.cells"] += m.rows * m.cols
    # Coefficient growth as the bit length of the largest transform entry:
    # the entries themselves can pass the range of a float.
    bits = max((x.bit_length() for x in result.left.entries + result.right.entries), default=0)
    key = "intlinalg.snf.max_transform_bits"
    tracer.observed[key] = max(tracer.observed[key], bits)


def _observe_pencil(tracer: Tracer, args, result) -> None:
    tracer.observed["topology.pencil_localization.spheres"] += result.sphere_components


def _observe_dumps(tracer: Tracer, args, result) -> None:
    tracer.observed["serialize.emit.bytes"] += len(result.encode("utf-8"))


OBSERVERS = {
    "intlinalg.snf": _observe_snf,
    "topology.pencil_localization": _observe_pencil,
    "serialize.dumps_canonical": _observe_dumps,
}


def _traced(tracer: Tracer, name: str, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if tracer.opaque:
            return fn(*args, **kwargs)
        spans = tracer.spans
        index = len(spans)
        parent = tracer.stack[-1] if tracer.stack else None
        spans.append(None)
        tracer.stack.append(index)
        tracer.calls[name] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            tracer.stack.pop()
            spans[index] = (name, start, end, parent, tracer.op)
        if observe is not None:
            # Counting has its own span so that it is nobody's self time.
            start = perf_counter()
            observe(tracer, args, result)
            spans.append(("trace.count", start, perf_counter(), parent, tracer.op))
        return result

    return call


def _opaque(tracer: Tracer, fn):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        tracer.opaque += 1
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.opaque -= 1

    return call


def _public_functions(module) -> dict:
    return {
        name: fn
        for name, fn in vars(module).items()
        if not name.startswith("_")
        and isinstance(fn, types.FunctionType)
        and fn.__module__ == module.__name__
    }


def install(tracer: Tracer):
    """Wrap the traced functions everywhere they are bound; returns an undo."""
    import singlocus.cli  # noqa: F401  (imports every module on the CLI path)

    package = [m for n, m in sys.modules.items() if n == "singlocus" or n.startswith("singlocus.")]
    wrappers = {}
    for short in TRACED_MODULES + OPAQUE_MODULES:
        module = sys.modules[f"singlocus.{short}"]
        for name, fn in _public_functions(module).items():
            if short in OPAQUE_MODULES:
                wrappers[fn] = _opaque(tracer, fn)
            else:
                wrappers[fn] = _traced(tracer, f"{short}.{name}", fn)

    undo = []
    for module in package:
        for name, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, name, wrappers[value])
                undo.append((vars(module), name, value))
            elif isinstance(value, dict) and not name.startswith("__"):
                for key, item in value.items():
                    if isinstance(item, types.FunctionType) and item in wrappers:
                        value[key] = wrappers[item]
                        undo.append((value, key, item))

    def restore() -> None:
        for namespace, key, original in reversed(undo):
            namespace[key] = original

    return restore


def call_main(argv: list[str], stdin: bytes | None) -> tuple[int, bytes, str]:
    """Run ``singlocus.cli.main(argv)`` in this process on ``stdin``.

    Returns (exit code, stdout bytes, stderr text).  An exception that
    would have been a traceback is reported on the returned stderr.
    """
    import traceback

    import singlocus.cli

    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin or b""), encoding="utf-8")
    sys.stdout, sys.stderr = out, err
    try:
        code = singlocus.cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:
        err.write(traceback.format_exc())
        code = 1
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def combine(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics over traced passes: times are medians; counts
    must repeat exactly, and a count that does not is raised."""
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if name.endswith("_s"):
            out[name] = statistics.median(values)
        elif len(set(values)) != 1:
            raise ValueError(f"count {name} differs between passes: {values}")
        else:
            out[name] = values[0]
    return out
