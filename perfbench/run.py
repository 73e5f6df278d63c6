"""Benchmark of the singlocus CLI: one process per input, run as users run it.

    python3 perfbench/run.py --workload {ladder,fan,twist} --seed N --seconds S --trace {0,1}

One client runs the workload's invocations back to back (a closed loop,
one invocation at a time, no threads), repeating the whole pass until
``--seconds`` are used, and checks every output against facts the
benchmark derived itself.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` times child processes and reports the end-to-end metrics.
``--trace 1`` runs ``singlocus.cli.main`` in this process with span
wrappers around every public function (see spans.py) and reports the
per-layer metrics, plus ``trace.overhead_s``: a traced pass minus an
untraced in-process pass.

Per-invocation records (exit code, stdout SHA-256, median time, problems)
and the traced spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

INVOCATION_LIMIT_S = 30.0  # an invocation over this is killed and counted as failed
RUN_LIMIT_S = 150.0  # no invocation runs past this point of a run
MIN_PASSES = 3

# Sizes stay below the dense-H1 cliffs listed in README.md.
LADDER_RUNGS = (16, 32, 48, 64)
# Extracted, then analyzed: at 18-20 steps some seeds hit the H1 cliff.
SMALL_BLOWUP_STEPS = (15, 15, 15)
LARGE_BLOWUP_STEPS = (50, 100, 200)  # extracted
TWISTED = (("theta", 3_000), ("k4", 30_000), ("ladder2", 60_000), ("ladder3", 90_000), ("theta", 300_000))

Check = Callable[[int, bytes, Optional[bytes]], list]


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``singlocus <argv>`` with ``stdin`` on standard
    input, or the stdout of the earlier call labelled ``source``."""

    label: str
    argv: tuple[str, ...]
    check: Check
    stdin: Optional[bytes] = None
    source: Optional[str] = None


@dataclass(frozen=True)
class Plan:
    calls: tuple[Call, ...]
    largest: str  # label of the call on the workload's largest input


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


# The --example graphs: the theta graph, and the boundary graphs of the
# P^3 and conifold fans.
EXAMPLE_FACTS = {
    "theta": gen.GraphFacts(2, ((0, 1),) * 3, (0, 0, 0), ()),
    "p3": gen.fan_graph_facts(gen.P3_FAN),
    "conifold": gen.fan_graph_facts(gen.CONIFOLD_FAN),
}


# Every workload runs this tiny extract, so that no layer's traced time is
# zero on a workload: the toric spans of ladder and twist stay near zero.
CONIFOLD_EXTRACT = Call(
    "extract conifold", ("toric", "extract", "--example", "conifold"),
    checks.extract(fan=gen.CONIFOLD_FAN),
)


def plan_ladder(rng: random.Random) -> Plan:
    calls = [CONIFOLD_EXTRACT]
    for name in ("theta", "p3", "conifold"):
        kind = "graph" if name == "theta" else "fan"  # validate --example p3 checks the fan
        calls.append(Call(f"validate {name}", ("validate", "--example", name), checks.validate(kind)))
        calls.append(
            Call(f"analyze {name}", ("analyze", "--example", name, "--all"),
                 checks.analyze(EXAMPLE_FACTS[name]))
        )
    for rungs in LADDER_RUNGS:
        graph = gen.ladder(rng, rungs)
        data = _encode(graph)
        facts = gen.graph_facts(graph)
        calls.append(Call(f"validate ladder{rungs}", ("validate",), checks.validate("graph"), data))
        calls.append(Call(f"analyze ladder{rungs}", ("analyze", "--all"), checks.analyze(facts), data))
    return Plan(tuple(calls), f"analyze ladder{LADDER_RUNGS[-1]}")


def plan_fan(rng: random.Random) -> Plan:
    extract = ("toric", "extract")
    builtin = {
        "p3": checks.extract(fan=gen.P3_FAN),
        "conifold": CONIFOLD_EXTRACT.check,
        # Published numbers of the quartic-mirror fan.
        "quartic-mirror": checks.extract(
            counts={"rays": 34, "maximalCones": 64, "walls": 96}, defect_counts={"1": 24}
        ),
    }
    calls = []
    for name, check in builtin.items():
        calls.append(Call(f"extract {name}", (*extract, "--example", name), check))
        calls.append(
            Call(f"analyze {name}", ("analyze", "--all"), checks.analyze(), source=f"extract {name}")
        )
    for k, steps in enumerate(SMALL_BLOWUP_STEPS):
        fan = gen.blowup_fan(rng, steps)
        label = f"extract blowup{steps}-{k}"
        calls.append(Call(label, extract, checks.extract(fan=fan), _encode(fan)))
        calls.append(
            Call(f"analyze blowup{steps}-{k}", ("analyze", "--all"),
                 checks.analyze(gen.fan_graph_facts(fan)), source=label)
        )
    for steps in LARGE_BLOWUP_STEPS:
        fan = gen.blowup_fan(rng, steps)
        calls.append(Call(f"extract blowup{steps}", extract, checks.extract(fan=fan), _encode(fan)))
    return Plan(tuple(calls), f"extract blowup{LARGE_BLOWUP_STEPS[-1]}")


def plan_twist(rng: random.Random) -> Plan:
    calls = [CONIFOLD_EXTRACT]
    for shape, total in TWISTED:
        graph = gen.twisted(rng, shape, total)
        calls.append(
            Call(f"analyze {shape}-{total}", ("analyze", "--all"),
                 checks.analyze(gen.graph_facts(graph)), _encode(graph))
        )
    shape, total = max(TWISTED, key=lambda st: st[1])
    return Plan(tuple(calls), f"analyze {shape}-{total}")


PLANS = {"ladder": plan_ladder, "fan": plan_fan, "twist": plan_twist}


# ---------------------------------------------------------------------------
# Running invocations
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    label: str
    stdin: Optional[bytes]
    seconds: float
    code: int
    stdout: Optional[bytes]
    stderr: str
    rss_kb: int = 0
    timed_out: bool = False


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], stdin: Optional[bytes], work: Path, limit: float):
    """Run ``python <args>`` to completion or ``limit`` seconds.

    Returns (seconds, exit code, stdout, stderr, peak RSS in KiB, timed
    out).  The child is reaped with ``os.wait4``, which gives its own
    peak RSS; RUSAGE_CHILDREN would give a maximum over all children.
    """
    (work / "stdin").write_bytes(stdin or b"")
    with open(work / "stdin", "rb") as fin, open(work / "stdout", "wb") as fout, open(
        work / "stderr", "wb"
    ) as ferr:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdin=fin, stdout=fout, stderr=ferr, env=_child_env(), cwd=ROOT
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], max(limit, 0.0))[0]
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = (work / "stdout").read_bytes()
    stderr = (work / "stderr").read_bytes().decode("utf-8", "replace")
    return seconds, proc.returncode, stdout, stderr, usage.ru_maxrss, not exited


def _stdin_of(call: Call, outputs: dict[str, bytes]) -> Optional[bytes]:
    return outputs.get(call.source, b"") if call.source else call.stdin


def subprocess_pass(plan: Plan, work: Path, deadline: float, setup=None) -> list[Outcome]:
    """One pass over the plan.  Given a ``setup`` list, a start-up sample
    is appended after every second invocation, so that the samples are
    spread over the run like the invocations are."""
    outputs: dict[str, bytes] = {}
    outcomes = []
    for k, call in enumerate(plan.calls):
        stdin = _stdin_of(call, outputs)
        limit = min(INVOCATION_LIMIT_S, deadline - perf_counter())
        seconds, code, stdout, stderr, rss, timed_out = spawn(
            ["-m", "singlocus", *call.argv], stdin, work, limit
        )
        outputs[call.label] = stdout
        outcomes.append(Outcome(call.label, stdin, seconds, code, stdout, stderr, rss, timed_out))
        if setup is not None and k % 2:
            setup.append(setup_sample(work, deadline))
    return outcomes


def inprocess_pass(plan: Plan, tracer=None) -> list[Outcome]:
    import spans

    outputs: dict[str, bytes] = {}
    outcomes = []
    restore = spans.install(tracer) if tracer is not None else None
    try:
        for op, call in enumerate(plan.calls):
            stdin = _stdin_of(call, outputs)
            if tracer is not None:
                tracer.op = op
            start = perf_counter()
            code, stdout, stderr = spans.call_main(list(call.argv), stdin)
            seconds = perf_counter() - start
            outputs[call.label] = stdout
            outcomes.append(Outcome(call.label, stdin, seconds, code, stdout, stderr))
    finally:
        if restore is not None:
            restore()
    return outcomes


class Judge:
    """Checks outcomes, once per distinct (call, input, output).

    Every pass's stdout must equal the first pass's byte for byte, and the
    in-process passes of a traced run must equal the child processes'.
    """

    def __init__(self, plan: Plan) -> None:
        self.calls = {c.label: c for c in plan.calls}
        self.verdicts: dict[tuple, list[str]] = {}
        self.reference: dict[str, str] = {}  # label -> stdout SHA-256 of the first pass
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, list[str]] = {}

    def __call__(self, o: Outcome) -> None:
        digest = hashlib.sha256(o.stdout).hexdigest()
        key = (o.label, o.stdin, digest, o.code, "Traceback" in o.stderr)
        if key not in self.verdicts:
            self.verdicts[key] = self._problems(o)
        problems = list(self.verdicts[key])
        if o.timed_out:
            problems.append("timed out")
        first = self.reference.setdefault(o.label, digest)
        if digest != first:
            problems.append("stdout differs from the first pass")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.setdefault(o.label, []).extend(problems)

    def all(self, outcomes: list[Outcome]) -> list[Outcome]:
        """Judge a pass, then drop its outputs: only times are kept."""
        for o in outcomes:
            self(o)
            o.stdin = o.stdout = None
        return outcomes

    def _problems(self, o: Outcome) -> list[str]:
        if "Traceback" in o.stderr:
            return ["traceback on stderr"]
        try:
            return self.calls[o.label].check(o.code, o.stdout, o.stdin)
        except Exception as exc:  # a malformed report: the check itself failed
            return [f"check raised {type(exc).__name__}: {exc}"]


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _repeat(run_pass, seconds: float, started: float) -> list:
    """Call ``run_pass`` at least MIN_PASSES times, then while another
    pass is expected to end within ``seconds`` of ``started``; never start
    one expected to end past RUN_LIMIT_S."""
    results = []
    while True:
        gc.collect()
        results.append(run_pass())
        elapsed = perf_counter() - started
        per_pass = elapsed / len(results)
        if elapsed + per_pass > RUN_LIMIT_S:
            return results
        if len(results) >= MIN_PASSES and elapsed + per_pass > seconds:
            return results


def setup_sample(work: Path, deadline: float) -> float:
    """Wall time of a fresh interpreter importing singlocus.cli and exiting."""
    limit = min(INVOCATION_LIMIT_S, deadline - perf_counter())
    seconds, code, _, stderr, _, timed_out = spawn(["-c", "import singlocus.cli"], None, work, limit)
    if code != 0 or timed_out:
        raise RuntimeError(f"importing singlocus.cli failed: {stderr.strip()}")
    return seconds


def run_untraced(plan: Plan, judge: Judge, work: Path, seconds: float, started: float):
    deadline = started + RUN_LIMIT_S
    setup_sample(work, deadline)  # may compile bytecode: not kept
    setup: list[float] = []
    passes = _repeat(lambda: judge.all(subprocess_pass(plan, work, deadline, setup)), seconds, started)
    # One pass's time, as the sum of each invocation's median over the
    # passes: a burst of noise then only moves the invocations it hit.
    per_call = [[p[k].seconds for p in passes] for k in range(len(plan.calls))]
    (largest,) = [t for t, c in zip(per_call, plan.calls) if c.label == plan.largest]
    totals = [sum(o.seconds for o in p) for p in passes]
    rss = [max(o.rss_kb for o in p) / 1024 for p in passes]
    metrics = {
        "total_s": (sum(statistics.median(t) for t in per_call), "s"),
        "largest_s": (statistics.median(largest), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    samples = {
        "total_s": (totals, f"passes of {len(plan.calls)} invocations (per-invocation medians summed)"),
        "largest_s": (largest, f"runs of '{plan.largest}'"),
        "setup_s": (setup, "fresh interpreters importing singlocus.cli"),
        "peak_rss_mb": (rss, "passes, largest child peak RSS"),
    }
    return metrics, samples, passes


def run_traced(plan: Plan, judge: Judge, work: Path, seconds: float, started: float):
    import spans

    sys.path.insert(0, str(SRC))
    reference = judge.all(subprocess_pass(plan, work, started + RUN_LIMIT_S))
    tracers: list = []

    def pair():
        # Alternate which side runs first, so that order does not bias
        # the overhead.
        tracer = spans.Tracer()
        if len(tracers) % 2:
            traced = judge.all(inprocess_pass(plan, tracer))
            plain = judge.all(inprocess_pass(plan))
        else:
            plain = judge.all(inprocess_pass(plan))
            traced = judge.all(inprocess_pass(plan, tracer))
        tracers.append(tracer)
        return plain, traced

    pairs = _repeat(pair, seconds, started)
    per_pass = [t.metrics() for t in tracers]
    per_layer = spans.combine(per_pass)
    overheads = [sum(o.seconds for o in t) - sum(o.seconds for o in p) for p, t in pairs]
    per_layer["trace.overhead_s"] = statistics.median(
        sum(o.seconds for o in t) for _, t in pairs
    ) - statistics.median(sum(o.seconds for o in p) for p, _ in pairs)
    metrics = {name: (value, _unit(name)) for name, value in per_layer.items()}
    samples = {name: ([p[name] for p in per_pass], "traced passes") for name in per_pass[0]}
    samples["trace.overhead_s"] = (overheads, "traced minus untraced in-process passes")
    return metrics, samples, [reference], tracers


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_bits"):
        return "bit"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(PLANS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "singlocus" / "cli.py").is_file():
        sys.stderr.write(f"error: no singlocus sources under {SRC}\n")
        return 2
    started = perf_counter()
    plan = PLANS[args.workload](random.Random(f"{args.workload}:{args.seed}"))
    judge = Judge(plan)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, samples, passes, tracers = run_traced(plan, judge, work, args.seconds, started)
        else:
            metrics, samples, passes = run_untraced(plan, judge, work, args.seconds, started)
            tracers = []
    finally:
        for name in ("stdin", "stdout", "stderr"):
            (work / name).unlink(missing_ok=True)
        work.rmdir()

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    records = []
    for call in plan.calls:
        times = [o.seconds for p in passes for o in p if o.label == call.label]
        codes = sorted({o.code for p in passes for o in p if o.label == call.label})
        records.append(
            {
                "label": call.label,
                "argv": list(call.argv),
                "exitCodes": codes,
                "stdoutSha256": judge.reference.get(call.label),
                "medianSeconds": statistics.median(times),
                "problems": judge.problems.get(call.label, []),
            }
        )
    stem.with_suffix(".json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "python": platform.python_version(),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "invocations": records,
            },
            indent=1,
        )
    )
    if tracers:
        with open(stem.with_suffix(".spans.jsonl"), "w") as handle:
            for number, tracer in enumerate(tracers):
                for name, start, end, parent, op in tracer.spans:
                    handle.write(json.dumps([number, op, name, start, end, parent]) + "\n")

    print(f"singlocus benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()}")
    for name, (value, unit) in metrics.items():
        values, what = samples[name]
        q1, q3 = _quartiles(values)
        print(f"  {name:44} {value:12.6g} {unit:5}  n={len(values)} {what}; "
              f"quartiles {q1:.6g} .. {q3:.6g}")
    print(f"  failed_ratio {judge.failed}/{judge.attempted} invocations")
    for label, problems in judge.problems.items():
        print(f"  FAILED {label}: {'; '.join(sorted(set(problems)))}")
    print(f"  records: {stem.with_suffix('.json').relative_to(ROOT)}")
    result = {
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
