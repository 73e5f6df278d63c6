"""Tests of the benchmark itself: its inputs, its output checks, its tracing.

    python3 perfbench/selftest.py

The file is not named test_*.py, so the repository's pytest run does not
collect it.
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from pathlib import Path

import checks
import gen
import run
import spans

sys.path.insert(0, str(run.SRC))


def cli(argv: list[str], payload=None) -> tuple[int, bytes, bytes | None]:
    """Run the CLI in this process on a JSON payload (a dict, or bytes)."""
    stdin = run._encode(payload) if isinstance(payload, dict) else payload
    code, stdout, stderr = spans.call_main(argv, stdin)
    assert "Traceback" not in stderr, stderr
    return code, stdout, stdin


def corrupt(stdout: bytes, edit) -> bytes:
    report = json.loads(stdout)
    edit(report)
    return json.dumps(report).encode()


def negative_blowup() -> dict:
    """A blowup fan with a negative defect (an exceptional curve)."""
    for seed in range(100):
        fan = gen.blowup_fan(random.Random(seed), 8)
        if min(gen.wall_defects(fan).values()) < 0:
            return fan
    raise AssertionError("no blowup with a negative defect")


class GeneratedInputs(unittest.TestCase):
    def test_generated_inputs_pass_validate(self):
        rng = random.Random(11)
        graphs = [gen.ladder(rng, 16), gen.twisted(rng, "theta", 3000), gen.twisted(rng, "k4", 3000),
                  gen.twisted(rng, "ladder3", 9000)]
        for graph in graphs:
            code, stdout, stdin = cli(["validate"], graph)
            self.assertEqual(checks.validate("graph")(code, stdout, stdin), [])
        for steps in (20, 60):
            code, stdout, stdin = cli(["validate"], gen.blowup_fan(rng, steps))
            self.assertEqual(checks.validate("fan")(code, stdout, stdin), [])

    def test_sizes_do_not_depend_on_the_seed(self):
        for seed in range(5):
            rng = random.Random(seed)
            fan = gen.blowup_fan(rng, 30)
            self.assertEqual((len(fan["rays"]), len(fan["cones"])), (34, 64))
            graph = gen.twisted(rng, "k4", 30000)
            self.assertEqual(sum(e["twist"] for e in graph["edges"]), 30000)

    def test_same_seed_same_plan(self):
        for name, plan in run.PLANS.items():
            a, b = plan(random.Random(3)), plan(random.Random(3))
            self.assertEqual([(c.argv, c.stdin) for c in a.calls], [(c.argv, c.stdin) for c in b.calls])


class ChecksRejectCorruptReports(unittest.TestCase):
    def assert_rejects(self, check, code, stdout, stdin, edit):
        self.assertEqual(check(code, stdout, stdin), [])
        self.assertNotEqual(check(code, corrupt(stdout, edit), stdin), [])

    def test_ladder_closed_form_h1(self):
        graph = gen.ladder(random.Random(1), 8)
        check = checks.analyze(gen.graph_facts(graph))
        code, stdout, stdin = cli(["analyze", "--all"], graph)

        def h1(r):
            r["result"]["h1"]["torsion"] = [17]

        def surface(r):
            r["result"]["surface"]["genus"] += 1

        for edit in (h1, surface):
            self.assert_rejects(check, code, stdout, stdin, edit)
        self.assertNotEqual(check(1, stdout, stdin), [])

    def test_twist_nodes_and_spheres(self):
        graph = gen.twisted(random.Random(2), "k4", 6000)
        check = checks.analyze(gen.graph_facts(graph))
        code, stdout, stdin = cli(["analyze", "--all"], graph)

        def nodes(r):
            r["result"]["nodalCurve"]["nodes"] -= 1

        def spheres(r):
            r["result"]["nodalCurve"]["sphereComponents"] += 1

        def digest(r):
            r["inputDigest"] = "0" * 64

        for edit in (nodes, spheres, digest):
            self.assert_rejects(check, code, stdout, stdin, edit)

    def test_negative_defect_exit_and_diagnostics(self):
        fan = negative_blowup()
        code, stdout, stdin = cli(["analyze", "--all"], cli(["toric", "extract"], fan)[1])
        check = checks.analyze(gen.fan_graph_facts(fan))
        self.assertEqual(code, 1)

        def diagnostics(r):
            r["diagnostics"] = ["DisconnectedGraph: graph is not connected"]

        self.assert_rejects(check, code, stdout, stdin, diagnostics)
        self.assertNotEqual(check(0, stdout, stdin), [])

    def test_extract_defects_and_counts(self):
        fan = gen.blowup_fan(random.Random(4), 30)
        check = checks.extract(fan=fan)
        code, stdout, stdin = cli(["toric", "extract"], fan)

        def one_defect(r):
            # Consistent within the report, so only the independent wall
            # relation can tell.
            w = next(w for w in r["result"]["walls"] if not w.get("boundary"))
            w["defect"] += 1
            w["anticanonicalDegree"] += 1
            w["selfIntersections"][0] += 1

        def cones(r):
            r["result"]["counts"]["maximalCones"] += 2

        def divisor(r):
            r["result"]["divisors"][0]["selfIntersections"][0] += 1

        for edit in (one_defect, cones, divisor):
            self.assert_rejects(check, code, stdout, stdin, edit)

    def test_validate(self):
        graph = gen.ladder(random.Random(5), 4)
        code, stdout, stdin = cli(["validate"], graph)

        def violation(r):
            r["result"]["violations"] = ["vertex 0 not trivalent"]

        self.assert_rejects(checks.validate("graph"), code, stdout, stdin, violation)


class Tracing(unittest.TestCase):
    def traced(self, argv, payload):
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            code, stdout, _ = cli(argv, payload)
        finally:
            restore()
        return tracer, code, stdout

    def test_call_counts_per_invocation(self):
        graph = gen.ladder(random.Random(6), 6)
        tracer, _, _ = self.traced(["analyze", "--all"], graph)
        self.assertEqual(
            {k: tracer.calls[k] for k in ("graphs.validate_graph", "graphs.orientability",
                                          "graphs.oriented_form", "descent.assemble_diagram",
                                          "intlinalg.cycle_basis", "intlinalg.snf")},
            {"graphs.validate_graph": 14, "graphs.orientability": 4, "graphs.oriented_form": 2,
             "descent.assemble_diagram": 3, "intlinalg.cycle_basis": 6, "intlinalg.snf": 1},
        )
        tracer, _, _ = self.traced(["toric", "extract"], gen.blowup_fan(random.Random(6), 10))
        self.assertEqual(tracer.calls["toric.validate_fan"], 3)

    def test_traced_stdout_is_byte_identical(self):
        fan = gen.blowup_fan(random.Random(7), 12)
        for argv, payload in ((["toric", "extract"], fan),
                              (["analyze", "--all"], gen.twisted(random.Random(7), "theta", 3000))):
            _, plain, _ = cli(argv, payload)
            _, _, traced = self.traced(argv, payload)
            self.assertEqual(plain, traced)

    def test_examples_are_opaque(self):
        tracer, _, _ = self.traced(["analyze", "--example", "p3", "--all"], None)
        self.assertEqual(tracer.calls["toric.boundary_graph"], 0)
        self.assertEqual(tracer.calls["cli.main"], 1)

    def test_self_times_add_up(self):
        tracer, _, _ = self.traced(["analyze", "--all"], gen.ladder(random.Random(8), 8))
        (root,) = [s for s in tracer.spans if s[3] is None and s[0] != "trace.count"]
        self.assertAlmostEqual(sum(tracer.self_times().values()), root[2] - root[1], places=6)

    def test_restore_puts_originals_back(self):
        import singlocus.cli
        import singlocus.topology

        before = (singlocus.cli.h1_graph_manifold, singlocus.topology.h1_graph_manifold,
                  dict(singlocus.cli.CLI_EXAMPLE_GRAPHS))
        spans.install(spans.Tracer())()
        after = (singlocus.cli.h1_graph_manifold, singlocus.topology.h1_graph_manifold,
                 dict(singlocus.cli.CLI_EXAMPLE_GRAPHS))
        self.assertEqual(before, after)


class Runner(unittest.TestCase):
    def test_timeout_kills_and_reports(self):
        work = run.OUT / "selftest"
        work.mkdir(parents=True, exist_ok=True)
        seconds, _, _, _, _, timed_out = run.spawn(["-c", "import time; time.sleep(30)"], None, work, 0.3)
        self.assertTrue(timed_out)
        self.assertLess(seconds, 5)

    def test_refuses_without_sources(self):
        saved = run.SRC
        run.SRC = Path(saved.parent / "no-such-dir")
        try:
            self.assertEqual(run.main(["--workload", "ladder", "--seed", "1", "--seconds", "1"]), 2)
        finally:
            run.SRC = saved


if __name__ == "__main__":
    unittest.main()
