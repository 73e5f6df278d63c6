import contextlib
import copy
import functools
import hashlib
import io
import json
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from singlocus.cli import main
from singlocus.examples import circular_ladder_graph, conifold_fan, p3_fan, theta_graph
from singlocus.graphs import flip_vertex
from singlocus.serialize import dumps_canonical, fan_to_json, graph_to_json


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "singlocus", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )
    return proc


def write_theta(tmp_path, **kwargs):
    path = tmp_path / "theta.json"
    path.write_text(dumps_canonical(graph_to_json(theta_graph(**kwargs))))
    return path


def test_validate_ok(tmp_path):
    path = write_theta(tmp_path)
    proc = run_cli(["validate", str(path)])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"] == {"kind": "graph", "violations": []}


def test_validate_violation(tmp_path):
    payload = graph_to_json(theta_graph())
    payload["vertices"][0]["halfEdges"] = [0, 1]
    path = tmp_path / "bad.json"
    path.write_text(dumps_canonical(payload))
    proc = run_cli(["validate", str(path)])
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert any("not trivalent" in v for v in report["diagnostics"])


def test_validate_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli(["validate", str(path)])
    assert proc.returncode == 2


def test_quartic_pipe_round_trip(tmp_path):
    fan_json = run_cli(["toric", "quartic-mirror"]).stdout
    extract = run_cli(["toric", "extract"], stdin_text=fan_json)
    assert extract.returncode == 0
    report = json.loads(extract.stdout)
    counts = report["result"]["counts"]
    assert counts["rays"] == 34
    assert counts["maximalCones"] == 64
    assert counts["walls"] == 96
    assert counts["defects"] == {"0": 72, "1": 24}
    # round-trip: the emitted report is directly ingestible by analyze
    report_path = tmp_path / "extract.json"
    report_path.write_text(extract.stdout)
    analyze = run_cli(["analyze", str(report_path), "--pencil"])
    assert analyze.returncode == 0
    pencil = json.loads(analyze.stdout)["result"]["nodalCurve"]
    assert pencil["nodes"] == 24
    assert pencil["components"] == [{"boundary": 12, "genus": 3}] * 4


def test_toric_extract_invalid_fan():
    bad = dumps_canonical({"rays": [[1, 0, 0], [0, 1, 0], [1, 1, 2]], "cones": [[0, 1, 2]]})
    proc = run_cli(["toric", "extract"], stdin_text=bad)
    assert proc.returncode == 1


def test_toric_extract_ray_not_a_3_vector():
    bad = dumps_canonical({"rays": [[1, 0], [0, 1, 0], [0, 0, 1]], "cones": [[0, 1, 2]]})
    proc = run_cli(["toric", "extract"], stdin_text=bad)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["diagnostics"] == ["ray 0 is not a 3-vector"]


def _modules_after(code):
    listing = "import sys; print(chr(10).join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", f"{code}; {listing}"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_start_up_footprint():
    # What every CLI process pays for before it reads its input.
    added = _modules_after("import singlocus.cli") - _modules_after("pass")
    assert not added & {"dataclasses", "inspect"}
    # The benchmark's tracer finds every traced module loaded by this import.
    layers = ("cli", "serialize", "graphs", "descent", "intlinalg", "topology", "toric", "examples")
    assert {f"singlocus.{name}" for name in layers} <= added


def test_deeply_nested_input_is_a_parse_error():
    proc = run_cli(["validate"], stdin_text="[" * 100_000)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("reversing", "false"),
        ("twist", 1.9),
        ("holonomy", True),
        ("ends", [0, 3, 7]),
        ("selfIntersections", [-1, -1, 99]),
    ],
)
def test_graph_scalars_are_not_coerced(field, value):
    payload = graph_to_json(theta_graph())
    payload["edges"][0][field] = value
    proc = run_cli(["analyze", "--all"], stdin_text=dumps_canonical(payload))
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", [1.0, True])
def test_fan_entries_are_not_coerced(value):
    payload = fan_to_json(p3_fan())
    payload["rays"][0][0] = value
    proc = run_cli(["toric", "extract"], stdin_text=dumps_canonical(payload))
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr


@pytest.mark.parametrize("result", ["5", "null", '"graph"', "true", "[]"])
def test_analyze_result_that_is_not_an_object_is_a_parse_error(result):
    proc = run_cli(["analyze", "--all"], stdin_text=f'{{"result": {result}}}')
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def run_main(args, raw: bytes):
    """Run ``main`` in this process with ``raw`` on stdin; (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(raw))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


FUZZ_BASES = (
    graph_to_json(theta_graph(twists=(2, 0, 1))),
    graph_to_json(circular_ladder_graph(2)),
    fan_to_json(p3_fan()),
    fan_to_json(conifold_fan()),
)
# Small scalars only: a twist's size sets the pencil's cost (one annulus
# per vanishing circle), which is not what this test is after.
FUZZ_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-4, 4, allow_nan=False),
    st.sampled_from(["", "1/0", "x", "2/3", "compact", "leg"]),
    st.lists(st.integers(-2, 6), max_size=4),
    st.just({}),
)


def _json_paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


@st.composite
def mutated_payloads(draw):
    """A graph or fan payload with 1-3 mutations: a key or item dropped, a
    value of the wrong type, a list of the wrong arity, or the whole value
    wrapped the way ``toric extract`` reports wrap their graph."""
    obj = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(obj))))
        op = draw(st.sampled_from(["drop", "retype", "arity", "wrap"]))
        if op == "wrap" or not path:
            wrappers = [{"result": obj}, {"result": {"graph": obj}}, {"result": draw(FUZZ_JUNK)}]
            obj = draw(st.sampled_from(wrappers))
            continue
        *head, key = path
        parent = obj
        for step in head:
            parent = parent[step]
        if op == "drop":
            del parent[key]
        elif op == "retype":
            parent[key] = draw(FUZZ_JUNK)
        elif isinstance(parent[key], list):  # one item fewer or one more
            items = parent[key]
            if items and draw(st.booleans()):
                items.pop()
            else:
                items.append(copy.deepcopy(items[-1]) if items else 0)
        else:  # a list where a scalar belongs
            parent[key] = [parent[key]] * draw(st.integers(0, 4))
    return obj


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from([["validate"], ["toric", "extract"], ["analyze", "--all"]]),
    mutated_payloads(),
)
def test_cli_fuzz_keeps_exit_code_contract(args, payload):
    code, _, err = run_main(args, json.dumps(payload).encode("utf-8"))
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def count_calls(monkeypatch, names):
    """Wrap each named function at every binding in the package with a counter."""
    counts = Counter()
    modules = [m for n, m in sys.modules.items() if n == "singlocus" or n.startswith("singlocus.")]
    for module in modules:
        for name in names:
            fn = vars(module).get(name)
            if callable(fn):

                def counted(*args, _fn=fn, _name=name, **kwargs):
                    counts[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, functools.wraps(fn)(counted))
    return counts


def test_each_value_is_validated_and_derived_once(tmp_path, monkeypatch):
    # Flipping two vertices puts reversing flags on the ladder, so the
    # orientation gauge has real work to do.
    graph = flip_vertex(flip_vertex(circular_ladder_graph(4), 0), 5)
    path = tmp_path / "ladder.json"
    path.write_text(dumps_canonical(graph_to_json(graph)))
    counts = count_calls(monkeypatch, ("validate_graph", "assemble_diagram", "oriented_form"))
    assert main(["analyze", str(path), "--all"]) == 0
    assert counts == {"validate_graph": 1, "assemble_diagram": 1, "oriented_form": 1}

    path = tmp_path / "fan.json"
    path.write_text(dumps_canonical(fan_to_json(p3_fan())))
    counts = count_calls(monkeypatch, ("validate_fan",))
    assert main(["toric", "extract", str(path)]) == 0
    assert counts == {"validate_fan": 1}


def test_analyze_all_theta():
    proc = run_cli(["analyze", "--example", "theta", "--all"])
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["surface"]["genus"] == 2
    assert result["h1"] == {"free": 4, "torsion": [2]}
    assert result["twoPeriodic"] is True
    assert result["nodalCurve"]["nodes"] == 0
    assert result["dehnTwists"] == []


def test_analyze_negative_defect(tmp_path):
    path = write_theta(tmp_path, twists=(-1, 0, 0))
    proc = run_cli(["analyze", str(path), "--pencil"])
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert any("NegativeDefect" in d for d in report["diagnostics"])


def test_analyze_p3_example():
    proc = run_cli(["analyze", "--example", "p3", "--dehn", "--surface"])
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert len(result["dehnTwists"]) == 6
    assert all(entry["multiplicity"] == 4 for entry in result["dehnTwists"])
    assert result["surface"]["genus"] == 3  # K4 has cycle rank 3


def test_determinism(tmp_path):
    path = write_theta(tmp_path, holonomies=(2, 3, 5))
    first = run_cli(["analyze", str(path), "--all"]).stdout
    second = run_cli(["analyze", str(path), "--all"]).stdout
    assert first and first == second
    pipe1 = run_cli(["toric", "extract", "--example", "p3"]).stdout
    pipe2 = run_cli(["toric", "extract", "--example", "p3"]).stdout
    assert pipe1 and pipe1 == pipe2


def test_output_flag(tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", "--example", "theta", "--surface", "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["result"]["surface"]["genus"] == 2


def test_input_digest_ties_to_bytes(tmp_path):
    path = write_theta(tmp_path)
    rep1 = json.loads(run_cli(["analyze", str(path), "--surface"]).stdout)
    path.write_text(path.read_text() + " ")
    rep2 = json.loads(run_cli(["analyze", str(path), "--surface"]).stdout)
    assert rep1["result"] == rep2["result"]
    assert rep1["inputDigest"] != rep2["inputDigest"]


@pytest.mark.parametrize(
    "args",
    [
        ["validate", "--example", "theta"],
        ["toric", "quartic-mirror"],
        ["toric", "extract", "--example", "p3"],
        ["analyze", "--example", "theta", "--all"],
    ],
)
def test_unwritable_output_is_an_io_error(tmp_path, args):
    proc = run_cli([*args, "--output", str(tmp_path / "missing" / "report.json")])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# Taken from the per-annulus pencil and json.dumps of the whole report,
# before the nodal curve became run-length.
TWISTED_THETA_ALL_SHA256 = "88bc38009dab5b6c0488947b5259c6e0fdae025b8defd2caa233b0cb49724e18"


def test_analyze_all_twisted_theta_golden():
    graph = theta_graph(twists=(7, 1, 0), holonomies=(2, 3, 5))
    raw = dumps_canonical(graph_to_json(graph)).encode("utf-8")
    code, out, err = run_main(["analyze", "--all"], raw)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TWISTED_THETA_ALL_SHA256


def test_one_canonical_dump_per_report(monkeypatch):
    # The report is encoded by one call; fragments are spliced below it.
    raw = dumps_canonical(graph_to_json(theta_graph(twists=(40, 3, 1)))).encode("utf-8")
    counts = count_calls(monkeypatch, ("dumps_canonical",))
    code, out, _ = run_main(["analyze", "--all"], raw)
    assert code == 0
    assert json.loads(out)["result"]["nodalCurve"]["nodes"] == 44
    assert counts == {"dumps_canonical": 1}
