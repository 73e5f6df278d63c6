import functools
import json
import subprocess
import sys
from collections import Counter

import pytest

from singlocus.cli import main
from singlocus.examples import circular_ladder_graph, p3_fan, theta_graph
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


def test_deeply_nested_input_is_a_parse_error():
    proc = run_cli(["validate"], stdin_text="[" * 100_000)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [("reversing", "false"), ("twist", 1.9), ("holonomy", True)],
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
    assert first == second
    pipe1 = run_cli(["toric", "extract", "--example", "p3"]).stdout
    pipe2 = run_cli(["toric", "extract", "--example", "p3"]).stdout
    assert pipe1 == pipe2


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
