import ast
import contextlib
import copy
import functools
import hashlib
import io
import json
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import singlocus
from singlocus.cli import main
from singlocus.descent import assemble_diagram, pic_invariants
from singlocus.examples import circular_ladder_graph, conifold_fan, p3_fan, theta_graph
from singlocus.graphs import DecoratedGraph, flip_vertex
from singlocus.serialize import dumps_canonical, fan_to_json, graph_to_json
from singlocus.topology import h1_graph_manifold

import golden
from oracles import per_pair_incidence


def run_cli(args, stdin_text=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "singlocus", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=timeout,
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


def test_toric_extract_split_star():
    # Valid fan; the star of ray 0 is two chains, 1-2-5 and 3-6-4.
    fan = {
        "rays": [[0, 0, 1], [1, 0, 0], [0, 1, 0], [0, -1, 0], [-1, -1, 0], [-1, 1, 0], [-1, -2, 0]],
        "cones": [[0, 1, 2], [0, 2, 5], [0, 3, 6], [0, 6, 4]],
    }
    code, out, err = run_main(["toric", "extract"], json.dumps(fan).encode("utf-8"))
    assert (code, err) == (1, "")
    assert json.loads(out)["diagnostics"] == [
        "SplitStar: star of ray 0 is not one cycle or one chain; its divisor is not classified"
    ]
    assert json.loads(out)["result"] == {}


@pytest.mark.parametrize("command", [["validate"], ["toric", "extract"]])
def test_overlapping_cones_without_inner_rays_are_rejected(command):
    # Both cones contain (5, -3, -12) = r0 + 7 r1 + r2 = r3 + 11 r4 + r5,
    # though no ray of one lies in the other.
    fan = {
        "rays": [[-1, -1, 1], [1, 0, -2], [-1, -2, 1], [3, -2, 1], [0, 0, -1], [2, -1, -2]],
        "cones": [[0, 1, 2], [3, 4, 5]],
    }
    code, out, err = run_main(command, json.dumps(fan).encode("utf-8"))
    assert (code, err) == (1, "")
    assert json.loads(out)["diagnostics"] == [
        "walls (0, 1) and (3, 4) cross",
        "walls (0, 1) and (4, 5) cross",
        "walls (1, 2) and (3, 4) cross",
        "walls (1, 2) and (4, 5) cross",
    ]


def _modules_after(code):
    """Every module that a fresh interpreter loads when it runs ``code``,
    and the singlocus modules among them that ran.  A lazily registered
    module that has not run yet is of a subclass of ModuleType, and
    ``type()`` does not make it run."""
    listing = (
        "import sys, types; print(*[name + ('' if type(m) is types.ModuleType else ':lazy')"
        " for name, m in sys.modules.items()])"
    )
    proc = subprocess.run([sys.executable, "-c", f"{code}; {listing}"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = proc.stdout.split()
    ran = {name for name in names if name.startswith("singlocus") and not name.endswith(":lazy")}
    return {name.removesuffix(":lazy") for name in names}, ran


# The submodules that each command runs besides singlocus and singlocus.cli.
MODULES_RUN = {
    (): set(),
    ("validate", "--example", "theta"): {"errors", "examples", "graphs", "serialize"},
    ("toric", "quartic-mirror"): {"errors", "examples", "graphs", "serialize", "toric"},
    ("toric", "extract", "--example", "p3"): {"errors", "examples", "graphs", "serialize", "toric"},
    ("analyze", "--all", "--example", "theta"): {
        "descent", "errors", "examples", "graphs", "intlinalg", "serialize", "topology",
    },
    ("analyze", "--all", "--example", "p3"): {
        "descent", "errors", "examples", "graphs", "intlinalg", "serialize", "topology", "toric",
    },
}


def test_cli_start_up_footprint():
    # What a CLI process pays for: the modules it loads, and the singlocus
    # modules that run, which follow the command.
    before, _ = _modules_after("pass")
    package = Path(singlocus.__file__).parent
    submodules = {f"singlocus.{p.stem}" for p in package.glob("*.py")} - {
        "singlocus.__init__", "singlocus.__main__"
    }
    for argv, modules in MODULES_RUN.items():
        code = "import os, singlocus.cli"
        if argv:
            code += f"; singlocus.cli.main({list(argv)!r} + ['--output', os.devnull])"
        loaded, ran = _modules_after(code)
        # No runtime dependencies: every module a command loads is the stdlib's or ours.
        outside = {name.partition(".")[0] for name in loaded - before} - sys.stdlib_module_names
        assert outside <= {"singlocus"}, argv
        assert not (loaded - before) & {"dataclasses", "inspect", "_hashlib"}, argv
        assert ran == {"singlocus", "singlocus.cli"} | {f"singlocus.{m}" for m in modules}, argv
        # Every submodule is registered, so the benchmark's tracer finds
        # each traced module after this import.
        assert {name for name in loaded if name.startswith("singlocus.")} == submodules
        layers = ("cli", "serialize", "graphs", "descent", "intlinalg", "topology", "toric", "examples")
        assert {f"singlocus.{name}" for name in layers} <= loaded


def test_every_module_serves_a_command():
    # A module that no command runs has no place in the package.
    package = Path(singlocus.__file__).parent
    stems = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__", "cli"}
    assert set().union(*MODULES_RUN.values()) == stems


def test_no_module_imports_a_name_it_never_uses():
    # A deletion leaves no dead import behind; __init__.py re-exports by importing.
    unused = []
    for path in sorted(Path(singlocus.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def _private_imports(paths, imports_singlocus):
    """Each ``from ... import _name`` in ``paths`` whose ImportFrom node
    ``imports_singlocus`` accepts."""
    return [
        f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and imports_singlocus(node)
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_oracles_import_no_private_name_of_singlocus():
    # An oracle that imports a private helper shares code with what it
    # checks; the test models are the descent oracle.
    paths = [Path(__file__).parent / name for name in ("oracles.py", "models.py")]
    assert _private_imports(paths, lambda node: (node.module or "").partition(".")[0] == "singlocus") == []


def test_no_module_imports_a_private_name_of_another():
    # A private name belongs to its module; a helper another module needs is public.
    paths = sorted(Path(singlocus.__file__).parent.glob("*.py"))
    assert _private_imports(paths, lambda node: node.level or (node.module or "").startswith("singlocus")) == []


def _workflow_runs(text):
    """The text of each ``run:`` value of a workflow: the rest of its line
    and every following line indented deeper than the key."""
    runs, indent = [], None
    for line in text.splitlines():
        key, found, value = line.partition("run:")
        if found and key.strip() in ("", "-"):
            runs.append(value)
            indent = len(key)
        elif indent is not None and (not line.strip() or len(line) - len(line.lstrip()) > indent):
            runs[-1] += "\n" + line
        else:
            indent = None
    return runs


def test_workflow_runs_each_ci_program():
    # A CI program is a file under tests/ci/ that runs the same way off CI, not a heredoc, a python -c
    # or a shell timeout in the workflow.
    tests = Path(__file__).parent
    workflow = (tests.parent / ".github" / "workflows" / "tests.yml").read_text()
    assert "<<" not in workflow
    runs = _workflow_runs(workflow)
    for run in runs:
        assert not re.search(r"\bpython3? -c\b", run) and "timeout " not in run, run
    for path in sorted((tests / "ci").glob("*.py")):
        assert any(f"tests/ci/{path.name}" in run for run in runs), path.name


def test_every_package_export_resolves():
    # A misspelt name or module in the package's export table fails here.
    for name in singlocus.__all__:
        assert getattr(singlocus, name).__name__ == name
    assert len(singlocus.__all__) == 39
    with pytest.raises(AttributeError):
        singlocus.no_such_name


def test_deeply_nested_input_is_a_parse_error():
    proc = run_cli(["validate"], stdin_text="[" * 100_000)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


NOT_COERCED = {
    "reversing": "malformed graph JSON: expected true or false, got 'false'",
    "twist": "malformed graph JSON: expected an integer, got 1.9",
    "holonomy": "bad rational True",
    "ends": "malformed graph JSON: expected a pair of integers, got [0, 3, 7]",
    "selfIntersections": "malformed graph JSON: expected a pair of integers, got [-1, -1, 99]",
}


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
    assert proc.stdout == "" and proc.stderr == f"error: {NOT_COERCED[field]}\n"


@pytest.mark.parametrize("value", [1.0, True])
def test_fan_entries_are_not_coerced(value):
    payload = fan_to_json(p3_fan())
    payload["rays"][0][0] = value
    proc = run_cli(["toric", "extract"], stdin_text=dumps_canonical(payload))
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr == f"error: malformed fan JSON: expected an integer, got {value!r}\n"


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


# Holonomies of 2 500 digits, one inverted: pic and descent then hold
# rationals of 4 999 digits, past Python's 4 300-digit int-to-str limit.
BIG = 10**2499
BIG_HOLONOMY_THETA = theta_graph(holonomies=(BIG + 7, Fraction(1, 3 * BIG + 1), 7 * BIG + 3))
# A 10-byte rational that Fraction would expand to 10**10000000.
HUGE_EXPONENT_THETA = graph_to_json(theta_graph())
HUGE_EXPONENT_THETA["edges"][0]["holonomy"] = "1e10000000"
# A 6.2 KB input whose H1 torsion has 6 001 digits.
BIG_TORSION_THETA = theta_graph(twists=(10**3000, 10**3000 + 1, 1))
# Inputs within the digit limit whose diagnostics or counts quote an
# integer past it: a cone of determinant N^3 + 1, a triple point formula
# expecting 2 M + 2, and the valid fan of F_a x P^1, whose walls (3, 4)
# and (3, 5) have defect a + 2.
BIG_N, BIG_M, BIG_A = int("9" * 4000), 10**4300 - 1, 10**4300 - 1
BIG_DET_FAN = {"rays": [[BIG_N, 1, 0], [0, BIG_N, 1], [1, 0, BIG_N]], "cones": [[0, 1, 2]]}
BIG_FORMULA_THETA = graph_to_json(theta_graph())
BIG_FORMULA_THETA["edges"][0]["selfIntersections"] = [BIG_M, BIG_M]
BIG_DEFECT_FAN = {
    "rays": [[1, 0, 0], [0, 1, 0], [-1, BIG_A, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    "cones": [[i, (i + 1) % 4, k] for k in (4, 5) for i in range(4)],
}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from([["validate"], ["toric", "extract"], ["analyze", "--all"]]),
    mutated_payloads(),
)
@example(["analyze", "--all"], graph_to_json(BIG_HOLONOMY_THETA))
@example(["analyze", "--all"], HUGE_EXPONENT_THETA)
@example(["analyze", "--h1"], graph_to_json(BIG_TORSION_THETA))
@example(["toric", "extract"], BIG_DET_FAN)
@example(["validate"], BIG_FORMULA_THETA)
@example(["toric", "extract"], BIG_DEFECT_FAN)
def test_cli_fuzz_keeps_exit_code_contract(args, payload):
    code, _, err = run_main(args, json.dumps(payload).encode("utf-8"))
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_big_rationals_are_written_in_full():
    raw = json.dumps(graph_to_json(BIG_HOLONOMY_THETA)).encode("utf-8")
    code, out, err = run_main(["analyze", "--all"], raw)
    assert (code, err) == (0, "")
    pic = json.loads(out)["result"]["pic"]
    written = pic["betaHolonomies"] + pic["alphaHolonomies"]
    # Read back through decimal, which no digit limit applies to.
    values = [Fraction(*(int(Decimal(x)) for x in text.split("/"))) for text in written]
    expected = pic_invariants(assemble_diagram(BIG_HOLONOMY_THETA))
    assert values == [*expected.beta_holonomies, *expected.alpha_holonomies]
    assert max(len(part) for text in written for part in text.split("/")) > 4300


def test_big_torsion_is_written_in_full():
    raw = json.dumps(graph_to_json(BIG_TORSION_THETA)).encode("utf-8")
    code, out, err = run_main(["analyze", "--h1"], raw)
    assert (code, err) == (0, "")
    h1 = json.loads(out, parse_int=Decimal)["result"]["h1"]  # no digit limit
    expected = h1_graph_manifold(BIG_TORSION_THETA)
    assert (int(h1["free"]), [int(d) for d in h1["torsion"]]) == (expected.free_rank, list(expected.torsion))
    assert len(str(max(h1["torsion"]))) > 4300


@pytest.mark.parametrize(
    "args, payload, code, quoted",
    [
        pytest.param(["validate"], BIG_DET_FAN, 1, BIG_N**3 + 1, id="det-validate"),
        pytest.param(["toric", "extract"], BIG_DET_FAN, 1, BIG_N**3 + 1, id="det-extract"),
        pytest.param(["validate"], BIG_FORMULA_THETA, 1, 2 * BIG_M + 2, id="formula-validate"),
        pytest.param(["analyze", "--all"], BIG_FORMULA_THETA, 1, 2 * BIG_M + 2, id="formula-analyze"),
        pytest.param(["toric", "extract"], BIG_DEFECT_FAN, 0, BIG_A + 2, id="defect-extract"),
    ],
)
def test_integers_past_the_digit_limit_are_quoted_in_full(args, payload, code, quoted):
    raw = json.dumps(payload)
    digits = str(Decimal(quoted))
    proc = run_cli(args, raw, timeout=60)
    for got_code, out, err in (run_main(args, raw.encode("utf-8")), (proc.returncode, proc.stdout, proc.stderr)):
        assert (got_code, err) == (code, "")
        assert digits in out


def test_huge_exponent_is_a_parse_error_before_it_is_expanded():
    start = time.perf_counter()
    code, out, err = run_main(["analyze", "--all"], json.dumps(HUGE_EXPONENT_THETA).encode("utf-8"))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: bad rational '1e10000000'") and err.count("\n") == 1


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
    counts = count_calls(monkeypatch, ("validate_graph", "assemble_diagram"))
    walk = DecoratedGraph.flag_parity.func

    def counted(g):
        counts["flag_parity"] += 1
        return walk(g)

    parity = functools.cached_property(counted)
    parity.__set_name__(DecoratedGraph, "flag_parity")
    monkeypatch.setattr(DecoratedGraph, "flag_parity", parity)
    assert main(["analyze", str(path), "--all"]) == 0
    # One flag-parity walk serves every section.
    assert counts == {"validate_graph": 1, "assemble_diagram": 1, "flag_parity": 1}

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


def test_analyze_writes_each_diagnostic_once():
    # Every section but dehn needs a connected graph, and each fails alike.
    code, out, err = run_main(["analyze", "--all"], b'{"vertices":[],"edges":[]}')
    assert (code, err) == (1, "")
    assert json.loads(out)["diagnostics"] == ["DisconnectedGraph: graph is not connected"]
    # One gate decides orientability, so every section that needs w1 = 0
    # fails with the same line.
    reversing = theta_graph(twists=(3, 5, 8), reversing=(True, True, False))
    code, out, _ = run_main(["analyze", "--all"], dumps_canonical(graph_to_json(reversing)).encode())
    assert code == 1
    assert json.loads(out)["diagnostics"] == [
        "NonOrientable: reversing flags have nontrivial holonomy (edge 2)"
    ]


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


def analyze_all_digests(graph):
    """SHA-256 of ``analyze --all`` on ``graph``, as written and with its
    nodal-curve incidence expanded back into one item per pair."""
    raw = dumps_canonical(graph_to_json(graph)).encode("utf-8")
    code, out, err = run_main(["analyze", "--all"], raw)
    assert (code, err) == (0, "")
    report = json.loads(out)
    curve = report["result"]["nodalCurve"]
    curve["incidence"] = per_pair_incidence(curve["incidence"])
    per_pair = dumps_canonical(report) + "\n"
    return [hashlib.sha256(text.encode("utf-8")).hexdigest() for text in (out, per_pair)]


# The per-pair digests were taken from the per-annulus pencil and json.dumps
# of the whole report, before the nodal curve became run-length.
TWISTED_THETA_ALL_SHA256 = "fddc58cd3dfb218a47b4b183d1aef4ab014373d2f9f067225e2420f61d55b8d7"
TWISTED_THETA_PER_PAIR_SHA256 = "88bc38009dab5b6c0488947b5259c6e0fdae025b8defd2caa233b0cb49724e18"


def test_analyze_all_twisted_theta_golden():
    graph = theta_graph(twists=(7, 1, 0), holonomies=(2, 3, 5))
    assert analyze_all_digests(graph) == [TWISTED_THETA_ALL_SHA256, TWISTED_THETA_PER_PAIR_SHA256]


# The per-pair digest was taken at the per-node emitter; the first chain's
# links 2 .. 1233 cross 999 -> 1000.
BLOCK_TWISTED_THETA_ALL_SHA256 = "ee67764de8bd793e9c281732d2a41af912b74fb2c20d1b1e9eb37c8994c9b0b4"
BLOCK_TWISTED_THETA_PER_PAIR_SHA256 = "27566ae3d8f1661585686ed7ecfc64b6fa9691b5e3131ce4024f3ab0fc63c333"


def test_analyze_all_block_twisted_theta_golden():
    graph = theta_graph(twists=(1234, 100, 99), holonomies=(2, 3, 5))
    expected = [BLOCK_TWISTED_THETA_ALL_SHA256, BLOCK_TWISTED_THETA_PER_PAIR_SHA256]
    assert analyze_all_digests(graph) == expected


@pytest.mark.parametrize("digits", [4000, 4300])
def test_huge_twists_are_reported_in_full(digits):
    # One item per cut edge: the report's size follows the digits of the
    # twists, not their values.  Three twists of 4300 nines sum to 4301 digits.
    n = 10**digits - 1
    payload = dumps_canonical(graph_to_json(theta_graph(twists=(n, n, n))))
    proc = run_cli(["analyze", "--all"], stdin_text=payload, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    curve = json.loads(proc.stdout, parse_int=Decimal)["result"]["nodalCurve"]  # no digit limit
    assert curve["nodes"] == 3 * n
    assert curve["sphereComponents"] == 3 * (n - 1)
    assert curve["incidence"] == [
        {"ends": [0, 1], "firstAnnulus": 2 + k * (n - 1), "nodes": n} for k in range(3)
    ]
    assert len(str(curve["nodes"])) == digits + 1


# Measured at about 0.25 MB on a first call in a fresh process and 0.07 MB
# after it; the per-node list this replaced needed ~1.5 MB at twists of 10**4.
ANALYZE_HUGE_TWISTS_PEAK_BYTES = 1_000_000


def test_analyze_of_huge_twists_is_small():
    raw = dumps_canonical(graph_to_json(theta_graph(twists=(10**9, 10**9, 1)))).encode("utf-8")
    tracemalloc.start()
    try:
        code, out, err = run_main(["analyze", "--all"], raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert len(out.encode("utf-8")) < 4096
    assert peak < ANALYZE_HUGE_TWISTS_PEAK_BYTES
    assert json.loads(out)["result"]["nodalCurve"]["nodes"] == 2 * 10**9 + 1


def test_package_and_project_versions_agree():
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    version = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE)
    assert version and version[1] == singlocus.__version__


def test_golden_corpus_is_byte_identical():
    # Exit code and stdout SHA-256 of each case in tests/golden.py.
    assert golden.mismatches() == []


def test_one_canonical_dump_per_report(monkeypatch):
    # The report is encoded by one call.
    raw = dumps_canonical(graph_to_json(theta_graph(twists=(40, 3, 1)))).encode("utf-8")
    counts = count_calls(monkeypatch, ("dumps_canonical",))
    code, out, _ = run_main(["analyze", "--all"], raw)
    assert code == 0
    assert json.loads(out)["result"]["nodalCurve"]["nodes"] == 44
    assert counts == {"dumps_canonical": 1}
