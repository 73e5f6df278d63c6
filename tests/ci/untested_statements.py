"""Every statement line of src/ that no line event reaches while tier-1
runs in-process under ``sys.settrace``.

Docstrings and ``def``, ``class`` and import statements are not counted.
Code that runs only in a child process, such as ``__main__.py``, is
listed too, and a line that only some of hypothesis's random draws reach
may come and go between runs.  Prints the count, then one
``path:line`` per statement, for example

    Statements of src/ that no tier-1 test executes: 1
    src/singlocus/__main__.py:5

Run from the repository root (about 2-3 minutes on a shared 2-vCPU host)::

    PYTHONPATH=src:tests python tests/ci/untested_statements.py
"""

import ast
import os
import pathlib
import sys
import threading

import pytest

package = pathlib.Path("src/singlocus")
root = os.path.realpath(package) + os.sep
inside, ran = {}, set()


def local(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return local


def trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in inside:
        inside[name] = os.path.realpath(name).startswith(root)
    return local(frame, event, arg) if inside[name] else None


def statements(body):
    for i, node in enumerate(body):
        docstring = i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
        if not (docstring or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))):
            yield node
        blocks = [getattr(node, field, []) for field in ("body", "orelse", "finalbody")]
        blocks += [part.body for part in getattr(node, "handlers", []) + getattr(node, "cases", [])]
        for block in blocks:
            yield from statements(block)


threading.settrace(trace)
sys.settrace(trace)
try:
    with open(os.devnull, "w") as devnull:
        stdout, sys.stdout = sys.stdout, devnull
        pytest.main(["-q", "-p", "no:cacheprovider"])
finally:
    sys.settrace(None)
    threading.settrace(None)
    sys.stdout = stdout
ran = {(os.path.realpath(name), line) for name, line in ran}
untested = [
    f"{path}:{node.lineno}"
    for path in sorted(package.glob("*.py"))
    for node in statements(ast.parse(path.read_text()).body)
    if (os.path.realpath(path), node.lineno) not in ran
]
print(f"Statements of src/ that no tier-1 test executes: {len(untested)}")
print(*untested, sep="\n")
