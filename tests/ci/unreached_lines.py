"""Library-only code: the lines of src/ in module-level functions and
methods that no golden CLI case calls.

Runs every case of ``tests/golden.py`` in-process under ``sys.setprofile``
and counts the lines of each function whose first line, or one of whose
decorators, no call event reaches.  Prints the total, then one line per
such function, for example

    Lines of src/ in functions that no golden case calls: 130 (of 1457 in functions)
    src/singlocus/descent.py gauge (16 lines)

Run from the repository root (about 1 minute on a shared 2-vCPU host)::

    PYTHONPATH=src:tests python tests/ci/unreached_lines.py
"""

import ast
import os
import pathlib
import sys

import golden

called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add((os.path.realpath(frame.f_code.co_filename), frame.f_code.co_firstlineno))


def functions(body, prefix=""):
    """Each function of ``body`` with its qualified name."""
    for node in body:
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from functions(node.body, f"{prefix}{node.name}.")


sys.setprofile(profile)
golden.mismatches()
sys.setprofile(None)
total, unreached = 0, []
for path in sorted(pathlib.Path("src/singlocus").glob("*.py")):
    name = os.path.realpath(path)
    for qualname, node in functions(ast.parse(path.read_text()).body):
        starts = [node.lineno] + [d.lineno for d in node.decorator_list]
        lines = node.end_lineno - min(starts) + 1
        total += lines
        if all((name, n) not in called for n in starts):
            unreached.append((path, qualname, lines))
count = sum(lines for _, _, lines in unreached)
print(f"Lines of src/ in functions that no golden case calls: {count} (of {total} in functions)")
for path, qualname, lines in unreached:
    print(f"{path} {qualname} ({lines} lines)")
