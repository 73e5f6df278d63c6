"""The share of start-up that compiling the package from source takes
when no bytecode cache is written.

Per module of src/singlocus, prints its token count and the least of 5
in-process ``compile()`` times, then their sum over the modules that
``python -m singlocus analyze --all --example p3`` runs (read from
``sys.modules`` after running it in-process, plus ``__main__``).

Run from the repository root (about 1 s on a shared 2-vCPU host)::

    PYTHONPATH=src:tests python tests/ci/compile_time.py
"""

import io
import os
import pathlib
import runpy
import sys
import time
import tokenize
import types

sys.argv = ["singlocus", "analyze", "--all", "--example", "p3", "--output", os.devnull]
try:
    runpy.run_module("singlocus", run_name="__main__")
except SystemExit:
    pass
ran = {name for name, m in sys.modules.items() if name.startswith("singlocus") and type(m) is types.ModuleType}
ran.add("singlocus.__main__")  # run by runpy, which does not keep it in sys.modules
total = 0.0
for path in sorted(pathlib.Path("src/singlocus").glob("*.py")):
    source = path.read_text()
    tokens = sum(1 for _ in tokenize.generate_tokens(io.StringIO(source).readline))
    seconds = []
    for _ in range(5):
        start = time.perf_counter()
        compile(source, str(path), "exec")
        seconds.append(time.perf_counter() - start)
    name = "singlocus" if path.stem == "__init__" else f"singlocus.{path.stem}"
    total += min(seconds) * (name in ran)
    print(f"{path}: {tokens} tokens, compile() {min(seconds) * 1000:.2f} ms (least of 5)")
print(f"Compile time of the {len(ran)} modules that analyze --all --example p3 runs: {total * 1000:.1f} ms")
