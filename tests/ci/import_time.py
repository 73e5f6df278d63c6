"""Import time of ``singlocus.cli``, the singlocus modules that a
``validate`` process runs, and the start-up floor.

Prints four kinds of line:

- the ``singlocus.cli`` line of ``python -X importtime -c "import
  singlocus.cli"`` (microseconds, self | cumulative).  The other
  submodules are registered lazily and run on first use, which
  ``-X importtime`` does not see;
- the peak resident memory of a child that imports ``singlocus.cli``,
  the ``VmHWM`` line of its ``/proc/self/status``, as ``VmHWM: N kB``;
- the singlocus modules that ``python -m singlocus validate --example
  theta`` runs, read from ``sys.modules`` after running it in-process;
- the start-up floor: the median wall times of 15 child runs each of
  ``python -c pass``, ``import singlocus.cli`` and ``validate --example
  theta``, taken in turn.  The package is compiled from source in each
  run: its copy has no ``__pycache__`` and none is written.

Run from the repository root (about 3 s on a shared 2-vCPU host)::

    PYTHONPATH=src:tests python tests/ci/import_time.py
"""

import os
import re
import runpy
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types

env = {**os.environ, "PYTHONPATH": "src"}
importtime = subprocess.run(
    [sys.executable, "-X", "importtime", "-c", "import singlocus.cli"],
    env=env, capture_output=True, text=True, check=True,
)
print(*[line for line in importtime.stderr.splitlines() if re.search(r"\| singlocus\.cli$", line)], sep="\n")
vmhwm = """import singlocus.cli
with open("/proc/self/status") as status:
    print(*next(line for line in status if line.startswith("VmHWM")).split())
"""
print(subprocess.run([sys.executable, "-c", vmhwm], env=env, capture_output=True, text=True, check=True).stdout, end="")

sys.argv = ["singlocus", "validate", "--example", "theta", "--output", os.devnull]
try:
    runpy.run_module("singlocus", run_name="__main__")
except SystemExit:
    pass
ran = sorted(name for name, m in sys.modules.items() if name.startswith("singlocus") and type(m) is types.ModuleType)
print("singlocus modules run by python -m singlocus validate --example theta:", *ran)

with tempfile.TemporaryDirectory() as tmp:
    src = shutil.copytree("src", os.path.join(tmp, "src"), ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    commands = {
        "python -c pass": ["-c", "pass"],
        'python -c "import singlocus.cli"': ["-c", "import singlocus.cli"],
        "python -m singlocus validate --example theta": ["-m", "singlocus", "validate", "--example", "theta"],
    }
    times = {name: [] for name in commands}
    for _ in range(15):
        for name, args in commands.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL, check=True)
            times[name].append(time.perf_counter() - start)
for name, seconds in times.items():
    print(f"Median wall time of {name}, 15 runs, no bytecode cache: {statistics.median(seconds) * 1000:.1f} ms")
