"""``toric extract`` of the prism over a 4003-gon through the CLI, within
30 s and under 150 MB of child peak RSS; exits 1 past either bound.

Each pole of the prism has a star of 4003 rays.  Taking the least of all
8006 rotations of its cycle peaked at about 280 MB; the linear
least-rotation scan at about 54 MB.  The fan is built here, not from
``tests/oracles.py``, so that this process stays small: a child's peak
RSS can count the pages of its parent at spawn.  Prints one line, for
example

    toric extract of the prism over a 4003-gon: exit 0, 0.47 s, child peak RSS 55 MB

Run from the repository root (about 1 s on a shared 2-vCPU host)::

    PYTHONPATH=src:tests python tests/ci/prism_budget.py
"""

import json
import os
import resource
import subprocess
import sys
import time

m = 4000
k = m + 3
rays = [[1, j, 0] for j in range(m + 1)] + [[0, 1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]]
cones = [[i, (i + 1) % k, pole] for pole in (k, k + 1) for i in range(k)]
command = [sys.executable, "-m", "singlocus", "toric", "extract"]
start = time.perf_counter()
done = subprocess.run(command, input=json.dumps({"rays": rays, "cones": cones}), text=True,
                      stdout=subprocess.DEVNULL, env={**os.environ, "PYTHONPATH": "src"}, timeout=30)
seconds = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
print(f"toric extract of the prism over a {k}-gon: exit {done.returncode}, {seconds:.2f} s, child peak RSS {peak_mb:.0f} MB")
sys.exit(done.returncode != 0 or peak_mb >= 150)
