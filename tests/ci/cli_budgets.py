"""The CLI budgets: the paper's surfaces at scale through ``python -m
singlocus``, each command within 30 s; exits 1 if any stage missed.

Each case builds one input and feeds it to its pipelines.  A stage of a
pipeline is one child process, ``python -m singlocus ...`` with
``PYTHONPATH=src``, that reads the input or the previous stage's stdout.
A stage must exit within 30 s with its exit code and an empty stderr,
and meet any stdout text or peak-RSS bound that the table names.  The
inputs are ``perfbench/gen.py``'s, seeded with ``random.Random(1)``:

- the prism over a 4003-gon: ``toric extract`` under 150 MB of child
  peak RSS (the linear least-rotation scan; taking the least of all 8006
  rotations of a pole's star peaked at about 280 MB);
- an 8192-rung ladder: ``analyze --h1`` (a presentation whose
  elimination fills in quadratically needs about a minute);
- the 200- and 400-step blowups of P^3: ``toric extract``, then
  ``analyze --h1`` of its output;
- the 1600-step blowup, as is and with its first cone dropped:
  ``validate`` and ``toric extract`` (an incomplete fan skips the linear
  certificate and takes the O(rays x cones) scan);
- the 400-step blowup with every other cone dropped: ``validate`` exits
  0, and ``toric extract`` exits 1 with ``"SplitStar: `` in its stdout,
  as the star of ray 0 splits into chains.

The child peak RSS is ``RUSAGE_CHILDREN``'s ``ru_maxrss``: a running
maximum over the children reaped so far, in which a child's peak starts
at this process's RSS when it is spawned.  So the prism runs first, with
its fan built in a few lines here, and each later input is built just
before its case: the prism's reading is then its child's own.

Prints one line per stage, 12 in all, for example

    a 200-step blowup | toric extract | analyze --h1: exit 0, 0.49 s

and appends ``: MISSED: <why>`` to the line of a stage that missed; the
later stages of its pipeline are not run.  One run each (Python 3.11.7,
shared 2-vCPU host): prism extract 0.66 s and 54 MB; ladder H1 1.15 s;
200-step extract 0.11 s and H1 0.49 s; 400-step extract 0.12 s and H1
3.36 s; 1600-step validate 0.14 s and extract 0.31 s, and with its first
cone dropped 2.02 s and 2.35 s; 400-step with every other cone dropped
1.13 s and 1.18 s.  Each is 9x or more inside its 30 s.

Run from the repository root (about 13 s)::

    PYTHONPATH=src:tests python tests/ci/cli_budgets.py
"""

import json
import os
import random
import resource
import subprocess
import sys
import time

sys.path.insert(0, "perfbench")
import gen  # noqa: E402

SECONDS = 30


def prism():
    m = 4000
    k = m + 3
    rays = [[1, j, 0] for j in range(m + 1)] + [[0, 1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]]
    return {"rays": rays, "cones": [[i, (i + 1) % k, pole] for pole in (k, k + 1) for i in range(k)]}


def blowup(steps, cones=slice(None)):
    fan = gen.blowup_fan(random.Random(1), steps)
    fan["cones"] = fan["cones"][cones]
    return fan


def stage(*command, code=0, says="", peak_mb=None):
    """``python -m singlocus *command``, which must exit ``code`` with
    ``says`` in its stdout, and under ``peak_mb`` of child peak RSS."""
    return command, code, says, peak_mb


# Each case: its name, a function that builds its input, and its pipelines,
# each a list of stages that read the input and then the previous stage's stdout.
EXTRACT, H1, VALIDATE = stage("toric", "extract"), stage("analyze", "--h1"), stage("validate")
CASES = [
    ("the prism over a 4003-gon", prism, [[stage("toric", "extract", peak_mb=150)]]),
    ("an 8192-rung ladder", lambda: gen.ladder(random.Random(1), 8192), [[H1]]),
    ("a 200-step blowup", lambda: blowup(200), [[EXTRACT, H1]]),
    ("a 400-step blowup", lambda: blowup(400), [[EXTRACT, H1]]),
    ("a 1600-step blowup", lambda: blowup(1600), [[VALIDATE], [EXTRACT]]),
    ("a 1600-step blowup with its first cone dropped", lambda: blowup(1600, slice(1, None)),
     [[VALIDATE], [EXTRACT]]),
    ("a 400-step blowup with every other cone dropped", lambda: blowup(400, slice(None, None, 2)),
     [[VALIDATE], [stage("toric", "extract", code=1, says='"SplitStar: ')]]),
]


def run(line, text, command, code, says, peak_mb):
    """Run one stage on ``text`` and print its line; its stdout, or None if it missed."""
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "singlocus", *command], input=text, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": "src"}, timeout=SECONDS)
    except subprocess.TimeoutExpired:
        print(f"{line}: MISSED: no exit within {SECONDS} s", flush=True)
        return None
    line += f": exit {done.returncode}, {time.perf_counter() - start:.2f} s"
    why = []
    if done.returncode != code:
        why.append(f"exit {code} expected")
    if says not in done.stdout:
        why.append(f"no {says!r} in stdout")
    if done.stderr:
        why.append(f"stderr {done.stderr.splitlines()[-1]!r}")
    if peak_mb is not None:
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
        line += f", child peak RSS {peak:.0f} MB"
        if peak >= peak_mb:
            why.append(f"child peak RSS of {peak_mb} MB or more")
    print(line + (f": MISSED: {'; '.join(why)}" if why else ""), flush=True)
    return None if why else done.stdout


missed = False
for name, build, pipelines in CASES:
    data = json.dumps(build())
    for pipeline in pipelines:
        line, text = name, data
        for command, *expected in pipeline:
            line += " | " + " ".join(command)
            if text is None:
                print(f"{line}: not run")
                continue
            text = run(line, text, command, *expected)
            missed |= text is None
sys.exit(missed)
