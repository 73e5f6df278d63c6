"""Growth exponents (``tests/growth.py``) of the known super-linear paths.

A linear path gives about 1, these about 2-3, and the output-byte slope
of the pic section on the 10-digit ladders is about 1.9.  Each becomes a
tier-1 bound with its fix.  Then the integer-size sweep: one integer
field of a fixed graph grows from 10 to 4000 digits, and each path's
time exponent is taken against the input's JSON bytes: about 1.5 for
pic_invariants (ROADMAP item 11), 2.3 for H1, and under 0.5 for the
other two.  Prints one line per path, with no bound.

Run from the repository root (about 10 s on a shared 2-vCPU host)::

    PYTHONPATH=src:tests python tests/ci/growth_exponents.py
"""

import random
from fractions import Fraction

from growth import best_time, exponent, slope
from oracles import blowup_fan
from singlocus.descent import assemble_diagram, pic_invariants
from singlocus.examples import circular_ladder_graph
from singlocus.graphs import CompactEdge, DecoratedGraph, validate_graph
from singlocus.serialize import dumps_canonical, graph_to_json, pic_to_json
from singlocus.toric import Fan, validate_fan
from singlocus.topology import h1_graph_manifold, pencil_localization

fans = {n: blowup_fan(random.Random(1), n)[0] for n in (100, 200, 400)}


def digits10(rng):
    return Fraction(rng.randrange(10**9, 10**10), rng.randrange(10**9, 10**10))


def ladder(n, **draw):
    rng, g = random.Random(n), circular_ladder_graph(n)
    return DecoratedGraph(g.vertices, [e.replace(**{k: f(rng) for k, f in draw.items()}) for e in g.edges])


paths = [
    ("validate_fan, every other cone of 100-400-step blowups", lambda n: Fan(fans[n].rays, fans[n].cones[::2]), validate_fan, fans),
    ("pic_invariants, 10-digit scalars, 64-512-rung ladders", lambda n: assemble_diagram(ladder(n, holonomy=digits10, base_scalar=digits10)), pic_invariants, (64, 128, 256, 512)),
    ("H1, twists 1..9, 32-128-rung ladders", lambda n: ladder(n, twist=lambda rng: rng.randint(1, 9)), h1_graph_manifold, (32, 64, 128)),
]
for name, make, run, sizes in paths:
    print(f"Growth exponent of {name}: {exponent(make, run, sizes):.2f}")


def pic_bytes(n):
    pic = pic_invariants(assemble_diagram(ladder(n, holonomy=digits10, base_scalar=digits10)))
    return len(dumps_canonical(pic_to_json(pic)))


print(f"Output-byte slope of the pic section, 10-digit scalars, 32-256-rung ladders: "
      f"{slope((n, pic_bytes(n)) for n in (32, 64, 128, 256)):.2f}")


def digits(d):
    return lambda rng: rng.randrange(10 ** (d - 1), 10**d)


def scalars(d):
    return lambda rng: Fraction(digits(d)(rng), digits(d)(rng))


def relabelled(n, d):
    g = circular_ladder_graph(n)
    return DecoratedGraph([[10 ** (d - 1) + h for h in v] for v in g.vertices], [CompactEdge([10 ** (d - 1) + h for h in e.ends]) for e in g.edges])


sweeps = [
    ("pic_invariants, holonomies and base scalars, 8-rung ladder", lambda d: ladder(8, holonomy=scalars(d), base_scalar=scalars(d)), lambda g: pic_invariants(assemble_diagram(g))),
    ("H1, twists, 2-rung ladder", lambda d: ladder(2, twist=digits(d)), h1_graph_manifold),
    ("pencil_localization, twists, 8-rung ladder", lambda d: ladder(8, twist=digits(d)), pencil_localization),
    ("validate_graph, half-edge ids, 8-rung ladder", lambda d: relabelled(8, d), validate_graph),
]
for name, make, run in sweeps:
    points = [(len(dumps_canonical(graph_to_json(make(d)))), best_time(make, run, d)) for d in (10, 40, 160, 640, 4000)]
    print(f"Growth exponent against input bytes of {name}, 10-4000 digits: {slope(points):.2f}")
