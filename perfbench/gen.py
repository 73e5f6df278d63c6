"""Seeded inputs for the benchmark, and the facts its checks compare against.

Nothing here imports singlocus: the inputs and every expected answer are
computed from first principles, so a check never asks the code under
measurement what the right answer is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def _rational(rng: random.Random) -> str:
    p = rng.choice((-1, 1)) * rng.randint(1, 9)
    return f"{p}/{rng.randint(1, 9)}"


def _graph(rng: random.Random, num_vertices: int, pairs, twists) -> dict:
    """A closed trivalent graph; ``pairs`` lists ((vertex, slot), (vertex, slot)).

    Reversing flags come from a random 2-colouring of the vertices, so
    flipping every vertex of one colour gauges them all away: the graph
    stays orientable whatever the seed.
    """
    colour = [rng.randint(0, 1) for _ in range(num_vertices)]
    edges = [
        {
            "kind": "compact",
            "ends": [3 * u + su, 3 * v + sv],
            "twist": twist,
            "holonomy": _rational(rng),
            "baseScalar": _rational(rng),
            "reversing": colour[u] != colour[v],
        }
        for ((u, su), (v, sv)), twist in zip(pairs, twists)
    ]
    return {
        "vertices": [{"halfEdges": [3 * v, 3 * v + 1, 3 * v + 2]} for v in range(num_vertices)],
        "edges": edges,
    }


def _ladder_pairs(rungs: int) -> list:
    # Outer cycle 0..m-1, inner cycle m..2m-1; slots (next, prev, rung).
    m = rungs
    pairs = [((i, 0), ((i + 1) % m, 1)) for i in range(m)]
    pairs += [((m + i, 0), (m + (i + 1) % m, 1)) for i in range(m)]
    pairs += [((i, 2), (m + i, 2)) for i in range(m)]
    return pairs


SHAPES = {
    "theta": (2, [((0, k), (1, k)) for k in range(3)]),
    "k4": (4, [((0, 0), (1, 0)), ((0, 1), (2, 0)), ((0, 2), (3, 0)),
               ((1, 1), (2, 1)), ((1, 2), (3, 1)), ((2, 2), (3, 2))]),
}


def ladder(rng: random.Random, rungs: int) -> dict:
    """Decorated circular ladder with ``rungs`` rungs, twist 0 on every edge."""
    return _graph(rng, 2 * rungs, _ladder_pairs(rungs), [0] * (3 * rungs))


def _split(rng: random.Random, total: int, parts: int, low: int) -> list[int]:
    """``parts`` integers >= ``low`` summing to ``total``, split at random."""
    cuts = sorted(rng.randint(0, total - parts * low) for _ in range(parts - 1))
    bounds = [0, *cuts, total - parts * low]
    return [low + b - a for a, b in zip(bounds, bounds[1:])]


def twisted(rng: random.Random, shape: str, total: int) -> dict:
    """A small closed graph whose positive twists sum to ``total``.

    ``shape`` is ``theta``, ``k4`` or ``ladder<rungs>``.  The sum is fixed
    and only its split over the edges is seeded (every edge gets at least
    half its even share), because the pencil's cost follows the sum: the
    seed changes the values but not the amount of work.
    """
    if shape.startswith("ladder"):
        rungs = int(shape[len("ladder"):])
        num_vertices, pairs = 2 * rungs, _ladder_pairs(rungs)
    else:
        num_vertices, pairs = SHAPES[shape]
    low = total // (2 * len(pairs))
    return _graph(rng, num_vertices, pairs, _split(rng, total, len(pairs), low))


@dataclass(frozen=True)
class GraphFacts:
    """The combinatorics of a decorated graph that the checks rely on."""

    vertices: int
    ends: tuple[tuple[int, int], ...]  # endpoint vertices per compact edge
    twists: tuple[int, ...]  # per compact edge, same order
    leg_vertices: tuple[int, ...]

    @property
    def cycle_rank(self) -> int:
        return len(self.ends) - self.vertices + 1

    @property
    def genus(self) -> int:
        # One pair of pants per vertex (chi = -V), orientable, and one
        # boundary circle per leg: 2 - 2g - legs = -V.
        return (2 + self.vertices - len(self.leg_vertices)) // 2


def graph_facts(graph: dict) -> GraphFacts:
    """Facts of a graph JSON payload (the format the CLI reads)."""
    vertex_of = {h: v for v, vert in enumerate(graph["vertices"]) for h in vert["halfEdges"]}
    ends, twists, legs = [], [], []
    for e in graph["edges"]:
        if e["kind"] == "compact":
            ends.append((vertex_of[e["ends"][0]], vertex_of[e["ends"][1]]))
            twists.append(e.get("twist", 0))
        else:
            legs.append(vertex_of[e["end"]])
    return GraphFacts(len(graph["vertices"]), tuple(ends), tuple(twists), tuple(legs))


# ---------------------------------------------------------------------------
# Fans
# ---------------------------------------------------------------------------

P3_FAN = {
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
    "cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
}
CONIFOLD_FAN = {
    "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
    "cones": [[0, 1, 2], [1, 2, 3]],
}


def blowup_fan(rng: random.Random, steps: int) -> dict:
    """A smooth complete fan: P^3 after ``steps`` random star subdivisions.

    A point blowup adds v1+v2+v3 inside one cone and splits it into 3; a
    curve blowup adds vi+vj on one wall and splits its 2 cones into 4
    (Cox-Little-Schenck, Toric Varieties, section 3.3).  Either way the
    fan gains one ray and two cones and stays smooth and complete, so the
    size depends on ``steps`` alone.
    """
    rays = [list(r) for r in P3_FAN["rays"]]
    cones = [list(c) for c in P3_FAN["cones"]]
    for _ in range(steps):
        n = len(rays)
        ci = rng.randrange(len(cones))
        if rng.random() < 0.5:
            i, j, k = cones[ci]
            rays.append([rays[i][x] + rays[j][x] + rays[k][x] for x in range(3)])
            cones[ci] = [i, j, n]
            cones += [[i, k, n], [j, k, n]]
            continue
        i, j, a = rng.sample(cones[ci], 3)
        (other,) = [c for c in range(len(cones)) if c != ci and i in cones[c] and j in cones[c]]
        (b,) = [r for r in cones[other] if r not in (i, j)]
        rays.append([rays[i][x] + rays[j][x] for x in range(3)])
        cones[ci] = [i, n, a]
        cones[other] = [i, n, b]
        cones += [[j, n, a], [j, n, b]]
    return {"rays": rays, "cones": cones}


def wall_table(fan: dict) -> dict[tuple[int, int], list[int]]:
    """Sorted ray pair -> the cones that contain it, in cone order."""
    table: dict[tuple[int, int], list[int]] = {}
    for ci, cone in enumerate(fan["cones"]):
        for x in range(3):
            pair = tuple(sorted(cone[:x] + cone[x + 1:]))
            table.setdefault(pair, []).append(ci)
    return table


def anticanonical_degree(fan: dict, wall: tuple[int, int], cones: list[int]) -> int:
    """2 + c_i + c_j from the wall relation u1 + u2 + c_i v_i + c_j v_j = 0."""
    i, j = wall
    vi, vj = fan["rays"][i], fan["rays"][j]
    total = [0, 0, 0]
    for ci in cones:
        (opp,) = [r for r in fan["cones"][ci] if r not in wall]
        total = [t + u for t, u in zip(total, fan["rays"][opp])]
    # Solve total = x vi + y vj on the first pair of coordinates whose
    # 2x2 minor is nonzero; smoothness makes x and y integers.
    for p, q in ((0, 1), (0, 2), (1, 2)):
        d = vi[p] * vj[q] - vi[q] * vj[p]
        if d:
            x, rx = divmod(total[p] * vj[q] - total[q] * vj[p], d)
            y, ry = divmod(vi[p] * total[q] - vi[q] * total[p], d)
            if rx or ry or [x * a + y * b for a, b in zip(vi, vj)] != total:
                raise ValueError(f"wall {wall} has no integral wall relation")
            return 2 - x - y
    raise ValueError(f"wall {wall} spans no plane")


def wall_defects(fan: dict) -> dict[tuple[int, int], int]:
    """Defect of every interior wall, as its anticanonical degree."""
    return {
        wall: anticanonical_degree(fan, wall, cones)
        for wall, cones in sorted(wall_table(fan).items())
        if len(cones) == 2
    }


def fan_graph_facts(fan: dict) -> GraphFacts:
    """Facts of the boundary graph of ``fan``: one vertex per cone, one
    compact edge per interior wall with twist = defect, one leg per
    boundary wall."""
    table = wall_table(fan)
    defects = wall_defects(fan)
    return GraphFacts(
        len(fan["cones"]),
        tuple(tuple(table[w]) for w in defects),
        tuple(defects.values()),
        tuple(cones[0] for _, cones in sorted(table.items()) if len(cones) == 1),
    )
