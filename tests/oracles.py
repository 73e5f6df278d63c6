"""Independent oracles used by the test suite.

Nothing here shares code with the implementation paths it checks: the
Smith-form oracles are ``snf``, which diagonalizes over Z with unimodular
transforms that the tests multiply back, and the gcds of minors via
fraction-free determinants, all on matrices given as lists of rows, and
the cokernel oracle enumerates the quotient group explicitly with a
Hermite-style membership test, the pencil oracle builds the nodal
curve one annulus at a time and the incidence expanders rebuild the same
per-pair map from a report's chains or its JSON items one node at a
time, the fan oracle finds cone coordinates with rational Cramer's rule,
the wall oracle reads each self-intersection off the 2D relation in a
star fan (a basis completion per wall end), the anticanonical-degree
oracle solves the 3D wall relation on a 2x2 minor, and
the w1 and Pic oracles multiply along the explicit cycles of
``cycle_basis``, read off ``spanning_tree``, which builds the same
lowest-edge-index tree by relabelling components and walks it level by
level; ``trivializing_gauge`` takes its potentials along that tree too.
The presentation oracle builds the H1 relations from each edge's stored
direction with generators numbered per vertex, and the F_p-rank oracle
eliminates rows modulo p.  The face-walk oracle sorts the orbits of its
own walk step, drops a mirror by comparing whole orbits as sets and
rotates each walk to its least state.  The category oracle scans every
arrow name for the arrows composable with each one, and the cycle oracle
takes the least of all rotations of a cycle and of its reverse.
``blowup_fan``, ``prism_fan`` and ``random_multigraph`` generate test
inputs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Optional, Sequence

from singlocus.descent import PicInvariants
from singlocus.errors import DisconnectedGraph, Record
from singlocus.graphs import CompactEdge, DecoratedGraph, Leg, flip_vertex, orientation_gauge
from singlocus.intlinalg import SparseColumns
from singlocus.toric import Fan

from models import EdgeAut, compose_edge_aut, edge_aut_inverse


def zero_matrix(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def identity_matrix(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if any(len(row) != len(b) for row in a):
        raise ValueError("dimension mismatch")
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def columns(rows: list[list[int]], ncols: int) -> SparseColumns:
    """The matrix with these rows and ``ncols`` columns, which a matrix
    with no rows does not show, as the library's ``SparseColumns``."""
    return SparseColumns(len(rows), tuple(
        {i: x for i, row in enumerate(rows) if (x := row[j])} for j in range(ncols)
    ))


def egcd(p: int, q: int) -> tuple[int, int, int]:
    """g, x, y with x*p + y*q = g = gcd(p, q) >= 0.

    Iterative Euclid with Python's floor quotients; the coefficients are
    those of the recursion ``egcd(p, q) = (g, y, x - (p // q) * y)`` over
    ``egcd(q, p % q)``, ending in ``(|p|, sign p, 0)`` at ``q == 0``.
    """
    x0, y0, x1, y1 = 1, 0, 0, 1  # p0 = x0*p + y0*q and q0 = x1*p + y1*q
    while q:
        k, r = divmod(p, q)
        p, q = q, r
        x0, y0, x1, y1 = x1, y1, x0 - k * x1, y0 - k * y1
    if p < 0:
        return (-p, -x0, -y0)
    return (p, x0, y0)


class SmithForm(Record):
    """Diagonalization ``left * a * right == diag`` by unimodular transforms.

    ``diagonal`` has length ``min(rows, cols)``; each entry is non-negative,
    divides the next, and zeros trail.
    """

    diagonal: tuple[int, ...]
    left: list[list[int]]
    right: list[list[int]]


def _clear_below(a: list[list[int]], t: int, companion: list[list[int]]) -> bool:
    """Zero ``a[i][t]`` for i > t by row operations, which the rows of
    ``companion`` undergo too.  Returns True when an ``egcd`` 2x2 block
    was needed: then the pivot ``a[t][t]`` shrank to a proper divisor of
    itself and row t changed."""
    shrank = False
    for i in range(t + 1, len(a)):
        p, b = a[t][t], a[i][t]
        if not b:
            continue
        if b % p == 0:
            x, y, u, v = 1, 0, -(b // p), 1
        else:
            g, x, y = egcd(p, b)
            u, v = -(b // g), p // g  # det [[x, y], [u, v]] = 1
            shrank = True
        for mat in (a, companion):
            top, row = mat[t], mat[i]
            if y:
                mat[t] = [x * e + y * f for e, f in zip(top, row)]
            mat[i] = [u * e + v * f for e, f in zip(top, row)]
    return shrank


def snf(rows: list[list[int]]) -> SmithForm:
    """Smith normal form over Z with transforms, of the matrix with these rows.

    Step t moves the nonzero entry of least absolute value (first in
    row-major order) to (t, t) and clears row and column t with
    determinant-one 2x2 blocks, on the matrix and its transpose, which the
    left transform and the transposed right transform undergo too.  While
    the pivot misses an entry left, that entry's row is added to row t
    and the clearing repeats; each repeat shrinks the pivot to a proper
    divisor, so the step ends.
    """
    nr, nc = len(rows), len(rows[0]) if rows else 0
    a = [list(row) for row in rows]
    left = identity_matrix(nr)
    right_t = identity_matrix(nc)  # transposed as it is built
    diag = []
    for t in range(min(nr, nc)):
        entries = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
        if not entries:
            break
        _, i, j = min(entries)
        a[t], a[i] = a[i], a[t]
        left[t], left[i] = left[i], left[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        right_t[t], right_t[j] = right_t[j], right_t[t]
        while True:
            _clear_below(a, t, left)
            a_t = [list(c) for c in zip(*a)]
            shrank = _clear_below(a_t, t, right_t)
            a = [list(r) for r in zip(*a_t)]
            if shrank:  # the column blocks refilled column t
                continue
            stray = next((r for r in range(t + 1, nr) if any(x % a[t][t] for x in a[r])), None)
            if stray is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[stray])]
            left[t] = [x + y for x, y in zip(left[t], left[stray])]
        if a[t][t] < 0:
            a[t], left[t] = [-x for x in a[t]], [-x for x in left[t]]
        diag.append(a[t][t])
    return SmithForm(
        tuple(diag) + (0,) * (min(nr, nc) - len(diag)), left, [list(c) for c in zip(*right_t)]
    )


def spanning_tree(
    num_vertices: int, edges: Sequence[tuple[int, int]]
) -> dict[int, tuple[int, int]]:
    """The lowest-edge-index spanning tree of a connected multigraph, as
    ``{vertex: (parent, edge index)}`` breadth-first from vertex 0, each
    vertex's children in edge order.

    Each edge in index order joins the tree when its ends carry different
    component labels, and then one label replaces the other everywhere.
    The tree is walked one level at a time, scanning its edges in order.
    Raises ``DisconnectedGraph`` unless one label is left.
    """
    label = list(range(num_vertices))
    tree = []
    for idx, (u, v) in enumerate(edges):
        if label[u] != label[v]:
            old = label[v]
            label = [label[u] if x == old else x for x in label]
            tree.append(idx)
    if len(set(label)) != 1:
        raise DisconnectedGraph("graph is not connected")
    parents: dict[int, tuple[int, int]] = {}
    level = [0]
    while level:
        below = []
        for x in level:
            for idx in tree:
                u, v = edges[idx]
                for end, other in ((u, v), (v, u)):
                    if end == x and other != 0 and other not in parents:
                        parents[other] = (x, idx)
                        below.append(other)
        level = below
    return parents


def cycle_basis(
    num_vertices: int, edges: Sequence[tuple[int, int]]
) -> list[list[tuple[int, int]]]:
    """Fundamental cycles of a connected multigraph.

    The tree is :func:`spanning_tree`.  For each non-tree edge
    ``e = (u, v)`` the cycle is the tree path ``u -> v`` followed by
    ``e`` traversed backwards, recorded as ``(edge index, sign)`` pairs
    where sign +1 means traversal along the stored ``(u, v)`` direction.
    The path climbs from u and from v towards vertex 0 until the two
    climbs meet.  Self-loops and parallel edges are allowed.  The library
    reads cycle values off potentials along the same tree; this is their
    explicit form.
    """
    tree = spanning_tree(num_vertices, edges)

    def climb(x: int) -> list[tuple[int, int, int]]:
        """``(vertex, edge index, sign)`` per step up from ``x``; sign +1
        when the edge is stored parent -> vertex."""
        steps = []
        while x != 0:
            parent, idx = tree[x]
            steps.append((x, idx, 1 if edges[idx][0] == parent else -1))
            x = parent
        return steps

    in_tree = {idx for _, idx in tree.values()}
    cycles = []
    for idx, (u, v) in enumerate(edges):
        if idx in in_tree:
            continue
        up, down = climb(u), climb(v)
        while up and down and up[-1] == down[-1]:
            up.pop()
            down.pop()
        path = [(i, -sign) for _, i, sign in up] + [(i, sign) for _, i, sign in reversed(down)]
        cycles.append(path + [(idx, -1)])
    return cycles


def det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minors_gcd(rows: list[list[int]], k: int) -> int:
    """gcd of all k x k minors (0 if all vanish)."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    g = 0
    for rsel in combinations(range(nr), k):
        for csel in combinations(range(nc), k):
            sub = [[rows[i][j] for j in csel] for i in rsel]
            g = gcd(g, abs(det_bareiss(sub)))
    return g


def smith_diagonal_oracle(rows: list[list[int]]) -> list[int]:
    """Invariant factors from the classical gcd-of-minors formula."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = minors_gcd(rows, k)
        if g == 0:
            out.extend([0] * (min(nr, nc) - len(out)))
            break
        out.append(g // prev)
        prev = g
    return out


def dense_relations(m) -> list[list[int]]:
    """The rows of the relation columns of ``plumbing_presentation``, in
    the presentation's numbering."""
    return [[c.get(i, 0) for c in m.columns] for i in range(m.rows)]


def stored_direction_relations(g) -> list[list[int]]:
    """H1 relations of an orientable graph with generators b1, b2, f of
    vertex v as rows 3v, 3v + 1, 3v + 2 and, per compact edge stored
    from (v, position i) to (w, position j), the columns

        B(w, j) + B(v, i)   and   f_w - f_v - n_e * B(v, i),

    where B is b1, b2 or -b1 - b2 - f at position 0, 1 or 2.  This is the
    Mayer-Vietoris form, built from the cyclic positions, that the
    vertex-edge presentation of ``plumbing_presentation`` is checked
    against."""
    g = flip_each(g, orientation_gauge(g))
    vertex_of = {h: v for v, halves in enumerate(g.vertices) for h in halves}
    position_of = {h: p for halves in g.vertices for p, h in enumerate(halves)}

    def add_cuff(column, h, sign):
        v, p = vertex_of[h], position_of[h]
        for r in ((3 * v,), (3 * v + 1,), (3 * v, 3 * v + 1, 3 * v + 2))[p]:
            column[r] = column.get(r, 0) + (sign if p < 2 else -sign)

    relations = []
    for _, e in g.compact_edges():
        h_v, h_w = e.ends
        base: dict[int, int] = {}
        add_cuff(base, h_w, 1)
        add_cuff(base, h_v, 1)
        fiber = {3 * vertex_of[h_w] + 2: 1}
        fiber[3 * vertex_of[h_v] + 2] = fiber.get(3 * vertex_of[h_v] + 2, 0) - 1
        add_cuff(fiber, h_v, -e.twist)
        relations += [base, fiber]
    return [[c.get(i, 0) for c in relations] for i in range(3 * len(g.vertices))]


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p: each row is reduced against the echelon rows kept
    so far, keyed by leading column, and kept if anything is left."""
    echelon: dict[int, dict[int, int]] = {}
    for entries in rows:
        row = {j: x % p for j, x in enumerate(entries) if x % p}
        while row:
            lead = min(row)
            if lead not in echelon:
                echelon[lead] = row
                break
            pivot_row = echelon[lead]
            q = row[lead] * pow(pivot_row[lead], -1, p) % p
            for j, x in pivot_row.items():
                y = (row.get(j, 0) - q * x) % p
                if y:
                    row[j] = y
                else:
                    row.pop(j, None)
    return len(echelon)


def check_fp_ranks(rows: list[list[int]], free: int, torsion, primes=(2, 3, 5, 7, 11, 13)) -> None:
    """Assert dim_Fp of ``Z^rows / span(columns)`` tensored with F_p, which
    is rows - rank_p, equals free + #{d in torsion : p | d} for each p."""
    for p in primes:
        assert len(rows) - rank_mod_p(rows, p) == free + sum(1 for d in torsion if d % p == 0), p


class LatticeMembership:
    """Column-style integer elimination giving membership in a column span."""

    def __init__(self, rows: list[list[int]]):
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        cols = [[rows[i][j] for i in range(nr)] for j in range(nc)]
        self.nr = nr
        self.basis: list[list[int]] = []  # echelon columns, pivot rows increasing
        self.pivots: list[int] = []
        for col in cols:
            self._insert(col)

    def _insert(self, col: list[int]) -> None:
        col = col[:]
        while True:
            lead = next((i for i, x in enumerate(col) if x != 0), None)
            if lead is None:
                return
            placed = False
            for idx, p in enumerate(self.pivots):
                if p == lead:
                    a, b = self.basis[idx][lead], col[lead]
                    # Combine so the stored column keeps gcd(a, b) at the pivot.
                    g = gcd(a, b)
                    # Extended gcd by iteration.
                    x0, x1, y0, y1 = 1, 0, 0, 1
                    aa, bb = a, b
                    while bb:
                        q = aa // bb
                        aa, bb = bb, aa - q * bb
                        x0, x1 = x1, x0 - q * x1
                        y0, y1 = y1, y0 - q * y1
                    new_basis = [
                        x0 * self.basis[idx][i] + y0 * col[i] for i in range(self.nr)
                    ]
                    new_col = [
                        (-b // g) * self.basis[idx][i] + (a // g) * col[i]
                        for i in range(self.nr)
                    ]
                    self.basis[idx] = new_basis
                    col = new_col
                    placed = True
                    break
            if not placed:
                pos = 0
                while pos < len(self.pivots) and self.pivots[pos] < lead:
                    pos += 1
                self.pivots.insert(pos, lead)
                self.basis.insert(pos, col)
                return

    def contains(self, vec: list[int]) -> bool:
        v = vec[:]
        for idx, p in enumerate(self.pivots):
            if v[p] != 0:
                if v[p] % self.basis[idx][p]:
                    return False
                q = v[p] // self.basis[idx][p]
                for i in range(self.nr):
                    v[i] -= q * self.basis[idx][i]
        return all(x == 0 for x in v)


def enumerate_cokernel(rows: list[list[int]], cap: int = 201):
    """BFS enumeration of Z^rows / column span; None if larger than cap.

    Returns (order, kill_counts) where kill_counts[m] is the number of
    elements annihilated by m, for every divisor m of the order.
    """
    nr = len(rows)
    lattice = LatticeMembership(rows)
    reps: list[list[int]] = [[0] * nr]

    def known(v):
        return any(lattice.contains([v[i] - r[i] for i in range(nr)]) for r in reps)

    frontier = [[0] * nr]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(nr):
                for delta in (1, -1):
                    w = v[:]
                    w[i] += delta
                    if not known(w):
                        reps.append(w)
                        nxt.append(w)
                        if len(reps) > cap:
                            return None
        frontier = nxt
    order = len(reps)
    divisors = [m for m in range(1, order + 1) if order % m == 0]
    kill_counts = {}
    for m in divisors:
        kill_counts[m] = sum(
            1 for r in reps if lattice.contains([m * x for x in r])
        )
    return order, kill_counts


def pencil_incidence_oracle(g) -> dict[tuple[int, int], int]:
    """The nodal curve's incidence built one annulus at a time.

    Main pieces are the components of the twist-0 subgraph, numbered by
    their smallest vertex; each cut edge of twist n contributes the chain
    u, s, s + 1, ..., s + n - 2, v of n nodes, with its annuli numbered
    after the main pieces and after the annuli of earlier edges.
    """
    vertex_of = {h: v for v, halves in enumerate(g.vertices) for h in halves}
    compact = [
        (vertex_of[e.ends[0]], vertex_of[e.ends[1]], e.twist)
        for e in g.edges
        if hasattr(e, "ends")
    ]
    neighbours: dict[int, list[int]] = {v: [] for v in range(len(g.vertices))}
    for u, v, twist in compact:
        if twist == 0:
            neighbours[u].append(v)
            neighbours[v].append(u)
    label: dict[int, int] = {}
    for start in range(len(g.vertices)):
        if start in label:
            continue
        piece = len(set(label.values()))
        stack = [start]
        while stack:
            x = stack.pop()
            if x not in label:
                label[x] = piece
                stack.extend(neighbours[x])
    sphere = len(set(label.values()))
    incidence: dict[tuple[int, int], int] = {}
    for u, v, twist in compact:
        if twist <= 0:
            continue
        chain = [label[u]]
        for _ in range(twist - 1):
            chain.append(sphere)
            sphere += 1
        chain.append(label[v])
        for a, b in zip(chain, chain[1:]):
            key = (min(a, b), max(a, b))
            incidence[key] = incidence.get(key, 0) + 1
    return incidence


def _chain_incidence(runs) -> dict[tuple[int, int], int]:
    """Node count per pair (a, b), a <= b, in sorted order, of runs
    (u, first annulus f, node count n, v): the chain u, f, ..., f + n - 2, v
    of n nodes.  This holds one entry per node, so use it on small curves."""
    counts: dict[tuple[int, int], int] = {}
    for u, first, nodes, v in runs:
        chain = [u, *range(first, first + nodes - 1), v]
        for a, b in zip(chain, chain[1:]):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def incidence(report) -> dict[tuple[int, int], int]:
    """The per-pair incidence of a ``NodalCurveReport``, from its chains."""
    return _chain_incidence((u, first, count + 1, v) for u, first, count, v in report.chains)


def expand_incidence(items) -> dict[tuple[int, int], int]:
    """The per-pair incidence of a report's ``nodalCurve.incidence`` list,
    one ``{"ends": [u, v], "firstAnnulus": f, "nodes": n}`` item per cut edge."""
    return _chain_incidence((x["ends"][0], x["firstAnnulus"], x["nodes"], x["ends"][1]) for x in items)


def per_pair_incidence(items) -> list[dict]:
    """The ``nodalCurve.incidence`` list as written before it became
    run-length: one ``{"nodes", "pair"}`` item per pair, sorted by pair."""
    return [{"nodes": n, "pair": [a, b]} for (a, b), n in expand_incidence(items).items()]


def w1_oracle(g) -> list[int]:
    """Z/2 sum of the reversing flags around each cycle of ``cycle_basis``."""
    compact = [e for _, e in g.compact_edges()]
    w1 = []
    for cycle in cycle_basis(len(g.vertices), g.compact_pairs):
        total = 0
        for edge_idx, _sign in cycle:
            if compact[edge_idx].reversing:
                total ^= 1
        w1.append(total)
    return w1


def face_walks_oracle(g) -> tuple[tuple[int, ...], ...]:
    """The face walks of ``dual_surface``, found the long way round.

    Every (half-edge, direction) state, in sorted half-edge order with
    +1 first, starts an orbit of the walk step unless an earlier orbit
    holds it.  The orbits are sorted, those with a +1 state first, then
    by least state in (h, -d) order; each is taken unless the set of its
    states' mirrors, (partner, d if reversing else -d), was taken
    already; a taken orbit is rotated to start at its least state.
    """
    vertex_of = {h: v for v, halves in enumerate(g.vertices) for h in halves}
    position_of = {h: p for halves in g.vertices for p, h in enumerate(halves)}
    partner, reversing = {}, {}
    for _, e in g.compact_edges():
        h1, h2 = e.ends
        partner[h1], partner[h2] = h2, h1
        reversing[h1] = reversing[h2] = e.reversing

    def step(h, d):
        if h in partner:
            h, d = partner[h], (-d if reversing[h] else d)
        return g.vertices[vertex_of[h]][(position_of[h] + d) % 3], d

    def mirror(h, d):
        if h in partner:
            return partner[h], (d if reversing[h] else -d)
        return h, -d

    states = [(h, d) for h in sorted(vertex_of) for d in (1, -1)]
    seen, orbits = set(), []
    for start in states:
        if start in seen:
            continue
        orbit, cur = [], start
        while True:
            seen.add(cur)
            orbit.append(cur)
            cur = step(*cur)
            if cur == start:
                break
        orbits.append(orbit)
    orbits.sort(key=lambda o: (not any(d > 0 for _, d in o), min((h, -d) for h, d in o)))
    taken, walks = set(), []
    for orbit in orbits:
        if frozenset(mirror(h, d) for h, d in orbit) in taken:
            continue
        taken.add(frozenset(orbit))
        least = min(range(len(orbit)), key=lambda i: (orbit[i][0], -orbit[i][1]))
        walks.append(tuple(h for h, _ in orbit[least:] + orbit[:least]))
    return tuple(walks)


def pic_invariants_oracle(d) -> PicInvariants:
    """Signed products of lam_u and lam_x around each cycle of
    ``cycle_basis``, taken in the diagram's stored directions."""
    degree = tuple(e.twist for _, e in d.graph.compact_edges())
    betas, alphas = [], []
    for cycle in cycle_basis(len(d.graph.vertices), d.directions):
        beta = Fraction(1)
        alpha = Fraction(1)
        for edge_idx, sign in cycle:
            lam_x, lam_u = d.transitions[edge_idx]
            beta *= lam_u**sign
            alpha *= lam_x**sign
        betas.append(beta)
        alphas.append(alpha)
    return PicInvariants(degree, tuple(betas), tuple(alphas))


def trivializing_gauge(d) -> Optional[list[Fraction]]:
    """A gauge sending every lam_u to 1, or None when no such gauge exists.

    The gauge is the lam_u potential along :func:`spanning_tree` of the
    diagram's stored directions, the unique solution of
    g_src * lam_u = g_tgt on the tree edges with g[0] = 1; it is returned
    when it solves that equation on every edge.  Twists are untouched by
    gauging, so this does not by itself decide 2-periodicity.
    """
    potential = [Fraction(1)] * len(d.graph.vertices)
    for v, (u, idx) in spanning_tree(len(d.graph.vertices), d.directions).items():
        lam_u = d.transitions[idx][1]
        potential[v] = potential[u] * lam_u if d.directions[idx][0] == u else potential[u] / lam_u
    for (s, t), (_, lam_u) in zip(d.directions, d.transitions):
        if potential[s] * lam_u != potential[t]:
            return None
    return potential


def compose_cycle(d, cycle: Sequence[tuple[int, int]]):
    """Composite of edge transitions along a cycle, earliest edge outermost.

    Each edge's transition is the autoequivalence with eps = -1, n = its
    twist, its two stored scalars and the shift; traversal against the
    stored direction uses the inverse transition.  The discrete part of
    the result is ((-1)^length, signed twist sum); in particular even
    cycles land back in the eps = +1 component.
    """
    twists = [e.twist for _, e in d.graph.compact_edges()]
    result = None
    for edge_idx, sign in cycle:
        aut = EdgeAut(-1, twists[edge_idx], *d.transitions[edge_idx], 1)
        if sign < 0:
            aut = edge_aut_inverse(aut)
        result = aut if result is None else compose_edge_aut(result, aut)
    if result is None:
        raise ValueError("empty cycle")
    return result


def flip_each(g, flips):
    """``flip_vertex`` applied at each vertex with a nonzero flip, in turn."""
    for v, flip in enumerate(flips):
        if flip:
            g = flip_vertex(g, v)
    return g


def _rational(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def random_multigraph(rng, vertices, orientable=False, unit_holonomy=False):
    """A connected trivalent graph on ``vertices`` vertices.

    A random tree joins the vertices; the free half-edges left over are
    paired at random into compact edges (self-loops and parallel edges
    included) or left as legs.  Edge order, each edge's storage direction
    and the half-edge labels are shuffled; twists and scalars are random.
    Reversing flags are random, or come from a 2-colouring of the vertices
    when ``orientable``; holonomies are all 1 when ``unit_holonomy``.
    """
    free = [[3 * v, 3 * v + 1, 3 * v + 2] for v in range(vertices)]
    pairs = []
    for v in range(1, vertices):
        u = rng.choice([u for u in range(v) if free[u]])
        pairs.append((free[u].pop(rng.randrange(len(free[u]))), free[v].pop()))
    rest = [h for hs in free for h in hs]
    rng.shuffle(rest)
    while len(rest) >= 2 and rng.random() < 0.7:
        pairs.append((rest.pop(), rest.pop()))
    label = list(range(3 * vertices))
    rng.shuffle(label)
    colour = [rng.randint(0, 1) for _ in range(vertices)]
    edges = [Leg(label[h]) for h in rest]
    for h1, h2 in pairs:
        if rng.random() < 0.5:
            h1, h2 = h2, h1
        u, v = h1 // 3, h2 // 3
        edges.append(CompactEdge(
            (label[h1], label[h2]),
            twist=rng.randint(-3, 3),
            holonomy=1 if unit_holonomy else _rational(rng),
            base_scalar=_rational(rng),
            reversing=colour[u] != colour[v] if orientable else rng.random() < 0.5,
        ))
    rng.shuffle(edges)
    triples = [tuple(label[h] for h in range(3 * v, 3 * v + 3)) for v in range(vertices)]
    return DecoratedGraph(tuple(triples), tuple(edges))


def blowup_fan(rng, steps):
    """P^3 after ``steps`` random star subdivisions: a point blowup adds
    v1+v2+v3 and splits a cone into 3, a curve blowup adds vi+vj and splits
    the wall's 2 cones into 4 (Cox-Little-Schenck, section 3.3).

    Returns the fan and the sorted wall (i, j) that the last step blew up,
    or None when the last step blew up a point or there was no step; the
    new ray of the last step is the fan's last ray."""
    rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
    cones = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    wall = None
    for _ in range(steps):
        n = len(rays)
        ci = rng.randrange(len(cones))
        if rng.random() < 0.5:
            i, j, k = cones[ci]
            rays.append([a + b + c for a, b, c in zip(rays[i], rays[j], rays[k])])
            cones[ci] = [i, j, n]
            cones += [[i, k, n], [j, k, n]]
            wall = None
            continue
        i, j, a = rng.sample(cones[ci], 3)
        (other,) = [c for c in range(len(cones)) if c != ci and i in cones[c] and j in cones[c]]
        (b,) = [r for r in cones[other] if r not in (i, j)]
        rays.append([x + y for x, y in zip(rays[i], rays[j])])
        cones[ci], cones[other] = [i, n, a], [i, n, b]
        cones += [[j, n, a], [j, n, b]]
        wall = (min(i, j), max(i, j))
    return Fan(rays, cones), wall


def prism_fan(m):
    """The prism over the (m + 3)-gon: the smooth complete 2D fan with rays
    (1, j) for j = 0..m, then (0, 1) and (-1, -1), times the line through
    (0, 0, 1).  Each of the rays (0, 0, 1) and (0, 0, -1), the last two,
    has a star of m + 3 rays."""
    k = m + 3
    rays = [[1, j, 0] for j in range(m + 1)] + [[0, 1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]]
    return Fan(rays, [[i, (i + 1) % k, pole] for pole in (k, k + 1) for i in range(k)])


def canonical_cycle_oracle(values) -> tuple[int, ...]:
    """The least of all rotations of ``values`` and of its reverse."""
    values = list(values)
    return min(
        tuple(seq[shift:] + seq[:shift]) for seq in (values, values[::-1]) for shift in range(len(seq))
    )


def category_violation_oracle(cat) -> Optional[str]:
    """The first category axiom that the tables of ``cat`` break, as the
    message :meth:`FiniteCategory.check` raises, or None.  For each arrow
    it scans every arrow name for the arrows composable with it."""
    arrows, compose, identities = cat.arrows, cat.compose, cat.identities
    if any(obj not in identities for obj in cat.objects) or any(obj not in cat.objects for obj in identities):
        return "identities are not one per object"
    for f, (fs, ft) in arrows.items():
        if fs not in cat.objects or ft not in cat.objects:
            return f"arrow {f} has an end that is not an object"
    for obj, ident in identities.items():
        if arrows.get(ident) != (obj, obj):
            return f"identity of {obj} is not an endo-arrow"
    names = list(arrows)
    for f in names:
        fs, ft = arrows[f]
        if compose.get((identities.get(ft), f)) != f:
            return f"left unit fails for {f}"
        if compose.get((f, identities.get(fs))) != f:
            return f"right unit fails for {f}"
    for f in names:
        fs, ft = arrows[f]
        for h in names:
            hs, ht = arrows[h]
            if hs != ft:
                continue
            hf = compose.get((h, f))
            if arrows.get(hf) != (fs, ht):
                return f"composite {h} o {f} has wrong endpoints"
            for k in names:
                if arrows[k][0] == ht and compose.get((k, hf)) != compose.get((compose.get((k, h)), f)):
                    return f"associativity fails on ({k}, {h}, {f})"
    return None


def _det3(a, b, c) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def fan_violations_oracle(f) -> list[str]:
    """The violations of ``validate_fan``, in its order, with each
    foreign-ray test solved for rational cone coordinates by Cramer's rule
    over every (ray, cone) pair, and overlapping cones found pairwise by a
    search for a separating plane.

    When some pair overlaps, the crossings of a boundary wall with a
    foreign wall are listed, each found by solving for a common point of
    the two walls' relative interiors; an overlap that no such crossing
    shows is reported as ``cones i and j overlap``, which ``validate_fan``
    never says."""
    report = []
    seen = {}
    not_3d = set()
    for i, r in enumerate(f.rays):
        if len(r) != 3:
            report.append(f"ray {i} is not a 3-vector")
            not_3d.add(i)
            continue
        if r == (0, 0, 0) or gcd(gcd(r[0], r[1]), r[2]) != 1:
            report.append(f"ray {i} = {r} not primitive")
        if r in seen:
            report.append(f"ray {i} duplicates ray {seen[r]}")
        else:
            seen[r] = i
    cone_sets = []
    for ci, cone in enumerate(f.cones):
        if len(cone) != 3 or len(set(cone)) != 3:
            report.append(f"cone {ci} does not have three distinct rays")
            continue
        if any(i < 0 or i >= len(f.rays) for i in cone):
            report.append(f"cone {ci} has an out-of-range ray index")
            continue
        if not_3d.intersection(cone):
            continue
        d = _det3(*(f.rays[i] for i in cone))
        if abs(d) != 1:
            report.append(f"non-unimodular cone {ci} (det = {d})")
        if set(cone) in cone_sets:
            report.append(f"cone {ci} duplicates another cone")
        cone_sets.append(set(cone))
    if report:
        return report

    wall_table = {}
    for ci, cone in enumerate(f.cones):
        s = sorted(cone)
        for pair in ((s[0], s[1]), (s[0], s[2]), (s[1], s[2])):
            wall_table.setdefault(pair, []).append(ci)
    for wall, cones in sorted(wall_table.items()):
        if len(cones) > 2:
            report.append(f"wall {wall} belongs to {len(cones)} cones")
            continue
        if len(cones) == 2:
            vi, vj = (f.rays[k] for k in wall)
            sides = []
            for ci in cones:
                (opp,) = set(f.cones[ci]) - set(wall)
                sides.append(_det3(vi, vj, f.rays[opp]))
            if sides[0] * sides[1] >= 0:
                report.append(f"cones {cones[0]} and {cones[1]} overlap across wall {wall}")
    for ri, v in enumerate(f.rays):
        for ci, cone in enumerate(f.cones):
            if ri in cone:
                continue
            r1, r2, r3 = (f.rays[i] for i in cone)
            d = _det3(r1, r2, r3)
            coords = (
                Fraction(_det3(v, r2, r3), d),
                Fraction(_det3(r1, v, r3), d),
                Fraction(_det3(r1, r2, v), d),
            )
            if min(coords) >= 0 and sum(1 for x in coords if x > 0) >= 2:
                report.append(f"ray {ri} lies inside cone {ci}")
    if report:
        return report
    overlapping = [
        (i, j)
        for i, j in combinations(range(len(f.cones)), 2)
        if _cones_overlap([f.rays[k] for k in f.cones[i]], [f.rays[k] for k in f.cones[j]])
    ]
    if not overlapping:
        return report
    crossings = sorted(
        (min(w, x), max(w, x))
        for w, x in combinations(wall_table, 2)
        if 1 in (len(wall_table[w]), len(wall_table[x]))
        and not set(w) & set(x)
        and _walls_cross(*(f.rays[k] for k in w + x))
    )
    if crossings:
        return [f"walls {w} and {x} cross" for w, x in crossings]
    return [f"cones {i} and {j} overlap" for i, j in overlapping]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _cones_overlap(first, second) -> bool:
    """Whether two full-dimensional simplicial cones, given by their rays,
    have meeting interiors.  They do not iff a plane through the origin has
    each weakly on one side.  The normals of such planes form a pointed
    polyhedral cone cut out by one inequality per ray, so if there is one,
    an extreme one is orthogonal to two of the six rays: a facet normal of
    either cone or the cross product of a ray of each."""
    rays = first + second
    for p, q in combinations(rays, 2):
        n = _cross(p, q)
        if n == (0, 0, 0):
            continue
        a = [sum(x * y for x, y in zip(n, r)) for r in first]
        b = [sum(x * y for x, y in zip(n, r)) for r in second]
        if (max(a) <= 0 <= min(b)) or (max(b) <= 0 <= min(a)):
            return False
    return True


def _walls_cross(a, b, c, d) -> bool:
    """Whether the 2D cones (a, b) and (c, d) meet in both relative
    interiors: x a + y b - z c = d with x, y, z > 0, by exact Cramer."""
    m = tuple(-x for x in c)
    det = _det3(a, b, m)
    if det == 0:  # a, b, c coplanar: no point is interior to both
        return False
    x, y, z = (Fraction(_det3(*cols), det) for cols in ((d, b, m), (a, d, m), (a, b, d)))
    return x > 0 and y > 0 and z > 0


def _basis_completion(v) -> tuple:
    """Two vectors completing the primitive v to a basis of Z^3 with
    det(v, w1, w2) = 1, from two extended-gcd steps."""
    a, b, c = v
    g_ab, s, t = egcd(a, b)  # s*a + t*b = g_ab
    g, u, w = egcd(g_ab, c)  # u*g_ab + w*c = 1
    assert g == 1, f"{v} is not primitive"
    if g_ab == 0:
        w1, w2 = (1, 0, 0), (0, 1 if c > 0 else -1, 0)
    else:
        w1, w2 = (-t, s, 0), (-(a // g_ab) * w, -(b // g_ab) * w, u)
    assert _det3(v, w1, w2) == 1
    return w1, w2


def _star_self_intersection(f, ray, wall_ray, opposite) -> int:
    """Self-intersection s of the curve of ``wall_ray`` in the star fan of
    ``ray``, from the 2D relation u1 + u2 + s w = 0 in Z^3 / Z ray, whose
    coordinates come from a basis completion of ``ray``."""
    v = f.rays[ray]
    w1, w2 = _basis_completion(v)

    def project(u):  # u = x v + y w1 + z w2, by Cramer with determinant 1
        return (_det3(v, u, w2), _det3(v, w1, u))

    wbar = project(f.rays[wall_ray])
    u1bar, u2bar = (project(f.rays[k]) for k in opposite)
    total = (u1bar[0] + u2bar[0], u1bar[1] + u2bar[1])
    k = 0 if wbar[0] else 1
    assert wbar[k] and total[k] % wbar[k] == 0, f"star of ray {ray} is not smooth"
    s = -(total[k] // wbar[k])
    assert (total[0] + s * wbar[0], total[1] + s * wbar[1]) == (0, 0)
    return s


def wall_self_intersections_oracle(f, wall) -> tuple[int, int]:
    """Self-intersections (a, b) of the curve of the interior wall
    ``wall = (i, j)``, i < j, in the divisors of i and of j, each computed
    in its own star fan."""
    i, j = wall
    opposite = [k for c in f.cones if i in c and j in c for k in c if k not in wall]
    assert len(opposite) == 2, f"{wall} is not an interior wall"
    return (_star_self_intersection(f, i, j, opposite), _star_self_intersection(f, j, i, opposite))


def anticanonical_degree_oracle(f, wall) -> int:
    """Anticanonical degree 2 - x - y of the curve of the interior wall
    ``wall = (i, j)``, from u1 + u2 = x v_i + y v_j solved by Cramer's rule
    on a nonzero 2x2 minor of (v_i, v_j) and checked in all three
    coordinates; u1, u2 are the rays opposite the wall in its two cones."""
    i, j = wall
    opposite = [k for c in f.cones if i in c and j in c for k in c if k not in wall]
    assert len(opposite) == 2, f"{wall} is not an interior wall"
    vi, vj = f.rays[i], f.rays[j]
    w = [f.rays[opposite[0]][k] + f.rays[opposite[1]][k] for k in range(3)]
    p, q = next((p, q) for p, q in ((0, 1), (0, 2), (1, 2)) if vi[p] * vj[q] != vi[q] * vj[p])
    minor = vi[p] * vj[q] - vi[q] * vj[p]
    x = Fraction(w[p] * vj[q] - w[q] * vj[p], minor)
    y = Fraction(vi[p] * w[q] - vi[q] * w[p], minor)
    assert all(x * vi[k] + y * vj[k] == w[k] for k in range(3)), f"{wall}: no wall relation"
    assert x.denominator == y.denominator == 1, f"{wall}: the wall relation is not integral"
    return int(2 - x - y)
