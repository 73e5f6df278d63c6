"""Independent oracles used by the test suite.

Nothing here shares code with the implementation paths it checks: the
Smith-form oracle uses gcds of minors via fraction-free determinants, and
the cokernel oracle enumerates the quotient group explicitly with a
Hermite-style membership test, and the pencil oracle builds the nodal
curve one annulus at a time.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


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
