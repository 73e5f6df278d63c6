"""Exact integer linear algebra: Smith normal form, cokernels, cycle bases.

Everything here works over Python's arbitrary-precision integers; no
floating point is ever used.  All values are immutable and all functions
are pure, so the module is safe to use from multiple threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .errors import DisconnectedGraph


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix stored row-major as a flat tuple."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, tuple(int(x) for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        a, b = self.to_rows(), other.to_rows()
        out = [
            [sum(a[i][k] * b[k][j] for k in range(self.cols)) for j in range(other.cols)]
            for i in range(self.rows)
        ]
        return IntMatrix(self.rows, other.cols, tuple(x for r in out for x in r))


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization ``left * a * right == diag`` by unimodular transforms.

    ``diagonal`` has length ``min(rows, cols)``; each entry is non-negative,
    divides the next, and zeros trail.
    """

    diagonal: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix


def _egcd(p: int, q: int) -> tuple[int, int, int]:
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


def snf(m: IntMatrix) -> SmithForm:
    """Smith normal form with transforms.

    Pivot selection: smallest absolute nonzero entry of the working
    submatrix, ties broken in row-major order.  Rows and columns are
    cleared with extended-gcd combinations (determinant-one 2x2 blocks),
    which keeps the transform entries from blowing up; the whole
    procedure is deterministic.
    """
    nr, nc = m.rows, m.cols
    a = m.to_rows()
    left = IntMatrix.identity(nr).to_rows()
    right = IntMatrix.identity(nc).to_rows()

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        if i != j:
            for r in a:
                r[i], r[j] = r[j], r[i]
            for r in right:
                r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        ad, as_ = a[dst], a[src]
        for k in range(nc):
            ad[k] += q * as_[k]
        ld, ls = left[dst], left[src]
        for k in range(nr):
            ld[k] += q * ls[k]

    def gcd_rows(t, i):
        # Replace rows (t, i) by a unimodular combination putting
        # gcd(a[t][t], a[i][t]) at (t, t) and 0 at (i, t).
        p, b = a[t][t], a[i][t]
        if b % p == 0:
            add_row(i, t, -(b // p))
            return
        g, x, y = _egcd(p, b)
        u, v = -(b // g), p // g  # det [[x, y], [u, v]] = 1
        for mat in (a, left):
            rt, ri = mat[t], mat[i]
            for k in range(len(rt)):
                rt[k], ri[k] = x * rt[k] + y * ri[k], u * rt[k] + v * ri[k]

    def gcd_cols(t, j):
        p, b = a[t][t], a[t][j]
        if b % p == 0:
            q = -(b // p)
            for r in a:
                r[j] += q * r[t]
            for r in right:
                r[j] += q * r[t]
            return
        g, x, y = _egcd(p, b)
        u, v = -(b // g), p // g
        for mat in (a, right):
            for r in mat:
                r[t], r[j] = x * r[t] + y * r[j], u * r[t] + v * r[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    def find_pivot(t):
        best = None
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                v = row[j]
                if v != 0 and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if best[0] == 1:
                        return best[1], best[2]
        return None if best is None else (best[1], best[2])

    t = 0
    while t < min(nr, nc):
        pos = find_pivot(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    gcd_rows(t, i)
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    gcd_cols(t, j)
            # Column clearing can repopulate the pivot column; |pivot|
            # shrinks to a proper divisor whenever that happens, so the
            # alternation terminates.
            if all(a[i][t] == 0 for i in range(t + 1, nr)):
                break
        # Divisibility sweep: the pivot must divide every remaining entry.
        stray = None
        for i in range(t + 1, nr):
            row = a[i]
            for j in range(t + 1, nc):
                if row[j] % a[t][t] != 0:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            add_row(t, stray, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    diag = []
    for k in range(min(nr, nc)):
        diag.append(a[k][k] if k < t else 0)
    return SmithForm(
        tuple(diag),
        IntMatrix.from_rows(left) if nr else IntMatrix(0, 0, ()),
        IntMatrix.from_rows(right) if nc else IntMatrix(0, 0, ()),
    )


def cokernel_abelian_group(m: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Cokernel of the column lattice acting on ``Z^rows``.

    Rows index generators and columns index relations, so the result is
    ``Z^rows / span(columns)``: a free rank plus invariant factors > 1.

    Sparse unit-pivot elimination first (Dumas-Saunders-Villard, J. Symb.
    Comp. 32, 2001): while some entry is +-1, take the one of least
    Markowitz cost (entries in its column - 1) * (entries in its row - 1),
    ties to the lowest (column, row).  Adding multiples of its column to
    the others clears its row; then its row is a generator killed by its
    column alone, so both are dropped and the rank grows by one.  Only
    the residue goes to :func:`snf`, of which only the diagonal is read.
    """
    cols: dict[int, dict[int, int]] = {j: {} for j in range(m.cols)}
    row_cols: dict[int, set[int]] = {}
    for idx, v in enumerate(m.entries):
        if v:
            i, j = divmod(idx, m.cols)
            cols[j][i] = v
            row_cols.setdefault(i, set()).add(j)

    rank = 0
    while True:
        # Columns are scanned in index order, so the first column that
        # holds a cost-0 pivot wins and the scan stops there.
        best = None
        for j, col in cols.items():
            col_cost = len(col) - 1
            for i, v in col.items():
                if v == 1 or v == -1:
                    cost = col_cost * (len(row_cols[i]) - 1)
                    if best is None or cost < best[0] or (cost == best[0] and (j, i) < best[1:]):
                        best = (cost, j, i)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, j, i = best
        pivot_col = cols.pop(j)
        unit = pivot_col.pop(i)
        for r in pivot_col:
            row_cols[r].discard(j)
        for k in row_cols.pop(i) - {j}:
            col = cols[k]
            f = col.pop(i) * unit
            for r, v in pivot_col.items():
                x = col.get(r, 0) - f * v
                if x:
                    if r not in col:
                        row_cols[r].add(k)
                    col[r] = x
                elif r in col:
                    del col[r]
                    row_cols[r].discard(k)
        rank += 1

    rest_rows = sorted(i for i, js in row_cols.items() if js)
    rest_cols = [col for col in cols.values() if col]
    residue = IntMatrix(
        len(rest_rows),
        len(rest_cols),
        tuple(col.get(i, 0) for i in rest_rows for col in rest_cols),
    )
    diagonal = snf(residue).diagonal
    rank += sum(1 for d in diagonal if d != 0)
    return m.rows - rank, tuple(d for d in diagonal if d > 1)


def _spanning_forest(n: int, pairs: Sequence[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Union-find over ``pairs`` taken in order.

    Returns the component label of each vertex (labels numbered by their
    smallest vertex) and the indices of the pairs that joined two
    components, i.e. the lowest-index-first spanning forest.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for idx, (u, v) in enumerate(pairs):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append(idx)
    labels: dict[int, int] = {}
    return [labels.setdefault(find(v), len(labels)) for v in range(n)], tree


def _bfs_parents(adjacency: dict[int, list[tuple]], root: int) -> dict[int, tuple]:
    """Breadth-first search from ``root`` over ``adjacency[x] = [(y, *link)]``.

    Returns ``{y: (x, *link)}`` for every vertex reached other than the
    root, in visiting order (so each parent comes before its children).
    """
    prev: dict[int, tuple] = {}
    seen = {root}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y, *link in adjacency[x]:
            if y not in seen:
                seen.add(y)
                prev[y] = (x, *link)
                queue.append(y)
    return prev


def cycle_basis(
    num_vertices: int, edges: Sequence[tuple[int, int]]
) -> list[list[tuple[int, int]]]:
    """Fundamental cycles of a connected multigraph.

    The spanning tree grows lowest-edge-index-first.  For each non-tree
    edge ``e = (u, v)`` the cycle is the tree path ``u -> v`` followed by
    ``e`` traversed backwards, recorded as ``(edge index, sign)`` pairs
    where sign +1 means traversal along the stored ``(u, v)`` direction.
    Self-loops and parallel edges are allowed.
    """
    if num_vertices == 0:
        raise DisconnectedGraph("empty vertex set")
    _, tree = _spanning_forest(num_vertices, edges)
    if len(tree) != num_vertices - 1:
        raise DisconnectedGraph(
            f"graph with {num_vertices} vertices and {len(edges)} edges is not connected"
        )

    adjacency: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(num_vertices)}
    for idx in tree:
        u, v = edges[idx]
        adjacency[u].append((v, idx, +1))
        adjacency[v].append((u, idx, -1))

    def tree_path(src: int, dst: int) -> list[tuple[int, int]]:
        prev = _bfs_parents(adjacency, src)
        path: list[tuple[int, int]] = []
        while dst != src:
            dst, idx, sign = prev[dst]
            path.append((idx, sign))
        path.reverse()
        return path

    in_tree = set(tree)
    cycles = []
    for idx, (u, v) in enumerate(edges):
        if idx not in in_tree:
            cycles.append(tree_path(u, v) + [(idx, -1)])
    return cycles
