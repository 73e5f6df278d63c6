"""Exact integer linear algebra: Smith normal form, cokernels, cycle bases.

Everything here works over Python's arbitrary-precision integers; no
floating point is ever used.  All values are immutable and all functions
are pure, so the module is safe to use from multiple threads.
"""

from __future__ import annotations

from collections import deque
from math import gcd
from typing import Sequence

from .errors import DisconnectedGraph
from .record import Record


class IntMatrix(Record):
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


class SmithForm(Record):
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
    procedure is deterministic.  This is :func:`_diagonalize` over Z.
    """
    left = IntMatrix.identity(m.rows).to_rows()
    right_t = IntMatrix.identity(m.cols).to_rows()  # transposed as it is built
    diag = _diagonalize(m.to_rows(), 0, min(m.rows, m.cols), left, right_t)
    return SmithForm(
        tuple(diag) + (0,) * (min(m.rows, m.cols) - len(diag)),
        IntMatrix.from_rows(left) if m.rows else IntMatrix(0, 0, ()),
        IntMatrix.from_rows([list(c) for c in zip(*right_t)]) if m.cols else IntMatrix(0, 0, ()),
    )


def _least_entry(a: list[list[int]], t: int, key) -> tuple[int, int] | None:
    """Position of the nonzero ``a[i][j]``, i, j >= t, of least ``key``
    (a positive integer), first in row-major order; None if all are 0."""
    best = None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(row)):
            if row[j]:
                k = key(row[j])
                if best is None or k < best[0]:
                    best = (k, i, j)
                    if k == 1:
                        return i, j
    return None if best is None else best[1:]


def _clear_below(a: list[list[int]], t: int, n: int, companion: list[list[int]]) -> bool:
    """Zero ``a[i][t]`` for i > t by row operations, reducing ``a`` mod
    ``n`` unless it is 0; the rows of ``companion`` (a transform, or
    empty) undergo the same operations.

    Returns True when an ``_egcd`` 2x2 block was needed: then the pivot
    ``a[t][t]`` shrank to a proper divisor of itself and row t changed.
    """
    shrank = False
    for i in range(t + 1, len(a)):
        p, b = a[t][t], a[i][t]
        if not b:
            continue
        if b % p == 0:
            x, y, u, v = 1, 0, -(b // p), 1
        else:
            g, x, y = _egcd(p, b)
            u, v = -(b // g), p // g  # det [[x, y], [u, v]] = 1
            shrank = True
        for mat in (a, companion) if companion else (a,):
            top, row = mat[t], mat[i]
            if y:
                mat[t] = [x * e + y * f for e, f in zip(top, row)]
            mat[i] = [u * e + v * f for e, f in zip(top, row)]
        if n:
            a[t], a[i] = [e % n for e in a[t]], [e % n for e in a[i]]
    return shrank


def _diagonalize(a, n: int, steps: int, left, right_t) -> list[int]:
    """Up to ``steps`` Smith pivots of ``a`` as gcd(pivot, n): over Z when
    ``n`` is 0, else over Z/nZ with ``a`` reduced mod n.

    ``a`` is overwritten.  ``left`` and the transpose ``right_t`` of the
    right transform (identities, or empty) take the row and column
    operations.  Step t moves an entry of least gcd with n (least |entry|
    over Z) to (t, t) and clears row and column t with
    :func:`_clear_below` on ``a`` and on its transpose.  While gcd(pivot,
    n) misses an entry left, that entry's row is added to row t and the
    clearing repeats; each repeat shrinks the pivot to a proper divisor,
    so the step ends.  Stops early once the rest is 0 (mod n).
    """
    diag = []
    for t in range(steps):
        pivot = _least_entry(a, t, lambda x: gcd(x, n))  # gcd(x, 0) = |x|
        if pivot is None:
            break
        i, j = pivot
        for mat in (a, left) if left else (a,):
            mat[t], mat[i] = mat[i], mat[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        if right_t:
            right_t[t], right_t[j] = right_t[j], right_t[t]
        while True:
            _clear_below(a, t, n, left)
            a_t = [list(c) for c in zip(*a)]
            shrank = _clear_below(a_t, t, n, right_t)
            a = [list(r) for r in zip(*a_t)]
            if shrank:  # the column blocks refilled column t
                continue
            g = gcd(a[t][t], n)
            stray = next((r for r in range(t + 1, len(a)) if any(x % g for x in a[r])), None)
            if stray is None:
                break
            for mat in (a, left) if left else (a,):
                mat[t] = [x + y for x, y in zip(mat[t], mat[stray])]
            if n:
                a[t] = [x % n for x in a[t]]
        if a[t][t] < 0:
            for mat in (a, left) if left else (a,):
                mat[t] = [-x for x in mat[t]]
        diag.append(gcd(a[t][t], n))
    return diag


class SparseColumns(Record):
    """Integer matrix kept as columns ``{row: nonzero entry}``.

    Row indices double as the order in which :func:`cokernel_abelian_group`
    tries the rows as pivots, so a caller that knows a good elimination
    order numbers its rows by it.
    """

    rows: int
    columns: tuple[dict[int, int], ...]

    @property
    def cols(self) -> int:
        return len(self.columns)


def cokernel_abelian_group(m: IntMatrix | SparseColumns) -> tuple[int, tuple[int, ...]]:
    """Cokernel of the column lattice acting on ``Z^rows``.

    Rows index generators and columns index relations, so the result is
    ``Z^rows / span(columns)``: a free rank plus invariant factors > 1.
    An :class:`IntMatrix` is read as its sparse columns.

    Sparse unit-pivot elimination first (Dumas-Saunders-Villard, J. Symb.
    Comp. 32, 2001), in one pass over the rows in index order, so the
    row numbering is the elimination order: a row holding a +-1 pivots
    in the lowest column where it has one.  Adding multiples of that
    column to the others clears the row; then the row is a generator
    killed by its column alone, so both are dropped and the rank grows
    by one.  A row without a unit when its turn comes stays in the
    residue, whose invariant factors :func:`_smith_diagonal` reads
    modulo a nonzero minor.
    """
    if isinstance(m, IntMatrix):
        c = m.cols
        m = SparseColumns(m.rows, tuple(
            {i: v for i in range(m.rows) if (v := m.entries[i * c + j])} for j in range(c)
        ))
    cols = [dict(col) for col in m.columns]
    row_cols: list[set[int]] = [set() for _ in range(m.rows)]
    for j, col in enumerate(cols):
        for i in col:
            row_cols[i].add(j)

    rank = 0
    for i in range(m.rows):
        j = min((j for j in row_cols[i] if cols[j][i] in (1, -1)), default=None)
        if j is None:
            continue
        pivot_col, cols[j] = cols[j], {}
        unit = pivot_col.pop(i)
        for r in pivot_col:
            row_cols[r].discard(j)
        for k in row_cols[i] - {j}:
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
        row_cols[i] = set()
        rank += 1

    rest_rows = [i for i in range(m.rows) if row_cols[i]]
    rest_cols = [col for col in cols if col]
    residue = IntMatrix(
        len(rest_rows),
        len(rest_cols),
        tuple(col.get(i, 0) for i in rest_rows for col in rest_cols),
    )
    diagonal = _smith_diagonal(residue)
    rank += sum(1 for d in diagonal if d != 0)
    return m.rows - rank, tuple(d for d in diagonal if d > 1)


def _bareiss(a: list[list[int]]) -> tuple[int, int]:
    """Rank r of ``a`` and a nonzero r x r minor (1 when r = 0).

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) with the
    least nonzero |entry| as pivot: each pivot is a leading minor of the
    permuted matrix, so the last one is the minor.  ``a`` is overwritten.
    """
    nr, nc = len(a), len(a[0]) if a else 0
    prev = 1
    for k in range(min(nr, nc)):
        pivot = _least_entry(a, k, abs)
        if pivot is None:
            return k, prev
        i, j = pivot
        a[k], a[i] = a[i], a[k]
        for row in a[k:]:
            row[k], row[j] = row[j], row[k]
        top = a[k]
        p = top[k]
        for row in a[k + 1:]:
            q = row[k]
            for j in range(k + 1, nc):
                row[j] = (row[j] * p - q * top[j]) // prev
            row[k] = 0
        prev = p
    return min(nr, nc), prev


def _smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """``snf(m).diagonal`` without transforms, computed modulo a minor.

    :func:`_bareiss` gives the rank r and a nonzero r x r minor D.  The
    first r invariant factors multiply to the gcd of the r x r minors,
    so each divides D and equals its gcd with D: they are the pivots of
    :func:`_diagonalize` over Z/DZ (Domich-Kannan-Trotter, Math. Oper.
    Res. 12, 1987), whose entries stay in [0, D); the ones it stops
    short of, on an all-zero rest, equal D.
    """
    rank, minor = _bareiss(m.to_rows())
    n = abs(minor)
    diag = _diagonalize([[x % n for x in row] for row in m.to_rows()], n, rank, [], [])
    return tuple(diag) + (n,) * (rank - len(diag)) + (0,) * (min(m.rows, m.cols) - rank)


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


def _spanning_tree(
    num_vertices: int, edges: Sequence[tuple[int, int]]
) -> dict[int, list[tuple[int, int, int]]]:
    """Signed adjacency of the lowest-edge-index spanning tree.

    ``adjacency[x]`` lists ``(y, edge index, sign)`` for each tree edge at
    ``x``, with sign +1 when the edge is stored ``(x, y)``.  Raises
    :class:`DisconnectedGraph` unless the multigraph is connected.
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
    return adjacency


def cycle_basis(
    num_vertices: int, edges: Sequence[tuple[int, int]]
) -> list[list[tuple[int, int]]]:
    """Fundamental cycles of a connected multigraph.

    The spanning tree grows lowest-edge-index-first.  For each non-tree
    edge ``e = (u, v)`` the cycle is the tree path ``u -> v`` followed by
    ``e`` traversed backwards, recorded as ``(edge index, sign)`` pairs
    where sign +1 means traversal along the stored ``(u, v)`` direction.
    Self-loops and parallel edges are allowed.  The library reads cycle
    values off potentials along the same tree; this is the tests' oracle.
    """
    adjacency = _spanning_tree(num_vertices, edges)

    def tree_path(src: int, dst: int) -> list[tuple[int, int]]:
        prev = _bfs_parents(adjacency, src)
        path: list[tuple[int, int]] = []
        while dst != src:
            dst, idx, sign = prev[dst]
            path.append((idx, sign))
        path.reverse()
        return path

    in_tree = {idx for links in adjacency.values() for _, idx, _ in links}
    cycles = []
    for idx, (u, v) in enumerate(edges):
        if idx not in in_tree:
            cycles.append(tree_path(u, v) + [(idx, -1)])
    return cycles
