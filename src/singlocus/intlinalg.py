"""Exact integer linear algebra: the cokernel of an integer matrix, and
the spanning forests and trees that graphs are walked along.

A cokernel eliminates its unit pivots sparsely and reads the invariant
factors of the dense residue from one Smith routine with no transforms,
which works modulo a nonzero minor of the residue.

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

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]


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


def _least_entry(a: list[list[int]], t: int) -> tuple[int, int] | None:
    """Position of the nonzero ``a[i][j]``, i, j >= t, of least absolute
    value, first in row-major order; None if all are 0."""
    best = None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(row)):
            if row[j]:
                k = abs(row[j])
                if best is None or k < best[0]:
                    best = (k, i, j)
                    if k == 1:
                        return i, j
    return None if best is None else best[1:]


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
        pivot = _least_entry(a, k)
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


def _echelon_mod(a: list[list[int]], n: int) -> None:
    """Bring ``a``, with entries in [0, n), to row echelon form over Z/nZ
    by row operations; ``a`` is overwritten.

    Each column's pivot is its entry of least gcd with n among the rows
    not yet pivots.  Rows below the pivot are zero left of its column,
    so only the columns from the pivot on change.  A unit pivot p clears
    each lower row by subtracting b * p^-1 times the pivot row; otherwise
    a lower entry b that p divides is cleared the same way with b // p,
    and any other b by the ``_egcd`` 2x2 block, which replaces p by
    gcd(p, b) < p.
    """
    rows, t = len(a), 0
    for j in range(len(a[0]) if a else 0):
        best = None
        for i in range(t, rows):
            if a[i][j]:
                g = gcd(a[i][j], n)
                if best is None or g < best[0]:
                    best = (g, i)
                    if g == 1:
                        break
        if best is None:
            continue
        unit, i = best[0] == 1, best[1]
        a[t], a[i] = a[i], a[t]
        top = a[t]
        inverse = pow(top[j], -1, n) if unit else 0
        for row in a[t + 1:]:
            b, p = row[j], top[j]
            if not b:
                continue
            if unit or b % p == 0:
                f = b * inverse % n if unit else b // p
                row[j:] = [(x - f * y) % n for x, y in zip(row[j:], top[j:])]
            else:
                g, x, y = _egcd(p, b)
                u, v = b // g, p // g  # det [[x, y], [-u, v]] = 1
                pairs = list(zip(top[j:], row[j:]))
                top[j:] = [(x * e + y * f) % n for e, f in pairs]
                row[j:] = [(v * f - u * e) % n for e, f in pairs]
        t += 1
        if t == rows:
            return


def _smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """The Smith diagonal of ``m`` (length min(rows, cols); each entry
    divides the next, and zeros trail), computed modulo a minor.

    :func:`_bareiss` gives the rank r and a nonzero r x r minor D.  The
    first r invariant factors multiply to the gcd of the r x r minors,
    so each divides D and equals its gcd with D (Domich-Kannan-Trotter,
    Math. Oper. Res. 12, 1987).  So the matrix is reduced mod D, and
    rounds of :func:`_echelon_mod`, on it and then on its transpose, make
    it diagonal over Z/DZ with entries in [0, D).  The gcds of those
    entries with D (D for a 0) become a divisibility chain by pairwise
    gcd and lcm, which leaves the group they present unchanged; its
    first r entries are the invariant factors.  The chain comes first:
    a diagonal mod D can hold more than r nonzero entries.

    The rounds end.  Row operations keep the ideal of Z/DZ that a
    column's entries generate, so after each pass the first pivot
    generates the ideal of its whole line before the pass, which holds
    the pivot: the ideal grows, and D has finitely many divisors.  Once
    it stops growing, every entry of the line lies in it, so the pivot
    keeps its least gcd and its place (ties go to the first entry), and
    each 2x2 block lowers its value in [1, D).  A pass without a block
    clears the line without refilling the other; the first row and
    column then stay clear, and the same holds for the rest.
    """
    rank, minor = _bareiss(m.to_rows())
    n = abs(minor)
    a = [[x % n for x in row] for row in m.to_rows()]
    while True:
        _echelon_mod(a, n)
        if not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a)):
            break
        a = [list(column) for column in zip(*a)]
    chain = [gcd(a[i][i], n) for i in range(min(m.rows, m.cols))]  # gcd(0, D) = D
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return tuple(chain[:rank]) + (0,) * (min(m.rows, m.cols) - rank)


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
    _, tree = _spanning_forest(num_vertices, edges)
    if len(tree) != num_vertices - 1:  # also the empty graph: 0 != -1
        raise DisconnectedGraph("graph is not connected")
    adjacency: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(num_vertices)}
    for idx in tree:
        u, v = edges[idx]
        adjacency[u].append((v, idx, +1))
        adjacency[v].append((u, idx, -1))
    return adjacency
