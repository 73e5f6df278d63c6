"""Exact integer linear algebra: the cokernel of an integer matrix.

A cokernel eliminates its unit pivots sparsely and reads the invariant
factors of the dense residue from one local Smith pass per factor of a
nonzero minor of the residue, with no transforms.

Everything here works over Python's arbitrary-precision integers; no
floating point is ever used.  All values are immutable and all functions
are pure, so the module is safe to use from multiple threads.
"""

from __future__ import annotations

from math import gcd

from .errors import InvalidValue, Record, in_full, instance, integer, items, shown


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

    def __post_init__(self):
        object.__setattr__(self, "rows", integer(self.rows))
        if self.rows < 0:
            raise InvalidValue("matrix dimensions must be non-negative")
        columns = []
        for column in items(self.columns):
            if not isinstance(column, dict):
                raise InvalidValue(f"expected a column {{row: entry}}, got {shown(column)}")
            checked = {}
            for i, x in column.items():
                x, i = integer(x), integer(i)
                if not 0 <= i < self.rows:
                    raise InvalidValue(f"row {in_full(i)} is out of range for {in_full(self.rows)} rows")
                if i in checked:
                    raise InvalidValue(f"row {in_full(i)} appears twice in a column")
                checked[i] = x
            columns.append(checked)
        object.__setattr__(self, "columns", tuple(columns))


def cokernel_abelian_group(m: SparseColumns) -> tuple[int, tuple[int, ...]]:
    """Cokernel of the column lattice acting on ``Z^rows``.

    Rows index generators and columns index relations, so the result is
    ``Z^rows / span(columns)``: a free rank plus invariant factors > 1.

    Sparse unit-pivot elimination first (Dumas-Saunders-Villard, J. Symb.
    Comp. 32, 2001), in one pass over the rows in index order, so the
    row numbering is the elimination order: a row holding a +-1 pivots
    in the lowest column where it has one.  Adding multiples of that
    column to the others clears the row; then the row is a generator
    killed by its column alone, so both are dropped and the rank grows
    by one.  A row without a unit when its turn comes stays in the
    residue, whose invariant factors :func:`_smith_diagonal` reads one
    factor of a nonzero minor at a time.
    """
    cols = [dict(col) for col in instance(m, SparseColumns).columns]
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

    rest_cols = [col for col in cols if col]
    residue = [[col.get(i, 0) for col in rest_cols] for i in range(m.rows) if row_cols[i]]
    diagonal = _smith_diagonal(residue)
    rank += sum(1 for d in diagonal if d != 0)
    return m.rows - rank, tuple(d for d in diagonal if d > 1)


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Rank r of ``rows`` and a nonzero r x r minor (1 when r = 0).

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) on a copy,
    with the least nonzero |entry| as pivot: each pivot is a leading
    minor of the permuted matrix, so the last one is the minor.
    """
    a = [list(row) for row in rows]
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


def _local_exponents(rows: list[list[int]], q: int, e: int) -> tuple[int, list[int]]:
    """One Smith pass over Z/q^eZ, reading q as a prime: (1, the pivot
    exponents), or (g, exponents so far) when a pivot's unit part u has
    g = gcd(u, q) > 1.

    At level k the matrix left is q^k times one kept modulo q^(e-k).  Its
    first entry u, in row-major order, that q does not divide is the
    pivot: unless q splits, u is invertible, so row operations clear its
    column, and column operations would clear its row without touching
    the others; the row and column are dropped and k is recorded.  A row
    with no such entry keeps none, so one sweep of the rows finishes a
    level, and the exponents come out nondecreasing.  Then every entry is
    divisible by q, and q is taken out of the matrix and the modulus; zero
    rows are dropped for good.
    """
    n = q**e
    a = [[x % n for x in row] for row in rows]
    exponents: list[int] = []
    for k in range(e):
        i = 0
        while i < len(a):
            pivot_row = a[i]
            j = next((j for j, x in enumerate(pivot_row) if x % q), None)
            if j is None:
                i += 1
                continue
            g = gcd(pivot_row[j], q)
            if g > 1:
                return g, exponents
            del a[i]
            inverse = pow(pivot_row[j], -1, n)
            for row in a:
                if row[j]:
                    f = row[j] * inverse % n
                    row[:] = [(x - f * y) % n for x, y in zip(row, pivot_row)]
                del row[j]
            exponents.append(k)
        n //= q
        a = [[x // q for x in row] for row in a if any(row)]
    return 1, exponents


def _smith_diagonal(rows: list[list[int]]) -> tuple[int, ...]:
    """The Smith diagonal of the matrix with these rows (length
    min(rows, cols); each entry divides the next, and zeros trail).

    :func:`_bareiss` gives the rank r and a nonzero r x r minor D.  The
    first r invariant factors multiply to the gcd of the r x r minors, so
    only the primes of D divide them.  D is not factored: each part q on
    the work list, D at first, is read as a prime (dynamic evaluation,
    Della Dora-Dicrescenzo-Duval, EUROCAL '85) by one local Smith pass,
    the local step of the valence method (Dumas-Saunders-Villard, J.
    Symb. Comp. 32, 2001).  If the pass ends, each pivot q^k u has u
    prime to q, so for q = p^a s every prime p of q divides the invariant
    factor of that step exactly a k times.  The pass runs modulo q^e, e =
    v_q(D): when the cofactor D / q^e is prime to q, v_p(D) = a e for
    each such p, and as the r steps multiply to a divisor of D, a step
    whose pivot vanishes modulo q^e takes exactly q^e.  A non-unit pivot,
    or a cofactor sharing a factor g with q, splits q by gcd into two
    coprime parts (only g when q has no prime outside g); the parts keep
    the primes of D apart, so their powers multiply back by the CRT.
    """
    rank, minor = _bareiss(rows)
    minor = abs(minor)
    diagonal = [1] * rank
    todo = [minor] if minor > 1 else []
    while todo:
        q = todo.pop()
        e, rest = 0, minor
        while rest % q == 0:
            rest //= q
            e += 1
        g = gcd(rest, q)
        if g == 1:
            g, exponents = _local_exponents(rows, q, e)
        if g > 1:
            a, b = g, q // g
            while (c := gcd(a, b)) > 1:
                a, b = a * c, b // c
            todo += (a, b) if b > 1 else (g,)
            continue
        for i, k in enumerate(exponents + [e] * (rank - len(exponents))):
            diagonal[i] *= q**k
    return tuple(diagonal) + (0,) * (min(len(rows), len(rows[0]) if rows else 0) - rank)

