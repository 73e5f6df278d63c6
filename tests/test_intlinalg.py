import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlocus.errors import DisconnectedGraph
from singlocus import intlinalg
from singlocus.intlinalg import SparseColumns, _smith_diagonal, cokernel_abelian_group

from oracles import (
    columns,
    cycle_basis,
    det_bareiss,
    egcd,
    enumerate_cokernel,
    matmul,
    smith_diagonal_oracle,
    snf,
    zero_matrix,
)


def check_form(m: list[list[int]], nc: int):
    form = snf(m)
    # divisibility chain, trailing zeros
    diag = form.diagonal
    assert len(diag) == min(len(m), nc)
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        elif b != 0:
            assert b % a == 0
    # left * m * right reproduces the diagonal embedding
    if m and nc:
        product = matmul(matmul(form.left, m), form.right)
        for i in range(len(m)):
            for j in range(nc):
                expected = diag[i] if i == j and i < len(diag) else 0
                assert product[i][j] == expected
        assert abs(det_bareiss(form.left)) == 1
        assert abs(det_bareiss(form.right)) == 1
    return form


def test_identity():
    form = check_form([[1, 0], [0, 1]], 2)
    assert form.diagonal == (1, 1)


def test_two_four_six_eight():
    # d1 = gcd of entries = 2; d1*d2 = |det| = 8
    form = check_form([[2, 4], [6, 8]], 2)
    assert form.diagonal == (2, 4)


def test_coprime_row():
    form = check_form([[2, 3]], 2)
    assert form.diagonal == (1,)


def test_empty_and_degenerate():
    assert snf(zero_matrix(0, 0)).diagonal == ()
    assert snf(zero_matrix(3, 0)).diagonal == ()
    assert snf(zero_matrix(0, 3)).diagonal == ()
    assert check_form(zero_matrix(2, 3), 3).diagonal == (0, 0)


def test_determinism():
    m = [[6, 4, 1], [8, 2, 2], [0, 4, 4]]
    assert snf(m) == snf(m)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_snf_matches_minor_gcd_oracle(nr, nc, data):
    rows = [
        [data.draw(st.integers(-9, 9)) for _ in range(nc)] for _ in range(nr)
    ]
    form = check_form(rows, nc)
    assert list(form.diagonal) == smith_diagonal_oracle(rows)


def test_cokernel_examples():
    assert cokernel_abelian_group(columns([[0]], 1)) == (1, ())
    assert cokernel_abelian_group(columns([[3]], 1)) == (0, (3,))
    assert cokernel_abelian_group(columns([[2, 0], [0, 2]], 2)) == (0, (2, 2))
    # generators = rows: a 3 x 0 matrix presents Z^3
    assert cokernel_abelian_group(columns(zero_matrix(3, 0), 0)) == (3, ())


def test_cokernel_against_enumeration():
    rng = random.Random(20240811)
    checked = 0
    while checked < 25:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        d = det_bareiss(rows)
        if d == 0 or abs(d) > 60:
            continue
        oracle = enumerate_cokernel(rows, cap=201)
        assert oracle is not None
        order, kill_counts = oracle
        free, torsion = cokernel_abelian_group(columns(rows, n))
        assert free == 0
        prod = 1
        for t in torsion:
            prod *= t
        assert prod == order
        for m, count in kill_counts.items():
            expected = 1
            for t in torsion:
                from math import gcd

                expected *= gcd(m, t)
            assert count == expected, (rows, m, count, expected)
        checked += 1


def test_snf_stress_larger_matrices():
    rng = random.Random(123)
    for _ in range(60):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.randint(-50, 50) for _ in range(nc)] for _ in range(nr)]
        check_form(rows, nc)


def dense_cokernel(m: list[list[int]]):
    """Free rank and torsion read off the diagonal of the dense ``snf``."""
    diag = snf(m).diagonal
    return len(m) - sum(1 for d in diag if d != 0), tuple(d for d in diag if d > 1)


def matrices(max_side, values):
    """``(rows, column count)``: the count, as a matrix with no rows does not show it."""
    def rows(nr, nc):
        return st.lists(st.lists(values, min_size=nc, max_size=nc), min_size=nr, max_size=nr)

    return st.integers(0, max_side).flatmap(
        lambda nr: st.integers(0, max_side).flatmap(lambda nc: st.tuples(rows(nr, nc), st.just(nc)))
    )


@settings(max_examples=150, deadline=None)
@given(matrices(6, st.integers(-9, 9)))
def test_cokernel_matches_dense_snf_on_dense_matrices(m):
    assert cokernel_abelian_group(columns(*m)) == dense_cokernel(m[0])


@settings(max_examples=150, deadline=None)
@given(matrices(10, st.sampled_from([0, 0, 0, 0, 1, -1, 1, -1, 2, -3])))
def test_cokernel_matches_dense_snf_on_sparse_unit_heavy_matrices(m):
    assert cokernel_abelian_group(columns(*m)) == dense_cokernel(m[0])


@settings(max_examples=100, deadline=None)
@given(matrices(6, st.integers(-5, 5)), st.data())
def test_cokernel_matches_dense_snf_with_zero_rows_and_columns(m, data):
    rows, nc = m
    zero_rows = data.draw(st.sets(st.integers(0, max(len(rows) - 1, 0))))
    zero_cols = data.draw(st.sets(st.integers(0, max(nc - 1, 0))))
    zeroed = [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    assert cokernel_abelian_group(columns(zeroed, nc)) == dense_cokernel(zeroed)


def products(max_side, values, deficient=False):
    """L R for L of size nr x k and R of size k x nc, entries from
    ``values``; with ``deficient``, k < min(nr, nc) when both sides are
    positive, so the rank is below full."""

    def build(nr, nc, data):
        k = data.draw(st.integers(0, max(min(nr, nc) - 1, 0) if deficient else max_side))
        left = [data.draw(st.lists(values, min_size=k, max_size=k)) for _ in range(nr)]
        right = [data.draw(st.lists(values, min_size=nc, max_size=nc)) for _ in range(k)]
        cols = [[r[j] for r in right] for j in range(nc)]
        return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in left]

    return st.tuples(st.integers(0, max_side), st.integers(0, max_side), st.data()).map(
        lambda args: build(*args)
    )


@settings(max_examples=150, deadline=None)
@given(matrices(6, st.one_of(st.integers(-9, 9), st.integers(-10**6, 10**6))))
def test_smith_diagonal_matches_snf_on_dense_matrices(m):
    assert _smith_diagonal(m[0]) == snf(m[0]).diagonal


@settings(max_examples=150, deadline=None)
@given(matrices(10, st.sampled_from([0, 0, 0, 0, 1, -1, 1, -1, 2, -3])))
def test_smith_diagonal_matches_snf_on_sparse_unit_heavy_matrices(m):
    assert _smith_diagonal(m[0]) == snf(m[0]).diagonal


@settings(max_examples=150, deadline=None)
@given(products(7, st.integers(-4, 4), deficient=True))
def test_smith_diagonal_matches_snf_on_rank_deficient_matrices(m):
    assert _smith_diagonal(m) == snf(m).diagonal


def test_smith_diagonal_examples():
    # D = 6 for diag(2, 3): the pivot 2 splits 6 into 2 and 3.
    assert _smith_diagonal([[2, 0], [0, 3]]) == (1, 6)
    # The first pivot 2 shrinks D = 8 to 2, and every pivot is 2 u.
    rows = [[0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, 0], [0, 0, 2, 2], [-2, 0, 0, 0]]
    assert _smith_diagonal(rows) == (2, 2, 2, 0)
    # Rank 4 in a 7 x 5 matrix.
    rows = [[23, 0, 38, 0, 0], [0, 0, 0, 0, 0], [-33, -38, -16, 0, 0], [0, 33, 0, -19, 26],
            [0, 0, 0, 0, 0], [-40, 0, 0, 0, 0], [0, 36, 0, 0, 0]]
    assert _smith_diagonal(rows) == (1, 1, 2, 4, 0)
    # The only entry is the minor D itself, 0 mod D.
    assert _smith_diagonal([[6]]) == (6,)
    assert _smith_diagonal([[4, 6], [6, 9]]) == (1, 0)
    for nr, nc in ((0, 0), (0, 3), (3, 0)):
        assert _smith_diagonal(zero_matrix(nr, nc)) == ()


P, Q = 10007, 10009


@pytest.mark.parametrize(
    "rows, diagonal, passes",
    [
        # The pass modulo D^2 meets the non-unit pivot P: D splits into P and Q.
        pytest.param([[P, 0], [0, Q]], (1, P * Q), {(P * Q, 2, P), (P, 2, 1), (Q, 2, 1)}, id="split-in-pass"),
        # The pivot P Q shrinks D = P^3 Q^2 to P Q (D has no prime outside
        # P Q), and the cofactor D / (P Q)^2 = P splits P Q into P and Q
        # before a pass runs on it.
        pytest.param(
            [[P * Q, 0], [0, P**2 * Q]], (P * Q, P**2 * Q),
            {(P**3 * Q**2, 2, P * Q), (P, 4, 1), (Q, 3, 1)}, id="split-at-exponent",
        ),
        # D = P^2 Q^2 splits into P^2 and Q^2; Q^2 is read as a prime to the
        # end, while the pivot P of unit part P shrinks P^2 to P.
        pytest.param(
            [[P, 0], [0, P * Q**2]], (P, P * Q**2),
            {(P**2 * Q**2, 2, P), (Q**2, 2, 1), (P**2, 2, P), (P, 3, 1)}, id="prime-square-unsplit",
        ),
        # D = P^2 Q is read as a prime, and its only pivot is D itself.
        pytest.param([[P**2 * Q]], (P**2 * Q,), {(P**2 * Q, 2, 1)}, id="minor-unsplit"),
        pytest.param([[2, 3], [1, 2]], (1, 1), set(), id="unit-minor"),
        pytest.param([[0, 0], [0, 0], [0, 0]], (0, 0), set(), id="rank-zero"),
    ],
)
def test_smith_diagonal_branches(rows, diagonal, passes, monkeypatch):
    seen = set()
    local_exponents = intlinalg._local_exponents

    def record(rows, q, e):
        g, exponents = local_exponents(rows, q, e)
        seen.add((q, e, g))
        return g, exponents

    monkeypatch.setattr(intlinalg, "_local_exponents", record)
    assert _smith_diagonal(rows) == snf(rows).diagonal == diagonal
    assert seen == passes


@settings(max_examples=150, deadline=None)
@given(products(5, st.sampled_from([0, 1, -1, 3, P, Q, 2 * P, Q**2])))
def test_smith_diagonal_matches_snf_on_products_of_large_primes(m):
    assert _smith_diagonal(m) == snf(m).diagonal


def test_cokernel_reads_sparse_columns_in_row_order():
    # Z^3 / <e0 - e1, 2 e1 + e2, 3 e2>: row order only picks the pivots.
    sparse = ({0: 1, 1: -1}, {1: 2, 2: 1}, {2: 3})
    dense = columns([[1, 0, 0], [-1, 2, 0], [0, 1, 3]], 3)
    assert cokernel_abelian_group(SparseColumns(3, sparse)) == cokernel_abelian_group(dense) == (0, (6,))


def test_cokernel_of_empty_and_zero_matrices():
    for nr, nc in ((0, 0), (0, 4), (4, 0), (3, 5), (5, 3)):
        assert cokernel_abelian_group(columns(zero_matrix(nr, nc), nc)) == (nr, ())
    assert cokernel_abelian_group(columns([[0, 1], [0, 0]], 2)) == (1, ())
    assert cokernel_abelian_group(columns([[0, 0], [0, -1], [0, 0]], 2)) == (2, ())


def _egcd_recursive(p, q):
    """The recursion that ``egcd`` runs as a loop; the reference."""
    if q == 0:
        return (abs(p), 1 if p >= 0 else -1, 0)
    g, x, y = _egcd_recursive(q, p % q)
    return (g, y, x - (p // q) * y)


def test_egcd_matches_the_recursion_on_large_arguments():
    rng = random.Random(1800)
    pairs = [(p, q) for p in (0, 5, -5, 12, -12) for q in (0, 18, -18, 7, -7)]
    for _ in range(60):
        bits_p, bits_q = rng.randint(1, 4000), rng.randint(1, 4000)
        pairs.append((rng.randint(-(2**bits_p), 2**bits_p), rng.randint(-(2**bits_q), 2**bits_q)))
    fib = [0, 1]
    while len(fib) < 5760:  # F_5759 has 3997 bits
        fib.append(fib[-1] + fib[-2])
    for n in (1200, 2600, 5758):
        a, b = fib[n + 1], fib[n]
        pairs += [(a, b), (b, a), (-a, b), (a, -b)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)  # the reference recurses once per Euclid step
    try:
        expected = [_egcd_recursive(p, q) for p, q in pairs]
    finally:
        sys.setrecursionlimit(limit)
    for (p, q), want in zip(pairs, expected):
        g, x, y = egcd(p, q)
        assert (g, x, y) == want
        assert g == math.gcd(p, q) and x * p + y * q == g


def test_cycle_basis_triangle():
    cycles = cycle_basis(3, [(0, 1), (1, 2), (2, 0)])
    assert len(cycles) == 1
    assert sorted(e for e, _ in cycles[0]) == [0, 1, 2]


def test_cycle_basis_tree():
    assert cycle_basis(3, [(0, 1), (1, 2)]) == []


def test_cycle_basis_theta():
    cycles = cycle_basis(2, [(0, 1), (0, 1), (0, 1)])
    assert len(cycles) == 2
    for cyc, closing in zip(cycles, (1, 2)):
        assert cyc == [(0, 1), (closing, -1)]


def test_cycle_basis_disconnected():
    with pytest.raises(DisconnectedGraph):
        cycle_basis(4, [(0, 1), (2, 3)])


def test_cycle_basis_self_loop_and_walk_closure():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 5)
        edges = [(0, k) for k in range(1, n)]  # spanning star
        for _ in range(rng.randint(0, 4)):
            edges.append((rng.randrange(n), rng.randrange(n)))
        cycles = cycle_basis(n, edges)
        assert len(cycles) == len(edges) - n + 1
        # each cycle is a closed walk with net incidence zero at each vertex
        for cyc in cycles:
            incidence = [0] * n
            for e, s in cyc:
                u, v = edges[e]
                incidence[u] -= s
                incidence[v] += s
            assert all(x == 0 for x in incidence)
        # incidence vectors independent over Q: rank = number of cycles
        vectors = []
        for cyc in cycles:
            vec = [0] * len(edges)
            for e, s in cyc:
                vec[e] += s
            vectors.append(vec)
        assert _rank(vectors) == len(cycles)


def _rank(vectors):
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in vectors]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                factor = m[r][c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank
