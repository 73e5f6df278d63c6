import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlocus.errors import DisconnectedGraph
from singlocus.intlinalg import IntMatrix, _egcd, cokernel_abelian_group, cycle_basis, snf

from oracles import det_bareiss, enumerate_cokernel, smith_diagonal_oracle


def check_form(m: IntMatrix):
    form = snf(m)
    # divisibility chain, trailing zeros
    diag = form.diagonal
    assert len(diag) == min(m.rows, m.cols)
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        elif b != 0:
            assert b % a == 0
    # left * m * right reproduces the diagonal embedding
    if m.rows and m.cols:
        product = form.left.mul(m).mul(form.right).to_rows()
        for i in range(m.rows):
            for j in range(m.cols):
                expected = diag[i] if i == j and i < len(diag) else 0
                assert product[i][j] == expected
        assert abs(det_bareiss(form.left.to_rows())) == 1
        assert abs(det_bareiss(form.right.to_rows())) == 1
    return form


def test_identity():
    form = check_form(IntMatrix.from_rows([[1, 0], [0, 1]]))
    assert form.diagonal == (1, 1)


def test_two_four_six_eight():
    # d1 = gcd of entries = 2; d1*d2 = |det| = 8
    form = check_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert form.diagonal == (2, 4)


def test_coprime_row():
    form = check_form(IntMatrix.from_rows([[2, 3]]))
    assert form.diagonal == (1,)


def test_empty_and_degenerate():
    assert snf(IntMatrix.zero(0, 0)).diagonal == ()
    assert snf(IntMatrix.zero(3, 0)).diagonal == ()
    assert snf(IntMatrix.zero(0, 3)).diagonal == ()
    assert check_form(IntMatrix.zero(2, 3)).diagonal == (0, 0)


def test_determinism():
    m = IntMatrix.from_rows([[6, 4, 1], [8, 2, 2], [0, 4, 4]])
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
    form = check_form(IntMatrix.from_rows(rows))
    assert list(form.diagonal) == smith_diagonal_oracle(rows)


def test_cokernel_examples():
    assert cokernel_abelian_group(IntMatrix.from_rows([[0]])) == (1, ())
    assert cokernel_abelian_group(IntMatrix.from_rows([[3]])) == (0, (3,))
    assert cokernel_abelian_group(IntMatrix.from_rows([[2, 0], [0, 2]])) == (0, (2, 2))
    # generators = rows: a 3 x 0 matrix presents Z^3
    assert cokernel_abelian_group(IntMatrix.zero(3, 0)) == (3, ())


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
        free, torsion = cokernel_abelian_group(IntMatrix.from_rows(rows))
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
        check_form(IntMatrix.from_rows(rows))


def dense_cokernel(m: IntMatrix):
    """Free rank and torsion read off the diagonal of the dense ``snf``."""
    diag = snf(m).diagonal
    return m.rows - sum(1 for d in diag if d != 0), tuple(d for d in diag if d > 1)


def matrices(max_side, values):
    return st.integers(0, max_side).flatmap(
        lambda nr: st.integers(0, max_side).flatmap(
            lambda nc: st.lists(values, min_size=nr * nc, max_size=nr * nc).map(
                lambda entries: IntMatrix(nr, nc, tuple(entries))
            )
        )
    )


@settings(max_examples=150, deadline=None)
@given(matrices(6, st.integers(-9, 9)))
def test_cokernel_matches_dense_snf_on_dense_matrices(m):
    assert cokernel_abelian_group(m) == dense_cokernel(m)


@settings(max_examples=150, deadline=None)
@given(matrices(10, st.sampled_from([0, 0, 0, 0, 1, -1, 1, -1, 2, -3])))
def test_cokernel_matches_dense_snf_on_sparse_unit_heavy_matrices(m):
    assert cokernel_abelian_group(m) == dense_cokernel(m)


@settings(max_examples=100, deadline=None)
@given(matrices(6, st.integers(-5, 5)), st.data())
def test_cokernel_matches_dense_snf_with_zero_rows_and_columns(m, data):
    zero_rows = data.draw(st.sets(st.integers(0, max(m.rows - 1, 0))))
    zero_cols = data.draw(st.sets(st.integers(0, max(m.cols - 1, 0))))
    rows = [
        [0 if i in zero_rows or j in zero_cols else m.entry(i, j) for j in range(m.cols)]
        for i in range(m.rows)
    ]
    zeroed = IntMatrix(m.rows, m.cols, tuple(x for r in rows for x in r))
    assert cokernel_abelian_group(zeroed) == dense_cokernel(zeroed)


def test_cokernel_of_empty_and_zero_matrices():
    for nr, nc in ((0, 0), (0, 4), (4, 0), (3, 5), (5, 3)):
        assert cokernel_abelian_group(IntMatrix.zero(nr, nc)) == (nr, ())
    assert cokernel_abelian_group(IntMatrix.from_rows([[0, 1], [0, 0]])) == (1, ())
    assert cokernel_abelian_group(IntMatrix.from_rows([[0, 0], [0, -1], [0, 0]])) == (2, ())


def _egcd_recursive(p, q):
    """The recursion that ``_egcd`` runs as a loop; the reference."""
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
        g, x, y = _egcd(p, q)
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
