import random

import numpy as np
import pytest
import sympy

from quadpair.lincong import (
    bareiss_det,
    count_lincong,
    mat_mul,
    rank_rational,
    smith,
    smith_bound,
    solve_mod_p,
)
from quadpair.modarith import PrimePower
from quadpair.quadforms import residue_grid


def brute_count(matrix, a_vec, q):
    grid = residue_grid(q, len(matrix[0]))
    M = np.array(matrix, dtype=np.int64)
    a = np.array(a_vec, dtype=np.int64)
    hits = ((grid @ M.T - a) % q == 0).all(axis=1)
    return int(hits.sum())


def test_bareiss_det_matches_sympy():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(1, 5)
        M = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(M) == int(sympy.Matrix(M).det())


def test_rank_rational():
    assert rank_rational([[1, 2], [2, 4]]) == 1
    assert rank_rational([[0, 0], [0, 0]]) == 0
    rng = random.Random(4)
    for _ in range(40):
        r, c = rng.randrange(1, 4), rng.randrange(1, 5)
        M = [[rng.randrange(-6, 7) for _ in range(c)] for _ in range(r)]
        assert rank_rational(M) == sympy.Matrix(M).rank()


def test_smith_decomposition_properties():
    rng = random.Random(5)
    for _ in range(50):
        r, c = rng.randrange(1, 4), rng.randrange(1, 4)
        M = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
        snf = smith(M)
        assert abs(bareiss_det([list(r) for r in snf.A])) == 1
        assert abs(bareiss_det([list(r) for r in snf.B])) == 1
        # A M B = diag(d), with the divisibility chain d1 | d2 | ...
        D = mat_mul(mat_mul([list(r) for r in snf.A], M), [list(r) for r in snf.B])
        for i in range(r):
            for j in range(c):
                assert D[i][j] == (snf.d[i] if i == j and i < len(snf.d) else 0)
        ds = [d for d in snf.d if d != 0]
        for a, b in zip(ds, ds[1:]):
            assert b % a == 0


def test_count_lincong_vs_brute_and_bound():
    rng = random.Random(6)
    for _ in range(120):
        n = rng.randrange(1, 4)
        k = rng.randrange(1, 3)
        q = rng.choice([2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64])
        M = [[rng.randrange(-q, q) for _ in range(n)] for _ in range(k)]
        a = [rng.randrange(q) for _ in range(k)]
        got = count_lincong(M, a, q)
        assert got == brute_count(M, a, q), (M, a, q)
        assert got <= smith_bound(M, PrimePower.of(q))


def test_count_lincong_composite_modulus():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(1, 4)
        M = [[rng.randrange(-5, 6) for _ in range(n)]]
        a = [rng.randrange(12)]
        for q in (6, 12, 18, 36):
            assert count_lincong(M, a, q) == brute_count(M, a, q)


def test_count_lincong_edges():
    assert count_lincong([[0, 0]], [0], 9) == 81
    assert count_lincong([[0, 0]], [3], 9) == 0
    assert count_lincong([[1]], [5], 1) == 1
    with pytest.raises(ValueError):
        count_lincong([[1]], [0], 0)
    # more rows than unknowns
    assert count_lincong([[1], [2]], [1, 2], 5) == 1
    assert count_lincong([[1], [2]], [1, 3], 5) == 0


def _span(part, basis, p):
    """Every part + sum c_i basis_i over F_p, as a set of tuples."""
    pts = {tuple(part)}
    for vec in basis:
        pts = {tuple((x + c * v) % p for x, v in zip(pt, vec))
               for pt in pts for c in range(p)}
    return pts


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_solve_mod_p_vs_enumeration(p):
    rng = random.Random(p)
    for trial in range(30):
        n = rng.randrange(1, 5)
        nrows = (2, 3, n)[trial % 3]
        rows = [[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(nrows)]
        if trial % 2 and nrows > 1:
            # a dependent row makes inconsistent right-hand sides likely
            rows[-1] = [(rng.randrange(p) * a) for a in rows[0]]
        rhs = [rng.randrange(-p, 2 * p) for _ in range(nrows)]
        grid = residue_grid(p, n)
        M = np.array(rows, dtype=np.int64)
        solutions = {tuple(map(int, t))
                     for t in grid[((grid @ M.T - np.array(rhs)) % p == 0).all(axis=1)]}
        kernel = int(((grid @ M.T) % p == 0).all(axis=1).sum())

        got = solve_mod_p(rows, rhs, p)
        if not solutions:
            assert got is None
        else:
            part, basis = got
            assert len(solutions) == p ** len(basis)
            assert _span(part, basis, p) == solutions
        _, zero_basis = solve_mod_p(rows, [0] * nrows, p)
        rank = n - len(zero_basis)
        assert kernel == p ** (n - rank)
        # each basis vector is 1 at the column where it ends, and the
        # columns where none ends are independent
        ends = [max(i for i, v in enumerate(vec) if v) for vec in zero_basis]
        assert len(set(ends)) == len(ends)
        assert all(vec[e] == 1 for vec, e in zip(zero_basis, ends))
        pivots = [c for c in range(n) if c not in ends]
        if pivots:
            _, sub_basis = solve_mod_p([[r[c] for c in pivots] for r in rows],
                                       [0] * nrows, p)
            assert not sub_basis


def test_mat_mul_rejects_mismatched_shapes():
    assert mat_mul([[1, 2]], [[3], [4]]) == [[11]]
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[3, 4]])
