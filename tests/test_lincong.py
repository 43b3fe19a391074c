import math
import random

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from quadpair.lincong import (
    _pivot_valuations,
    bareiss_det,
    count_lincong,
    rank_mod_p,
    rank_rational,
    smith_bound,
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


def _invariant_factors(M):
    snf = smith_normal_form(sympy.Matrix(M), domain=sympy.ZZ)
    return [abs(int(snf[i, i])) for i in range(min(len(M), len(M[0])))]


def _valuation_capped(d, p, r):
    """min(v_p(d), r), with v_p(0) = infinity."""
    return min(sympy.multiplicity(p, d), r) if d else r


def test_pivot_valuations_match_sympy_smith():
    rng = random.Random(5)
    for trial in range(80):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        M = [[rng.randrange(-30, 31) for _ in range(cols)] for _ in range(rows)]
        if trial % 4 == 0:
            M[rng.randrange(rows)] = [0] * cols
        if trial % 4 == 1 and rows > 1:
            M[-1] = [2 * x - 3 * y for x, y in zip(M[0], M[-2])]
        d = _invariant_factors(M)
        for p in (2, 3, 5):
            for r in (1, 2, 4):
                got = _pivot_valuations(M, [0] * rows, p, r)
                # invariant factors divisible by p^r leave no pivot
                got = got + [r] * (len(d) - len(got))
                assert got == [_valuation_capped(di, p, r) for di in d], (M, p, r)


def _sympy_count(M, q):
    """#{x mod q : M x = a} for a in the image of M, from the invariant factors."""
    count = q ** max(len(M[0]) - len(M), 0)
    for d in _invariant_factors(M):
        count *= math.gcd(d, q)
    return count


@pytest.mark.parametrize("cols", [4, 5])
def test_count_lincong_matches_sympy_mod_1024(cols):
    # the 3 x 4 and 3 x 5 shapes on which an integer Smith form's entries
    # grow past thousands of bits
    rng = random.Random(cols)
    q = 1024
    for _ in range(40):
        M = [[rng.randrange(q) for _ in range(cols)] for _ in range(3)]
        x = [rng.randrange(q) for _ in range(cols)]
        rhs = [sum(a * b for a, b in zip(row, x)) % q for row in M]
        assert count_lincong(M, rhs, q) == _sympy_count(M, q), M
        rho = sympy.Matrix(M).rank()
        delta = sum(sympy.multiplicity(2, d) for d in _invariant_factors(M)[:rho])
        assert smith_bound(M, PrimePower.of(q)) == min(2 ** (10 * cols),
                                                       2 ** (10 * (cols - rho) + delta))


def test_smith_bound_past_the_pivot_depth():
    # with rho = 2 and r = 3, delta_p is read mod 2^7: an invariant factor
    # 2^7 leaves no pivot there, and delta_p = 7 > rho r gives p^(n r)
    assert smith_bound([[1, 0], [0, 2**7]], PrimePower.of(8)) == 8**2
    assert smith_bound([[1, 0], [0, 2**5]], PrimePower.of(8)) == 2**5
    assert smith_bound([[4]], PrimePower.of(2)) == 2
    assert smith_bound([[0, 0]], PrimePower.of(9)) == 9**2


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
    for matrix, rhs, q in (([[1]], [0], 0), ([], [], 5), ([[]], [0], 5),
                           ([[1, 2], [3]], [0, 0], 5), ([[1, 2]], [0, 0], 5)):
        with pytest.raises(ValueError):
            count_lincong(matrix, rhs, q)
    # more rows than unknowns
    assert count_lincong([[1], [2]], [1, 2], 5) == 1
    assert count_lincong([[1], [2]], [1, 3], 5) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_mod_p_vs_enumeration(p):
    rng = random.Random(p)
    for trial in range(30):
        n = rng.randrange(1, 5)
        nrows = (2, 3, n)[trial % 3]
        rows = [[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(nrows)]
        if trial % 2 and nrows > 1:
            # a row dependent on the first
            rows[-1] = [(rng.randrange(p) * a) for a in rows[0]]
        grid = residue_grid(p, n)
        kernel = int(((grid @ np.array(rows, dtype=np.int64).T) % p == 0).all(axis=1).sum())
        rank = rank_mod_p(rows, p)
        assert kernel == p ** (n - rank), (rows, rank)
        assert rank == rank_mod_p([list(col) for col in zip(*rows)], p)

