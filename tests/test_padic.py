import math
import random
import tracemalloc

import numpy as np
import pytest

from quadpair.expsums import rho, rho_star
from quadpair.guard import ResourceGuardError
from quadpair.padic import (
    _lift_count,
    count_congruence_pair,
    count_divisibility,
    count_divisibility_primitive,
)
from quadpair import padic, quadforms
from quadpair.pairs import demo_pair_7, shipped_pair, toy_pair_2, toy_pair_3
from quadpair.quadforms import (
    QuadraticForm,
    QuadricPair,
    grid_blocks,
    residue_grid,
    residue_zeros_mod_p,
)


def brute_pair_count(pair, p, R, r1, r2):
    q = p**R
    grid = residue_grid(q, pair.n)
    ok = (pair.Q1.eval_batch_mod(grid, p**r1) == 0) & (
        pair.Q2.eval_batch_mod(grid, p**r2) == 0
    )
    return int(ok.sum())


@pytest.mark.parametrize("pair_fn", [toy_pair_2, toy_pair_3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_count_congruence_pair_vs_brute(pair_fn, p):
    pair = pair_fn()
    for R in (1, 2):
        for r1 in range(R + 1):
            for r2 in range(R + 1):
                got = count_congruence_pair(pair, p, R, r1, r2)
                want = brute_pair_count(pair, p, R, r1, r2)
                assert got == want, (p, R, r1, r2)


def test_count_congruence_pair_depth_three():
    pair = toy_pair_3()
    got = count_congruence_pair(pair, 3, 3, 2, 3)
    assert got == brute_pair_count(pair, 3, 3, 2, 3)


def test_primitive_counts_layer():
    pair = toy_pair_3()
    p, R = 3, 2
    whole = count_congruence_pair(pair, p, R, R, R)
    prim = padic._count_congruence_pair_primitive(pair, p, R, R, R)
    # non-primitive solutions are p * (anything mod p^{R-1}) satisfying the
    # divided congruences; for R = 2 and quadratics that is every x mod p
    q = p**R
    grid = residue_grid(q, pair.n)
    nonprim = ((grid % p == 0).all(axis=1)) & (
        (pair.Q1.eval_batch_mod(grid, q) == 0)
        & (pair.Q2.eval_batch_mod(grid, q) == 0)
    )
    assert prim == whole - int(nonprim.sum())


def test_count_divisibility_wrappers():
    pair = toy_pair_2()
    # d1 | Q1, d2 | Q2 with d1 = d2 = 3 equals the rho(3) count
    assert count_divisibility(pair, 3, 3) == 1
    assert count_divisibility_primitive(pair, 3, 3) == 0
    grid = residue_grid(6, 2)
    want = int(
        (
            (pair.Q1.eval_batch_mod(grid, 2) == 0)
            & (pair.Q2.eval_batch_mod(grid, 3) == 0)
        ).sum()
    )
    assert count_divisibility(pair, 2, 3) == want


@pytest.mark.parametrize("d1,d2", [(3, 5), (9, 2), (4, 6), (5, 25)])
def test_count_divisibility_counts_mod_lcm(d1, d2):
    pair = toy_pair_3()
    grid = residue_grid(math.lcm(d1, d2), pair.n)
    want = int(((pair.Q1.eval_batch_mod(grid, d1) == 0)
                & (pair.Q2.eval_batch_mod(grid, d2) == 0)).sum())
    assert count_divisibility(pair, d1, d2) == want


def _random_coupled_pair(rng, n):
    while True:
        mats = []
        for _ in range(2):
            M = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    M[i][j] = M[j][i] = rng.randrange(-4, 5)
            mats.append(M)
        try:
            return QuadricPair.build(*map(QuadraticForm.from_matrix, mats))
        except ValueError:  # singular M2
            continue


def _zero_sweep_cases():
    for make in (shipped_pair, toy_pair_2, toy_pair_3, demo_pair_7):
        for p in (2, 3, 5):
            yield make(), p
    rng = random.Random(8)
    for n in (3, 4):
        for p in (2, 3, 5, 7):
            for _ in range(3):
                yield _random_coupled_pair(rng, n), p
    # no t^2 term in either form mod 5: the prefix solve uses Q1 alone
    M1 = [[1, 2, 0], [2, -1, 1], [0, 1, 5]]
    M2 = [[3, 0, 1], [0, 2, -1], [1, -1, -10]]
    yield QuadricPair.build(QuadraticForm.from_matrix(M1),
                            QuadraticForm.from_matrix(M2)), 5
    # Q2 = 2 Q1 mod 5: every prefix leaves all p values of t to try
    M1 = [[1, 1, 0, 2], [1, -2, 1, 0], [0, 1, 3, 1], [2, 0, 1, -1]]
    M2 = [[2 * v + (5 if i == j else 0) for j, v in enumerate(row)]
          for i, row in enumerate(M1)]
    yield QuadricPair.build(QuadraticForm.from_matrix(M1),
                            QuadraticForm.from_matrix(M2)), 5
    # only Q2 has a t^2 term mod 7: Q2 is the form checked at each candidate
    M1 = [[1, 1, 0, 2], [1, -2, 1, 0], [0, 1, 3, 1], [2, 0, 1, 7]]
    M2 = [[2, 0, 1, 1], [0, 1, 0, -1], [1, 0, -1, 0], [1, -1, 0, 3]]
    yield QuadricPair.build(QuadraticForm.from_matrix(M1),
                            QuadraticForm.from_matrix(M2)), 7
    # Q1's last column couples to the prefix mod 5, Q2's does not
    M1 = [[1, 0, 1, 2], [0, 2, -1, 1], [1, -1, -1, 0], [2, 1, 0, 3]]
    M2 = [[2, 1, 0, 5], [1, -1, 1, 0], [0, 1, 1, 10], [5, 0, 10, 1]]
    yield QuadricPair.build(QuadraticForm.from_matrix(M1),
                            QuadraticForm.from_matrix(M2)), 5


def _full_sweep(pair, p, grid):
    mask = (pair.Q1.eval_batch_mod(grid, p) == 0) & (
        pair.Q2.eval_batch_mod(grid, p) == 0
    )
    return grid[mask]


def test_residue_zeros_mod_p():
    # the same rows in the same order as the mask over all p^n residues
    cases = 0
    for pair, p in _zero_sweep_cases():
        want = _full_sweep(pair, p, residue_grid(p, pair.n))
        got = residue_zeros_mod_p(pair, p)
        assert got.dtype == want.dtype and np.array_equal(got, want), (pair, p)
        cases += 1
    assert cases == 40


def _sweep_blocks(p, n):
    return grid_blocks([np.arange(p, dtype=np.int64)] * n)


@pytest.mark.parametrize("budget", [1, 7, 40])
def test_residue_zeros_mod_p_in_chunked_sweep_order(monkeypatch, budget):
    # a chunked sweep lists the residues in lexicographic order, block
    # after block; the zeros follow it
    monkeypatch.setattr(quadforms, "_BLOCK_ROWS", budget)
    rng = random.Random(budget)
    for pair, p in ((toy_pair_3(), 5), (_random_coupled_pair(rng, 4), 3),
                    (_random_coupled_pair(rng, 3), 7)):
        blocks = [_full_sweep(pair, p, b) for b in _sweep_blocks(p, pair.n)]
        assert len(blocks) > 1
        assert np.array_equal(residue_zeros_mod_p(pair, p), np.concatenate(blocks))


@pytest.mark.parametrize("budget", [1, 7, 40, None])
def test_residue_zeros_mod_p_order_ignores_the_block_budget(monkeypatch, budget):
    # whatever the budget, the zeros are the residue_grid mask, row for row
    if budget is not None:
        monkeypatch.setattr(quadforms, "_BLOCK_ROWS", budget)
    rng = random.Random(11)
    for pair, p in ((toy_pair_3(), 5), (_random_coupled_pair(rng, 4), 5),
                    (_random_coupled_pair(rng, 3), 7), (shipped_pair(), 7)):
        want = _full_sweep(pair, p, residue_grid(p, pair.n))
        got = residue_zeros_mod_p(pair, p)
        assert got.dtype == want.dtype and np.array_equal(got, want), (pair, p)


def _free_line_pair(p):
    """An n = 4 pair with Q2 = 2 Q1 mod p, which leaves all p values of the
    last coordinate free at every prefix."""
    M1 = [[1, 1, 0, 2], [1, -2, 1, 0], [0, 1, 3, 1], [2, 0, 1, -1]]
    M2 = [[2 * v + (p if i == j else 0) for j, v in enumerate(row)]
          for i, row in enumerate(M1)]
    return QuadricPair.build(QuadraticForm.from_matrix(M1),
                             QuadraticForm.from_matrix(M2))


@pytest.mark.parametrize("budget", [None, 40, 2**15])
def test_residue_zeros_mod_p_sorts_as_the_lexsort(monkeypatch, budget):
    # the zeros in any order, sorted lexicographically: column 0 slowest
    if budget is not None:
        monkeypatch.setattr(quadforms, "_BLOCK_ROWS", budget)
    rng = np.random.default_rng(5)
    for pair, p in ((toy_pair_3(), 5), (shipped_pair(), 7), (toy_pair_3(), 31),
                    (_random_coupled_pair(random.Random(7), 4), 7),
                    (_free_line_pair(31), 31)):
        Z = residue_zeros_mod_p(pair, p)
        shuffled = Z[rng.permutation(len(Z))]
        want = shuffled[np.lexsort(shuffled.T[::-1])]
        assert Z.dtype == np.int64 and np.array_equal(Z, want), (pair, p)


def test_free_prefixes_stay_within_the_block_budget(monkeypatch):
    # Q2 = 2 Q1 mod 31 leaves all p values of t at every prefix; they are
    # tried in chunks, so past the output's copies the peak is a small
    # multiple of the block budget (all p^n pairs at once would pass it)
    p, budget = 31, 2**15
    pair = _free_line_pair(p)
    monkeypatch.setattr(quadforms, "_BLOCK_ROWS", budget)
    want = np.concatenate([_full_sweep(pair, p, b) for b in _sweep_blocks(p, pair.n)])
    tracemalloc.start()
    try:
        got = residue_zeros_mod_p(pair, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 16 * 8 * budget + 4 * got.nbytes


def test_guard_raises():
    pair = toy_pair_3()
    with pytest.raises(ResourceGuardError):
        count_congruence_pair(pair, 101, 4, 4, 4, guard=10**6)


def test_lift_count_guard_raises_at_two():
    # the first digit of x = 0 is degenerate and costs 2^5 children
    with pytest.raises(ResourceGuardError) as err:
        count_congruence_pair(shipped_pair(), 2, 3, 3, 3, guard=31)
    assert err.value.operation == "count_congruence_pair"


def test_only_powers_of_two_lift_digits(monkeypatch):
    primes = []
    lift = padic._lift_count

    def record(pair, p, *args, **kwargs):
        primes.append(p)
        return lift(pair, p, *args, **kwargs)

    monkeypatch.setattr(padic, "_lift_count", record)
    pair = shipped_pair()
    for d in (3, 9, 27, 5, 25, 7, 11, 13, 15):
        rho(pair, d)
        rho_star(pair, d)
        count_divisibility(pair, d, 3 * d)
        count_divisibility_primitive(pair, 3 * d, d)
    assert primes == []
    for d in (2, 4, 8, 12):
        rho(pair, d)
        rho_star(pair, d)
        count_divisibility(pair, d, 2 * d)
    assert primes and set(primes) == {2}


@pytest.mark.parametrize("p,R", [(3, 6), (5, 4)])
def test_deep_counts_match_digit_lifting(p, R):
    pair = shipped_pair()
    assert count_congruence_pair(pair, p, R, R, R) == _lift_count(pair, p, R, R, R)
