import math

import numpy as np
import pytest

from quadpair.guard import ResourceGuardError
from quadpair.padic import (
    count_congruence_pair,
    count_congruence_pair_primitive,
    count_divisibility,
    count_divisibility_primitive,
    residue_zeros_mod_p,
)
from quadpair.pairs import toy_pair_2, toy_pair_3
from quadpair.quadforms import residue_grid


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
    prim = count_congruence_pair_primitive(pair, p, R, R, R)
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


def test_residue_zeros_mod_p():
    pair = toy_pair_3()
    p = 5
    pts = residue_zeros_mod_p(pair, p)
    grid = residue_grid(p, pair.n)
    mask = (pair.Q1.eval_batch_mod(grid, p) == 0) & (
        pair.Q2.eval_batch_mod(grid, p) == 0
    )
    want = grid[mask]
    got = np.array(sorted(map(tuple, pts)))
    assert (got == np.array(sorted(map(tuple, want)))).all()


def test_guard_raises():
    pair = toy_pair_3()
    with pytest.raises(ResourceGuardError):
        count_congruence_pair(pair, 101, 4, 4, 4, guard=10**6)
