import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from quadpair.counting import WeightFunction
from quadpair import densities, quadforms
from quadpair.densities import (
    ExperimentResult,
    Ntilde,
    certified_good,
    sigma_2,
    sigma_infinity,
    sigma_p,
    sigma_p_truncated,
    singular_constant,
    tau_infinity,
    two_squares_closed_form,
    two_squares_count,
)
from quadpair.densities import _sigma2_fraction  # depth probe used below
from quadpair.guard import DEFAULT_GUARD, ResourceGuardError
from quadpair.modarith import is_prime
from quadpair.pairs import demo_pair_7, shipped_pair, toy_pair_2, toy_pair_3
from quadpair.quadforms import (
    QuadraticForm,
    QuadricPair,
    count_cone_points_mod_p,
    residue_blocks,
    residue_grid,
)


def test_two_squares_closed_form_small_sweep():
    for p, kmax in ((3, 3), (5, 2), (7, 2), (13, 2)):
        for k in range(1, kmax + 1):
            for A in range(p**k):
                assert two_squares_closed_form(A, p, k) == two_squares_count(
                    A, p, k
                ), (p, k, A)
    for k in (2, 3):
        for A in range(1, 2 ** (k + 1), 2):
            assert two_squares_closed_form(A, 2, k) == two_squares_count(A, 2, k)


def test_two_squares_hand_values():
    # p = 5, k = 1: A = 0 has the 9 solutions (0,0) and x = +/-2y, y != 0
    assert two_squares_closed_form(0, 5, 1) == 9
    assert two_squares_count(0, 5, 1) == 9
    # p = 3: x^2 + y^2 = 1 mod 3 has (0,+/-1),(+/-1,0)
    assert two_squares_closed_form(1, 3, 1) == 4
    # p = 2, k = 2: A = 1 mod 4 gives 2^{k+1}, A = 3 mod 4 gives none
    assert two_squares_closed_form(1, 2, 2) == 8
    assert two_squares_closed_form(3, 2, 2) == 0


def test_two_squares_closed_form_rejections():
    with pytest.raises(ValueError):
        two_squares_closed_form(2, 2, 2)  # even A at p = 2
    with pytest.raises(ValueError):
        two_squares_closed_form(1, 2, 1)  # k = 1 not covered at p = 2


def test_Ntilde_vs_brute():
    for pair in (toy_pair_2(), toy_pair_3()):
        p, k = 3, 2
        grid = residue_grid(p**k, pair.n)
        q2 = pair.Q2.eval_batch_mod(grid, p**k)
        q1 = pair.Q1.eval_batch_mod(grid, p**k)
        for e in range(k + 1):
            want = int(((q1 % p**e == 0) & (q2 == 0)).sum())
            assert Ntilde(pair, p, k, e) == want, (pair.n, e)


def test_sigma_p_hensel_on_good_primes():
    for pair in (shipped_pair(), toy_pair_3()):
        for p in (11, 13):
            assert certified_good(pair, p)
            k1 = sigma_p(pair, p, k_max=1)
            k2 = sigma_p(pair, p, k_max=2)
            assert k1.fraction == k2.fraction
            assert k2.converged


def test_sigma_p_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sigma_p(toy_pair_3(), 4)
    with pytest.raises(ValueError):
        sigma_p(toy_pair_3(), 2)
    with pytest.raises(ValueError):
        sigma_p(toy_pair_2(), 3)  # n = 2 has no stabilized limit


def test_sigma_p_truncated_toy_value():
    # raw truncation at p = 3, k = 2 on the n = 2 toy, against direct counts
    pair = toy_pair_2()
    p, k = 3, 2
    total = sum((-1) ** e * Ntilde(pair, p, k, e) for e in range(k + 1))
    want = (1 - Fraction(-1, 3)) * Fraction(total, 3 ** (k * (pair.n - 1)))
    assert sigma_p_truncated(pair, p, k) == want


def test_sigma_p_matches_truncation_when_stable():
    # on a certified-good prime the stabilized value equals a deep truncation
    pair = toy_pair_3()
    s = sigma_p(pair, 11, k_max=2)
    trunc = sigma_p_truncated(pair, 11, 2)
    assert abs(float(s.fraction) - float(trunc)) <= float(trunc) * 2e-2


def test_certified_good_excludes_divisors():
    ship = shipped_pair()
    for p in (3, 5):
        assert not certified_good(ship, p)
    assert certified_good(ship, 11)


def test_sigma_2_toy_is_depth_stable():
    toy = toy_pair_2()
    assert _sigma2_fraction(toy, 3) == _sigma2_fraction(toy, 4) == 4
    s = sigma_2(toy, k_max=4)
    assert s.stabilized and s.fraction == 4


def test_sigma_2_shipped_depth_profile():
    ship = shipped_pair()
    assert _sigma2_fraction(ship, 2) == Fraction(1, 4)
    assert _sigma2_fraction(ship, 4) == Fraction(1, 4)
    s = sigma_2(ship, k_max=4)
    assert s.fraction == Fraction(1, 4) and s.stabilized
    # the count jumps once more at depth 5 and holds at depth 6; k_max = 5
    # reports the new value with stabilized = False, k_max = 6 certifies it
    s = sigma_2(ship, k_max=5)
    assert s.fraction == Fraction(5, 16) and not s.stabilized
    s = sigma_2(ship, k_max=6, guard=DEFAULT_GUARD)
    assert s.k_used == 6 and s.fraction == Fraction(5, 16) and s.stabilized
    # the guard charges the 2^15 classes x0 mod 8 at each of depths 5 and 6
    with pytest.raises(ResourceGuardError):
        sigma_2(ship, k_max=6, guard=2 * 2**15 - 1)


def test_tau_infinity_toy_oracle():
    toy = toy_pair_2()
    W = WeightFunction((1.0, 0.0), 0.3)
    tau = tau_infinity(toy.Q2, W)
    nodes, wts = np.polynomial.legendre.leggauss(60)
    x = 1.0 + 0.3 * nodes
    t = ((x - 1.0) / 0.3) ** 2
    vals = np.exp(-1.0 / (1 - t)) / (2 * x)
    oracle = float((vals * wts).sum() * 0.3)
    assert tau.coarea == pytest.approx(oracle, rel=1e-2)
    assert tau.spread <= 0.05
    assert sigma_infinity(toy.Q2, W) == pytest.approx(math.pi * tau.slab)


def test_tau_infinity_epsilon_ladder_converged():
    ship = shipped_pair()
    W = WeightFunction.default_for_pair(ship)
    tau = tau_infinity(ship.Q2, W)
    ladder = tau.slab_ladder
    assert len(ladder) >= 2
    # halving the slab width at the finest rung moves the estimate < 2%
    assert abs(ladder[-1] - ladder[-2]) <= 0.02 * abs(ladder[-1])


def test_experiment_result_csv_shape():
    rows = ((8.0, 1.5, 0.1, 0.2, 0.5),)
    res = ExperimentResult.__new__(ExperimentResult)
    object.__setattr__(res, "report", None)
    object.__setattr__(res, "rows", rows)
    text = res.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "B,S_B,S_over_Bn2,c_trunc,ratio"
    assert lines[1].startswith("8,1.5,0.1,0.2,0.5")


def test_guard_paths():
    # a pair no other test touches, so the local-data cache cannot
    # already hold the answer the guard is supposed to forbid computing
    pair = QuadricPair.build(
        QuadraticForm.diagonal([1, 1, 2]), QuadraticForm.diagonal([1, 5, -7])
    )
    with pytest.raises(ResourceGuardError):
        sigma_p(pair, 13, guard=10**2)


# --------------------------------------------------------------------------
# the closed-form routes against the sweeps they replace
# --------------------------------------------------------------------------


def _seeded_pair_n4(seed, zero_diagonal):
    """A non-diagonal n = 4 pair with det2 != 0 and disc_P != 0; with
    zero_diagonal, both matrices have M[0][0] = 0."""
    rng = random.Random(seed)
    while True:
        mats = []
        for _ in range(2):
            m = [[0] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i, 4):
                    m[i][j] = m[j][i] = rng.randint(-3, 3)
            if zero_diagonal:
                m[0][0] = 0
            mats.append(m)
        Q1, Q2 = (QuadraticForm.from_matrix(m) for m in mats)
        try:
            pair = QuadricPair.build(Q1, Q2)
        except ValueError:  # singular Q2
            continue
        if pair.disc_P != 0 and not Q1.is_diagonal() and not Q2.is_diagonal():
            return pair


ORACLE_PAIRS = {
    "shipped": shipped_pair,
    "toy_n3": toy_pair_3,
    "demo_n7": demo_pair_7,
    "seeded_n4": lambda: _seeded_pair_n4(1, False),
    "seeded_n4_zero_diag": lambda: _seeded_pair_n4(2, True),
}


def _odd_primes(lo, hi):
    return [p for p in range(lo, hi + 1) if p > 2 and is_prime(p)]


def _sigma2_sweep(pair, k):
    """_sigma2_fraction by the sweep over all 2^(kn) residues it replaced."""
    n = pair.n
    q = 2**k
    count = 0
    for block in residue_blocks(q, n):
        good1 = pair.Q1.eval_batch_mod(block % 4, 4) == 1
        good2 = pair.Q2.eval_batch_mod(block, q) == 0
        count += int((good1 & good2).sum())
    return Fraction(2 * count, 2 ** (k * (n - 1)))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_single_form_gauss_sum_vs_enumeration(p):
    # low-rank forms B^T D B, some with zero diagonal entries, so that the
    # pivot minor is not the leading one
    rng = random.Random(p)
    for trial in range(25):
        n = rng.randrange(1, 5)
        k = rng.randrange(0, n + 1)
        B = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(k)]
        D = [rng.randrange(-3, 4) for _ in range(k)]
        m = [[sum(B[t][i] * D[t] * B[t][j] for t in range(k)) for j in range(n)]
             for i in range(n)]
        if trial % 3 == 0:
            m[0][0] = 0
        grid = residue_grid(p, n)
        M = np.array(m, dtype=np.int64)
        kernel = int(((grid @ M) % p == 0).all(axis=1).sum())
        zeros = int((((grid @ M) * grid).sum(axis=1) % p == 0).sum())
        r, dprime = densities._nondegenerate_part(m, p)
        assert p ** (n - r) == kernel, m
        assert dprime % p != 0, m
        assert p * zeros == p**n + densities._line_gauss_sum(n, r, dprime, p), m


def _zero_counts_sweep(pair, p):
    """(#{Q2 = 0}, #{Q1 = Q2 = 0}) over F_p^n, Q1 evaluated only where
    Q2 vanishes."""
    n2 = n12 = 0
    for block in residue_blocks(p, pair.n):
        zeros2 = block[pair.Q2.eval_batch_mod(block, p) == 0]
        n2 += len(zeros2)
        n12 += int((pair.Q1.eval_batch_mod(zeros2, p) == 0).sum())
    return n2, n12


@pytest.mark.parametrize("name", sorted(ORACLE_PAIRS))
def test_pencil_counts_match_sweeps(name):
    pair = ORACLE_PAIRS[name]()
    for p in _odd_primes(3, 13):
        counts = densities._pencil_zero_counts(pair, p)
        assert counts == _zero_counts_sweep(pair, p), (name, p)
        if p**pair.n <= 10**7:  # the package's own sweep, where it is cheap
            assert counts[1] == count_cone_points_mod_p(pair, p), (name, p)


@pytest.mark.parametrize("name", ["shipped", "toy_n3", "seeded_n4",
                                  "seeded_n4_zero_diag"])
def test_hensel_local_data_matches_sweep(name):
    # demo_n7 is left out: every odd prime up to 23 divides its det2 disc_P
    pair = ORACLE_PAIRS[name]()
    good = [p for p in _odd_primes(3, 23)
            if quadforms._pencil_roots_distinct_mod_p(pair, p)]
    assert good
    for p in good:
        assert (densities._local_data_pencil(pair, p)
                == densities._local_data_sweep(pair, p)), (name, p)


def test_good_primes_do_not_sweep(monkeypatch):
    pair = QuadricPair.build(
        QuadraticForm.diagonal([1, 1, 1, 1]), QuadraticForm.diagonal([1, 2, -3, 5])
    )

    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran at a good prime")

    monkeypatch.setattr(densities, "_local_data_sweep", no_sweep)
    monkeypatch.setattr(quadforms, "_pencil_rank_ok_mod_p", no_sweep)
    monkeypatch.setattr(quadforms, "_smooth_intersection_mod_p", no_sweep)
    for p in (11, 13, 101):
        assert certified_good(pair, p)
        assert sigma_p(pair, p).converged


SINGULAR_PAIRS = {
    # det(b1 M1 + b2 M2) = -(b1 + b2)^2 (b1 + 2 b2); rank 1 at b1 = -b2
    "repeated_root": lambda: QuadricPair.build(
        QuadraticForm.diagonal([1, -1, 1]), QuadraticForm.diagonal([1, -1, 2])),
    # det(b1 M1 + b2 M2) = -b2^2 (b1 + 2 b2); rank 2 everywhere, singular
    # common zero (0, 1, 0)
    "good_pencil_rank": lambda: QuadricPair.build(
        QuadraticForm.from_matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]]),
        QuadraticForm.from_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 2]])),
    # rank 1 at b2 = 0; no nonzero common zero when p = 3 mod 4
    "low_pencil_rank": lambda: QuadricPair.build(
        QuadraticForm.diagonal([1, 0, 0]), QuadraticForm.diagonal([1, 1, 1])),
}


@pytest.mark.parametrize("name", ["shipped", "toy_n3", "seeded_n4",
                                  *SINGULAR_PAIRS])
def test_certified_good_agrees_with_bad_primes(name):
    pair = {**ORACLE_PAIRS, **SINGULAR_PAIRS}[name]()
    good = quadforms.certified_good_primes(pair, 23)
    for p in range(2, 24):
        assert certified_good(pair, p) == (p in good), (name, p)


def test_sigma_p_at_101_fits_default_guard():
    s = sigma_p(shipped_pair(), 101, k_max=2, guard=DEFAULT_GUARD)
    assert s.converged and s.k_used == 2


def test_singular_constant_to_p_max_1000():
    # 101^5 > 1e9 made the sweep route refuse every prime past 61
    ship = shipped_pair()
    report = singular_constant(ship, WeightFunction.default_for_pair(ship),
                               p_max=1000, guard=DEFAULT_GUARD)
    assert len(report.primes) == 167 and report.primes[-1].p == 997
    assert all(s.converged for s in report.primes)


@pytest.mark.parametrize("name,k_max", [("toy_n2", 5), ("toy_n3", 5),
                                        ("shipped", 5), ("demo_n7", 3)])
def test_sigma2_fraction_matches_sweep(name, k_max):
    pair = {"toy_n2": toy_pair_2, "toy_n3": toy_pair_3,
            "shipped": shipped_pair, "demo_n7": demo_pair_7}[name]()
    for k in range(2, k_max + 1):
        assert _sigma2_fraction(pair, k) == _sigma2_sweep(pair, k), (name, k)


def test_singular_pair_keeps_the_sweep(monkeypatch):
    # det(b1 M1 + b2 M2) = -(b1 + b2)^2 (b1 + 2 b2): a repeated root, and
    # (1, 1, 0) is a singular common zero mod every p
    pair = QuadricPair.build(
        QuadraticForm.diagonal([1, -1, 1]), QuadraticForm.diagonal([1, -1, 2])
    )
    assert pair.disc_P == 0 and pair.bad_primes == (2,)

    def no_closed_form(*args, **kwargs):
        raise AssertionError("closed form ran on a singular pair")

    primes = (3, 11, 13)
    with monkeypatch.context() as mp:
        mp.setattr(densities, "_local_data_pencil", no_closed_form)
        got = {p: sigma_p(pair, p) for p in primes}
        for p in primes:
            assert not certified_good(pair, p)
    differs = False
    for p in primes:
        # depth-2 primitive counts straight from the definition
        q = p * p
        grid = residue_grid(q, 3)
        grid = grid[(grid % p != 0).any(axis=1)]
        v1 = pair.Q1.eval_batch_mod(grid, q)
        v2 = pair.Q2.eval_batch_mod(grid, q)
        deep2 = v2 == 0
        star2 = tuple(int((deep2 & (v1 % p**e == 0)).sum()) for e in range(3))
        sweep = densities._local_data(pair, p)
        assert sweep.star2 == star2, p
        want = densities._stabilized_sigma(pair, p, 2)
        assert got[p].k_used == 2 and got[p].fraction == want, p
        differs |= densities._local_data_pencil(pair, p).star2 != star2
    # Hensel lifting would have been wrong here
    assert differs
