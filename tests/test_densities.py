import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quadpair.counting import WeightFunction
from quadpair import densities, padic, quadforms
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
from quadpair.lincong import jordan_gauss_sum
from quadpair.modarith import is_prime
from quadpair.padic import _gauss_count, _lift_count, count_congruence_pair
from quadpair.pairs import demo_pair_7, shipped_pair, toy_pair_2, toy_pair_3
from quadpair.quadforms import (
    QuadraticForm,
    QuadricPair,
    count_cone_points_mod_p,
    load_pair,
    residue_blocks,
    residue_grid,
)

PAIRS_DIR = Path(__file__).resolve().parent.parent / "pairs"


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


def test_singular_constant_raises_when_sigma_2_trips_the_guard():
    # the guard admits tau_infinity and sigma_p but not sigma_2 at k_max = 9;
    # the constant is refused rather than taken at a shallower 2-adic depth
    pair = toy_pair_3()
    W = WeightFunction.default_for_pair(pair)
    guard = 10**4
    assert densities._sigma2_cost(pair.n, 8) <= guard < densities._sigma2_cost(pair.n, 9)
    tau_infinity(pair.Q2, W, guard=guard)
    assert sigma_p(pair, 3, k_max=9, guard=guard).converged
    with pytest.raises(ResourceGuardError) as err:
        singular_constant(pair, W, p_max=3, k_max=9, guard=guard)
    assert err.value.operation == "sigma_2"


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


def test_tau_infinity_refuses_support_on_the_vertex():
    # guard 0 trips the first grid pass, so a ValueError shows the weight
    # was refused before any integration, a ResourceGuardError that it
    # passed the check
    ship = shipped_pair()
    x0 = np.array(WeightFunction.default_for_pair(ship).x0)
    W = WeightFunction(tuple(0.05 * x0 / np.linalg.norm(x0)), rho=1.0)
    with pytest.raises(ValueError, match="vertex"):
        tau_infinity(ship.Q2, W, guard=0)
    with pytest.raises(ValueError, match="non-singular"):
        tau_infinity(QuadraticForm.diagonal([1, -1, 0, 2, 1]), W, guard=0)
    for name in ("shipped_n5", "demo_n7", "toy_n3", "toy_n2"):
        pair = load_pair(PAIRS_DIR / f"{name}.pair")
        with pytest.raises(ResourceGuardError):
            tau_infinity(pair.Q2, WeightFunction.default_for_pair(pair), guard=0)


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
    # sigma_p at a prime the guard cannot afford must raise, not truncate
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


def _gauss_sums_by_enumeration(m, p, R):
    """[G_{p^R}(lambda M) for lambda = 1, ..., p - 1], summed over the grid
    as floats (one histogram of x^T M x mod p^R serves every lambda)."""
    q = p**R
    grid = residue_grid(q, len(m))
    M = np.array(m, dtype=np.int64)
    hist = np.bincount((((grid @ M) % q) * grid).sum(axis=1) % q, minlength=q)
    v = np.arange(q)
    return [complex((hist * np.exp(2j * np.pi * lam * v / q)).sum())
            for lam in range(1, p)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_single_form_gauss_sum_vs_enumeration(p):
    # low-rank forms B^T D B, some with zero diagonal entries, so that the
    # pivot is not the leading entry or lies off the diagonal
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
        for R in (1, 2):
            if p ** (R * n) > 10**6:
                continue
            got = jordan_gauss_sum(m, p, R)
            sums = _gauss_sums_by_enumeration(m, p, R)
            scale = p ** (R * n)
            # the sum over the unit multiples is (p - 1) G when G is an
            # integer and 0 otherwise, which is what jordan_gauss_sum returns
            assert abs(sum(sums) - (p - 1) * got) < 1e-6 * scale, (m, R)
            if got:
                assert abs(sums[0] - got) < 1e-6 * scale, (m, R)
            else:
                assert abs(sums[0].real) > 0.5 or abs(sums[0].imag) > 0.5, (m, R)


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
        counts = (_gauss_count(pair, p, 1, 0, 1), _gauss_count(pair, p, 1, 1, 1))
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
        # depth 2 lifted by Hensel from depth 1 against the Gauss-sum count
        # at depth 2, and both depths against digit lifting where that is
        # quick
        depth1 = densities._primitive_counts(pair, p, 1)
        hensel = densities._hensel_lift(pair.n, p, depth1)
        assert hensel == densities._primitive_counts(pair, p, 2), (name, p)
        inner = _gauss_count(pair, p, 1, 0, 0)
        assert hensel == [_gauss_count(pair, p, 2, e, 2) - inner
                          for e in range(3)], (name, p)
        if p**pair.n <= 10**6:
            for k, got in ((1, depth1), (2, hensel)):
                # at k <= 2 every imprimitive x = p y counts: p^(n(k-1)) of them
                inner = _lift_count(pair, p, k - 1, 0, 0)
                assert got == [_lift_count(pair, p, k, e, k) - inner
                               for e in range(k + 1)], (name, p, k)


def test_good_primes_do_not_sweep(monkeypatch):
    pair = QuadricPair.build(
        QuadraticForm.diagonal([1, 1, 1, 1]), QuadraticForm.diagonal([1, 2, -3, 5])
    )

    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran at a good prime")

    monkeypatch.setattr(quadforms, "residue_zeros_mod_p", no_sweep)
    monkeypatch.setattr(quadforms, "_pencil_rank_ok_mod_p", no_sweep)
    monkeypatch.setattr(quadforms, "_smooth_intersection_mod_p", no_sweep)
    monkeypatch.setattr(padic, "_lift_count", no_sweep)
    eliminations = []
    jordan = padic.jordan_gauss_sum
    monkeypatch.setattr(padic, "jordan_gauss_sum",
                        lambda *args: eliminations.append(args) or jordan(*args))
    for p in (11, 13, 101):
        assert certified_good(pair, p)
        del eliminations[:]
        assert sigma_p(pair, p).converged
        # the pencil polynomial gives G except at its at most n roots mod p;
        # depth 1 is counted once and depth 2 lifted from it
        assert len(eliminations) <= pair.n, p


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


def test_singular_pair_skips_hensel():
    # det(b1 M1 + b2 M2) = -(b1 + b2)^2 (b1 + 2 b2): a repeated root, and
    # (1, 1, 0) is a singular common zero mod every p
    pair = QuadricPair.build(
        QuadraticForm.diagonal([1, -1, 1]), QuadraticForm.diagonal([1, -1, 2])
    )
    assert pair.disc_P == 0 and pair.bad_primes == (2,)
    differs = False
    for p in (3, 11, 13):
        assert not certified_good(pair, p)
        assert not quadforms._pencil_roots_distinct_mod_p(pair, p)
        # depth-2 primitive counts straight from the definition
        q = p * p
        grid = residue_grid(q, 3)
        grid = grid[(grid % p != 0).any(axis=1)]
        v1 = pair.Q1.eval_batch_mod(grid, q)
        v2 = pair.Q2.eval_batch_mod(grid, q)
        deep2 = v2 == 0
        star2 = [int((deep2 & (v1 % p**e == 0)).sum()) for e in range(3)]
        assert densities._primitive_counts(pair, p, 2) == star2, p
        got = sigma_p(pair, p)
        want = densities._stabilized_sigma(pair, p, star2)
        assert got.k_used == 2 and got.fraction == want, p
        differs |= densities._hensel_lift(
            pair.n, p, densities._primitive_counts(pair, p, 1)) != star2
    # Hensel lifting would have been wrong here
    assert differs


# --------------------------------------------------------------------------
# the Gauss-sum count at every odd prime
# --------------------------------------------------------------------------


# (R, r1, r2) up to depth 3, as deep as _lift_count, the digit-lifting
# oracle, goes in a few seconds per pair; the depth-1 counts
# past that are checked against the sweep in test_pencil_counts_match_sweeps
def _gauss_count_cases(pair, p):
    size = p**pair.n
    depth = 3 if size <= 2 * 10**4 else 2 if size <= 10**5 else 1 if size <= 10**6 else 0
    return [(R, r1, r2) for R in range(1, depth + 1)
            for r1 in range(R + 1) for r2 in range(R + 1)]


@pytest.mark.parametrize("name", [*sorted(ORACLE_PAIRS), *SINGULAR_PAIRS, "toy_n2"])
def test_gauss_count_matches_count_congruence_pair(name):
    # toy_n2 has n = 2 mod 4, where (-1/p)^(n/2) enters the unit blocks
    pair = {**ORACLE_PAIRS, **SINGULAR_PAIRS, "toy_n2": toy_pair_2}[name]()
    for p in _odd_primes(3, 13):
        for R, r1, r2 in _gauss_count_cases(pair, p):
            assert (count_congruence_pair(pair, p, R, r1, r2)
                    == _lift_count(pair, p, R, r1, r2)), (name, p, R, r1, r2)


def test_orbits_partition_the_pairs():
    for p in (3, 5):
        for r1 in range(4):
            for r2 in range(4):
                orbits = list(padic._orbits(p, r1, r2))
                sizes = [(p - 1) * p ** (c - 1) * max(len(a), len(b))
                         for a, b, c in orbits]
                assert 1 + sum(sizes) == p ** (r1 + r2), (p, r1, r2)
                reps = 1 + sum(max(len(a), len(b)) for a, b, _ in orbits)
                assert padic._orbit_count(p, r1, r2) == reps
                # every (a, b) lies in the orbit of exactly one representative
                if p ** (r1 + r2) <= 625:
                    seen = set()
                    for a, b, c in orbits:
                        for x, y in zip(*np.broadcast_arrays(a, b)):
                            orbit = {(lam * int(x) % p**r1, lam * int(y) % p**r2)
                                     for lam in range(1, p ** max(r1, r2))
                                     if lam % p}
                            assert len(orbit) == (p - 1) * p ** (c - 1)
                            assert not orbit & seen
                            seen |= orbit
                    assert len(seen) + 1 == p ** (r1 + r2)


DEMO_N7_SIGMA = {
    3: Fraction(400, 363),
    5: Fraction(15152964, 15249025),
    7: Fraction(2752, 2801),
    11: Fraction(15984, 16105),
    13: Fraction(12377575420, 12445491253),
    17: Fraction(134361861268, 133874406377),
    19: Fraction(137884, 137561),
    23: Fraction(293136, 292561),
}


def test_demo_n7_bad_primes_converge():
    # every odd prime up to 23 divides det2 * disc_P of the n = 7 pair
    pair = demo_pair_7()
    for p in _odd_primes(3, 23):
        s = sigma_p(pair, p, k_max=5, guard=DEFAULT_GUARD)
        assert s.converged and s.fraction == DEMO_N7_SIGMA[p], p


def test_guard_estimate_covers_eliminations(monkeypatch):
    calls = []  # [estimate, eliminations run after it]
    check, jordan = densities.check_guard, padic.jordan_gauss_sum

    def record_check(op, estimate, guard):
        calls.append([estimate, 0])
        return check(op, estimate, guard)

    def record_jordan(*args):
        calls[-1][1] += 1
        return jordan(*args)

    monkeypatch.setattr(densities, "check_guard", record_check)
    monkeypatch.setattr(padic, "jordan_gauss_sum", record_jordan)
    for pair, primes in ((shipped_pair(), (3, 5, 7, 11)),
                         (demo_pair_7(), (3, 7, 13)),
                         (SINGULAR_PAIRS["good_pencil_rank"](), (3, 5))):
        for p in primes:
            del calls[:]
            sigma_p(pair, p, k_max=4)
            assert calls and sum(c[1] for c in calls) > 0, p
            for estimate, eliminations in calls:
                assert estimate >= pair.n**3 * eliminations, (p, calls)


def test_sigma_p_never_calls_count_congruence_pair(monkeypatch):
    def no_digit_lifting(*args, **kwargs):
        raise AssertionError("sigma_p ran digit lifting")

    monkeypatch.setattr(padic, "_lift_count", no_digit_lifting)
    for pair, primes in ((shipped_pair(), (3, 5, 7, 11)),
                         (demo_pair_7(), (3, 5)),
                         (SINGULAR_PAIRS["repeated_root"](), (3, 5))):
        for p in primes:
            sigma_p(pair, p, k_max=4)


def test_sigma_p_truncated_reaches_demo_n7(monkeypatch):
    # Ntilde is one Gauss-sum count, so the raw truncation at depth 3 on the
    # n = 7 pair needs no digit lifting (which gives the same fraction in
    # about two minutes); it approaches the limit from below
    def no_digit_lifting(*args, **kwargs):
        raise AssertionError("Ntilde ran digit lifting")

    monkeypatch.setattr(padic, "_lift_count", no_digit_lifting)
    trunc = sigma_p_truncated(demo_pair_7(), 7, 3, guard=DEFAULT_GUARD)
    assert trunc == Fraction(39628800, 40353607)
    assert 0 < DEMO_N7_SIGMA[7] - trunc < Fraction(1, 1000)
