import functools
import math
import random
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from arith_oracles import grid_rows
from quadpair import expsums, quadforms
from quadpair.expsums import (
    D_p2_layered,
    M_mixed,
    Q_q_explicit,
    S_dq,
    S_dq_many,
    S_two_power,
    T_dq,
    rho,
    rho_star,
)
from quadpair.guard import DEFAULT_GUARD, ResourceGuardError
from quadpair.lincong import count_lincong, rank_mod_p
from quadpair.modarith import SumValue, chi4, e_q, factorize, ramanujan, sum_tol
from quadpair.padic import count_congruence_pair, count_divisibility
from quadpair.pairs import demo_pair_7, shipped_pair, toy_pair_2, toy_pair_3
from quadpair.quadforms import (
    QuadraticForm,
    QuadricPair,
    dual_form,
    is_Vm_singular_mod_p,
    load_pair,
    residue_grid,
    residue_zeros_mod_p,
)


def D_d(pair, d, m, guard=DEFAULT_GUARD):
    """D_d(m) = S_{d,1}(m) = sum over k mod d with d | Q_i(k) of e_d(m.k),
    the dispatcher these tests check: D_p2_layered iff d = p^2, p prime,
    else S_dq(pair, d, 1, m)."""
    f = factorize(d)
    if list(f.values()) != [2]:
        return S_dq(pair, d, 1, m, guard=guard)
    (p, _), = f.items()
    return D_p2_layered(pair, p, m, guard=guard)


def pair_n3_unit_det():
    # |2 det| = 44: moduli 3, 5, 7, 9 all admissible for the closed form
    return QuadricPair.build(
        QuadraticForm.diagonal([1, 1, 1]), QuadraticForm.diagonal([1, 2, -11])
    )


def brute_S_dq(pair, d, q, m):
    dq = d * q
    units = [a for a in range(q) if math.gcd(a, q) == 1] or [0]
    total = 0.0 + 0.0j
    for k in product(range(dq), repeat=pair.n):
        if pair.Q1.eval(k) % d or pair.Q2.eval(k) % d:
            continue
        phase = sum(ki * mi for ki, mi in zip(k, m))
        q2 = pair.Q2.eval(k)
        for a in units:
            total += e_q(a * q2 + phase, dq)
    return total


def test_S_dq_two_paths_agree():
    rng = random.Random(1)
    pair = toy_pair_3()
    for d, q in ((1, 4), (2, 3), (3, 2), (4, 1), (1, 9), (6, 1)):
        m = [rng.randrange(d * q) for _ in range(3)]
        a = S_dq(pair, d, q, m, method="direct")
        b = S_dq(pair, d, q, m, method="ramanujan")
        assert a.close_to(b), (d, q, m)


def test_S_dq_matches_slow_reference():
    rng = random.Random(2)
    pair = toy_pair_2()
    for d, q in ((1, 3), (2, 2), (3, 1), (2, 3)):
        m = [rng.randrange(d * q) for _ in range(2)]
        got = S_dq(pair, d, q, m, method="direct")
        assert got.close_to(brute_S_dq(pair, d, q, m)), (d, q, m)


def test_Q_q_explicit_vs_brute_n3():
    rng = random.Random(3)
    pair = pair_n3_unit_det()
    for q in (3, 5, 7, 9):
        for _ in range(4):
            m = [rng.randrange(q) for _ in range(3)]
            closed = Q_q_explicit(pair.Q2, q, m, dual=pair.dual2)
            brute = S_dq(pair, 1, q, m, method="direct")
            scale = max(1.0, abs(brute.value))
            assert abs(closed.value - brute.value) <= 1e-6 * scale, (q, m)


def test_Q_q_explicit_rejects_shared_factor():
    pair = toy_pair_3()  # det = -12
    with pytest.raises(ValueError):
        Q_q_explicit(pair.Q2, 3, [0, 0, 0], dual=pair.dual2)


def test_direct_matches_closed_form_n7():
    rng = random.Random(4)
    pair = demo_pair_7()
    for q in (3, 5):
        m = [rng.randrange(q) for _ in range(7)]
        direct = S_dq(pair, 1, q, m, method="direct")
        closed = Q_q_explicit(pair.Q2, q, m, dual=pair.dual2)
        assert direct.close_to(closed), (q, m)


def test_two_power_sum_level_zero():
    pair = toy_pair_3()
    a_vec = (2, 0, 1)  # Q1 = 5 = 1 mod 4
    for m in ([0, 0, 0], [1, 2, 3], [0, 4, 8]):
        plus = S_two_power(pair, a_vec, 0, +1, m)
        minus = S_two_power(pair, a_vec, 0, -1, m)
        dot = sum(ai * mi for ai, mi in zip(a_vec, m))
        assert plus.close_to(e_q(dot, 4))
        assert minus.close_to(e_q(-dot, 4))
    assert S_two_power(pair, a_vec, 0, +1, [0, 4, 8]).close_to(1.0)


def test_two_power_sum_level_one_brute():
    pair = toy_pair_3()
    a_vec = (2, 0, 1)
    m = [1, 0, 3]
    for sign in (+1, -1):
        got = S_two_power(pair, a_vec, 1, sign, m)
        total = 0.0 + 0.0j
        for k in product(range(8), repeat=3):
            if any((ki - sign * ai) % 4 for ki, ai in zip(k, a_vec)):
                continue
            phase = 4 * 1 * pair.Q2.eval(k) + sum(ki * mi for ki, mi in zip(k, m))
            total += e_q(phase, 8)
        assert got.close_to(total), sign


def test_two_power_sum_rejects_even_class():
    pair = toy_pair_3()
    with pytest.raises(ValueError):
        S_two_power(pair, (0, 0, 0), 0, 1, [0, 0, 0])


def test_T_dq_degenerate_and_periodic():
    pair = toy_pair_3()
    a_vec = (2, 0, 1)
    m = [3, 1, 2]
    dot = sum(ai * mi for ai, mi in zip(a_vec, m))
    assert T_dq(pair, a_vec, 1, 1, m).close_to(e_q(dot, 4))
    shifted = [m[0] + 4 * 3 * 2, m[1], m[2]]
    a = T_dq(pair, a_vec, 3, 2, m)
    b = T_dq(pair, a_vec, 3, 2, shifted)
    assert a.close_to(b)


def test_T_dq_splits_off_two_power():
    pair = toy_pair_3()
    a_vec = (2, 0, 1)
    rng = random.Random(5)
    for d, qp, ell in ((1, 1, 1), (3, 1, 1), (1, 3, 2), (3, 3, 1)):
        q = (2**ell) * qp
        m = [rng.randrange(4 * d * q) for _ in range(3)]
        whole = T_dq(pair, a_vec, d, q, m)
        split = S_dq(pair, d, qp, m, method="direct") * S_two_power(
            pair, a_vec, ell, chi4(d * qp), m
        )
        assert whole.close_to(split), (d, qp, ell)


def test_T_dq_rejects_even_d():
    with pytest.raises(ValueError):
        T_dq(toy_pair_3(), (2, 0, 1), 2, 1, [0, 0, 0])


@pytest.mark.parametrize("call", [
    lambda: T_dq(toy_pair_3(), (2, 0, 1), -1, 2, [1, 2, 3]),
    lambda: T_dq(toy_pair_3(), (2, 0, 1), 1, -2, [1, 2, 3]),
    lambda: T_dq(toy_pair_3(), (2, 0, 1), 1, 0, [1, 2, 3]),
    lambda: T_dq(toy_pair_3(), (2, 0, 1), 0, 2, [1, 2, 3]),
], ids=["T_d-1", "T_q-2", "T_q0", "T_d0"])
def test_bad_moduli_are_rejected(call):
    with pytest.raises(ValueError, match="must be positive"):
        call()


def test_coprime_multiplicativity_samples():
    pair = toy_pair_3()
    rng = random.Random(6)
    done = 0
    while done < 10:
        d1, q1 = rng.choice([(1, 2), (1, 3), (2, 1), (3, 1), (1, 4), (1, 5)])
        d2, q2 = rng.choice([(1, 2), (1, 3), (2, 1), (3, 1), (1, 4), (1, 5)])
        if math.gcd(d1 * q1, d2 * q2) != 1:
            continue
        m = [rng.randrange(d1 * d2 * q1 * q2) for _ in range(3)]
        whole = S_dq(pair, d1 * d2, q1 * q2, m, method="direct")
        split = S_dq(pair, d1, q1, m, method="direct") * S_dq(
            pair, d2, q2, m, method="direct"
        )
        assert whole.close_to(split), (d1, q1, d2, q2)
        done += 1


def test_unit_scaling_invariance():
    pair = toy_pair_2()
    for d, q, h in ((3, 2, 5), (1, 5, 2), (4, 3, 7)):
        m = [1, 2]
        a = S_dq(pair, d, q, m, method="direct")
        b = S_dq(pair, d, q, [h * v for v in m], method="direct")
        assert a.close_to(b), (d, q, h)


def test_D_d_and_rho():
    toy = toy_pair_2()
    assert D_d(toy, 1, [0, 0]).close_to(1.0)
    assert rho(toy, 3) == 1
    assert rho(toy, 1) == 1
    # with m = 0 the sum is the solution count
    assert D_d(toy, 9, [0, 0]).as_integer() == rho(toy, 9)


def test_rho_layering_identity():
    # rho(p^3) = rho*(p^3) + p^n rho*(p) + p^n at p = 3
    toy = toy_pair_2()
    n = toy.n
    lhs = rho(toy, 27)
    rhs = rho_star(toy, 27) + 3**n * rho_star(toy, 3) + 3 ** (1 * n)
    assert lhs == rhs == 9
    toy3 = toy_pair_3()
    lhs = rho(toy3, 27)
    rhs = rho_star(toy3, 27) + 3**3 * rho_star(toy3, 3) + 3**3
    assert lhs == rhs


PAIRS_DIR = Path(__file__).resolve().parent.parent / "pairs"


@pytest.mark.parametrize("name", ["toy_n2", "toy_n3", "shipped_n5", "demo_n7"])
def test_S_dq_at_zero_is_the_p_adic_count(name):
    # c_{p^j}(u) = p^j [p^j | u] - p^(j-1) [p^(j-1) | u] turns S_{p^e,p^j}(0)
    # into p^j N(e, R) - p^(j-1) N(e, R - 1), R = e + j, with N(r1, r2) the
    # count of x mod p^R with p^r1 | Q1(x), p^r2 | Q2(x)
    pair = load_pair(PAIRS_DIR / f"{name}.pair")
    cases = 0
    for p in (2, 3, 5, 7):
        for e in (0, 1, 2):
            for j in (1, 2):
                if p ** (2 * e + j) > 625:
                    continue
                R = e + j
                counts = (p**j * count_congruence_pair(pair, p, R, e, R)
                          - p ** (j - 1) * count_congruence_pair(pair, p, R, e, R - 1))
                assert S_dq(pair, p**e, p**j, [0] * pair.n).close_to(counts), (p, e, j)
                cases += 1
    assert cases == 18


def test_M_mixed_equals_S_dq():
    pair = toy_pair_3()
    rng = random.Random(7)
    for p, r, ell in ((3, 1, 1), (3, 2, 1), (5, 1, 1), (3, 1, 2)):
        m = [rng.randrange(p ** (r + ell)) for _ in range(3)]
        a = M_mixed(pair, p, r, ell, m)
        b = S_dq(pair, p**r, p**ell, m, method="direct")
        assert a.close_to(b), (p, r, ell)
    # the layered route against the defining sum; on the coupled pair the
    # phase m.x0 of the lifted zeros does not cancel by symmetry
    nonzero = 0
    for make in (toy_pair_2, toy_pair_3, LAYERED_AT_5["coupled_n4"][0]):
        pair = make()
        for p in (2, 3, 5, 7):
            ms = [[0] * pair.n] + [[rng.randrange(p * p) for _ in range(pair.n)]
                                   for _ in range(3)]
            for m in ms:
                fast = M_mixed(pair, p, 1, 1, m)
                slow = S_dq(pair, p, p, m)
                assert fast.close_to(slow), (pair.n, p, m, fast, slow)
                nonzero += not slow.is_zero()
    assert nonzero


def test_M_mixed_vanishing_generic_m():
    pair = pair_n3_unit_det()
    rng = random.Random(8)
    done = 0
    while done < 8:
        p = rng.choice([5, 7])
        m = [rng.randrange(p) for _ in range(3)]
        if (2 * pair.det2 * pair.dual2_at(m)) % p == 0:
            continue
        val = M_mixed(pair, p, 1, 1, m)
        assert val.is_zero(), (p, m)
        done += 1


def test_M_mixed_size_spot_check():
    pair = toy_pair_3()
    n = pair.n
    rng = random.Random(9)
    for p, r, ell in ((3, 1, 1), (3, 1, 2), (3, 2, 1), (5, 1, 1)):
        exponent = ell + n * (ell + r) / 2
        if (2 * pair.det2) % p == 0:
            exponent += (n / 2 - 2) * r
        samples = [[0] * n] + [
            [rng.randrange(p ** (r + ell)) for _ in range(n)] for _ in range(3)
        ]
        for m in samples:
            assert abs(M_mixed(pair, p, r, ell, m).value) <= 4.0 * p**exponent


def test_layered_D_p2_matches_direct():
    pair = pair_n3_unit_det()
    from quadpair.densities import certified_good

    ps = [p for p in (5, 7) if certified_good(pair, p)]
    assert ps, "expected a small certified-good prime"
    rng = random.Random(10)
    for p in ps:
        for _ in range(3):
            m = [rng.randrange(p * p) for _ in range(3)]
            fast = D_p2_layered(pair, p, m)
            slow = S_dq(pair, p * p, 1, m)
            assert fast.close_to(slow), (p, m)


# pair, nonzero common zeros mod 5 with an empty fiber mod 25, and m
LAYERED_AT_5 = {
    # eight zeros of rank-1 gradient mod 5 that lift to no zero mod 25
    "toy_n3": (toy_pair_3, 8, ([0, 0, 0], [5, 10, 20], [1, 2, 3])),
    "shipped": (shipped_pair, 8, ([0] * 5, [5, 10, 20, 0, 15], [4, 3, 1, 0, 0])),
    # coupled forms, m on the dual variety mod 5: the phase m.t0 of each
    # fiber matters here, while the symmetries of diagonal pairs cancel it
    "coupled_n4": (lambda: QuadricPair.build(
        QuadraticForm.from_matrix([[3, -2, -3, 0], [-2, -3, 3, 0],
                                   [-3, 3, 0, 1], [0, 0, 1, 3]]),
        QuadraticForm.from_matrix([[3, -3, 2, 0], [-3, -1, 2, 3],
                                   [2, 2, -2, 1], [0, 3, 1, -3]])),
        0, ([0] * 4, [7, 16, 19, 24], [5, 14, 1, 14])),
}


@pytest.mark.parametrize("name", sorted(LAYERED_AT_5))
def test_layered_D_p2_matches_direct_at_5(name):
    make, want_empty, m_list = LAYERED_AT_5[name]
    pair = make()
    p = 5
    empty = 0
    for x in residue_zeros_mod_p(pair, p):
        grads = [pair.Q1.gradient(x), pair.Q2.gradient(x)]
        if x.any() and rank_mod_p(grads, p) < 2:
            a = [-(pair.Q1.eval(x) // p), -(pair.Q2.eval(x) // p)]
            empty += count_lincong(grads, a, p) == 0
    assert empty == want_empty
    for m in m_list:
        fast = D_p2_layered(pair, p, m)
        slow = S_dq(pair, p * p, 1, m)
        assert fast.close_to(slow), (m, fast, slow)


def test_layered_D_p2_tolerance_counts_its_own_fibers():
    # the fibers D_p2_layered walks are exactly the common zeros mod p^2
    pair = shipped_pair()
    for p, npts in ((5, 15125), (7, 148519), (11, 1492051)):
        assert count_divisibility(pair, p * p, p * p) == npts
        val = D_p2_layered(pair, p, [1, 2, 3, 4, 5])
        assert val.tol == sum_tol(npts), p


def test_quadratic_sum_bound_all_instances():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 4)
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randrange(-3, 4)
                entries[i][j] = entries[j][i] = v
        Q = QuadraticForm.from_matrix(entries)
        q = rng.choice([3, 4, 5, 8, 9, 25, 27, 49])
        m = [rng.randrange(q) for _ in range(n)]
        grid = residue_grid(q, n)
        phases = (Q.eval_batch_mod(grid, q) + grid @ np.array(m)) % q
        val = abs(np.exp(2j * np.pi * phases / q).sum())
        twoM = [[2 * x for x in row] for row in Q.M]
        bound = q ** (n / 2) * math.sqrt(count_lincong(twoM, [0] * n, q))
        assert val <= bound + 1e-6, (Q.M, q, m)


def test_rough_divisor_bound_and_average_slope():
    pair = toy_pair_3()
    n = pair.n
    Dhat = 1
    for p in pair.bad_primes:
        Dhat *= p
    for m in ([1, 0, 2], [0, 0, 3], [2, 2, 2]):
        gm = math.gcd(*m)
        running = 0.0
        history = []
        ratios = []
        for d in range(1, 31):
            v = abs(D_d(pair, d, m).value)
            rhs = (
                math.gcd(d, Dhat) ** (n / 2 - 2)
                * d ** (n / 2 + 0.2)
                * math.gcd(d, gm) ** (n / 2 - 2)
            )
            ratios.append(v / rhs)
            running += v
            history.append((d, running))
        assert max(ratios) <= 5.0, m  # fitted constant, stable in reruns
        xs = [math.log(d) for d, s in history if d >= 5]
        ys = [math.log(s) for d, s in history if d >= 5]
        xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sum(
            (x - xm) ** 2 for x in xs
        )
        assert slope <= n / 2 + 0.4, (m, slope)


def odd_q_partial_sums(Q, xs, m):
    """|sum_{q <= x, q odd} Q_q(m)| for each x in xs, by the closed form,
    which holds at every odd q for the forms below: there det M2 = 1 and
    Q*(m) is 1 or 0."""
    dual = dual_form(Q)
    terms = [Q_q_explicit(Q, q, m, dual=dual).value for q in range(1, max(xs) + 1, 2)]
    return [abs(sum(terms[: (x + 1) // 2])) for x in xs]


def test_partial_sum_trivial_and_errors():
    Q3 = QuadraticForm.diagonal([1, 1, 1])
    assert Q_q_explicit(Q3, 1, [1, 0, 0]).close_to(1.0)  # the sum over q <= 1.5
    with pytest.raises(ValueError, match="must be positive"):
        Q_q_explicit(Q3, 0, [1, 0, 0])
    with pytest.raises(ValueError, match="wrong length"):
        Q_q_explicit(Q3, 3, [1, 0])


def slope_of(xs, vals):
    lx = [math.log(x) for x in xs]
    ly = [math.log(v) for v in vals]
    xm, ym = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - xm) * (b - ym) for a, b in zip(lx, ly)) / sum(
        (a - xm) ** 2 for a in lx
    )


def test_partial_sum_growth_generic_dual():
    Q3 = QuadraticForm.diagonal([1, 1, 1])
    xs = [50, 100, 200]
    peak, runmax = 0.0, []
    for val in odd_q_partial_sums(Q3, xs, [1, 0, 0]):
        peak = max(peak, val)
        runmax.append(peak)
    assert slope_of(xs, runmax) <= 3 / 2 + 1.3


def test_partial_sum_growth_dual_zero_square_det():
    Q4 = QuadraticForm.diagonal([1, 1, -1, -1])  # det = 1
    m = [1, 0, 1, 0]
    assert dual_form(Q4).eval(m) == 0
    xs = [50, 100, 200]
    peak, runmax = 0.0, []
    for val in odd_q_partial_sums(Q4, xs, m):
        peak = max(peak, val)
        runmax.append(peak)
    assert abs(slope_of(xs, runmax) - (4 / 2 + 2)) <= 0.3


def test_argument_checks_and_guard():
    pair = toy_pair_3()
    with pytest.raises(ValueError):
        S_dq_many(pair, 1, 2, [[0, 0]])  # m too short
    with pytest.raises(ResourceGuardError):
        S_dq(pair, 97, 89, [0, 0, 0], method="direct")
    with pytest.raises(ValueError):
        S_dq(pair, 1, 7, [1, 2])  # m too short
    for method in ("auto", "factorized"):  # routes no longer offered
        with pytest.raises(ValueError, match="unknown method"):
            S_dq(pair, 1, 7, [1, 2, 3], method=method)
    with pytest.raises(ValueError, match="wrong length"):
        M_mixed(pair, 5, 1, 1, [1, 2])
    with pytest.raises(ValueError, match="wrong length"):
        D_p2_layered(shipped_pair(), 11, [1, 2])


def test_guard_does_not_change_the_value():
    pair = toy_pair_3()
    m = (1, 2, 3)
    routes = {  # each auto route and the charge its guard sees
        "D_d layered": (lambda g: D_d(pair, 25, m, guard=g), 5**3),
        "D_p2_layered": (lambda g: D_p2_layered(pair, 5, m, guard=g), 5**3),
        "M_mixed layered": (lambda g: M_mixed(pair, 5, 1, 1, m, guard=g), 5**3),
    }
    for name, (call, charge) in routes.items():
        small, large = call(10**3), call(10**9)
        assert (small.re, small.im, small.tol) == (large.re, large.im, large.tol), name
        call(charge)
        with pytest.raises(ResourceGuardError):
            call(charge - 1)
    assert D_d(pair, 25, m).close_to(S_dq(pair, 25, 1, m))


# --------------------------------------------------------------------------
# S_dq_many's block join against the single-grid sweep
# --------------------------------------------------------------------------


def zero_mask(pair, X, d):
    """Mask of the rows x of X with d | Q1(x) and d | Q2(x)."""
    return (pair.Q1.eval_batch_mod(X, d) == 0) & (pair.Q2.eval_batch_mod(X, d) == 0)


def sdq_by_sweep(pair, d, q, m_list, method):
    """(re, im, tol) of S_{d,q}(m) for each m by one sweep of all (dq)^n
    residues: the histogram of (Q2, m.k) mod dq over the k with d | Q1(k),
    d | Q2(k), then the same unit weights and phases as S_dq_many."""
    n = pair.n
    dq = d * q
    units = [a for a in range(q) if math.gcd(a, q) == 1]
    ang = 2.0 * math.pi * np.arange(dq) / dq
    ph = np.cos(ang) + 1j * np.sin(ang)
    if method == "direct":
        weight = np.zeros(dq, dtype=complex)
        for a in units:
            weight += ph[(a * np.arange(dq)) % dq]
    else:
        weight = np.array([ramanujan(q, (u // d) % q) if u % d == 0 else 0
                           for u in range(dq)], dtype=float)
    mvecs = np.array([[v % dq for v in m] for m in m_list], dtype=np.int64).T
    nm = len(m_list)
    hists = np.zeros((nm, dq * dq), dtype=np.int64)
    survivors = 0
    for block in grid_rows([np.arange(dq, dtype=np.int64)] * n):
        sub = block if d == 1 else block[zero_mask(pair, block, d)]
        if not len(sub):
            continue
        survivors += len(sub)
        u = pair.Q2.eval_batch_mod(sub, dq)
        V = (sub @ mvecs) % dq
        base = u * dq
        for i in range(nm):
            hists[i] += np.bincount(base + V[:, i], minlength=dq * dq)
    if method == "direct":
        tol = sum_tol(len(units) * max(survivors, 1))
    else:
        tol = sum_tol(max(survivors, 1), max(len(units), 1))
    out = []
    for i in range(nm):
        z = (weight * (hists[i].reshape(dq, dq) @ ph)).sum()
        out.append((z.real, z.imag, tol))
    return out


def moved(pair, perm, signs):
    """The pair in the coordinates y_i = signs[i] x_perm[i]."""
    n = pair.n

    def move(Q):
        return QuadraticForm.from_matrix(
            [[signs[i] * signs[j] * Q.M[perm[i]][perm[j]] for j in range(n)]
             for i in range(n)])

    return QuadricPair.build(move(pair.Q1), move(pair.Q2))


def blocks_212():
    """Blocks {x1, x2}, {x3}, {x4, x5} at every dq >= 3: each cross
    coefficient is 2, so it vanishes only mod 2."""
    return QuadricPair.build(
        QuadraticForm.from_matrix([[1, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, 1, 0, 0],
                                   [0, 0, 0, 2, 1], [0, 0, 0, 1, 1]]),
        QuadraticForm.from_matrix([[1, 1, 0, 0, 0], [1, -2, 0, 0, 0], [0, 0, 3, 0, 0],
                                   [0, 0, 0, -1, 1], [0, 0, 0, 1, 2]]))


def cross_terms_mod_6():
    """Q1 couples x1, x2 and Q2 couples x3, x4, each by a cross coefficient
    6, which vanishes mod 2, 3 and 6 but not over Z."""
    return QuadricPair.build(
        QuadraticForm.from_matrix([[1, 3, 0, 0], [3, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        QuadraticForm.from_matrix([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, -1, 3], [0, 0, 3, 3]]))


def test_coordinate_blocks():
    blocks = expsums._coordinate_blocks  # arguments pair, d, dq
    assert blocks(shipped_pair(), 2, 18) == [[0], [1], [2], [3], [4]]
    assert blocks(toy_pair_2(), 3, 3) == [[0, 1]]
    assert blocks(LAYERED_AT_5["coupled_n4"][0](), 2, 6) == [[0, 1, 2, 3]]
    pair = blocks_212()
    assert blocks(pair, 1, 3) == [[0, 1], [2], [3, 4]]
    assert blocks(pair, 1, 2) == [[0], [1], [2], [3], [4]]
    perm = moved(pair, [3, 0, 2, 4, 1], [1, -1, -1, 1, 1])
    assert blocks(perm, 3, 3) == [[0, 3], [1, 4], [2]]
    pair = cross_terms_mod_6()
    assert blocks(pair, 3, 6) == [[0], [1], [2], [3]]  # 6 = 0 mod 3 and mod 6
    assert blocks(pair, 1, 6) == [[0], [1], [2], [3]]
    assert blocks(pair, 2, 4) == [[0], [1], [2, 3]]  # Q2's 6 != 0 mod 4
    assert blocks(pair, 5, 5) == [[0, 1], [2, 3]]


SWEEP_CASES = {
    "shipped": (shipped_pair, [(1, 3), (3, 1), (2, 3), (1, 7), (4, 1)]),
    "shipped_moved_a": (lambda: moved(shipped_pair(), [2, 0, 4, 1, 3], [1, -1, 1, 1, -1]),
                        [(1, 5), (3, 2), (2, 1)]),
    "shipped_moved_b": (lambda: moved(shipped_pair(), [4, 3, 2, 1, 0], [-1, -1, 1, -1, 1]),
                        [(1, 4), (2, 3)]),
    "shipped_moved_c": (lambda: moved(shipped_pair(), [1, 4, 0, 3, 2], [1, 1, -1, -1, -1]),
                        [(5, 1), (1, 6)]),
    "toy_n2": (toy_pair_2, [(1, 5), (3, 1), (2, 3), (6, 1), (5, 5)]),
    "toy_n3": (toy_pair_3, [(1, 3), (7, 1), (2, 3), (3, 4), (7, 3)]),
    "demo_n7": (demo_pair_7, [(1, 3), (2, 1), (2, 2), (3, 1)]),
    "coupled_n4": (LAYERED_AT_5["coupled_n4"][0], [(1, 5), (5, 1), (2, 3)]),
    "blocks_212": (blocks_212, [(1, 3), (3, 1), (2, 3), (1, 2)]),
    "blocks_212_moved": (lambda: moved(blocks_212(), [3, 0, 2, 4, 1], [1, -1, -1, 1, 1]),
                         [(3, 1), (2, 3)]),
    "cross_terms_mod_6": (cross_terms_mod_6, [(3, 2), (1, 6), (2, 2), (3, 1), (5, 1)]),
}


@pytest.mark.parametrize("forced", [False, True], ids=["chosen", "blocks"])
@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_block_join_matches_sweep_bit_for_bit(name, forced, monkeypatch):
    if forced:  # the coordinate blocks, also where one sweep is charged less
        monkeypatch.setattr(expsums, "_S_dq_charge",
                            lambda blocks, *args: int(len(blocks) == 1))
    make, menu = SWEEP_CASES[name]
    pair = make()
    rng = random.Random(f"sweep:{name}")
    for d, q in menu:
        dq = d * q
        ms = [[0] * pair.n] + [[rng.randrange(dq) for _ in range(pair.n)]
                               for _ in range(3)]
        for method in ("direct", "ramanujan"):
            got = [(v.re, v.im, v.tol) for v in S_dq_many(pair, d, q, ms, method=method)]
            assert got == sdq_by_sweep(pair, d, q, ms, method), (d, q, method)


def test_sweep_where_the_folds_cost_more():
    # toy_n3 at d = 169 = 13^2: three blocks would fold 169^3 cells twice
    # by 169 shifts (charge 1.6e9); the one sweep reads 169^3 rows
    pair = toy_pair_3()
    m = [5, 77, 140]
    got = S_dq(pair, 169, 1, m, guard=DEFAULT_GUARD)
    assert [(got.re, got.im, got.tol)] == sdq_by_sweep(pair, 169, 1, [m], "direct")
    assert got.close_to(D_p2_layered(pair, 13, m))
    with pytest.raises(ResourceGuardError):
        S_dq(pair, 169, 1, m, guard=169**3 - 1)


def coupled_n5():
    """An n = 5 pair whose every cross coefficient is 2 in Q2: one block
    at every d and q, so S_dq_many sweeps all (dq)^5 residues."""
    return QuadricPair.build(
        QuadraticForm.from_matrix([[2, 1, 0, 0, 1], [1, 2, 1, 0, 0], [0, 1, 2, 1, 0],
                                   [0, 0, 1, 2, 1], [1, 0, 0, 1, 3]]),
        QuadraticForm.from_matrix([[1, 1, 1, 1, 1], [1, 2, 1, 1, 1], [1, 1, -1, 1, 1],
                                   [1, 1, 1, -2, 1], [1, 1, 1, 1, 3]]))


def test_sweep_builds_no_rows():
    # the 15^5 residues are read off the axes of blocks of at most
    # _BLOCK_ROWS rows; sweeping them as rows peaked at 69.5 MB
    pair = coupled_n5()
    ms = [[1, 2, 3, 4, 5], [0, 7, 14, 3, 9], [11, 0, 6, 1, 2]]
    assert expsums._coordinate_blocks(pair, 1, 15) == [[0, 1, 2, 3, 4]]
    want = S_dq_many(pair, 1, 15, ms)
    tracemalloc.start()
    try:
        got = S_dq_many(pair, 1, 15, ms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 2_000_000


@pytest.mark.parametrize("d, q", [(1, 3), (3, 1), (2, 2), (1, 4), (3, 2)])
def test_sweep_matches_the_residue_grid(d, q):
    # each term e_dq(a Q2(k) + m.k) summed over the units a and every k of
    # residue_grid(dq, 5) with d | Q1(k), d | Q2(k)
    pair = coupled_n5()
    dq = d * q
    ms = [[0] * 5, [1, 2, 3, 4, 5], [dq - 1, 0, 1, 2, 0]]
    k = residue_grid(dq, 5)
    k = k[zero_mask(pair, k, d)]
    q2 = pair.Q2.eval_batch(k)
    units = [a for a in range(q) if math.gcd(a, q) == 1]
    for m, got in zip(ms, S_dq_many(pair, d, q, ms)):
        v = (np.array(units)[:, None] * q2 + k @ np.array(m)) % dq
        ang = 2.0 * math.pi * v / dq
        want = SumValue(np.cos(ang).sum(), np.sin(ang).sum(), sum_tol(v.size))
        assert got.close_to(want), (d, q, m)


def test_S_dq_many_empty_m_list():
    pair = toy_pair_3()
    for method in ("direct", "ramanujan"):
        assert S_dq_many(pair, 2, 3, [], method=method) == []
    with pytest.raises(ValueError):
        S_dq_many(pair, 0, 3, [])
    with pytest.raises(ValueError):
        S_dq_many(pair, 2, 3, [], method="factorized")


def test_S_dq_guard_is_the_route_charge():
    m = [1, 2, 3, 4, 5]
    # shipped at dq = 97 is five blocks of 97 rows and four folds of 97^2
    # cells by 97 shifts, where one sweep would read 97^5 rows
    direct = S_dq(shipped_pair(), 1, 97, m, method="direct", guard=DEFAULT_GUARD)
    pair = shipped_pair()
    assert direct.close_to(Q_q_explicit(pair.Q2, 97, m, dual=pair.dual2))
    cases = [
        # five blocks of 7 rows; four folds of 49 cells by 7 shifts
        (shipped_pair(), 1, 7, [m], 5 * 7 + 4 * 49 * 7),
        # blocks of 36, 6 and 36 rows; per m, 72 cells by 6 then by 36 shifts
        (blocks_212(), 2, 3, [m, [0] * 5], 78 + 2 * (72 * 6 + 72 * 36)),
        # blocks of 3, 9 and 9 rows: the first fold has at most 3 shifts
        (moved(blocks_212(), [2, 0, 1, 3, 4], [1] * 5), 1, 3, [m], 21 + 9 * 3 + 9 * 9),
        # one block: the rows of the sweep
        (LAYERED_AT_5["coupled_n4"][0](), 1, 5, [[1, 2, 3, 4]], 5**4),
        # three blocks charged 15 + 2 * 25 * 5, more than the sweep's 125 rows
        (toy_pair_3(), 1, 5, [[1, 2, 3]], 5**3),
    ]
    for pair, d, q, ms, charge in cases:
        want = S_dq_many(pair, d, q, ms)
        got = S_dq_many(pair, d, q, ms, guard=charge)
        assert [(v.re, v.im, v.tol) for v in got] == [(v.re, v.im, v.tol) for v in want]
        with pytest.raises(ResourceGuardError):
            S_dq_many(pair, d, q, ms, guard=charge - 1)


def test_S_dq_refuses_counts_past_int64():
    # 10^20 residues: the guard admits the blocks, the counts cannot hold them
    with pytest.raises(ValueError):
        S_dq(shipped_pair(), 1, 10**4, [1] * 5, method="direct", guard=10**13)


# --------------------------------------------------------------------------
# T_dq and S_two_power against the sweep of all (dq)^n coset points
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def tdq_by_sweep(name, a_vec, d, q, m):
    """T_{d,q}(m) on the pair TDQ_CASES[name] by sweeping every k mod 4dq
    with k = a_vec mod 4, one cos/sin pass per unit a, with the number of
    (a, k) terms summed."""
    pair = TDQ_CASES[name][0]()
    n = pair.n
    dq = d * q
    mod = 4 * dq
    units = [a for a in range(q) if math.gcd(a, q) == 1] or [0]
    base = np.array([v % 4 for v in a_vec], dtype=np.int64)
    mred = np.array([v % mod for v in m], dtype=np.int64)
    total = 0j
    terms = 0
    for block in grid_rows([np.arange(dq, dtype=np.int64)] * n):
        k = base[None, :] + 4 * block
        sub = k if d == 1 else k[zero_mask(pair, k, d)]
        if not len(sub):
            continue
        q2 = pair.Q2.eval_batch_mod(sub, dq)
        mk = (sub @ mred) % mod
        for a in units:
            v = (4 * a * q2 + mk) % mod
            ang = 2.0 * math.pi * v / mod
            total += np.cos(ang).sum() + 1j * np.sin(ang).sum()
            terms += len(sub)
    return SumValue(total.real, total.imag, sum_tol(max(terms, 1))), terms


# pair, a_vec, (d, q) menu
TDQ_CASES = {
    # the (d, q) of the two_power_split suite and of S^{±} at ell = 0, 1, 2
    "toy_n3": (toy_pair_3, (2, 0, 1),
               [(1, 1), (1, 2), (1, 4), (1, 6), (3, 2), (3, 4), (3, 6), (1, 12)]),
    "shipped": (shipped_pair, (1, 0, 0, 0, 0), [(1, 16), (3, 8)]),
    "shipped_moved_a": (SWEEP_CASES["shipped_moved_a"][0], (0, 1, 0, 0, 0),
                        [(1, 8), (3, 4)]),
    "shipped_moved_b": (SWEEP_CASES["shipped_moved_b"][0], (0, 0, 0, -1, 0),
                        [(1, 8), (5, 2)]),
    "demo_n7": (demo_pair_7, (1, 0, 0, 0, 0, 0, 0), [(1, 2), (1, 4), (3, 2)]),
    "coupled_n4": (LAYERED_AT_5["coupled_n4"][0], (0, 1, 0, 0),
                   [(1, 8), (1, 16), (3, 4), (5, 2)]),
}


@pytest.mark.parametrize("forced", [False, True], ids=["chosen", "blocks"])
@pytest.mark.parametrize("name", sorted(TDQ_CASES))
def test_T_dq_matches_sweep(name, forced, monkeypatch):
    if forced:  # the coordinate blocks, also where one sweep is charged less
        monkeypatch.setattr(expsums, "_S_dq_charge",
                            lambda blocks, *args: int(len(blocks) == 1))
    make, a_vec, menu = TDQ_CASES[name]
    pair = make()
    n = pair.n
    rng = random.Random(f"tdq:{name}")
    for d, q in menu:
        dq = d * q
        ms = [(0,) * n] + [tuple(rng.randrange(-8 * dq, 8 * dq) for _ in range(n))
                           for _ in range(2)]
        for m in ms:
            got = T_dq(pair, a_vec, d, q, m)
            want, terms = tdq_by_sweep(name, a_vec, d, q, m)
            assert got.close_to(want), (d, q, m, got, want)
            assert terms == 0 or got.tol == want.tol, (d, q, m)
            ell = q.bit_length() - 1
            if d == 1 and q == 2**ell and pair.Q1.eval(a_vec) % 4 == 1:
                for sign in (1, -1):
                    got = S_two_power(pair, a_vec, ell, sign, m)
                    flip = tuple(sign * v for v in a_vec)
                    want, _ = tdq_by_sweep(name, flip, d, q, m)
                    assert got.close_to(want), (ell, sign, m, got, want)
                    assert got.tol == want.tol, (ell, sign, m)


def test_T_dq_guard_is_the_route_charge():
    cases = [
        # five blocks of 16 rows; four folds of 16 * 64 cells by 16 shifts
        (shipped_pair(), (1, 0, 0, 0, 0), 1, 16, 5 * 16 + 4 * 1024 * 16),
        # seven blocks of 6 rows; six folds of 3 * 6 * 24 cells by 6 shifts
        (demo_pair_7(), (1, 0, 0, 0, 0, 0, 0), 3, 2, 7 * 6 + 6 * 432 * 6),
        # three blocks charged 12 + 2 * 64 * 4, more than the sweep's 4^3 rows
        (toy_pair_3(), (2, 0, 1), 1, 4, 4**3),
        # one block: the rows of the sweep
        (LAYERED_AT_5["coupled_n4"][0](), (0, 1, 0, 0), 1, 8, 8**4),
    ]
    for pair, a_vec, d, q, charge in cases:
        m = list(range(1, pair.n + 1))
        want = T_dq(pair, a_vec, d, q, m)
        got = T_dq(pair, a_vec, d, q, m, guard=charge)
        assert (got.re, got.im, got.tol) == (want.re, want.im, want.tol)
        with pytest.raises(ResourceGuardError, match="T_dq"):
            T_dq(pair, a_vec, d, q, m, guard=charge - 1)


# --------------------------------------------------------------------------
# the zero layer's per-zero solve against the scan of every lambda
# --------------------------------------------------------------------------


def d_p2_by_scan(pair, p, m):
    """(re, im, tol) of D_{p^2}(m) by one scan of the p^2 pairs lambda,
    vectorised over all common zeros mod p: K, emptiness, liveness and c
    for every zero at once, then the same summation as D_p2_layered."""
    n = pair.n
    p2 = p * p
    Z1 = residue_zeros_mod_p(pair, p)
    mred = np.array([v % p2 for v in m], dtype=np.int64)
    mneg = -mred % p
    g1 = 2 * (Z1 @ np.array(pair.Q1.M, dtype=np.int64)) % p
    g2 = 2 * (Z1 @ np.array(pair.Q2.M, dtype=np.int64)) % p
    a1 = pair.Q1.eval_batch(Z1) // p % p
    a2 = pair.Q2.eval_batch(Z1) // p % p
    kernel = np.zeros(len(Z1), dtype=np.int64)
    empty = np.zeros(len(Z1), dtype=bool)
    live = np.zeros(len(Z1), dtype=bool)
    c = np.zeros(len(Z1), dtype=np.int64)
    for l1 in range(p):
        for l2 in range(p):
            lg = (l1 * g1 + l2 * g2) % p
            la = (l1 * a1 + l2 * a2) % p
            zero = (lg == 0).all(axis=1)
            kernel += zero
            empty |= zero & (la != 0)
            hit = (lg == mneg).all(axis=1)
            live |= hit
            c[hit] = la[hit]
    mx0 = (Z1 @ mred).tolist()
    total = 0j
    npts = 0
    for i in range(len(Z1)):
        if empty[i]:
            continue
        fiber = p ** (n - 2) * int(kernel[i])
        npts += fiber
        if live[i]:
            total += fiber * e_q(mx0[i] + p * int(c[i]), p2)
    return (total.real, total.imag, sum_tol(max(npts, 1)))


def m_mixed_by_zeros(pair, p, m):
    """(re, im, tol) of M_{p,p}(m) from the zeros mod p and the integer
    values of grad Q2 and Q2 there, the layered route without its layer."""
    n = pair.n
    p2 = p * p
    Z1 = residue_zeros_mod_p(pair, p)
    G2 = 2 * (Z1 @ np.array(pair.Q2.M, dtype=np.int64))
    q2vals = pair.Q2.eval_batch(Z1)
    mx = Z1 @ np.array([v % p2 for v in m], dtype=np.int64)
    mvec = np.array([v % p for v in m], dtype=np.int64)
    total = 0j
    hits = 0
    for a in range(1, p):
        mask = ((a * G2 + mvec) % p == 0).all(axis=1)
        if not mask.any():
            continue
        v = (a * q2vals[mask] + mx[mask]) % p2
        ang = 2.0 * math.pi * v / p2
        total += p**n * (np.cos(ang).sum() + 1j * np.sin(ang).sum())
        hits += int(mask.sum())
    return (total.real, total.imag, sum_tol(max(hits, 1), float(p**n)))


def vm_singular_by_rank(pair, m, p):
    """is_Vm_singular_mod_p by the rank of (grad Q1; grad Q2; m) at each
    nonzero common zero on the plane m.x = 0."""
    mvec = np.array([v % p for v in m], dtype=np.int64)
    zeros = residue_zeros_mod_p(pair, p)
    for x in zeros[(zeros @ mvec) % p == 0]:
        if not x.any():
            continue
        jac = [pair.Q1.gradient(x), pair.Q2.gradient(x), [int(v) for v in mvec]]
        if rank_mod_p(jac, p) < 3:
            return True
    return False


LAYER_CASES = {
    "shipped": shipped_pair,
    "toy_n3": toy_pair_3,
    "toy_n2": toy_pair_2,
    "demo_n7": demo_pair_7,
    "coupled_n4": LAYERED_AT_5["coupled_n4"][0],
}
#: (pair, p) with nonzero common zeros of gradient rank < 2 mod p
SINGULAR_MOD_P = {("shipped", 5), ("toy_n3", 5), ("demo_n7", 3), ("demo_n7", 5),
                  ("demo_n7", 7)}


@pytest.mark.parametrize("variant", [0, 1, 2], ids=["given", "moved_a", "moved_b"])
@pytest.mark.parametrize("name", sorted(LAYER_CASES))
def test_zero_layer_solve_matches_the_scan_bit_for_bit(name, variant):
    # each case as given and in the coordinates of two signed permutations
    pair = LAYER_CASES[name]()
    n = pair.n
    rng = random.Random(f"layer:{name}:{variant}")
    perm, signs = list(range(n)), [1] * n
    if variant:
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        pair = moved(pair, perm, signs)
    for p in (2, 3, 5, 7):
        if (name, p) in SINGULAR_MOD_P:
            assert not quadforms._smooth_intersection_mod_p(pair, p), p
        zero_mod_p = [p * rng.randrange(p) for _ in range(n)]
        zero_mod_p[rng.randrange(n)] = p * rng.randrange(1, p)
        ms = [[0] * n, zero_mod_p] + [[rng.randrange(p * p) for _ in range(n)]
                                      for _ in range(3)]
        for m in ([signs[i] * m[perm[i]] for i in range(n)] for m in ms):
            got = D_p2_layered(pair, p, m)
            assert (got.re, got.im, got.tol) == d_p2_by_scan(pair, p, m), (p, m)
            got = M_mixed(pair, p, 1, 1, m)
            assert (got.re, got.im, got.tol) == m_mixed_by_zeros(pair, p, m), (p, m)
            if any(v % p for v in m):
                assert (is_Vm_singular_mod_p(pair, m, p)
                        == vm_singular_by_rank(pair, m, p)), (p, m)


@pytest.mark.parametrize("case", sorted(SINGULAR_MOD_P | {("coupled_n4", 3)}))
def test_zero_layer_solve_is_the_scan_on_rank_deficient_zeros(case):
    # targets in the row span of G at rank-1 zeros make those rows live
    name, p = case
    layer = quadforms._build_zero_layer(LAYER_CASES[name](), p, DEFAULT_GUARD)
    n, rng = layer.Z.shape[1], random.Random(f"solve:{name}:{p}")
    keep = ~layer.empty
    low = np.flatnonzero(~layer.full & layer.Z.any(axis=1))
    lifting = [r for r in low if keep[r]]
    assert len(low) and bool(lifting) == (case in {("demo_n7", 3), ("coupled_n4", 3)})
    targets = [np.zeros(n, dtype=np.int64),
               np.array([rng.randrange(p) for _ in range(n)])]
    for r in rng.sample(lifting, min(4, len(lifting))):
        l1, l2 = rng.randrange(p), rng.randrange(p)
        targets.append((l1 * layer.g1[r] + l2 * layer.g2[r]) % p)
    for t in targets:
        hit, c = layer.solve(t)
        want_hit = np.zeros(len(hit), dtype=bool)
        for l1, l2 in product(range(p), repeat=2):
            found = ((l1 * layer.g1 + l2 * layer.g2 - t) % p == 0).all(axis=1) & keep
            # off the empty zeros lambda.a is one value on each solution set
            assert (c[found] == (l1 * layer.a[found, 0] + l2 * layer.a[found, 1]) % p).all()
            want_hit |= found
        assert (hit[keep] == want_hit[keep]).all() and (c[~hit] == 0).all()
    if lifting:
        assert layer.solve(targets[-1])[0][lifting].any()


def test_layered_D_p2_refuses_past_the_root_cap_before_the_layer():
    # 1009^2 = 1018081 > MAX_ROOT_MODULUS; 997^2 = 994009 is below it
    pair = toy_pair_2()
    assert D_p2_layered(pair, 997, [0, 0]).as_integer() == 994009
    for call in (lambda: D_p2_layered(pair, 1009, [0, 0]),
                 lambda: D_d(pair, 1009**2, [0, 0])):
        with pytest.raises(ValueError, match="double-precision cap"):
            call()
    assert quadforms._kept[0] == (pair, 997)  # no layer mod 1009 was built


def test_layered_guard_is_charged_with_the_layer_kept():
    pair = shipped_pair()
    p, m = 7, (1, 2, 3, 4, 5)
    D_p2_layered(pair, p, m, guard=DEFAULT_GUARD)  # keeps the layer of (pair, 7)
    for call in (lambda g: D_p2_layered(pair, p, m, guard=g),
                 lambda g: M_mixed(pair, p, 1, 1, m, guard=g),
                 lambda g: is_Vm_singular_mod_p(pair, m, p, guard=g)):
        call(p**5)
        with pytest.raises(ResourceGuardError, match="residue_zeros_mod_p"):
            call(p**5 - 1)
