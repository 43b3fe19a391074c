"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
each test also asserts, so a plain pytest run fails loudly on regression.
Randomized checks draw from seeded generators and are reproducible.
"""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from quadpair.counting import WeightFunction
from quadpair.densities import (
    certified_good,
    experiment,
    sigma_p,
    tau_infinity,
    two_squares_closed_form,
    two_squares_count,
)
from quadpair.expsums import (
    D_p2_layered,
    M_mixed,
    Q_q_explicit,
    S_dq,
    S_dq_many,
    S_two_power,
    T_dq,
    rho,
)
from quadpair.lincong import count_lincong, smith_bound
from quadpair.modarith import PrimePower, chi4, factorize, quad_gauss_1d
from quadpair.pairs import demo_pair_7, shipped_pair, toy_pair_2, toy_pair_3
from quadpair.quadforms import (
    QuadraticForm,
    QuadricPair,
    is_Vm_singular_mod_p,
    residue_grid,
)


def _report(num: int, title: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {title}: {detail}")
    assert ok, f"criterion {num} ({title}) failed: {detail}"


def _unit_pair(diag2) -> QuadricPair:
    n = len(diag2)
    return QuadricPair.build(
        QuadraticForm.diagonal([1] * n), QuadraticForm.diagonal(list(diag2))
    )


# --------------------------------------------------------------------------
# 1. one-dimensional closed form vs direct summation, full sweep
# --------------------------------------------------------------------------


def test_criterion_01_one_d_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for p in (3, 5, 7, 11, 13):
        for r in (1, 2, 3):
            q = p**r
            if q > 343:
                continue
            ks = np.arange(q, dtype=np.int64)
            roots = np.exp(2j * np.pi * ks / q)
            units = np.array([a for a in range(1, q) if a % p], dtype=np.int64)
            # direct side: one matrix product covers all (alpha, m) at once
            E = roots[np.outer(units, ks**2) % q]
            F = roots[np.outer(ks, ks) % q]
            direct = E @ F
            bound = 1e-6 * p ** (r / 2)
            for i, alpha in enumerate(units):
                for m in range(q):
                    closed = quad_gauss_1d(q, int(alpha), m).value
                    worst = max(worst, abs(closed - direct[i, m]) / bound)
                    cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 60.0
    _report(1, "1-D Gauss sums, all units and shifts",
            ok, f"cases={cases} worst_err_ratio={worst:.3g} elapsed={elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. n-dimensional closed form vs full summation
# --------------------------------------------------------------------------


def test_criterion_02_separable_closed_form():
    t0 = time.perf_counter()
    rng = random.Random("acceptance:2")
    moduli = (3, 5, 7, 9, 25, 27)
    worst = 0.0
    cases = 0

    for diag2 in ([1, 2, -11], [1, 2, 11, -13], [1, 2, 11, -13, 17]):
        pair = _unit_pair(diag2)
        n = pair.n
        for q in moduli:
            ms = [[rng.randrange(q) for _ in range(n)] for _ in range(20)]
            brute = S_dq_many(pair, 1, q, ms, method="direct")
            for mv, ref in zip(ms, brute):
                closed = Q_q_explicit(pair.Q2, q, mv, dual=pair.dual2).value
                scale = max(1.0, abs(ref.value))
                worst = max(worst, abs(closed - ref.value) / (1e-6 * scale))
                cases += 1

    # n = 7: the grid is out of reach, so the reference is the product of
    # 1-D sums under the unit average — an independent evaluation path
    pair = demo_pair_7()
    coeffs = [pair.Q2.M[i][i] for i in range(7)]
    for q in moduli:
        for _ in range(20):
            mv = [rng.randrange(q) for _ in range(7)]
            ref = 0j
            for a in range(1, q):
                if math.gcd(a, q) != 1:
                    continue
                term = 1.0 + 0j
                for c, mi in zip(coeffs, mv):
                    term *= quad_gauss_1d(q, (a * c) % q, mi).value
                ref += term
            closed = Q_q_explicit(pair.Q2, q, mv, dual=pair.dual2).value
            scale = max(1.0, abs(ref))
            worst = max(worst, abs(closed - ref) / (1e-6 * scale))
            cases += 1

    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 300.0
    _report(2, "closed form vs summation, n in {3,4,5,7}",
            ok, f"cases={cases} worst_err_ratio={worst:.3g} elapsed={elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. multiplicativity in coprime pieces
# --------------------------------------------------------------------------


def test_criterion_03_multiplicativity():
    rng = random.Random("acceptance:3")
    small = [(d, q) for d in range(1, 13) for q in range(1, 13) if d * q <= 12]
    violations = 0
    configs = 0
    while configs < 100:
        pair = toy_pair_2() if configs % 10 < 7 else toy_pair_3()
        d1, q1 = small[rng.randrange(len(small))]
        d2, q2 = small[rng.randrange(len(small))]
        if math.gcd(d1 * q1, d2 * q2) != 1 or d1 * q1 * d2 * q2 == 1:
            continue
        if pair.n == 3 and d1 * q1 * d2 * q2 > 66:
            continue
        mod = d1 * d2 * q1 * q2
        mv = [rng.randrange(mod) for _ in range(pair.n)]
        whole = S_dq(pair, d1 * d2, q1 * q2, mv, method="direct")
        prod = S_dq(pair, d1, q1, mv, method="direct") * S_dq(
            pair, d2, q2, mv, method="direct")
        if abs(whole.value - prod.value) > whole.tol + prod.tol:
            violations += 1
        configs += 1

    pair = toy_pair_3()
    a_vec = (2, 0, 1)  # base point with Q1 = 5 = 1 mod 4
    splits = 0
    while splits < 20:
        d = rng.choice([1, 3, 5, 7, 9])
        qp = rng.choice([1, 3, 5, 7, 9])
        ell = rng.randrange(3)
        q = (2**ell) * qp
        if 4 * d * q > 80:
            continue
        mv = [rng.randrange(4 * d * q) for _ in range(3)]
        whole = T_dq(pair, a_vec, d, q, mv)
        prod = S_dq(pair, d, qp, mv, method="direct") * S_two_power(
            pair, a_vec, ell, chi4(d * qp), mv)
        if abs(whole.value - prod.value) > whole.tol + prod.tol:
            violations += 1
        splits += 1
    ok = violations == 0
    _report(3, "coprime and 2-power factorizations",
            ok, f"configs={configs} splits={splits} violations={violations}")


# --------------------------------------------------------------------------
# 4. two-squares counts, closed form vs brute force
# --------------------------------------------------------------------------


def test_criterion_04_two_squares():
    mismatches = 0
    cases = 0
    for p in (3, 5, 7, 13):
        for k in (1, 2, 3):
            for A in range(p**k):
                if two_squares_closed_form(A, p, k) != two_squares_count(A, p, k):
                    mismatches += 1
                cases += 1
    for k in (2, 3):
        for A in range(1, 2 ** (k + 1), 2):
            if two_squares_closed_form(A, 2, k) != two_squares_count(A, 2, k):
                mismatches += 1
            cases += 1
    ok = mismatches == 0
    _report(4, "sum-of-two-squares counts",
            ok, f"cases={cases} mismatches={mismatches}")


# --------------------------------------------------------------------------
# 5. vanishing laws at good primes
# --------------------------------------------------------------------------


def test_criterion_05_vanishing():
    rng = random.Random("acceptance:5")
    pair = shipped_pair()
    violations = 0

    d_samples = 0
    for p in (11, 13):
        assert certified_good(pair, p)
        done = 0
        while done < 25:
            mv = [rng.randrange(p) for _ in range(pair.n)]
            if all(v == 0 for v in mv) or is_Vm_singular_mod_p(pair, mv, p):
                continue
            val = D_p2_layered(pair, p, mv)
            if abs(val.value) > val.tol:
                violations += 1
            done += 1
            d_samples += 1

    m_samples = 0
    for p in (11, 13):
        done = 0
        while done < 15:
            mv = [rng.randrange(p) for _ in range(pair.n)]
            if (2 * pair.det2 * pair.dual2_at(mv)) % p == 0:
                continue
            val = M_mixed(pair, p, 1, 1, mv)
            if abs(val.value) > val.tol:
                violations += 1
            done += 1
            m_samples += 1

    # on a diagonal pair the fiber phases m.t0 cancel; on this coupled pair,
    # at m on the dual variety mod 5, they decide the value
    coupled = QuadricPair.build(
        QuadraticForm.from_matrix([[3, -2, -3, 0], [-2, -3, 3, 0],
                                   [-3, 3, 0, 1], [0, 0, 1, 3]]),
        QuadraticForm.from_matrix([[3, -3, 2, 0], [-3, -1, 2, 3],
                                   [2, 2, -2, 1], [0, 3, 1, -3]]))
    rng = random.Random("acceptance:5:phase")
    phase_ms = [[0] * 4]
    while len(phase_ms) < 5:
        mv = [rng.randrange(25) for _ in range(4)]
        if any(v % 5 for v in mv) and is_Vm_singular_mod_p(coupled, mv, 5):
            phase_ms.append(mv)
    for mv in phase_ms:
        val = D_p2_layered(coupled, 5, mv)
        if not val.close_to(S_dq(coupled, 25, 1, mv)):
            violations += 1
    ok = d_samples >= 50 and m_samples >= 30 and violations == 0
    _report(5, "prime-square and mixed-term vanishing",
            ok, f"D_samples={d_samples} M_samples={m_samples} "
                f"phase_samples={len(phase_ms)} violations={violations}")


# --------------------------------------------------------------------------
# 6. bound suites
# --------------------------------------------------------------------------


def test_criterion_06_bounds():
    rng = random.Random("acceptance:6")

    # (a) square-root cancellation bound on every brute-forced instance
    bad_bound = 0
    brute_cases = 0
    for _ in range(60):
        n = rng.randrange(1, 4)
        q = rng.choice([2, 3, 4, 5, 7, 8, 9])
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            entries[i][i] = rng.randrange(-3, 4)
            for j in range(i + 1, n):
                entries[i][j] = entries[j][i] = rng.randrange(-2, 3)
        Q = QuadraticForm.from_matrix(entries)
        mv = [rng.randrange(q) for _ in range(n)]
        grid = residue_grid(q, n)
        phases = (Q.eval_batch(grid) + grid @ np.array(mv)) % q
        total = np.exp(2j * np.pi * phases / q).sum()
        twoM = [[2 * entries[i][j] for j in range(n)] for i in range(n)]
        bound = q ** (n / 2) * math.sqrt(count_lincong(twoM, [0] * n, q))
        if abs(total) > bound + 1e-6:
            bad_bound += 1
        brute_cases += 1

    # (b) a single constant fits sup_m |Q_q(m)| / q^{n/2+1} across depths;
    # stability is a statement about forms in even dimension, where both
    # branches of the closed form carry the same Ramanujan factor
    pair4 = _unit_pair([1, 2, 11, -13])
    expo = pair4.n / 2 + 1
    spread_worst = 0.0
    for p in (3, 5):
        Cs = []
        for r in (1, 2, 3):
            q = p**r
            sup = 0.0
            samples = [[0] * 4] + [
                [rng.randrange(q) for _ in range(4)] for _ in range(200)
            ]
            for mv in samples:
                val = abs(Q_q_explicit(pair4.Q2, q, mv, dual=pair4.dual2).value)
                sup = max(sup, val / p ** (r * expo))
            Cs.append(sup)
        spread_worst = max(spread_worst, max(Cs) / min(Cs) - 1.0)

    # on the shipped odd-n pair the same quantity stays below C = 1
    ship = shipped_pair()
    expo = ship.n / 2 + 1
    ship_worst = 0.0
    for p in (7, 11):
        for r in (1, 2):
            q = p**r
            samples = [[0] * 5] + [
                [rng.randrange(q) for _ in range(5)] for _ in range(100)
            ]
            for mv in samples:
                val = abs(Q_q_explicit(ship.Q2, q, mv, dual=ship.dual2).value)
                ship_worst = max(ship_worst, val / p ** (r * expo))

    # (c) rho growth on the shipped pair: fit the constant at r = 1,
    # then r = 2, 3 must stay under it
    C_fit = 0.0
    for p in (2, 3, 5, 7):
        C_fit = max(C_fit, rho(ship, p) / (p ** (ship.n - 2) * 2))
    rho_worst = 0.0
    for p in (2, 3, 5, 7):
        for r in (2, 3):
            ratio = rho(ship, p**r) / (C_fit * p ** (r * (ship.n - 2)) * (1 + r))
            rho_worst = max(rho_worst, ratio)

    ok = (bad_bound == 0 and spread_worst <= 0.10 and ship_worst <= 1.0 + 1e-9
          and C_fit <= 0.7 and rho_worst <= 1.0)
    _report(6, "square-root, closed-form and rho growth bounds", ok,
            f"brute={brute_cases} bound_violations={bad_bound} "
            f"C_r_spread={spread_worst:.3g} ship_sup={ship_worst:.3g} "
            f"rho_C={C_fit:.3g} rho_worst={rho_worst:.3g}")


# --------------------------------------------------------------------------
# 7. linear congruence counts
# --------------------------------------------------------------------------


def test_criterion_07_linear_congruences():
    rng = random.Random("acceptance:7")
    mismatches = over_bound = 0
    for _ in range(200):
        n = rng.randrange(1, 4)
        k = rng.randrange(1, 4)
        q = rng.randrange(2, 65)
        mat = [[rng.randrange(-q, q) for _ in range(n)] for _ in range(k)]
        avec = [rng.randrange(q) for _ in range(k)]
        count = count_lincong(mat, avec, q)
        grid = residue_grid(q, n)
        lhs = (grid @ np.array(mat).T - np.array(avec)) % q
        brute = int((lhs == 0).all(axis=1).sum())
        if count != brute:
            mismatches += 1
        bound = 1
        for p, e in factorize(q).items():
            bound *= smith_bound(mat, PrimePower.of(p**e))
        if count > bound:
            over_bound += 1
    ok = mismatches == 0 and over_bound == 0
    _report(7, "linear congruence counting",
            ok, f"instances=200 mismatches={mismatches} over_bound={over_bound}")


# --------------------------------------------------------------------------
# 8. Hensel stability of the odd local densities
# --------------------------------------------------------------------------


def test_criterion_08_hensel_stability():
    unstable = 0
    checked = []
    for name, pair in (("n5", shipped_pair()), ("n3", toy_pair_3())):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            if not certified_good(pair, p):
                continue
            s = sigma_p(pair, p, k_max=2)
            if not (s.converged and isinstance(s.fraction, Fraction)):
                unstable += 1
            checked.append(f"{name}:p={p}")
    ok = unstable == 0 and len(checked) >= 5
    _report(8, "depth-1 = depth-2 densities at good primes",
            ok, f"checked={len(checked)} unstable={unstable} [{' '.join(checked)}]")


# --------------------------------------------------------------------------
# 9. real density estimators
# --------------------------------------------------------------------------


def test_criterion_09_real_density():
    worst_spread = worst_move = 0.0
    for pair in (shipped_pair(), toy_pair_3(), toy_pair_2()):
        W = WeightFunction.default_for_pair(pair)
        tau = tau_infinity(pair.Q2, W)
        worst_spread = max(worst_spread, tau.spread)
        ladder = tau.slab_ladder
        move = abs(ladder[-1] - ladder[-2]) / abs(ladder[-1])
        worst_move = max(worst_move, move)
    ok = worst_spread <= 0.05 and worst_move < 0.02
    _report(9, "slab vs coarea real density",
            ok, f"worst_spread={worst_spread:.3g} finest_rung_move={worst_move:.3g}")


# --------------------------------------------------------------------------
# 10. end-to-end trend on the shipped pair
# --------------------------------------------------------------------------


def test_criterion_10_end_to_end():
    t0 = time.perf_counter()
    pair = shipped_pair()
    W = WeightFunction.default_for_pair(pair)
    result = experiment(pair, W, [8, 12, 16, 20], p_max=50, k_max=5)
    rows = result.rows
    elapsed = time.perf_counter() - t0
    positive = all(r[1] > 0 for r in rows)
    last_ratio = rows[-1][4]
    within_factor_2 = 0.5 <= last_ratio <= 2.0
    tightening = abs(rows[-2][4] - 1.0) >= abs(rows[-1][4] - 1.0)
    ok = positive and within_factor_2 and tightening and elapsed < 600.0
    ratios = ",".join(f"{r[4]:.4f}" for r in rows)
    _report(10, "S(B) vs c*B^(n-2) on the n=5 pair", ok,
            f"ratios=[{ratios}] last={last_ratio:.4f} elapsed={elapsed:.0f}s")


# --------------------------------------------------------------------------
# 11. byte-identical verification reports
# --------------------------------------------------------------------------


def test_criterion_11_determinism():
    cmd = [sys.executable, "-m", "quadpair.cli", "verify", "--suite", "all",
           "--seed", "5"]
    # the subprocesses find the package the way the pytest process does
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    first = subprocess.run(cmd, capture_output=True, env=env, timeout=300)
    second = subprocess.run(cmd, capture_output=True, env=env, timeout=300)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout)
    _report(11, "verify --suite all is byte-stable", ok,
            f"exit=({first.returncode},{second.returncode}) "
            f"bytes={'equal' if first.stdout == second.stdout else 'DIFFER'}")
