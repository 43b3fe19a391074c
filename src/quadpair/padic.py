"""Exact counts of x mod p^R with p^r1 | Q1(x) and p^r2 | Q2(x).

Direct enumeration costs p^(Rn) and dies quickly (already at p=7, R=3,
n=5).  Instead we fix digits one at a time: writing x = x0 + p^j t with
x0 known mod p^j,

    Q(x0 + p^j t) = Q(x0) + p^j * (2 M x0) . t + p^(2j) Q(t),

so once j is deep enough the condition on t is linear (exact, handled by
count_lincong) or, when the active gradient rows are independent mod p,
Hensel lifting gives a closed-form fiber count p^(n(R-j) - sum(s_i - j)).
Only branches with degenerate gradients and still-active quadratic terms
enumerate another digit.  Level classification is vectorized, so the cost
is roughly (number of degenerate branches) * p^n per level instead of
p^(Rn).

Everything here is exact integer arithmetic; results are cross-checked
against brute-force enumeration in the test suite wherever that is
feasible.
"""

from __future__ import annotations

import numpy as np

from .guard import DEFAULT_GUARD, ResourceGuardError
from .lincong import count_lincong
from .modarith import factorize, is_prime
from .quadforms import QuadricPair, residue_grid

__all__ = [
    "count_congruence_pair",
    "count_congruence_pair_primitive",
    "count_divisibility",
    "count_divisibility_primitive",
]


def _exact_grad(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    return 2 * (X @ M)


_CHUNK_ROWS = 500_000


def count_congruence_pair(pair: QuadricPair, p: int, R: int, r1: int, r2: int,
                          guard: int = DEFAULT_GUARD) -> int:
    """#{x mod p^R : p^r1 | Q1(x), p^r2 | Q2(x)}, exactly."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if R < 0 or not (0 <= r1 <= R) or not (0 <= r2 <= R):
        raise ValueError("need 0 <= r1, r2 <= R")
    if R == 0:
        return 1
    n = pair.n
    maxM = max(max(abs(v) for v in row) for form in (pair.Q1, pair.Q2) for row in form.M)
    if 4 * n * n * max(maxM, 1) * p ** (2 * R) >= 2**62:
        raise ValueError("p^R too large for exact int64 evaluation")

    M1 = np.array(pair.Q1.M, dtype=np.int64)
    M2 = np.array(pair.Q2.M, dtype=np.int64)
    child_grid = residue_grid(p, n)
    spent = 0
    total = 0

    # explicit stack of (base-point chunk, level); children are expanded in
    # bounded chunks so memory stays proportional to _CHUNK_ROWS * depth
    stack = [(np.zeros((1, n), dtype=np.int64), 0)]
    while stack:
        XB, j = stack.pop()
        a1 = pair.Q1.eval_batch(XB)
        a2 = pair.Q2.eval_batch(XB)
        pj = p**j
        survive = np.ones(len(XB), dtype=bool)
        active = []
        for s, a in ((r1, a1), (r2, a2)):
            if s <= j:
                survive &= a % p**s == 0
            else:
                survive &= a % pj == 0  # necessary condition at this depth
                active.append(s)
        if not active:
            total += int(survive.sum()) * p ** (n * (R - j))
            continue

        G1 = _exact_grad(M1, XB)
        G2 = _exact_grad(M2, XB)
        if len(active) == 1:
            g_act = G1 if r1 > j else G2
            full_rank = (g_act % p != 0).any(axis=1)
        else:
            g1p = G1 % p
            g2p = G2 % p
            full_rank = np.zeros(len(XB), dtype=bool)
            for u in range(n):
                for v in range(u + 1, n):
                    full_rank |= (g1p[:, u] * g2p[:, v] - g1p[:, v] * g2p[:, u]) % p != 0

        # Hensel closed form: independent active gradients lift uniquely,
        # so each active condition costs exactly p^(s_i - j) on t
        hensel = survive & full_rank
        drop = sum(s - j for s in active)
        total += int(hensel.sum()) * p ** (n * (R - j) - drop)

        idx = np.nonzero(survive & ~full_rank)[0]
        if len(idx) == 0:
            continue
        if all(s <= 2 * j for s in active):
            # quadratic term dead: exact linear congruence system per branch
            U = max(s - j for s in active)
            for b in idx:
                rows, rhs = [], []
                for s, a, G in ((r1, a1, G1), (r2, a2, G2)):
                    if s > j:
                        scale = p ** (U - (s - j))
                        rows.append([int(G[b, c]) * scale for c in range(n)])
                        rhs.append(-(int(a[b]) // pj) * scale)
                cnt = count_lincong(rows, rhs, p**U)
                total += cnt * p ** (n * (R - j - U))
            continue
        # enumerate the next digit of the degenerate branches
        spent += len(idx) * p**n
        if spent > guard:
            raise ResourceGuardError("count_congruence_pair", spent, guard)
        per = max(1, _CHUNK_ROWS // p**n)
        for lo in range(0, len(idx), per):
            part = XB[idx[lo : lo + per]]
            kids = (part[:, None, :] + pj * child_grid[None, :, :]).reshape(-1, n)
            stack.append((kids, j + 1))
    return total


def count_congruence_pair_primitive(pair: QuadricPair, p: int, R: int,
                                    r1: int, r2: int,
                                    guard: int = DEFAULT_GUARD) -> int:
    """As count_congruence_pair but restricted to x not == 0 mod p.

    Imprimitive x = p y biject onto y mod p^(R-1) with the divisibility
    targets lowered by 2.
    """
    full = count_congruence_pair(pair, p, R, r1, r2, guard=guard)
    if R == 0:
        return full  # mod 1 there is nothing to be imprimitive against
    inner = count_congruence_pair(
        pair, p, R - 1, max(r1 - 2, 0), max(r2 - 2, 0), guard=guard
    )
    return full - inner


def _crt_product(count_prime_power, pair: QuadricPair, d1: int, d2: int,
                 guard: int) -> int:
    """Product over p | d1 d2 of count_prime_power(pair, p, R, r1, r2)
    with p^r1 || d1, p^r2 || d2 and R = max(r1, r2)."""
    if d1 < 1 or d2 < 1:
        raise ValueError("moduli must be positive")
    f1, f2 = factorize(d1), factorize(d2)
    total = 1
    for p in sorted(set(f1) | set(f2)):
        r1 = f1.get(p, 0)
        r2 = f2.get(p, 0)
        total *= count_prime_power(pair, p, max(r1, r2), r1, r2, guard=guard)
    return total


def count_divisibility(pair: QuadricPair, d1: int, d2: int,
                       guard: int = DEFAULT_GUARD) -> int:
    """#{x mod lcm(d1, d2) : d1 | Q1(x), d2 | Q2(x)}, exactly, for any
    positive d1, d2.

    By the CRT the count is the product over p | d1 d2 of the count mod
    p^max(r1, r2), with p^r1 || d1 and p^r2 || d2.
    """
    return _crt_product(count_congruence_pair, pair, d1, d2, guard)


def count_divisibility_primitive(pair: QuadricPair, d1: int, d2: int,
                                 guard: int = DEFAULT_GUARD) -> int:
    """As count_divisibility but restricted to x not == 0 mod p at every
    p | d1 d2, prime by prime."""
    return _crt_product(count_congruence_pair_primitive, pair, d1, d2, guard)
