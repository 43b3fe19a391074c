"""Exact counts of x mod p^R with p^r1 | Q1(x) and p^r2 | Q2(x).

This is the one place that decides how such a count is computed; sigma_p,
sigma_2, rho and rho* all read it from here.  The input picks the route.

At odd p the count is one identity: p^-(r1+r2) times the sum of the Gauss
sums G_{p^R}(a p^(R-r1) M1 + b p^(R-r2) M2) over a mod p^r1 and
b mod p^r2.  Each G is read off a Jordan decomposition mod p^R
(`lincong.jordan_gauss_sum`), or off the pencil polynomial where
det(b1 M1 + b2 M2) is a unit mod p, and (a, b) runs over the orbits of
unit scaling, O(p^max(r1, r2)) of them: O(p^R n^3) work, with no sweep of
residues.

At p = 2 the digits are fixed one at a time (`_lift_count`, also the
oracle the tests hold the identity to at odd p).  sigma_2 reads the same
count with Q1 aimed at a residue, Q1(x) = 1 mod 4: the shift moves no
gradient, so every step below holds for Q1 - t1 as for Q1.  Writing
x = x0 + p^j t with x0 known mod p^j,

    Q(x0 + p^j t) = Q(x0) + p^j * (2 M x0) . t + p^(2j) Q(t),

so once j is deep enough the condition on t is linear (exact, handled by
count_lincong) or, when the active gradient rows are independent mod p,
Hensel lifting gives a closed-form fiber count p^(n(R-j) - sum(s_i - j)).
The linear systems of a level repeat across its branches, so each
distinct system is solved once and counted with its multiplicity.  Only
branches with degenerate gradients (at p = 2, every branch) and
still-active quadratic terms enumerate another digit, so the cost is
roughly (number of degenerate branches) * p^n per level instead of
p^(Rn).

Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import numpy as np

from .guard import DEFAULT_GUARD, ResourceGuardError, check_guard
from .lincong import count_lincong, jordan_gauss_sum
from .modarith import factorize, is_prime
from .quadforms import QuadricPair, residue_grid

__all__ = [
    "count_congruence_pair",
    "count_congruence_pair_primitive",
    "count_divisibility",
    "count_divisibility_primitive",
]


def count_congruence_pair(pair: QuadricPair, p: int, R: int, r1: int, r2: int,
                          guard: int = DEFAULT_GUARD) -> int:
    """#{x mod p^R : p^r1 | Q1(x), p^r2 | Q2(x)}, exactly: the Gauss-sum
    identity at odd p, digit lifting at p = 2."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if R < 0 or not (0 <= r1 <= R) or not (0 <= r2 <= R):
        raise ValueError("need 0 <= r1, r2 <= R")
    if R == 0:
        return 1
    if p == 2:
        return _lift_count(pair, p, R, r1, r2, guard)
    check_guard("count_congruence_pair", pair.n**3 * _orbit_count(p, r1, r2), guard)
    return _gauss_count(pair, p, R, r1, r2)


def _orbits(p: int, r1: int, r2: int):
    """The orbits of the units lambda acting on (a, b) in Z/p^r1 x Z/p^r2,
    all but that of (0, 0), as (a, b, c): arrays of representatives whose
    orbits have (p - 1) p^(c - 1) elements each.

    c = max(r1 - v(a), r2 - v(b)), ties going to a.  Scaling makes the
    entry that attains c a power of p, and leaves the other free up to
    the bound on its valuation that c sets.
    """
    for va in range(r1):
        c = r1 - va
        yield np.array([p**va]), np.arange(0, p**r2, p ** max(r2 - c, 0)), c
    for vb in range(r2):
        c = r2 - vb
        yield np.arange(0, p**r1, p ** max(r1 - c + 1, 0)), np.array([p**vb]), c


def _orbit_count(p: int, r1: int, r2: int) -> int:
    """The representatives _gauss_count visits: (0, 0) and _orbits'."""
    return (1 + sum(p ** min(r1 - va, r2) for va in range(r1))
            + sum(p ** min(r2 - vb - 1, r1) for vb in range(r2)))


def _gauss_count(pair: QuadricPair, p: int, R: int, r1: int, r2: int) -> int:
    """#{x mod p^R : p^r1 | Q1(x), p^r2 | Q2(x)}, p odd, r1 and r2 <= R, as

        p^-(r1+r2) sum_{a mod p^r1, b mod p^r2}
            G_{p^R}(a p^(R-r1) M1 + b p^(R-r2) M2)

    with G_{p^R}(M) = sum_{x mod p^R} e(x^T M x / p^R).  G(lambda M) for a
    unit lambda is (lambda/p)^t G(M), so each orbit of (a, b) under unit
    scaling adds its size times jordan_gauss_sum at its representative.
    Where the pencil polynomial puts det(A M1 + B M2) among the units mod
    p, every Jordan block is a unit: G is p^(nR/2) for even R, p^(nR/2)
    ((-1)^(n/2) det / p) for odd R and even n, and sums to 0 over the
    orbit for odd R and n.  Only the other representatives are eliminated.
    """
    n = pair.n
    rows = list(zip(pair.Q1.M, pair.Q2.M))
    legendre = np.full(p, -1, dtype=np.int64)
    legendre[np.arange(p, dtype=np.int64) ** 2 % p] = 1
    legendre[0] = 0
    total = p ** (n * R)  # (a, b) = (0, 0)
    for a, b, c in _orbits(p, r1, r2):
        A, B = np.broadcast_arrays(a * p ** (R - r1), b * p ** (R - r2))
        det, Bk = 0, 1
        for coeff in pair.pencil_poly:  # det = P(A, B) mod p, by Horner
            det = (det * (A % p) + coeff % p * Bk) % p
            Bk = Bk * (B % p) % p
        unit = det != 0
        if R % 2 == 0:
            s = p ** (n * R // 2) * int(unit.sum())
        elif n % 2 == 0:
            s = p ** (n * R // 2) * int(legendre[(-1) ** (n // 2) * det[unit] % p].sum())
        else:
            s = 0
        for x, y in zip(A[~unit].tolist(), B[~unit].tolist()):
            s += jordan_gauss_sum([[x * u + y * v for u, v in zip(*row)]
                                   for row in rows], p, R)
        total += (p - 1) * p ** (c - 1) * s
    count, rem = divmod(total, p ** (r1 + r2))
    if rem:
        raise ArithmeticError("Gauss-sum count is not an integer")
    return count


def _exact_grad(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    return 2 * (X @ M)


_CHUNK_ROWS = 500_000


def _lift_count(pair: QuadricPair, p: int, R: int, r1: int, r2: int,
                guard: int = DEFAULT_GUARD, t1: int = 0) -> int:
    """#{x mod p^R : Q1(x) = t1 mod p^r1, p^r2 | Q2(x)} by digit lifting,
    at any prime p; count_congruence_pair at t1 = 0."""
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
        a1 = pair.Q1.eval_batch(XB) - t1
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
        if not survive.all():  # the gradients of dropped rows are not needed
            XB, a1, a2 = XB[survive], a1[survive], a2[survive]

        G1 = _exact_grad(M1, XB)
        G2 = _exact_grad(M2, XB)
        if p == 2:  # the gradients 2 M x are never units
            full_rank = np.zeros(len(XB), dtype=bool)
        elif len(active) == 1:
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
        drop = sum(s - j for s in active)
        total += int(full_rank.sum()) * p ** (n * (R - j) - drop)

        idx = np.nonzero(~full_rank)[0]
        if len(idx) == 0:
            continue
        if all(s <= 2 * j for s in active):
            # quadratic term dead: one linear congruence system mod p^U per
            # branch, a row [gradient | rhs] per active condition, solved
            # once for each distinct system (keyed by its digits base p^U)
            U = max(s - j for s in active)
            q = p**U
            systems = np.hstack([
                np.hstack((G[idx], -(a[idx] // pj)[:, None])) * p ** (U - (s - j)) % q
                for s, a, G in ((r1, a1, G1), (r2, a2, G2)) if s > j])
            cols = systems.shape[1]
            radix = np.array([q**c for c in range(cols)],
                             dtype=np.int64 if q**cols < 2**63 else object)
            _, first, mult = np.unique(systems @ radix, return_index=True,
                                       return_counts=True)
            for eqs, m in zip(systems[first].reshape(len(first), -1, n + 1).tolist(),
                              mult.tolist()):
                cnt = count_lincong([e[:n] for e in eqs], [e[n] for e in eqs], q)
                total += m * cnt * p ** (n * (R - j - U))
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
