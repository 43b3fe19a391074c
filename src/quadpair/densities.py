"""Local densities of the pair, the archimedean density, and the
end-to-end comparison of S(B) against its predicted leading constant.

The predicted constant is c = sigma_inf * sigma_2 * prod_p sigma_p where,
writing chi for the non-trivial character mod 4,

    sigma_p   = (1 - chi(p)/p) * lim_k p^{-k(n-1)}
                   sum_{0 <= e <= k} chi(p)^e * Ntilde_k(e),
    Ntilde_k(e) = #{x mod p^k : p^e | Q1(x), p^k | Q2(x)},
    sigma_2   = lim_k 2^{1-k(n-1)} #{x mod 2^k : Q1 = 1 mod 4, 2^k | Q2(x)},
    sigma_inf = pi * tau_inf,   tau_inf = lim_{eps->0} (2 eps)^{-1}
                   integral of W over {|Q2| <= eps}.

All p-adic quantities are exact rationals (integer counts over explicit
prime powers); floats appear only in reports.  sigma_p is evaluated by a
stabilized form of the limit: the count at depth k is split into primitive
strata (gcd(x, p) = 1), whose contribution from depth > k is summed in
closed form under the generic depth-k lifting behaviour (each further step
of Q1-divisibility costing a factor p, each gcd stratum a factor p^{2-n}).
For a prime where the intersection is smooth this evaluation is exact
already at k = 1, and equality between consecutive depths is the
convergence certificate.  The raw truncation exactly as displayed above is
kept alongside for diagnostics (`sigma_p_truncated`); it approaches the
same limit but never equals it at finite k.

The depth-1 and depth-2 primitive counts come from one of two routes.  At a
good prime (p odd, disc_P != 0, p prime to det2 * disc_P) the pencil
det(b1 M1 + b2 M2) has distinct roots mod p, which certifies a smooth
intersection (Reid's criterion; `certified_good` needs no sweep).  There
the depth-1 counts are Gauss sums over the p + 1 points of the pencil,
each fixed by the rank and a nonsingular minor mod p, and Hensel lifting
gives depth 2: O(p n^3) work.  At every other prime, and for any pair with
disc_P == 0, a sweep of the p^n residues counts both depths.  sigma_2
counts the classes x0 mod 2^j, j ~ k/2, and sizes the fiber over each by
one linear congruence, so depth k costs 2^(jn) rather than 2^(kn).

The dimension must be at least 3: at n = 2 the stratum ratio p^{2-n}
reaches 1 and the defining limit itself diverges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .counting import WeightFunction, s_of_b_rows
from .guard import DEFAULT_GUARD, ResourceGuardError, check_guard
from .lincong import bareiss_det, solve_mod_p
from .modarith import chi4, is_prime, jacobi
from .padic import count_congruence_pair, count_congruence_pair_primitive
from .quadforms import (
    QuadricPair,
    _good_reduction_mod_p,
    _pencil_roots_distinct_mod_p,
    grid_blocks,
    residue_blocks,
)

__all__ = [
    "DensityReport",
    "ExperimentResult",
    "Ntilde",
    "Sigma2",
    "SigmaP",
    "TauInfinity",
    "experiment",
    "sigma_2",
    "sigma_infinity",
    "sigma_p",
    "sigma_p_truncated",
    "singular_constant",
    "tau_infinity",
    "two_squares_closed_form",
    "two_squares_count",
]


# --------------------------------------------------------------------------
# representations by two squares modulo p^k
# --------------------------------------------------------------------------


def two_squares_count(A: int, p: int, k: int, guard: int = DEFAULT_GUARD) -> int:
    """#{(u, v) mod p^k : u^2 + v^2 = A mod p^k}, by direct count."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if k < 1:
        raise ValueError("k must be at least 1")
    q = p**k
    check_guard("two_squares_count", q * q, guard)
    sq = np.bincount((np.arange(q, dtype=np.int64) ** 2) % q, minlength=q)
    return int((sq * sq[(A - np.arange(q)) % q]).sum())


def two_squares_closed_form(A: int, p: int, k: int) -> int:
    """The case-by-case value of two_squares_count.

    For p = 2 the formula covers only odd A and k >= 2 (2^{k+1} when
    A = 1 mod 4, zero when A = 3 mod 4); other inputs raise.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if k < 1:
        raise ValueError("k must be at least 1")
    if p == 2:
        if A % 2 == 0:
            raise ValueError("p = 2 closed form requires odd A")
        if k < 2:
            raise ValueError("p = 2 closed form requires k >= 2")
        return 2 ** (k + 1) if A % 4 == 1 else 0
    v = 0
    a = A % p**k
    if a == 0:
        v = k
    else:
        while a % p == 0:
            a //= p
            v += 1
    if p % 4 == 1:
        if v >= k:
            return p**k + k * (p**k - p ** (k - 1))
        return (1 + v) * (p**k - p ** (k - 1))
    if v >= k:
        return p ** (2 * (k // 2))
    if v % 2 == 0:
        return p**k + p ** (k - 1)
    return 0


# --------------------------------------------------------------------------
# p-adic counts and sigma_p
# --------------------------------------------------------------------------


def Ntilde(pair: QuadricPair, p: int, k: int, e: int,
           guard: int = DEFAULT_GUARD) -> int:
    """Ntilde_k(e) = #{x mod p^k : p^e | Q1(x), p^k | Q2(x)}, p odd."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if k < 0 or not 0 <= e <= max(k, 0):
        raise ValueError("need 0 <= e <= k")
    if k == 0:
        return 1
    return count_congruence_pair(pair, p, k, e, k, guard=guard)


@dataclass(frozen=True)
class _LocalData:
    """Primitive counts at depths 1 and 2."""

    p: int
    star1: tuple[int, int]        # Ntilde*_1(0), Ntilde*_1(1)
    star2: tuple[int, int, int]   # Ntilde*_2(0), Ntilde*_2(1), Ntilde*_2(2)


def _local_cost(pair: QuadricPair, p: int) -> int:
    """Guard estimate of _local_data: p + 1 pencil points of O(n^3) each
    on the closed-form route, the p^n residues on the sweep route."""
    if _pencil_roots_distinct_mod_p(pair, p):
        return (p + 1) * pair.n**3
    return p**pair.n


def _nondegenerate_part(m, p: int) -> tuple[int, int]:
    """(r, det') for an integer symmetric matrix m over F_p: its rank r and
    the determinant of a principal r x r minor that is nonsingular mod p.

    The minor on the pivot columns of m is one: those columns span the
    column space, and for a symmetric matrix that makes the minor on them
    nonsingular.
    """
    n = len(m)
    _, kernel = solve_mod_p(m, [0] * n, p)
    # the pivot columns are those at which no kernel vector ends
    ends = {max(i for i, v in enumerate(vec) if v) for vec in kernel}
    keep = [i for i in range(n) if i not in ends]
    dprime = bareiss_det([[m[i][j] for j in keep] for i in keep])
    if dprime % p == 0:
        raise ArithmeticError("pivot minor is singular mod p")
    return len(keep), dprime


def _line_gauss_sum(n: int, r: int, dprime: int, p: int) -> int:
    """sum over lambda in F_p^* of G(lambda M), G(M) = sum_x e_p(x^T M x),
    for an n x n symmetric M of rank r mod p with nondegenerate part of
    determinant dprime (see _nondegenerate_part).

    G(lambda M) is p^(n - r) times r one-variable Gauss sums, which gives
    the integer (p - 1) p^(n - r) p^(r/2) ((-1)^(r/2) dprime | p) for even
    r and 0 for odd r (the Legendre symbol of lambda sums to zero).
    """
    if r % 2:
        return 0
    h = r // 2
    return (p - 1) * p ** (n - r + h) * jacobi((-1) ** h * dprime, p)


def _pencil_zero_counts(pair: QuadricPair, p: int) -> tuple[int, int]:
    """(#{x mod p : Q2(x) = 0}, #{x mod p : Q1(x) = Q2(x) = 0}), x = 0
    included, for odd p, by Gauss sums.

    The counts are (p^n + S(M2)) / p and (p^n + sum S(a M1 + b M2)) / p^2
    with S the line sum of _line_gauss_sum and [a : b] running over the
    p + 1 points of P^1(F_p).  The pencil polynomial gives the determinant
    at each point; only its roots mod p need an elimination.
    """
    n = pair.n
    M1, M2 = pair.Q1.M, pair.Q2.M
    pn = p**n
    if pair.det2 % p:
        s2 = _line_gauss_sum(n, n, pair.det2, p)
    else:
        s2 = _line_gauss_sum(n, *_nondegenerate_part(M2, p), p)
    if (pn + s2) % p:
        raise ArithmeticError("Gauss-sum count of Q2 is not an integer")
    total = pn + s2  # s2 is the term of the point [0 : 1]
    coeffs = pair.pencil_poly[::-1]  # c_n, ..., c_0
    for t in range(p):
        det = 0
        for c in coeffs:  # P(1, t) = sum_k c_k t^k
            det = (det * t + c) % p
        if det:
            total += _line_gauss_sum(n, n, det, p)
        else:
            m = [[M1[i][j] + t * M2[i][j] for j in range(n)] for i in range(n)]
            total += _line_gauss_sum(n, *_nondegenerate_part(m, p), p)
    if total % (p * p):
        raise ArithmeticError("Gauss-sum count of the pair is not an integer")
    return (pn + s2) // p, total // (p * p)


def _local_data_pencil(pair: QuadricPair, p: int) -> _LocalData:
    """_LocalData with no sweep, at a prime where the pencil has distinct
    roots (_pencil_roots_distinct_mod_p) and so the intersection is smooth.

    Every primitive zero of Q2 mod p has a nonzero gradient and lifts to
    p^(n-1) zeros mod p^2; every primitive common zero has independent
    gradients and lifts to p^(n-2) common zeros mod p^2.
    """
    n = pair.n
    n2, n12 = _pencil_zero_counts(pair, p)
    s0, s1 = n2 - 1, n12 - 1
    return _LocalData(p, (s0, s1), (p ** (n - 1) * s0, p ** (n - 1) * s1,
                                    p ** (n - 2) * s1))


def _local_data_sweep(pair: QuadricPair, p: int,
                      guard: int = DEFAULT_GUARD) -> _LocalData:
    """_LocalData at any odd prime, from a single sweep of the grid mod p."""
    n = pair.n
    check_guard("sigma_p", p**n, guard)
    M1 = np.array(pair.Q1.M, dtype=np.int64)
    M2 = np.array(pair.Q2.M, dtype=np.int64)
    p2 = p * p
    s1_0 = s1_1 = 0
    s2_0 = s2_1 = s2_2 = 0
    inv_table = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)],
                         dtype=np.int64)
    for block in residue_blocks(p, n):
        nonzero = (block != 0).any(axis=1)
        q2 = pair.Q2.eval_batch(block)
        zero2 = (q2 % p == 0) & nonzero
        if not zero2.any():
            continue
        X = block[zero2]
        v1 = pair.Q1.eval_batch(X)
        v2 = q2[zero2]
        s1_0 += len(X)
        div1 = v1 % p == 0
        s1_1 += int(div1.sum())

        G1 = (2 * (X @ M1)) % p
        G2 = (2 * (X @ M2)) % p
        g2nz = (G2 != 0).any(axis=1)
        deep2 = v2 % p2 == 0
        # depth-2 fibers for p^2 | Q2 alone: a non-degenerate gradient row
        # gives p^{n-1} lifts, a vanishing one gives p^n iff p^2 | Q2(x0)
        s2_0 += p ** (n - 1) * int(g2nz.sum())
        s2_0 += p**n * int((~g2nz & deep2).sum())
        s2_1 += p ** (n - 1) * int((g2nz & div1).sum())
        s2_1 += p**n * int((~g2nz & div1 & deep2).sum())

        # depth-2 with p^2 | Q1 as well: solve the 2 x n system
        sel = div1
        if sel.any():
            A1, A2 = G1[sel], G2[sel]
            b1 = (-(v1[sel] // p)) % p
            b2 = (-(v2[sel] // p)) % p
            z1 = (A1 == 0).all(axis=1)
            z2 = (A2 == 0).all(axis=1)
            both0 = z1 & z2
            s2_2 += p**n * int((both0 & (b1 == 0) & (b2 == 0)).sum())
            only1 = z1 & ~z2
            s2_2 += p ** (n - 1) * int((only1 & (b1 == 0)).sum())
            only2 = ~z1 & z2
            s2_2 += p ** (n - 1) * int((only2 & (b2 == 0)).sum())
            live = ~z1 & ~z2
            if live.any():
                R1, R2 = A1[live], A2[live]
                cross = (R1[:, :, None] * R2[:, None, :]
                         - R1[:, None, :] * R2[:, :, None]) % p
                par = (cross == 0).all(axis=(1, 2))
                s2_2 += p ** (n - 2) * int((~par).sum())
                if par.any():
                    P1, P2 = R1[par], R2[par]
                    lead = np.argmax(P1 != 0, axis=1)
                    rows = np.arange(len(P1))
                    lam = (P2[rows, lead] * inv_table[P1[rows, lead]]) % p
                    ok = (lam * b1[live][par] - b2[live][par]) % p == 0
                    s2_2 += p ** (n - 1) * int(ok.sum())
    return _LocalData(p, (s1_0, s1_1), (s2_0, s2_1, s2_2))


@lru_cache(maxsize=None)
def _local_data(pair: QuadricPair, p: int) -> _LocalData:
    if _pencil_roots_distinct_mod_p(pair, p):
        return _local_data_pencil(pair, p)
    return _local_data_sweep(pair, p)


def _primitive_counts(pair: QuadricPair, p: int, k: int,
                      guard: int = DEFAULT_GUARD) -> list[int]:
    """[Ntilde*_k(0), ..., Ntilde*_k(k)] (primitive x only)."""
    if k <= 2:
        # guard before the cache lookup so the outcome does not depend on
        # what happens to be cached already
        check_guard("sigma_p", _local_cost(pair, p), guard)
        data = _local_data(pair, p)
        return list(data.star1) if k == 1 else list(data.star2)
    return [count_congruence_pair_primitive(pair, p, k, e, k, guard=guard)
            for e in range(k + 1)]


def _stabilized_sigma(pair: QuadricPair, p: int, k: int,
                      guard: int = DEFAULT_GUARD) -> Fraction:
    """The depth-k stabilized evaluation of sigma_p (exact rational).

    Primitive counts at depth k are taken as computed; divisibility by Q1
    beyond depth k is charged the generic factor 1/p per extra power, and
    the strata x = p^a y contribute a geometric series in p^{2-n}.  When
    the depth-k counts already follow the generic lifting law (smooth
    case) this equals the limit exactly.
    """
    n = pair.n
    chi = chi4(p)
    star = _primitive_counts(pair, p, k, guard=guard)
    scale = p ** (k * (n - 1))
    head = sum(chi**e * star[e] for e in range(k))
    lstar = Fraction(head, scale) + Fraction(chi**k * star[k] * p, scale * (p - chi))
    d2 = Fraction(star[0], scale)
    t = Fraction(1, p ** (n - 2))
    L = lstar / (1 - t) + (1 + chi) * d2 * t / (1 - t) ** 2
    return (1 - Fraction(chi, p)) * L


@dataclass(frozen=True)
class SigmaP:
    p: int
    k_used: int
    fraction: Fraction
    converged: bool

    @property
    def value(self) -> float:
        return float(self.fraction)


def sigma_p(pair: QuadricPair, p: int, k_max: int = 2,
            guard: int = DEFAULT_GUARD) -> SigmaP:
    """sigma_p by the stabilized evaluator, deepening until two
    consecutive depths agree exactly (the convergence certificate) or
    k_max is reached."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if pair.n < 3:
        raise ValueError("densities require n >= 3")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    prev: Fraction | None = None
    k_done = 0
    for k in range(1, k_max + 1):
        try:
            val = _stabilized_sigma(pair, p, k, guard=guard)
        except ResourceGuardError:
            if prev is None:
                raise
            break
        if prev is not None and val == prev:
            return SigmaP(p, k, val, True)
        prev, k_done = val, k
    return SigmaP(p, k_done, prev, False)


def sigma_p_truncated(pair: QuadricPair, p: int, k: int,
                      guard: int = DEFAULT_GUARD) -> Fraction:
    """The raw truncation (1 - chi(p)/p) p^{-k(n-1)} sum_e chi^e Ntilde_k(e),
    exactly as the defining limit is written, with no rearrangement."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if k < 1:
        raise ValueError("k must be at least 1")
    chi = chi4(p)
    total = sum(chi**e * Ntilde(pair, p, k, e, guard=guard) for e in range(k + 1))
    return (1 - Fraction(chi, p)) * Fraction(total, p ** (k * (pair.n - 1)))


def certified_good(pair: QuadricPair, p: int) -> bool:
    """True when p is odd, prime to the pair's discriminant data, and the
    intersection is smooth with good pencil rank mod p.

    With disc_P != 0 the first two conditions imply the third (Reid's
    criterion); with disc_P == 0 pencil rank and smoothness are checked by
    brute force over F_p.  The certificate is the one bad_primes uses.
    """
    if not is_prime(p) or p == 2 or p in pair.bad_primes:
        return False
    return _good_reduction_mod_p(pair, p)


# --------------------------------------------------------------------------
# sigma_2
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Sigma2:
    k_used: int
    fraction: Fraction
    stabilized: bool

    @property
    def value(self) -> float:
        return float(self.fraction)


def _sigma2_lift_depth(k: int) -> int:
    """The depth j of the classes x0 mod 2^j _sigma2_fraction enumerates."""
    return min(k, max(2, (k + 1) // 2))


def _sigma2_cost(n: int, k_max: int) -> int:
    """Classes sigma_2(k_max) enumerates: depths k_max - 1 and k_max."""
    return sum(2 ** (_sigma2_lift_depth(k) * n) for k in (k_max - 1, k_max))


def _sigma2_fraction(pair: QuadricPair, k: int) -> Fraction:
    """2^(1 - k(n-1)) #{x mod 2^k : Q1(x) = 1 mod 4, 2^k | Q2(x)}, with x
    taken as its representative in [0, 2^k).

    Writes x = x0 + 2^j t with x0 mod 2^j and j = min(k, max(2, ceil(k/2))).
    Then Q1(x) = Q1(x0) mod 4, and since 2j >= k,
    Q2(x) = Q2(x0) + 2^(j+1) (M2 x0).t mod 2^k.  So, with
    m = max(k - j - 1, 0), each x0 with 2^(k-m) | Q2(x0) contributes the
    t mod 2^(k-j) solving one linear congruence mod 2^m, which number
    2^((k-j-m) n + m(n-1)) g when g = gcd(M2 x0, 2^m) divides its
    right-hand side.  Only the 2^(jn) classes x0 are enumerated.
    """
    n = pair.n
    j = _sigma2_lift_depth(k)
    m = max(k - j - 1, 0)
    mod = 2**m
    M2 = np.array(pair.Q2.M, dtype=np.int64)
    count = 0
    for x0 in residue_blocks(2**j, n):
        q2 = pair.Q2.eval_batch(x0)
        live = (pair.Q1.eval_batch_mod(x0 % 4, 4) == 1) & (q2 % 2 ** (k - m) == 0)
        g = np.gcd.reduce((x0[live] @ M2) % mod, axis=1, initial=mod)
        rhs = (-(q2[live] // 2 ** (k - m))) % mod
        count += int(g[rhs % g == 0].sum())
    count *= 2 ** ((k - j - m) * n + m * (n - 1))
    return Fraction(2 * count, 2 ** (k * (n - 1)))


def sigma_2(pair: QuadricPair, k_max: int = 5,
            guard: int = DEFAULT_GUARD) -> Sigma2:
    """Truncated 2-adic density with a stabilization flag (last two
    depths equal as exact rationals)."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    check_guard("sigma_2", _sigma2_cost(pair.n, k_max), guard)
    prev = _sigma2_fraction(pair, k_max - 1)
    last = _sigma2_fraction(pair, k_max)
    return Sigma2(k_max, last, prev == last)


# --------------------------------------------------------------------------
# the archimedean density
# --------------------------------------------------------------------------


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class TauInfinity:
    slab: float                 # extrapolated slab estimate (the headline)
    coarea: float               # independent surface-integral estimate
    slab_ladder: tuple[float, ...]
    epsilons: tuple[float, ...]
    axis_points: int            # transverse grid resolution used

    @property
    def spread(self) -> float:
        mid = 0.5 * (abs(self.slab) + abs(self.coarea))
        return abs(self.slab - self.coarea) / mid if mid > 0 else 0.0


def _bump_1d(s2: np.ndarray, y1: np.ndarray, c1: float, rho: float) -> np.ndarray:
    """W along the distinguished coordinate: squared transverse distance s2
    fixed, axis coordinate y1 varying."""
    t = (s2 + (y1 - c1) ** 2) / rho**2
    safe = np.minimum(t, 1.0 - 1e-15)
    return np.where(t < 1.0 - 1e-15, np.exp(-1.0 / (1.0 - safe)), 0.0)


def _tau_pass(Q2, W: WeightFunction, eps_list, G: int):
    """One transverse resolution: slab values for every epsilon plus the
    coarea estimate, integrating exactly in the distinguished coordinate."""
    n = Q2.n
    x0 = np.array(W.x0, dtype=float)
    M2 = np.array(Q2.M, dtype=float)
    grad0 = 2.0 * M2 @ x0
    axis = int(np.argmax(np.abs(grad0)))
    rest = [j for j in range(n) if j != axis]
    a0 = float(M2[axis, axis])
    c1 = x0[axis]
    rho = W.rho

    # midpoint rule on the transverse box of half-width rho about x0[rest]
    h = 2.0 * rho / G
    cell = h ** len(rest)
    slab_tot = [0.0 for _ in eps_list]
    co_tot = 0.0
    for yk in grid_blocks(-rho + h * (np.arange(G) + 0.5), len(rest)):
        yk += x0[rest]
        # Q2(y1, y') = a y1^2 + b(y') y1 + c(y') in the distinguished coord
        b = 2.0 * yk @ M2[axis, rest]
        c = np.einsum("ij,jk,ik->i", yk, M2[np.ix_(rest, rest)], yk)
        s2 = ((yk - x0[rest]) ** 2).sum(axis=1)
        inside = s2 < rho**2
        if not inside.any():
            continue
        b, c, s2 = b[inside], c[inside], s2[inside]
        r1 = np.sqrt(rho**2 - s2)
        lo, hi = c1 - r1, c1 + r1
        a = a0
        if a < 0:
            a, b, c = -a, -b, -c

        def weight_integral(left, right):
            left = np.maximum(left, lo)
            right = np.minimum(right, hi)
            half = 0.5 * (right - left)
            live = half > 0
            if not live.any():
                return 0.0
            mid = 0.5 * (left + right)[live]
            hw = half[live]
            t0 = s2[live]
            total = 0.0
            for node, wgt in zip(_GL_NODES, _GL_WEIGHTS):
                vals = _bump_1d(t0, mid + hw * node, c1, rho)
                total += float((wgt * hw * vals).sum())
            return total

        if abs(a) > 1e-15:
            for i, eps in enumerate(eps_list):
                # {y1: |q| <= eps} = [R1, R2] minus the open middle (m1, m2)
                disc_out = b * b - 4 * a * (c - eps)
                disc_in = b * b - 4 * a * (c + eps)
                has_out = disc_out > 0
                sq_out = np.sqrt(np.maximum(disc_out, 0.0))
                R1 = np.where(has_out, (-b - sq_out) / (2 * a), 1.0)
                R2 = np.where(has_out, (-b + sq_out) / (2 * a), 0.0)
                has_in = disc_in > 0
                sq_in = np.sqrt(np.maximum(disc_in, 0.0))
                m1 = np.where(has_in, (-b - sq_in) / (2 * a), R2)
                m2 = np.where(has_in, (-b + sq_in) / (2 * a), R2)
                part = weight_integral(R1, np.minimum(R2, m1))
                part += weight_integral(np.maximum(R1, m2), R2)
                slab_tot[i] += part * cell / (2.0 * eps)
            disc = b * b - 4 * a * c
            has = disc > 0
            sq = np.sqrt(np.maximum(disc, 0.0))
            for sgn in (-1.0, 1.0):
                root = (-b + sgn * sq) / (2 * a)
                deriv = np.abs(2 * a * root + b)
                ok = has & (root >= lo) & (root <= hi) & (deriv > 1e-12)
                if ok.any():
                    wv = _bump_1d(s2[ok], root[ok], c1, rho)
                    co_tot += float((wv / deriv[ok]).sum()) * cell
        else:
            bz = np.abs(b) > 1e-12
            bsafe = np.where(bz, b, 1.0)
            for i, eps in enumerate(eps_list):
                left = (-eps - c) / bsafe
                right = (eps - c) / bsafe
                swap = left > right
                l2 = np.where(swap, right, left)
                r2_ = np.where(swap, left, right)
                # b = 0 points contribute their whole segment iff |c| <= eps
                l2 = np.where(bz, l2, np.where(np.abs(c) <= eps, lo, 1.0))
                r2_ = np.where(bz, r2_, np.where(np.abs(c) <= eps, hi, 0.0))
                slab_tot[i] += weight_integral(l2, r2_) * cell / (2.0 * eps)
            root = np.where(bz, -c / bsafe, lo - 1.0)
            ok = bz & (root >= lo) & (root <= hi)
            wv = np.where(ok, _bump_1d(s2, root, c1, rho), 0.0)
            co_tot += float((wv / np.abs(bsafe)).sum()) * cell
    return slab_tot, co_tot


def _extrapolate(eps: np.ndarray, vals: np.ndarray) -> float:
    """Least-squares linear fit in eps, evaluated at eps = 0."""
    A = np.stack([np.ones_like(eps), eps], axis=1)
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    return float(coef[0])


def tau_infinity(Q2, W: WeightFunction,
                 guard: int = DEFAULT_GUARD) -> TauInfinity:
    """Archimedean density of {Q2 = 0} weighted by W, two ways.

    The slab estimator integrates W over {|Q2| <= eps} for the ladder
    eps in {0.2, 0.1, 0.05, 0.025} * (rho |grad Q2(x0)|), dividing by
    2 eps and extrapolating linearly to eps = 0.  The coarea estimator
    integrates W / |grad-component| over the zero set directly.  Both
    resolve the distinguished coordinate exactly (quadratic root solving)
    on a transverse grid whose resolution doubles until the estimates
    move by less than 1%.
    """
    if W.n != Q2.n:
        raise ValueError("weight dimension mismatch")
    x0 = np.array(W.x0, dtype=float)
    M2f = np.array(Q2.M, dtype=float)
    grad0 = 2.0 * M2f @ x0
    gnorm = float(np.sqrt(grad0 @ grad0))
    if gnorm < 1e-12:
        raise ValueError("grad Q2 vanishes at the weight center")
    scale = W.rho * gnorm
    eps_list = tuple(f * scale for f in (0.2, 0.1, 0.05, 0.025))

    # reject weights whose support meets {Q2 = 0} at a critical point
    pts = W.support_grid()
    vals = Q2.eval_float(pts)
    near = np.abs(vals) < 0.2 * scale
    if near.any():
        gn = np.sqrt(((2.0 * pts[near] @ M2f) ** 2).sum(axis=1))
        if float(gn.min()) < 1e-8 * gnorm:
            raise ValueError("grad Q2 vanishes on the support near Q2 = 0")

    G = 12
    prev = None
    while True:
        check_guard("tau_infinity", (G ** (Q2.n - 1)) * 8, guard)
        slabs, coarea = _tau_pass(Q2, W, eps_list, G)
        slab = _extrapolate(np.array(eps_list), np.array(slabs))
        if prev is not None:
            ps, pc = prev
            ds = abs(slab - ps) <= 0.01 * max(abs(slab), 1e-300)
            dc = abs(coarea - pc) <= 0.01 * max(abs(coarea), 1e-300)
            if (ds and dc) or (slab == 0.0 and coarea == 0.0):
                break
        prev = (slab, coarea)
        G *= 2
    return TauInfinity(slab, coarea, tuple(slabs), eps_list, G)


def sigma_infinity(Q2, W: WeightFunction, guard: int = DEFAULT_GUARD) -> float:
    """pi times the extrapolated slab estimate of tau_infinity."""
    return math.pi * tau_infinity(Q2, W, guard=guard).slab


# --------------------------------------------------------------------------
# the singular constant and the experiment table
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityReport:
    p_max: int
    primes: tuple[SigmaP, ...]
    sigma2: Sigma2
    sigma_inf: float
    sigma_inf_spread: float
    c_truncated: float
    tail_diagnostic: float

    def to_json(self) -> str:
        payload = {
            "p_max": self.p_max,
            "primes": [
                {
                    "p": s.p,
                    "k_used": s.k_used,
                    "sigma_p": s.value,
                    "fraction": f"{s.fraction.numerator}/{s.fraction.denominator}",
                    "converged": s.converged,
                }
                for s in self.primes
            ],
            "sigma2": {
                "k_used": self.sigma2.k_used,
                "value": self.sigma2.value,
                "fraction": (f"{self.sigma2.fraction.numerator}/"
                             f"{self.sigma2.fraction.denominator}"),
                "stabilized": self.sigma2.stabilized,
            },
            "sigma_inf": self.sigma_inf,
            "sigma_inf_spread": self.sigma_inf_spread,
            "c_truncated": self.c_truncated,
            "tail_diagnostic": self.tail_diagnostic,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _odd_primes_upto(x: int) -> list[int]:
    return [p for p in range(3, x + 1) if is_prime(p)]


def singular_constant(pair: QuadricPair, W: WeightFunction, p_max: int = 50,
                      k_max: int = 5, guard: int = DEFAULT_GUARD) -> DensityReport:
    """c_truncated = sigma_inf * sigma_2 * prod_{2 < p <= p_max} sigma_p,
    with per-prime convergence certificates and a heuristic tail size."""
    if pair.n < 3:
        raise ValueError("densities require n >= 3")
    tau = tau_infinity(pair.Q2, W, guard=guard)
    sigma_inf = math.pi * tau.slab

    k2 = k_max
    while k2 > 2 and _sigma2_cost(pair.n, k2) > guard:
        k2 -= 1
    s2 = sigma_2(pair, k_max=k2, guard=guard)

    primes = []
    for p in _odd_primes_upto(p_max):
        primes.append(sigma_p(pair, p, k_max=k_max, guard=guard))
    c = sigma_inf * s2.value
    for s in primes:
        c *= s.value

    # heuristic tail: fit |sigma_p - 1| <= C p^{-3/2} on the computed range,
    # then bound the remainder by C * integral_{p_max}^inf t^{-3/2} / log t
    fits = [abs(s.value - 1.0) * s.p**1.5 for s in primes]
    C = max(fits) if fits else 0.0
    tail = C * 2.0 / (math.sqrt(p_max) * math.log(p_max)) if p_max >= 3 else math.inf
    return DensityReport(
        p_max=p_max,
        primes=tuple(primes),
        sigma2=s2,
        sigma_inf=sigma_inf,
        sigma_inf_spread=tau.spread,
        c_truncated=c,
        tail_diagnostic=tail,
    )


@dataclass(frozen=True)
class ExperimentResult:
    report: DensityReport
    rows: tuple[tuple, ...]   # (B, S_B, S_over_Bn2, c_trunc, ratio)

    CSV_HEADER = "B,S_B,S_over_Bn2,c_trunc,ratio"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for row in self.rows:
            lines.append(",".join(f"{v:.12g}" for v in row))
        return "\n".join(lines) + "\n"


def experiment(pair: QuadricPair, W: WeightFunction, B_values, p_max: int = 50,
               k_max: int = 5, guard: int = DEFAULT_GUARD,
               workers: int = 1) -> ExperimentResult:
    """Compare S(B) / B^{n-2} against the truncated constant over a B
    ladder; the ratio column should drift toward 1."""
    report = singular_constant(pair, W, p_max=p_max, k_max=k_max, guard=guard)
    c = report.c_truncated
    rows = tuple((B, s, over, c, over / c if c != 0 else math.nan)
                 for B, s, over in s_of_b_rows(pair, W, B_values, guard=guard,
                                               workers=workers))
    return ExperimentResult(report, rows)
