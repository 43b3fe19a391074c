"""Exact counts of x mod p^R with p^r1 | Q1(x) and p^r2 | Q2(x).

This is the one place that decides how such a count is computed; sigma_p,
sigma_2, rho and rho* all read it from here.  The input picks the route.

At odd p the count is one identity: p^-(r1+r2) times the sum of the Gauss
sums G_{p^R}(a p^(R-r1) M1 + b p^(R-r2) M2) over a mod p^r1 and
b mod p^r2.  The content p^v of each member folds out,
G_{p^R}(p^v N) = p^(nv) G_{p^(R-v)}(N), so up to unit scaling only the
primitive members (1, b) and (a, 1), p | a, enter, p^c + p^(c-1) of them
at each level c = R - v.  One table per pair and prime (_GaussTable)
evaluates each member once, and only once a count reads it: G off the
pencil polynomial where det(a M1 + b M2) is a unit mod p, vectorised,
and off a Jordan decomposition mod p^c (`lincong.jordan_gauss_sum`)
elsewhere, kept as totals by the valuations of (a, b).  Each count is a
sum over the levels c <= max(r1, r2), masked by those valuations: at
most O(p^max(r1, r2) n^3) work, shared by every later count of the
table, with no sweep of residues.

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
from .quadforms import QuadricPair, _unit_minor, residue_grid

__all__ = [
    "count_congruence_pair",
    "count_divisibility",
    "count_divisibility_primitive",
]


def _check_target(p: int, R: int, r1: int, r2: int) -> None:
    if not is_prime(p):
        raise ValueError("p must be prime")
    if R < 0 or not (0 <= r1 <= R) or not (0 <= r2 <= R):
        raise ValueError("need 0 <= r1, r2 <= R")


def _counts(pair: QuadricPair, p: int, targets: list[tuple[int, int, int]],
            guard: int) -> list[int]:
    """#{x mod p^R : p^r1 | Q1(x), p^r2 | Q2(x)} at each (R, r1, r2) of
    targets: one Gauss-sum table at odd p, digit lifting at p = 2."""
    if p == 2:
        return [_lift_count(pair, p, R, r1, r2, guard) for R, r1, r2 in targets]
    return _GaussTable(pair, p, guard).counts(targets)


def count_congruence_pair(pair: QuadricPair, p: int, R: int, r1: int, r2: int,
                          guard: int = DEFAULT_GUARD) -> int:
    """#{x mod p^R : p^r1 | Q1(x), p^r2 | Q2(x)}, exactly: the Gauss-sum
    identity at odd p, digit lifting at p = 2."""
    _check_target(p, R, r1, r2)
    return _counts(pair, p, [(R, r1, r2)], guard)[0]


def _thresholds(c: int, r1: int, r2: int) -> tuple[int, int]:
    """The least v(x) of the members (1, x) and of the members (x, 1),
    p | x, of level c that the count with targets r1, r2 reads; c + 1 where
    it reads none.  (a, b) enters iff v(a) >= c - r1 and v(b) >= c - r2."""
    return (max(c - r2, 0) if c <= r1 else c + 1,
            max(c - r1, 1) if c <= r2 else c + 1)


def _shell(p: int, c: int, lo: int, hi: int) -> np.ndarray:
    """The x mod p^c with lo <= v(x) < hi, v(0) taken as c."""
    x = np.arange(0, p**c, p**lo, dtype=np.int64)
    return x[x % p**hi != 0] if hi <= c else x


def _shell_size(p: int, c: int, lo: int, hi: int) -> int:
    """len(_shell(p, c, lo, hi)), for lo <= c, without building it."""
    return p ** (c - lo) - (p ** (c - hi) if hi <= c else 0)


def _valuations(x: np.ndarray, p: int, c: int) -> np.ndarray:
    """v_p of each entry of x mod p^c, taken as c at 0."""
    v = np.zeros(len(x), dtype=np.int64)
    for t in range(1, c + 1):
        v += x % p**t == 0
    return v


def _gauss_sums(pair: QuadricPair, p: int, c: int, half: int,
                x: np.ndarray) -> list[int]:
    """The totals of jordan_gauss_sum(a M1 + b M2, p, c) by v(x), v = 0..c,
    over the members (a, b) = (1, x) (half 0) or (x, 1) (half 1).

    Where the pencil polynomial puts det(a M1 + b M2) among the units mod p,
    every Jordan block is a unit: G is p^(nc/2) for even c, p^(nc/2)
    ((-1)^(n/2) det / p) for odd c and even n, and sums to 0 over the orbit
    for odd c and n.  Only the other members are eliminated.
    """
    n = pair.n
    one = np.ones(len(x), dtype=np.int64)
    a, b = (one, x) if half == 0 else (x, one)
    v = _valuations(x, p, c)
    det, bk = 0, 1
    for coeff in pair.pencil_poly:  # det = P(a, b) mod p, by Horner
        det = (det * (a % p) + coeff % p * bk) % p
        bk = bk * (b % p) % p
    unit = det != 0
    if c % 2 == 0:
        sign = one
    elif n % 2 == 0:
        legendre = np.full(p, -1, dtype=np.int64)
        legendre[np.arange(p, dtype=np.int64) ** 2 % p] = 1
        sign = legendre[(-1) ** (n // 2) * det % p]
    else:
        sign = np.zeros_like(one)
    units = np.zeros(c + 1, dtype=np.int64)
    np.add.at(units, v[unit], sign[unit])
    sums = [u * p ** (n * c // 2) for u in units.tolist()]
    rows = list(zip(pair.Q1.M, pair.Q2.M))
    for k, y, z in zip(v[~unit].tolist(), a[~unit].tolist(), b[~unit].tolist()):
        sums[k] += jordan_gauss_sum([[y * u + z * w for u, w in zip(*row)]
                                     for row in rows], p, c)
    return sums


class _GaussTable:
    """#{x mod p^R : p^r1 | Q1(x), p^r2 | Q2(x)} at an odd prime p, for any
    (R, r1, r2), read off one table of Gauss sums of pencil members.

    The count is p^-(r1+r2) sum G_{p^R}(A M1 + B M2) over the (A, B) mod p^R
    with p^(R-r1) | A and p^(R-r2) | B, where G_{p^R}(M) = sum_{x mod p^R}
    e(x^T M x / p^R).  (A, B) = (0, 0) gives p^(nR).  Any other (A, B) is
    p^v (a, b) with (a, b) primitive mod p^c, c = R - v, and

        G_{p^R}(p^v N) = p^(nv) G_{p^c}(N),   N = a M1 + b M2.

    G(lambda N) for a unit lambda is (lambda/p)^t G(N), so the orbit of
    (a, b) under unit scaling, (p - 1) p^(c - 1) pairs, adds that many
    times jordan_gauss_sum(N, p, c).  Up to scaling the primitive (a, b) of
    level c are the members (1, x) and (x, 1), p | x, and (A, B) meets the
    divisibility conditions iff v(a) >= c - r1 and v(b) >= c - r2, so
    levels past max(r1, r2) never enter.  Each half of a level keeps its
    totals by v(x), built downwards from v(x) = c as counts reach lower
    valuations: no member is evaluated twice, and none that no count reads.
    """

    def __init__(self, pair: QuadricPair, p: int, guard: int = DEFAULT_GUARD,
                 operation: str = "count_congruence_pair"):
        self.pair, self.p, self.guard, self.operation = pair, p, guard, operation
        self._low: dict[int, list[int]] = {}  # level -> least v(x) built, per half
        self._sums: dict[int, list[list[int]]] = {}  # level -> totals by v(x), per half

    def _extend(self, targets) -> None:
        """Evaluate the members the targets read that are not yet in the
        table, after charging the guard n^3 for each."""
        p = self.p
        shells = []
        for c in range(1, max(max(r1, r2) for _, r1, r2 in targets) + 1):
            low = self._low.setdefault(c, [c + 1, c + 1])
            self._sums.setdefault(c, [[0] * (c + 1), [0] * (c + 1)])
            for half in (0, 1):
                lo = min(_thresholds(c, r1, r2)[half] for _, r1, r2 in targets)
                if lo < low[half]:
                    shells.append((c, half, lo, low[half]))
        if not shells:
            return
        check_guard(self.operation, self.pair.n**3 * sum(
            _shell_size(p, c, lo, hi) for c, _, lo, hi in shells), self.guard)
        for c, half, lo, hi in shells:
            sums = _gauss_sums(self.pair, p, c, half, _shell(p, c, lo, hi))
            self._sums[c][half] = [s + t for s, t in zip(self._sums[c][half], sums)]
            self._low[c][half] = lo

    def counts(self, targets: list[tuple[int, int, int]]) -> list[int]:
        """The count at each (R, r1, r2) of targets, 0 <= r1, r2 <= R."""
        p, n = self.p, self.pair.n
        self._extend(targets)
        out = []
        for R, r1, r2 in targets:
            total = p ** (n * R)
            for c in range(1, max(r1, r2) + 1):
                s = sum(sum(self._sums[c][half][lo:])
                        for half, lo in enumerate(_thresholds(c, r1, r2)))
                total += (p - 1) * p ** (c - 1 + n * (R - c)) * s
            count, rem = divmod(total, p ** (r1 + r2))
            if rem:
                raise ArithmeticError("Gauss-sum count is not an integer")
            out.append(count)
        return out


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
            full_rank = _unit_minor(G1 % p, G2 % p, p)[0] != 0

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


def _primitive_counts(count, targets) -> list[int]:
    """The counts at the targets (R, r1, r2), R >= 1, of the primitive x
    alone (x not == 0 mod p), from count, which maps a list of targets to
    their counts, called once: all x minus the imprimitive x = p y, which
    biject onto y mod p^(R-1) with both divisibility targets lowered by 2."""
    inner = [(R - 1, max(r1 - 2, 0), max(r2 - 2, 0)) for R, r1, r2 in targets]
    counts = count(list(targets) + inner)
    return [f - i for f, i in zip(counts, counts[len(targets):])]


def _count_congruence_pair_primitive(pair: QuadricPair, p: int, R: int,
                                     r1: int, r2: int,
                                     guard: int = DEFAULT_GUARD) -> int:
    """As count_congruence_pair but restricted to x not == 0 mod p
    (_primitive_counts); both counts read one Gauss-sum table at odd p."""
    _check_target(p, R, r1, r2)
    if R == 0:
        return 1  # mod 1 there is nothing to be imprimitive against
    return _primitive_counts(lambda targets: _counts(pair, p, targets, guard), [(R, r1, r2)])[0]


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
    return _crt_product(_count_congruence_pair_primitive, pair, d1, d2, guard)
