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
convergence certificate.

The counts at every odd prime and depth are read off one Gauss-sum table
of `padic` per sigma_p call: depth k builds only the new level k of
primitive pencil members, p^k + p^(k-1) of them at n^3 work each, and
every target of every depth is a masked sum over the levels built, with
no sweep of residues.  At a good prime (p odd, disc_P != 0, p prime to
det2 * disc_P) the pencil has distinct roots mod p, which certifies a
smooth intersection (Reid's criterion; `certified_good` needs no sweep),
and Hensel lifting gives depth 2 from depth 1.  sigma_2 reads the 2-adic
digit-lifting count of `padic` with Q1 shifted by its target 1 mod 4:
digits are enumerated only until the quadratic terms die, about half the
depth, and each distinct linear congruence left is solved once.

The dimension must be at least 3: at n = 2 the stratum ratio p^{2-n}
reaches 1 and the defining limit itself diverges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counting import WeightFunction, _bump, s_of_b_rows
from .guard import DEFAULT_GUARD, ResourceGuardError, check_guard
from .lincong import bareiss_det
from .modarith import chi4, is_prime
from .padic import _GaussTable, _lift_count, _primitive_counts
from .quadforms import (
    _BALL_SLACK,
    QuadricPair,
    _grid_sums,
    _pencil_roots_distinct_mod_p,
    _rows_at,
    certified_good,
    grid_block_axes,
)

__all__ = [
    "DensityReport",
    "ExperimentResult",
    "Sigma2",
    "SigmaP",
    "TauInfinity",
    "certified_good",
    "experiment",
    "sigma_2",
    "sigma_p",
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


def _hensel_lift(n: int, p: int, star1: list[int]) -> list[int]:
    """The depth-2 primitive counts from the depth-1 ones [s0, s1], where
    the pencil has distinct roots mod p.

    The intersection is then smooth: every primitive zero of Q2 mod p
    lifts to p^(n-1) zeros mod p^2, every primitive common zero to
    p^(n-2) common zeros.
    """
    s0, s1 = star1
    return [p ** (n - 1) * s0, p ** (n - 1) * s1, p ** (n - 2) * s1]


def _stabilized_sigma(pair: QuadricPair, p: int, star: list[int]) -> Fraction:
    """The stabilized evaluation of sigma_p (exact rational) from the
    primitive counts star = [Ntilde*_k(0), ..., Ntilde*_k(k)].

    Primitive counts at depth k are taken as given; divisibility by Q1
    beyond depth k is charged the generic factor 1/p per extra power, and
    the strata x = p^a y contribute a geometric series in p^{2-n}.  When
    the depth-k counts already follow the generic lifting law (smooth
    case) this equals the limit exactly.
    """
    n = pair.n
    k = len(star) - 1
    chi = chi4(p)
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
    k_max is reached.  Every depth reads one Gauss-sum table, which builds
    each level once."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if pair.n < 3:
        raise ValueError("densities require n >= 3")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    table = _GaussTable(pair, p, guard, "sigma_p")
    prev: Fraction | None = None
    k_done = 0
    for k in range(1, k_max + 1):
        if k == 2 and _pencil_roots_distinct_mod_p(pair, p):
            star = _hensel_lift(pair.n, p, star)
        else:
            try:
                star = _primitive_counts(table.counts, [(k, e, k) for e in range(k + 1)])
            except ResourceGuardError:
                if prev is None:
                    raise
                break
        val = _stabilized_sigma(pair, p, star)
        if prev is not None and val == prev:
            return SigmaP(p, k, val, True)
        prev, k_done = val, k
    return SigmaP(p, k_done, prev, False)


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


def _sigma2_fraction(pair: QuadricPair, k: int,
                     guard: int = DEFAULT_GUARD) -> Fraction:
    """2^(1 - k(n-1)) #{x mod 2^k : Q1(x) = 1 mod 4, 2^k | Q2(x)}.

    Q1 mod 4 depends only on x mod 2, so at k = 1 the count is taken mod 4
    and divided by the 2^n lifts of each class.
    """
    n = pair.n
    R = max(k, 2)
    count = _lift_count(pair, 2, R, 2, k, guard, t1=1) // 2 ** (n * (R - k))
    return Fraction(2 * count, 2 ** (k * (n - 1)))


def sigma_2(pair: QuadricPair, k_max: int = 5,
            guard: int = DEFAULT_GUARD) -> Sigma2:
    """Truncated 2-adic density with a stabilization flag (last two
    depths equal as exact rationals).  Each depth is charged the digits
    its count enumerates, as count_congruence_pair charges them at p = 2."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    try:
        prev, last = (_sigma2_fraction(pair, k, guard) for k in (k_max - 1, k_max))
    except ResourceGuardError as err:
        raise ResourceGuardError("sigma_2", err.estimated_ops, guard) from err
    return Sigma2(k_max, last, prev == last)


# --------------------------------------------------------------------------
# the archimedean density
# --------------------------------------------------------------------------


#: the 8-point Gauss-Legendre rule on [-1, 1], numpy.polynomial.legendre.leggauss(8)
#: to the last bit, held as literals so that no process imports numpy.polynomial
_GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])


@dataclass(frozen=True)
class TauInfinity:
    slab: float                 # extrapolated slab estimate (the headline)
    coarea: float               # independent surface-integral estimate
    slab_ladder: tuple[float, ...]
    epsilons: tuple[float, ...]
    axis_points: int            # transverse resolution G of the last pass
    grid_rows: int              # transverse rows integrated, over all passes
    guard_charge: int           # guard charges of the passes, summed

    @property
    def spread(self) -> float:
        mid = 0.5 * (abs(self.slab) + abs(self.coarea))
        return abs(self.slab - self.coarea) / mid if mid > 0 else 0.0


def _bump_1d(s2: np.ndarray, t: np.ndarray, rho: float) -> np.ndarray:
    """W along the distinguished coordinate, computed in the storage of t:
    squared transverse distance s2 fixed, offset t = y1 - c1 from the
    centre varying, so W = counting._bump((s2 + t^2) / rho^2)."""
    np.square(t, out=t)
    np.add(s2, t, out=t)
    np.divide(t, rho**2, out=t)
    return _bump(t)


def _tau_blocks(G: int, k: int):
    """(blocks, budget) of a pass at resolution G on k transverse
    coordinates, in cell units: the axes are the cell indices 0..G-1 and
    the parts the exact squares (i + 1/2 - G/2)^2, so the midpoints in the
    support ball are the cells whose sum of parts is below (G/2)^2, and
    the budget (G/2)^2 (1 + _BALL_SLACK) keeps every one of them.  The
    blocks are grid_block_axes' with that ball, listed once: tau_infinity
    charges the guard off the list and hands it to _tau_pass."""
    cells = np.arange(G, dtype=np.int64)
    budget = (G / 2) ** 2 * (1.0 + _BALL_SLACK)
    parts = (cells + 0.5 - G / 2) ** 2
    return list(grid_block_axes([cells] * k, [parts] * k, budget)), budget


_TAU_STOP = 2e-4  # relative move of both estimates that ends the refinement


def _next_grid(G: int) -> int:
    """The transverse resolution after G: 12, 18, 27, 40, ..."""
    return 3 * G // 2


def _tau_pass(Q2, W: WeightFunction, eps_list, G: int, blocks, budget: float):
    """One transverse resolution: slab values for every epsilon, the coarea
    estimate and the number of transverse rows integrated.  The
    distinguished coordinate is integrated exactly, the others by the
    midpoint rule on the cells of the box of half-width rho about x0 whose
    midpoints lie in the support ball.  The cells come in the blocks of
    _tau_blocks(G, n - 1), with its budget, each masked to its cells with
    a sum of parts below the budget before any row is built; only those
    rows are built (_rows_at) and put to the exact test |y - x0|^2 < rho^2.
    The rows of one block and their temporaries (some forty floats a row,
    each interval's 8 Gauss-Legendre nodes as one 8-row array) are alive
    at a time, so the pass's memory grows with G only by the list of
    blocks' axes."""
    n = Q2.n
    x0 = np.array(W.x0, dtype=float)
    M2 = np.array(Q2.M, dtype=float)
    grad0 = 2.0 * M2 @ x0
    axis = int(np.argmax(np.abs(grad0)))
    rest = [j for j in range(n) if j != axis]
    a0 = float(M2[axis, axis])
    c1 = x0[axis]
    rho = W.rho

    h = 2.0 * rho / G
    cell = h ** len(rest)
    mid = -rho + h * (np.arange(G) + 0.5)  # the cell midpoints, about 0
    slab_tot = [0.0 for _ in eps_list]
    co_tot = 0.0
    count = 0
    for axes, parts in blocks:
        yk = _rows_at([mid[a] for a in axes], np.flatnonzero(_grid_sums(parts) < budget))
        yk += x0[rest]
        s2 = ((yk - x0[rest]) ** 2).sum(axis=1)
        inside = s2 < rho**2
        if not inside.any():
            continue
        if not inside.all():
            yk, s2 = yk[inside], s2[inside]
        count += len(s2)
        # Q2(y1, y') = a y1^2 + b(y') y1 + c(y') in the distinguished coord
        b = 2.0 * yk @ M2[axis, rest]
        c = np.einsum("ij,ij->i", yk @ M2[np.ix_(rest, rest)], yk)
        del yk  # b, c and s2 are all that is read of the rows below
        hi = np.sqrt(rho**2 - s2)  # the half-length of the support's chord
        lo = c1 - hi
        hi += c1
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
            mid = 0.5 * (left[live] + right[live])
            hw = half[live]
            # one row per node; each row's sum is added on its own, in order
            vals = hw * _GL_NODES[:, None]
            vals += mid
            vals -= c1
            _bump_1d(s2[live], vals, rho)
            vals *= _GL_WEIGHTS[:, None] * hw
            total = 0.0
            for row in vals.sum(axis=1).tolist():
                total += row
            return total

        if abs(a) > 1e-15:
            nb, bb, a2, a4 = -b, b * b, 2 * a, 4 * a
            for i, eps in enumerate(eps_list):
                # {y1: |q| <= eps} = [R1, R2] minus the open middle (m1, m2)
                disc = bb - a4 * (c - eps)
                has = disc > 0
                sq = np.sqrt(np.maximum(disc, 0.0))
                R1 = np.where(has, (nb - sq) / a2, 1.0)
                R2 = np.where(has, (nb + sq) / a2, 0.0)
                disc = bb - a4 * (c + eps)
                has = disc > 0
                sq = np.sqrt(np.maximum(disc, 0.0))
                m1 = np.where(has, (nb - sq) / a2, R2)
                m2 = np.where(has, (nb + sq) / a2, R2)
                del disc, has, sq
                part = weight_integral(R1, np.minimum(R2, m1))
                part += weight_integral(np.maximum(R1, m2), R2)
                slab_tot[i] += part * cell / (2.0 * eps)
            disc = bb - a4 * c
            has = disc > 0
            sq = np.sqrt(np.maximum(disc, 0.0))
            for sgn in (-1.0, 1.0):
                root = (nb + sgn * sq) / a2
                deriv = np.abs(a2 * root + b)
                ok = has & (root >= lo) & (root <= hi) & (deriv > 1e-12)
                if ok.any():
                    wv = _bump_1d(s2[ok], root[ok] - c1, rho)
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
            wv = np.where(ok, _bump_1d(s2, root - c1, rho), 0.0)
            co_tot += float((wv / np.abs(bsafe)).sum()) * cell
    return slab_tot, co_tot, count


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
    resolve the distinguished coordinate exactly (quadratic root solving).
    The other n - 1 coordinates are integrated by the midpoint rule on the
    G^(n-1) cells tiling the cube about x0 of half-width rho, and only the
    cells whose midpoints lie in the support ball are built and
    integrated.  G starts at 12 and steps to 3G/2 (_next_grid) until both
    estimates move by less than 2e-4 relative to the previous pass; a pass
    at 3G/2 builds about (3/2)^(n-1) times the rows of the pass at G, not
    2^(n-1).  A pass's blocks are listed once (_tau_blocks); before the
    pass reads them the guard is charged an upper bound on its work off
    that list, 9 for each row of the blocks (1 for the row's sum of parts,
    8 for its Gauss-Legendre nodes should it lie in the ball): an exact
    count, not a volume estimate.  A pass builds the rows of one block of
    at most quadforms._BLOCK_ROWS cells at a time (_tau_pass).  A
    singular Q2, or a support ball holding the origin (the only critical
    point of a non-singular Q2), is refused.
    """
    if W.n != Q2.n:
        raise ValueError("weight dimension mismatch")
    # grad Q2 = 2 M2 x vanishes only at x = 0 when M2 is nonsingular, so
    # the support is free of critical points iff it misses the origin
    if bareiss_det([list(r) for r in Q2.M]) == 0:
        raise ValueError("Q2 must be non-singular")
    x0 = np.array(W.x0, dtype=float)
    if float(np.sqrt(x0 @ x0)) <= W.rho:
        raise ValueError("the weight's support contains the cone's vertex")
    grad0 = 2.0 * np.array(Q2.M, dtype=float) @ x0
    scale = W.rho * float(np.sqrt(grad0 @ grad0))
    eps_list = tuple(f * scale for f in (0.2, 0.1, 0.05, 0.025))

    G = 12
    prev = None
    rows = charged = 0
    while True:
        blocks, budget = _tau_blocks(G, Q2.n - 1)
        charge = 9 * sum(math.prod(len(a) for a in axes) for axes, _ in blocks)
        check_guard("tau_infinity", charge, guard)
        slabs, coarea, count = _tau_pass(Q2, W, eps_list, G, blocks, budget)
        rows += count
        charged += charge
        slab = _extrapolate(np.array(eps_list), np.array(slabs))
        if prev is not None:
            ps, pc = prev
            ds = abs(slab - ps) <= _TAU_STOP * max(abs(slab), 1e-300)
            dc = abs(coarea - pc) <= _TAU_STOP * max(abs(coarea), 1e-300)
            if (ds and dc) or (slab == 0.0 and coarea == 0.0):
                break
        prev = (slab, coarea)
        G = _next_grid(G)
    return TauInfinity(slab, coarea, tuple(slabs), eps_list, G, rows, charged)


# --------------------------------------------------------------------------
# the singular constant and the experiment table
# --------------------------------------------------------------------------


def _finite_or_none(x: float) -> float | None:
    """x, or None (JSON null) where x is infinite or NaN, which JSON cannot
    hold: the tail has no fit below p_max = 3, the ratio no value at c = 0."""
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class DensityReport:
    p_max: int
    primes: tuple[SigmaP, ...]
    sigma2: Sigma2
    sigma_inf: float
    sigma_inf_spread: float
    c_truncated: float
    tail_diagnostic: float

    def uncertified(self) -> list[str]:
        """The factors of c_truncated that lack their certificate: sigma_2
        unless its last two depths agree, and each sigma_p that did not
        converge by k_max."""
        out = [] if self.sigma2.stabilized else [
            f"sigma_2 (k={self.sigma2.k_used}, not stabilized)"]
        out += [f"sigma_{s.p} (k={s.k_used}, not converged)"
                for s in self.primes if not s.converged]
        return out

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
            "tail_diagnostic": _finite_or_none(self.tail_diagnostic),
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _odd_primes_upto(x: int) -> list[int]:
    return [p for p in range(3, x + 1) if is_prime(p)]


def singular_constant(pair: QuadricPair, W: WeightFunction, p_max: int = 50,
                      k_max: int = 5, guard: int = DEFAULT_GUARD) -> DensityReport:
    """c_truncated = sigma_inf * sigma_2 * prod_{2 < p <= p_max} sigma_p,
    with per-prime convergence certificates and a heuristic tail size.

    sigma_2 is taken at k_max itself: a guard trip there raises
    ResourceGuardError rather than lowering the depth."""
    if pair.n < 3:
        raise ValueError("densities require n >= 3")
    tau = tau_infinity(pair.Q2, W, guard=guard)
    sigma_inf = math.pi * tau.slab
    s2 = sigma_2(pair, k_max=k_max, guard=guard)

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
               k_max: int = 5, guard: int = DEFAULT_GUARD) -> ExperimentResult:
    """Compare S(B) / B^{n-2} against the truncated constant over a B
    ladder; the ratio column should drift toward 1."""
    report = singular_constant(pair, W, p_max=p_max, k_max=k_max, guard=guard)
    c = report.c_truncated
    rows = tuple((B, s, over, c, over / c if c != 0 else math.nan)
                 for B, s, over in s_of_b_rows(pair, W, B_values, guard=guard))
    return ExperimentResult(report, rows)
