"""Complete exponential sums attached to a pair of quadratic forms.

The basic object is

    S_{d,q}(m) = sum*_{a mod q} sum_{k mod dq, d|Q1(k), d|Q2(k)}
                    e_{dq}(a Q2(k) + m.k),

(the star restricts a to units).  Specializations: D_d(m) = S_{d,1}(m),
the point count rho(d) = S_{d,1}(0), the pure unit-average Q_q(m) =
S_{1,q}(m) which has a closed form for q coprime to 2 det M2, the mixed
sums M_{p^r,p^l}(m), and the 2-adic variants S^{±}_{1,2^l}(m) and
T_{d,q}(m) whose multiplicative splitting is verified by the test suite.

Evaluation strategy: one evaluator, _unit_sums, computes every complete
sum (S_{d,q}, T_{d,q}, S^{±}); the closed form Q_q_explicit and the layered
evaluators below are second routes checked against it.  Each sum is one
unit average over a grid of n coordinates, each running over base_i +
step j, j mod dq, and is regrouped through grid histograms (exact
bookkeeping, floating point only in the final root-of-unity
combination).  S_{d,q} takes the residues (base 0, step 1) with phases
m.k mod dq; T_{d,q} the coset k = a_vec mod 4 (step 4) with phases m.k
mod 4dq, its unit weight read mod dq since e_{4dq}(4 a Q2) = e_dq(a Q2).
The coordinates split into the blocks no cross term joins (one of Q1
counts when nonzero mod d, one of Q2 when nonzero mod dq); each block's
(dq)^|b| grid points are counted under the key (Q1 mod d, Q2 mod dq, m.k
mod M), and the block histograms are convolved on Z/d x Z/dq x Z/M.  A
diagonal pair so costs n dq points and n - 1 folds of about d dq M cells
times the sparser side's support instead of (dq)^n rows.  Where the
folds are charged more than the (dq)^n rows (small n, or d large beside
q), and for a fully coupled pair, all coordinates form one block: one
sweep.  The dq M phase terms follow.  Values carry the absolute
tolerance of modarith's SumValue.  Two genuinely independent paths exist
for S_{d,q} (unit sum vs Ramanujan reduction) and the suites require
agreement.

For d = p^2 at realistic n, direct enumeration mod p^2 is impossible; the
layered evaluators parametrize the solution set by digit lifting over the
common zeros mod p and collapse each affine fiber's character sum in
closed form (for D_{p^2}, through its dual sum over F_p^2).  What does not
depend on m (the zeros, the gradients and values there, the data of a
closed-form solve for lambda, the fiber sizes) is one zero layer per
(pair, p), the last one kept in quadforms; each m then costs
one solve per zero, not a fresh p^n sweep and p^2 scan.  These are
cross-checked against direct enumeration at small n in the tests.

M_mixed takes no route argument: the modulus alone picks the layered
route or S_dq (see its docstring).  The guard never picks a
route, so never moves a value: it only raises ResourceGuardError over
the route's charge.
"""

from __future__ import annotations

import math

import numpy as np

from .guard import DEFAULT_GUARD, check_guard
from .lincong import bareiss_det
from .modarith import (
    MAX_ROOT_MODULUS,
    SumValue,
    e_q,
    eps_power,
    factorize,
    gauss_chi,
    is_prime,
    jacobi,
    ramanujan,
    sum_tol,
)
from .padic import count_divisibility, count_divisibility_primitive
from .quadforms import (
    QuadraticForm,
    QuadricPair,
    dual_form,
    _inverse_mod_p,
    _zero_layer,
    grid_blocks,
)

__all__ = [
    "D_p2_layered",
    "M_mixed",
    "Q_q_explicit",
    "S_dq",
    "S_dq_many",
    "S_two_power",
    "T_dq",
    "rho",
    "rho_star",
]

def _units(q: int) -> list[int]:
    return [a for a in range(q) if math.gcd(a, q) == 1]  # q = 1 gives [0]


def _phases(q: int) -> np.ndarray:
    """e_q(v) for v = 0..q-1 as a complex vector."""
    ang = 2.0 * math.pi * np.arange(q) / q
    return np.cos(ang) + 1j * np.sin(ang)


# --------------------------------------------------------------------------
# the general sum, two ways
# --------------------------------------------------------------------------


#: most cells one gather of _fold holds
_FOLD_CELLS = 1 << 21


def _coordinate_blocks(pair: QuadricPair, d: int, dq: int) -> list[list[int]]:
    """The coordinates in the connected blocks no cross term joins: a cross
    term of Q1 counts when it is nonzero mod d, one of Q2 when it is
    nonzero mod dq.  Blocks come in the order of their first coordinate."""
    n = pair.n
    label = list(range(n))
    for form, mod in ((pair.Q1, d), (pair.Q2, dq)):
        for i in range(n):
            for j in range(i + 1, n):
                if 2 * form.M[i][j] % mod:
                    old, new = label[j], label[i]
                    label = [new if v == old else v for v in label]
    blocks: dict[int, list[int]] = {}
    for i, v in enumerate(label):
        blocks.setdefault(v, []).append(i)
    return list(blocks.values())


def _S_dq_charge(blocks, d: int, dq: int, M: int, nm: int) -> int:
    """The rows of every block's grid, plus, for each of the nm vectors m,
    d dq M cells per fold times the largest support its smaller side can
    have (the points behind that side, at most d dq M).  One block is
    charged the (dq)^n rows of its sweep."""
    cells = d * dq * M
    folds = 0
    seen = dq ** len(blocks[0])
    for b in blocks[1:]:
        size = dq ** len(b)
        folds += cells * min(seen, size, cells)
        seen *= size
    return sum(dq ** len(b) for b in blocks) + nm * folds


def _sweep_hists(pair: QuadricPair, d: int, dq: int, axes, M: int,
                 mvecs: np.ndarray) -> np.ndarray:
    """hists[i]: the histogram of (Q2(k) mod dq, m.k mod M) over the k of
    the grid over axes with d | Q1(k), d | Q2(k), for m the column i of
    mvecs, as a dq x M array: one sweep of all (dq)^n points."""
    hists = np.zeros((mvecs.shape[1], dq * M), dtype=np.int64)
    for X in grid_blocks(axes):
        if d > 1:
            X = X[pair.zero_mask_mod(X, d)]
        key = pair.Q2.eval_batch_mod(X, dq)
        key *= M
        V = (X @ mvecs) % M
        for i in range(len(hists)):
            hists[i] += np.bincount(key + V[:, i], minlength=dq * M)
    return hists.reshape(len(hists), dq, M)


def _block_hists(pair: QuadricPair, blocks, d: int, dq: int, axes, M: int,
                 mvecs: np.ndarray) -> np.ndarray:
    """hists[i, b]: the histogram of block b's grid points, keyed by
    (Q1 mod d, Q2 mod dq, m.k mod M) for m the column i of mvecs and
    flattened in that order; on block b the pair's forms are their
    restrictions to its coordinates."""
    cells = d * dq * M
    hists = np.zeros((mvecs.shape[1], len(blocks), cells), dtype=np.int64)
    for b, idx in enumerate(blocks):
        Q1, Q2 = pair.Q1.restrict(idx), pair.Q2.restrict(idx)
        for X in grid_blocks([axes[i] for i in idx]):
            key = Q2.eval_batch_mod(X, dq)
            if d > 1:
                key += Q1.eval_batch_mod(X, d) * dq
            key *= M
            V = (X @ mvecs[idx]) % M
            for i in range(len(hists)):
                hists[i, b] += np.bincount(key + V[:, i], minlength=cells)
    return hists


def _fold(x: np.ndarray, y: np.ndarray, shape: tuple[int, int, int],
          kept: bool = False) -> np.ndarray:
    """Cyclic convolution of two flat histograms on Z/d x Z/dq x Z/M for
    shape (d, dq, M), exact in int64: the denser one, shifted by each cell
    of the sparser (a window of it tiled twice along every axis), times
    that cell's count.  With kept, only the cells (0, u, v) with d | u are
    formed, flattened from shape (q, M)."""
    if np.count_nonzero(x) > np.count_nonzero(y):
        x, y = y, x
    d, dq, M = shape
    keys = np.flatnonzero(x)
    r, u, v = np.unravel_index(keys, shape)
    tiled = np.tile(y.reshape(shape), (2, 2, 2))
    windows = np.lib.stride_tricks.sliding_window_view(tiled, shape)
    if kept:
        windows = windows[..., :1, ::d, :]
    size = windows[0, 0, 0].size
    out = np.zeros(size, dtype=np.int64)
    step = max(1, _FOLD_CELLS // size)
    for lo in range(0, len(keys), step):
        at = slice(lo, lo + step)
        shifted = windows[d - r[at], dq - u[at], M - v[at]]
        out += x[keys[at]] @ shifted.reshape(len(shifted), size)
    return out


def _unit_sums(name: str, pair: QuadricPair, d: int, q: int, m_list,
               method: str, guard: int, base, step: int) -> list[SumValue]:
    """sum*_{a mod q} sum_k e_dq(a Q2(k)) e_M(m.k) for each m, over the k
    on the grid k_i = base_i + step j_i, j mod dq, with d | Q1(k) and
    d | Q2(k); M = step dq.

    The unit average enters through the histogram of (Q2(k) mod dq,
    m.k mod M) alone: 'direct' weights Q2 = u by sum_a e_dq(a u),
    'ramanujan' by c_q(u / d).  That histogram is the fold of the
    coordinate blocks' histograms (see the module docstring) at Q1 = 0 and
    Q2 = 0 mod d, the last fold forming only those cells; a single block
    is one sweep of its (dq)^n points that keeps only those k.  The
    coordinate blocks are used when their charge, the rows of the block
    grids plus, per m, d dq M cells per fold times the largest support the
    fold's smaller side can have, is below the sweep's (dq)^n rows; else
    the sweep.  The guard only raises, charged the smaller of the two
    before any work.
    """
    n = pair.n
    dq = d * q
    M = step * dq
    blocks = _coordinate_blocks(pair, d, dq)
    charge = _S_dq_charge(blocks, d, dq, M, len(m_list))
    if dq**n <= charge:
        blocks, charge = [list(range(n))], dq**n
    check_guard(name, charge, guard)
    if dq**n > 2**63 - 1:
        raise ValueError(f"{name} counts too large for int64 path")
    units = _units(q)

    ph = _phases(M)
    if method == "direct":
        # A[u] = sum over units a of e_dq(a u) = e_M(step a u)
        weight = np.zeros(dq, dtype=complex)
        for a in units:
            weight += ph[(step * a * np.arange(dq)) % M]
    else:
        weight = np.array([ramanujan(q, (u // d) % q) if u % d == 0 else 0
                           for u in range(dq)], dtype=float)

    axes = [np.arange(b, b + M, step, dtype=np.int64) for b in base]
    mvecs = np.array([[v % M for v in m] for m in m_list], dtype=np.int64).T
    if len(blocks) == 1:
        hists = _sweep_hists(pair, d, dq, axes, M, mvecs)
    else:
        shape = (d, dq, M)
        hists = np.zeros((len(m_list), dq, M), dtype=np.int64)
        for hist, parts in zip(hists, _block_hists(pair, blocks, d, dq, axes, M, mvecs)):
            acc = parts[0]
            for part in parts[1:-1]:
                acc = _fold(acc, part, shape)
            hist[::d] = _fold(acc, parts[-1], shape, kept=True).reshape(q, M)
    survivors = int(hists[0].sum())

    if method == "direct":
        tol = sum_tol(len(units) * max(survivors, 1))
    else:
        tol = sum_tol(max(survivors, 1), max(len(units), 1))
    out = []
    for hist in hists:
        z = (weight * (hist @ ph)).sum()
        out.append(SumValue(z.real, z.imag, tol))
    return out


def S_dq_many(pair: QuadricPair, d: int, q: int, m_list, method: str = "direct",
              guard: int = DEFAULT_GUARD) -> list[SumValue]:
    """S_{d,q}(m) for several m from one residue sweep or block join.

    method 'direct' sums the unit average as written; 'ramanujan' collapses
    the a-sum to c_q(Q2(k)/d) first.  The two share only the histogram of
    (Q2(k), m.k) mod dq over the k mod dq with d | Q1(k), d | Q2(k), from
    the block join or the one sweep of _unit_sums (grid step 1, M = dq);
    the guard is charged that route's rows and fold cells.
    """
    if d < 1 or q < 1:
        raise ValueError("d and q must be positive")
    n = pair.n
    for m in m_list:
        if len(m) != n:
            raise ValueError("m has wrong length")
    if method not in ("direct", "ramanujan"):
        raise ValueError(f"unknown method {method!r}")
    if not len(m_list):
        return []
    return _unit_sums("S_dq", pair, d, q, m_list, method, guard, [0] * n, 1)


def S_dq(pair: QuadricPair, d: int, q: int, m, method: str = "direct",
         guard: int = DEFAULT_GUARD) -> SumValue:
    """S_{d,q}(m); see module docstring for the definition.  S_dq_many at
    one m: same routes, checks and guard charge."""
    return S_dq_many(pair, d, q, [m], method=method, guard=guard)[0]


# --------------------------------------------------------------------------
# closed form for Q_q(m) = S_{1,q}(m), gcd(q, 2 det M2) = 1
# --------------------------------------------------------------------------


def Q_q_explicit(Q2: QuadraticForm, q: int, m, dual: QuadraticForm | None = None) -> SumValue:
    """Multiplicative closed form of the unit-averaged Gauss sum Q_q(m).

    Per p^r || q: for even n the value is eps(p)^{nr} chi_p(det M2)^r
    p^{nr/2} c_{p^r}(Q2*(m)); for odd n it is p^{nr/2} c_{p^r}(Q2*(m)) at
    even r and eps(p)^n chi_p(-1) p^{nr/2} g_{p^r}(Q2*(m)) at odd r, where
    Q2* is the adjoint form, c the Ramanujan sum and g the chi-twisted
    Gauss sum.
    """
    n = Q2.n
    if len(m) != n:
        raise ValueError("m has wrong length")
    if q < 1:
        raise ValueError("q must be positive")
    det2 = bareiss_det([list(r) for r in Q2.M])
    if det2 == 0:
        raise ValueError("Q2 must be non-singular")
    if math.gcd(q, 2 * det2) != 1:
        raise ValueError("closed form requires gcd(q, 2 det M2) = 1")
    if dual is None:
        dual = dual_form(Q2)
    A = dual.eval(m)

    result = SumValue.exact(1.0, tol=1e-15)
    for p, r in sorted(factorize(q).items()):
        pr = p**r
        if n % 2 == 0:
            z = (
                eps_power(p, n * r)
                * jacobi(det2, p) ** r
                * p ** (n * r // 2)
                * ramanujan(pr, A)
            )
            factor = SumValue.exact(z, tol=1e-12 * max(abs(z), 1.0))
        elif r % 2 == 0:
            z = p ** (n * r // 2) * ramanujan(pr, A)
            factor = SumValue.exact(z, tol=1e-12 * max(abs(z), 1.0))
        else:
            scale = p ** ((n * r - 1) // 2) * math.sqrt(p)
            unit = eps_power(p, n) * jacobi(-1, p)
            factor = gauss_chi(pr, A) * (unit * scale)
        result = result * factor
    return result


# --------------------------------------------------------------------------
# 2-adic sums
# --------------------------------------------------------------------------


def S_two_power(pair: QuadricPair, a_vec, ell: int, sign: int, m,
                guard: int = DEFAULT_GUARD) -> SumValue:
    """S^{sign}_{1,2^ell}(m): units a mod 2^ell, k mod 2^{2+ell} with
    k = sign * a_vec mod 4, summing e_{2^{2+ell}}(4 a Q2(k) + m.k): the
    sum T_{1,2^ell}(m) taken at sign * a_vec."""
    n = pair.n
    if len(a_vec) != n or len(m) != n:
        raise ValueError("dimension mismatch")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if ell < 0:
        raise ValueError("ell must be non-negative")
    if pair.Q1.eval(a_vec) % 4 != 1:
        raise ValueError("require Q1(a_vec) = 1 mod 4")
    return T_dq(pair, [sign * v for v in a_vec], 1, 2**ell, m, guard)


def T_dq(pair: QuadricPair, a_vec, d: int, q: int, m,
         guard: int = DEFAULT_GUARD) -> SumValue:
    """T_{d,q}(m): units a mod q, k mod 4dq with k = a_vec mod 4 and
    d | Q1(k), d | Q2(k), summing e_{4dq}(4 a Q2(k) + m.k).

    Since e_{4dq}(4 a Q2(k)) = e_dq(a Q2(k)), this is _unit_sums' direct
    unit average on the coset grid k = (a_vec mod 4) + 4 j, j mod dq, with
    phases m.k mod 4dq: the same block join or sweep as S_dq_many, charged
    its rows and fold cells of d dq (4 dq).  Splits as S_{d,q'}(m) *
    S^{chi4(d q')}_{1,2^ell}(m) for q = 2^ell q' (verified in the suites,
    not assumed here).
    """
    if d < 1 or q < 1:
        raise ValueError("d and q must be positive")
    if d % 2 == 0:
        raise ValueError("d must be odd")
    if len(a_vec) != pair.n or len(m) != pair.n:
        raise ValueError("dimension mismatch")
    base = [v % 4 for v in a_vec]
    return _unit_sums("T_dq", pair, d, q, [m], "direct", guard, base, 4)[0]


# --------------------------------------------------------------------------
# rho and the layered large-p evaluators
# --------------------------------------------------------------------------


def D_p2_layered(pair: QuadricPair, p: int, m,
                 guard: int = DEFAULT_GUARD) -> SumValue:
    """D_{p^2}(m) via digit lifting: solutions mod p^2 are x0 + p t with x0
    a common zero mod p and t mod p solving G t = -a, where G holds the
    gradients of Q1, Q2 at x0 and a = (Q1(x0), Q2(x0)) / p, both mod p.

    Each fiber's character sum is read off its dual: writing the condition
    G t = -a as an average of e_p(lambda.(G t + a)) over lambda in F_p^2,

        sum_{G t = -a} e_p(m.t) = p^(n-2) sum_{lambda G = -m} e_p(lambda.a).

    At m = 0 that makes the fiber p^(n-2) K with K = #{lambda G = 0}, and
    empty exactly when some lambda G = 0 has lambda.a != 0.  Otherwise
    lambda.a = -lambda.G t0 = m.t0 is the same c at every lambda G = -m,
    so the sum is the fiber size times e_p(c), or 0 when no lambda solves
    lambda G = -m.  K, emptiness, G and a depend on x0 alone: they come
    from the memoised zero layer of (pair, p) (quadforms._zero_layer).
    Per m, each zero has one candidate lambda up to the kernel, read off
    the layer in closed form (Cramer's rule on a unit 2 x 2 minor at rank
    2, one nonzero column at rank 1, lambda = 0 at rank 0) and checked on
    every column.  The guard is charged p^n, the layer's
    residue_zeros_mod_p sweep, on every call.  A p^2 past e_q's
    MAX_ROOT_MODULUS raises ValueError before the layer is built.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    n = pair.n
    if len(m) != n:
        raise ValueError("m has wrong length")
    p2 = p * p
    if p2 > MAX_ROOT_MODULUS:
        raise ValueError(f"modulus {p2} exceeds the double-precision cap {MAX_ROOT_MODULUS}")
    layer = _zero_layer(pair, p, guard)
    mred = np.array([v % p2 for v in m], dtype=np.int64)
    live, c = layer.solve(-mred % p)
    mx0 = (layer.Z @ mred).tolist()
    kernel, empty = layer.kernel.tolist(), layer.empty.tolist()
    live, c = live.tolist(), c.tolist()
    total = 0j
    npts = 0  # common zeros mod p^2: the unit terms the sum collapses
    for i in range(len(mx0)):
        if empty[i]:
            continue
        fiber = p ** (n - 2) * kernel[i]
        npts += fiber
        if live[i]:
            total += fiber * e_q(mx0[i] + p * c[i], p2)
    return SumValue(total.real, total.imag, sum_tol(max(npts, 1)))


def rho(pair: QuadricPair, d: int, guard: int = DEFAULT_GUARD) -> int:
    """rho(d) = S_{d,1}(0) = #{x mod d : d | Q1(x), d | Q2(x)}."""
    return count_divisibility(pair, d, d, guard=guard)


def rho_star(pair: QuadricPair, d: int, guard: int = DEFAULT_GUARD) -> int:
    """As rho but only x with gcd(x1, ..., xn, d) = 1."""
    return count_divisibility_primitive(pair, d, d, guard=guard)


def M_mixed(pair: QuadricPair, p: int, r: int, ell: int, m,
            guard: int = DEFAULT_GUARD) -> SumValue:
    """M_{p^r, p^ell}(m) = S_{p^r, p^ell}(m).

    Layered iff r = ell = 1, else S_dq(pair, p^r, p^ell, m).  The layered
    route reads the zeros and grad Q2, Q2 there from the memoised zero
    layer of (pair, p), and solves a grad Q2(x0) = -m for the one
    candidate unit a of each zero.  The guard only raises, charged p^n by
    the layered route's zero search on every call and as in S_dq_many by
    S_dq.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if r < 1 or ell < 1:
        raise ValueError("need r, ell >= 1")
    if not (r == ell == 1):
        return S_dq(pair, p**r, p**ell, m, guard=guard)
    n = pair.n
    if len(m) != n:
        raise ValueError("m has wrong length")
    # k = x0 + p t with x0 a common zero mod p and t free; the t-sum kills
    # every (a, x0) with a grad Q2(x0) + m != 0 mod p
    # (Q2(x0) = p a_2 mod p^2 and grad Q2(x0) mod p from the zero layer)
    p2 = p * p
    layer = _zero_layer(pair, p, guard)
    q2vals = p * layer.a[:, 1]
    mx = layer.Z @ np.array([v % p2 for v in m], dtype=np.int64)
    mvec = np.array([v % p for v in m], dtype=np.int64)
    # a g2 = -m read off the first nonzero column k of g2, then checked on
    # all columns; a zero with g2 = 0 takes every unit iff m = 0 mod p
    g2 = layer.g2
    k = np.argmax(g2 != 0, axis=1)
    pivot = g2[np.arange(len(g2)), k]
    unit = -mvec[k] * _inverse_mod_p(pivot, p) % p
    unit[((unit[:, None] * g2 + mvec) % p != 0).any(axis=1)] = 0
    every = (pivot == 0) & (not mvec.any())
    total = 0j
    hits = 0
    for a in range(1, p):
        mask = (unit == a) | every
        if not mask.any():
            continue
        v = (a * q2vals[mask] + mx[mask]) % p2
        ang = 2.0 * math.pi * v / p2
        total += p**n * (np.cos(ang).sum() + 1j * np.sin(ang).sum())
        hits += int(mask.sum())
    return SumValue(total.real, total.imag, sum_tol(max(hits, 1), float(p**n)))
