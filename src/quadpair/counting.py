"""Lattice-point counters for a pair of forms and the weighted sum S(B).

The headline quantity is

    S(B) = sum over x in Z^n with Q2(x) = 0 and Q1(x) odd of
              r2(Q1(x)) * W(x / B),

where r2 counts representations as a sum of two squares and W is a smooth
bump supported on a ball on which Q1 is positive.  Everything here is an
exact integer enumeration followed by a float weight accumulation in a
fixed order.

Zeros of Q2 in a max-norm box are enumerated by meet-in-the-middle on the
first ceil(n/2) coordinates whenever the form has no cross terms between
the two coordinate blocks (always true for diagonal forms): the partial
values of the leading block are sorted once, then the complementary block
is scanned and joined by binary search.  Coupled forms fall back to a
guarded full box scan, chunked over leading-coordinate slabs so it can be
spread over worker processes; results merge by concatenation and one
canonical sort, so the output is independent of the schedule.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .guard import DEFAULT_GUARD, check_guard
from .modarith import r2
from .quadforms import QuadraticForm, QuadricPair, grid_blocks

__all__ = [
    "BoxSpec",
    "N_d",
    "S_of_B",
    "WeightFunction",
    "enumerate_zeros",
    "s_of_b_rows",
]

@dataclass(frozen=True)
class BoxSpec:
    """A max-norm box |x| <= B, optionally intersected with a residue class.

    congruence, when present, is (q, r) restricting to x = r mod q.
    """

    B: float
    congruence: tuple[int, tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        if not self.B >= 1:
            raise ValueError("box half-width must be at least 1")
        if self.congruence is not None:
            q, res = self.congruence
            if q < 1:
                raise ValueError("congruence modulus must be positive")
            if any(not 0 <= v < q for v in res):
                raise ValueError("residues must lie in [0, q)")

    @property
    def bound(self) -> int:
        return int(math.floor(self.B + 1e-12))


def _box_axis(T: int) -> np.ndarray:
    return np.arange(-T, T + 1, dtype=np.int64)


def _scan_slab(args) -> np.ndarray:
    """Zeros of Q2 in one slab x_1 = fixed of the box (worker-safe)."""
    M, x1, T = args
    Q2 = QuadraticForm.from_matrix([list(r) for r in M])
    n = Q2.n
    found = []
    for rest in grid_blocks(_box_axis(T), n - 1):
        block = np.insert(rest, 0, x1, axis=1)
        vals = Q2.eval_batch(block)
        hit = block[vals == 0]
        if len(hit):
            found.append(hit)
    if not found:
        return np.empty((0, n), dtype=np.int64)
    return np.vstack(found)


def _canonical(rows: np.ndarray) -> np.ndarray:
    if len(rows) == 0:
        return rows
    order = np.lexsort(rows.T[::-1])
    return rows[order]


def _block_form(M, idx) -> QuadraticForm:
    return QuadraticForm.from_matrix([[M[i][j] for j in idx] for i in idx])


def enumerate_zeros(Q2: QuadraticForm, B, *, method: str = "auto",
                    guard: int = DEFAULT_GUARD, workers: int = 1) -> np.ndarray:
    """All x in Z^n with max-norm |x| <= B and Q2(x) = 0, as a
    lexicographically sorted (N, n) int64 array."""
    congruence = None
    if isinstance(B, BoxSpec):
        congruence = B.congruence
        T = B.bound
    else:
        if B < 0:
            raise ValueError("box half-width must be non-negative")
        T = int(math.floor(B + 1e-12))
    n = Q2.n
    side = 2 * T + 1
    h = (n + 1) // 2
    coupled = any(Q2.M[i][j] for i in range(h) for j in range(h, n))
    if method == "auto":
        method = "scan" if coupled else "mitm"
    if method == "mitm" and coupled:
        raise ValueError("meet-in-the-middle needs uncoupled coordinate blocks")

    if method == "mitm":
        check_guard("enumerate_zeros", side**h + side ** (n - h), guard)
        QL = _block_form(Q2.M, range(h))
        XL = np.vstack(list(grid_blocks(_box_axis(T), h)))
        valL = QL.eval_batch(XL)
        order = np.argsort(valL, kind="stable")
        XL = XL[order]
        valL = valL[order]
        if n - h == 0:
            XR = np.zeros((1, 0), dtype=np.int64)
            valR = np.zeros(1, dtype=np.int64)
        else:
            QR = _block_form(Q2.M, range(h, n))
            XR = np.vstack(list(grid_blocks(_box_axis(T), n - h)))
            valR = QR.eval_batch(XR)
        lo = np.searchsorted(valL, -valR, side="left")
        hi = np.searchsorted(valL, -valR, side="right")
        counts = hi - lo
        total = int(counts.sum())
        check_guard("enumerate_zeros", total, guard)
        # expand the join without a Python loop
        rep = np.repeat(np.arange(len(valR)), counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        left_rows = XL[np.repeat(lo, counts) + offsets]
        zeros = np.hstack([left_rows, XR[rep]])
    elif method == "scan":
        check_guard("enumerate_zeros", side**n, guard)
        slabs = [(Q2.M, int(x1), T) for x1 in _box_axis(T)]
        if workers > 1 and len(slabs) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(_scan_slab, slabs))
        else:
            parts = [_scan_slab(s) for s in slabs]
        zeros = np.vstack(parts) if parts else np.empty((0, n), dtype=np.int64)
    else:
        raise ValueError(f"unknown method {method!r}")

    if congruence is not None:
        q, res = congruence
        keep = (zeros % q == np.array(res, dtype=np.int64)).all(axis=1)
        zeros = zeros[keep]
    return _canonical(zeros)


def N_d(pair: QuadricPair, d: int, B, *, guard: int = DEFAULT_GUARD,
        workers: int = 1) -> int:
    """#{ |x| <= B : d | Q1(x), Q2(x) = 0 }.

    Monotone in d: N_e(B) <= N_d(B) whenever d | e.
    """
    if d < 1:
        raise ValueError("d must be positive")
    zeros = enumerate_zeros(pair.Q2, B, guard=guard, workers=workers)
    if d == 1:
        return len(zeros)
    q1 = pair.Q1.eval_batch(zeros)
    return int((q1 % d == 0).sum())


# --------------------------------------------------------------------------
# the smooth weight
# --------------------------------------------------------------------------


def _sphere_dirs(n: int, spread: int = 2) -> np.ndarray:
    """Deterministic set of unit directions: normalized nonzero integer
    vectors with entries in [-spread, spread], deduplicated."""
    side = 2 * spread + 1
    idx = np.arange(side**n, dtype=np.int64)
    grid = np.stack([(idx // side**j) % side - spread for j in range(n)], axis=1)
    grid = grid[(grid != 0).any(axis=1)]
    norms = np.sqrt((grid.astype(float) ** 2).sum(axis=1))
    dirs = grid / norms[:, None]
    _, keep = np.unique(np.round(dirs, 12), axis=0, return_index=True)
    return dirs[np.sort(keep)]


@dataclass(frozen=True)
class WeightFunction:
    """Smooth bump W(x) = exp(-1 / (1 - t)) with t = |x - x0|^2 / rho^2,
    supported on the closed ball of radius rho about x0."""

    x0: tuple[float, ...]
    rho: float

    def __post_init__(self) -> None:
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if not self.x0:
            raise ValueError("center must be non-empty")

    @property
    def n(self) -> int:
        return len(self.x0)

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        c = np.array(self.x0, dtype=float)
        t = ((np.asarray(X, dtype=float) - c) ** 2).sum(axis=-1) / self.rho**2
        out = np.zeros(t.shape, dtype=float)
        inside = t < 1.0 - 1e-15
        out[inside] = np.exp(-1.0 / (1.0 - t[inside]))
        return out

    def __call__(self, x) -> float:
        return float(self.eval_batch(np.asarray(x, dtype=float)[None, :])[0])

    def support_grid(self) -> np.ndarray:
        """Deterministic sample of the support ball (shells of directions)."""
        dirs = _sphere_dirs(self.n)
        c = np.array(self.x0, dtype=float)
        shells = [c[None, :]]
        for frac in (0.25, 0.5, 0.75, 1.0):
            shells.append(c[None, :] + frac * self.rho * dirs)
        return np.vstack(shells)

    def support_stats(self, Q1: QuadraticForm) -> tuple[float, float]:
        """(min Q1, min |grad Q1|) over the sampled support."""
        pts = self.support_grid()
        vals = Q1.eval_float(pts)
        grads = 2.0 * pts @ np.array(Q1.M, dtype=float)
        return float(vals.min()), float(np.sqrt((grads**2).sum(axis=1)).min())

    def check_support(self, Q1: QuadraticForm) -> None:
        """Numerically verify Q1 > 0 and grad Q1 != 0 on the support."""
        min_q1, min_grad = self.support_stats(Q1)
        if min_q1 <= 0:
            raise ValueError(f"Q1 is not positive on the support (min {min_q1:g})")
        if min_grad <= 0:
            raise ValueError("grad Q1 vanishes on the support")

    @classmethod
    def default_for_pair(cls, pair: QuadricPair, scale: float = 6.0) -> "WeightFunction":
        """Center on the real cone Q2 = 0 where Q1 > 0; see module notes.

        x0 is found by a coarse direction grid plus exact root-solving of
        Q2 along segments joining opposite-sign directions, polished by a
        few Newton steps, then set to `scale` times the unit direction
        (larger scale means more lattice points inside the scaled support,
        hence less counting noise at a given B).  rho starts at |x0| / 2
        and shrinks geometrically until the sampled ball satisfies
        Q1 > Q1(x0) / 2 and grad Q1 != 0.
        """
        if not scale > 0:
            raise ValueError("scale must be positive")
        n = pair.n
        dirs = _sphere_dirs(n)
        q2 = pair.Q2.eval_float(dirs)
        q1 = pair.Q1.eval_float(dirs)
        M2 = np.array(pair.Q2.M, dtype=float)

        candidates = []
        on_cone = np.abs(q2) < 1e-12
        for i in np.flatnonzero(on_cone & (q1 > 1e-9)):
            candidates.append(dirs[i])
        pos = np.flatnonzero(q2 > 1e-12)
        neg = np.flatnonzero(q2 < -1e-12)
        pos = pos[np.argsort(-q1[pos], kind="stable")][:50]
        neg = neg[np.argsort(-q1[neg], kind="stable")][:50]
        for i in pos:
            u = dirs[i]
            for j in neg:
                w = dirs[j]
                dvec = w - u
                a = float(dvec @ M2 @ dvec)
                b = 2.0 * float(u @ M2 @ dvec)
                c = float(q2[i])
                if abs(a) < 1e-15:
                    roots = [-c / b] if abs(b) > 1e-15 else []
                else:
                    disc = b * b - 4 * a * c
                    if disc < 0:
                        continue
                    s = math.sqrt(disc)
                    roots = [(-b - s) / (2 * a), (-b + s) / (2 * a)]
                for t in roots:
                    if 0.0 < t < 1.0:
                        candidates.append(u + t * dvec)

        best, best_score = None, -math.inf
        for x in candidates:
            y = np.array(x, dtype=float)
            for _ in range(5):  # Newton polish along grad Q2
                g = 2.0 * M2 @ y
                gg = float(g @ g)
                if gg < 1e-20:
                    break
                y = y - float(pair.Q2.eval_float(y)) / gg * g
            nrm = float(np.sqrt(y @ y))
            if nrm < 1e-9 or abs(float(pair.Q2.eval_float(y))) > 1e-9 * nrm * nrm:
                continue
            score = float(pair.Q1.eval_float(y)) / (nrm * nrm)
            if score > best_score + 1e-12:
                best, best_score = y / nrm, score
        if best is None or best_score <= 0:
            raise ValueError("no point with Q1 > 0 found on the cone Q2 = 0")

        x0 = tuple(float(scale * v) for v in best)
        target = scale * scale * best_score / 2.0
        rho = 0.5 * scale
        while rho > 1e-3 * scale:
            W = cls(x0, rho)
            min_q1, min_grad = W.support_stats(pair.Q1)
            if min_q1 > target and min_grad > 0:
                return W
            rho *= 0.95
        raise ValueError("no admissible support radius found")


# --------------------------------------------------------------------------
# the weighted sum
# --------------------------------------------------------------------------


def S_of_B(pair: QuadricPair, W: WeightFunction, B: float, *,
           guard: int = DEFAULT_GUARD, workers: int = 1) -> float:
    """S(B) = sum over Q2(x) = 0, Q1(x) odd of r2(Q1(x)) W(x / B).

    Points with Q1(x) <= 0 contribute nothing (they are not sums of two
    squares).  The reduction runs in canonical point order.
    """
    if B <= 0:
        raise ValueError("B must be positive")
    if W.n != pair.n:
        raise ValueError("weight dimension mismatch")
    reach = max(abs(v) for v in W.x0) + W.rho
    bound = int(math.floor(B * reach + 1e-9)) + 1
    zeros = enumerate_zeros(pair.Q2, bound, guard=guard, workers=workers)
    if not len(zeros):
        return 0.0
    q1 = pair.Q1.eval_batch(zeros)
    keep = (q1 > 0) & (q1 % 2 == 1)
    pts = zeros[keep]
    if not len(pts):
        return 0.0
    w = W.eval_batch(pts / B)
    live = w > 0
    pts, w, vals = pts[live], w[live], q1[keep][live]
    if not len(pts):
        return 0.0
    uniq, inverse = np.unique(vals, return_inverse=True)
    r2_table = np.array([r2(int(v)) for v in uniq], dtype=float)
    return float(np.dot(r2_table[inverse], w))


def s_of_b_rows(pair: QuadricPair, W: WeightFunction, B_values, *,
                guard: int = DEFAULT_GUARD, workers: int = 1) -> list[tuple]:
    """Rows (B, S(B), S(B) / B^{n-2}) for export."""
    rows = []
    for B in B_values:
        s = S_of_B(pair, W, B, guard=guard, workers=workers)
        rows.append((float(B), s, s / float(B) ** (pair.n - 2)))
    return rows
