"""Integral quadratic forms, pencils, dual forms, and mod-p geometry.

A form is Q(x) = x^T M x with M integer symmetric, so polynomial cross
coefficients are even.  A pair (Q1, Q2) with det M2 != 0 carries its
derived data: the binary pencil form P(b1, b2) = det(b1 M1 + b2 M2), the
discriminant of P, the dual form Q2* with matrix adjugate(M2), and a
divisor-based set of bad primes.

"Bad" primes: bad_primes(pair, p_max) returns a *verified superset* of the
primes of bad reduction.  When disc_P != 0 it is the divisors of
2 * det2 * disc_P: at any other odd p the pencil det(b1 M1 + b2 M2) has
distinct roots mod p, so the intersection is smooth of codimension 2 and
rank(b1 M1 + b2 M2) >= n-1 on all of P^1(F_p) (Reid's criterion).  When
disc_P == 0 the divisors of 2 * det2 are joined with every p <= p_max at
which a brute-force mod-p check of those two facts fails; certified_good
is that certificate at one prime.  Claims conditioned on a good prime are
only ever tested at primes it certifies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .guard import DEFAULT_GUARD, check_guard
from .lincong import bareiss_det, rank_mod_p
from .modarith import factorize, is_prime

__all__ = [
    "QuadraticForm",
    "QuadricPair",
    "bad_primes",
    "binary_disc",
    "certified_good",
    "certified_good_primes",
    "dual_form",
    "is_Vm_singular_mod_p",
    "load_pair",
    "parse_pair_text",
    "pencil_det_poly",
    "residue_zeros_mod_p",
    "save_pair",
]


# --------------------------------------------------------------------------
# forms
# --------------------------------------------------------------------------


def _check_int64(terms, arrays, what: str, k: int = 1) -> list[np.ndarray]:
    """The integer arrays widened to int64, after checking that no product
    or partial sum of c x_i x_j over the terms (i, j, c), times k plus
    less than k, leaves int64: each is at most (sum |c| bound^2 + 1) k - 1,
    bound = max |x_i| over the arrays."""
    if any(a.dtype.kind not in "iu" for a in arrays):
        raise ValueError("points must be integers")
    arrays = [a.astype(np.int64, copy=False) for a in arrays]
    bound = max((max(int(a.max(initial=0)), -int(a.min(initial=0))) for a in arrays),
                default=0)
    if (sum(abs(c) for _, _, c in terms) * bound * bound + 1) * k > 2**63:
        raise ValueError(f"{what} too large for int64 path")
    return arrays


def _term_sums(X: np.ndarray, terms) -> np.ndarray:
    """sum of c x_i x_j over the terms (i, j, c) for each row of the int64
    array X, unchecked: the kernel of QuadraticForm._sum_terms, for a
    stream that checks its box once (_check_int64), not each block."""
    cols = X.T
    out = None
    for i, j, c in terms:
        term = cols[i] * cols[j]
        if c != 1:
            term *= c
        if out is None:
            out = term
        else:
            out += term
    return np.zeros(len(X), dtype=np.int64) if out is None else out


@dataclass(frozen=True)
class QuadraticForm:
    """Q(x) = x^T M x, M integer symmetric."""

    M: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.M)
        if n == 0:
            raise ValueError("empty matrix")
        for row in self.M:
            if len(row) != n:
                raise ValueError("matrix not square")
        for i in range(n):
            for j in range(n):
                if self.M[i][j] != self.M[j][i]:
                    raise ValueError("matrix not symmetric")

    @property
    def n(self) -> int:
        return len(self.M)

    @classmethod
    def from_matrix(cls, rows) -> "QuadraticForm":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @classmethod
    def diagonal(cls, entries) -> "QuadraticForm":
        n = len(entries)
        return cls.from_matrix(
            [[int(entries[i]) if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @classmethod
    def from_poly_coeffs(cls, n: int, coeffs) -> "QuadraticForm":
        """Build from upper-triangular polynomial coefficients.

        coeffs lists a_11, a_12, ..., a_1n, a_22, ..., a_nn (length
        n(n+1)/2) for Q = sum a_ii x_i^2 + sum_{i<j} a_ij x_i x_j.  Cross
        coefficients a_ij must be even since the matrix entry is a_ij / 2.
        """
        expect = n * (n + 1) // 2
        if len(coeffs) != expect:
            raise ValueError(f"need {expect} coefficients for n={n}, got {len(coeffs)}")
        M = [[0] * n for _ in range(n)]
        it = iter(coeffs)
        for i in range(n):
            for j in range(i, n):
                c = int(next(it))
                if i == j:
                    M[i][i] = c
                else:
                    if c % 2 != 0:
                        raise ValueError(
                            f"odd cross term {c}*x{i + 1}*x{j + 1}: forms must have an "
                            f"integer symmetric matrix, so cross coefficients are even"
                        )
                    M[i][j] = M[j][i] = c // 2
        return cls.from_matrix(M)

    def diagonal_entries(self) -> tuple[int, ...]:
        return tuple(self.M[i][i] for i in range(self.n))

    def restrict(self, idx, sign: int = 1) -> "QuadraticForm":
        """sign Q on the coordinates idx, in that order (the others set to 0)."""
        return QuadraticForm.from_matrix(
            [[sign * self.M[i][j] for j in idx] for i in idx])

    def eval(self, x) -> int:
        if len(x) != self.n:
            raise ValueError(f"point has length {len(x)}, form has n={self.n}")
        return sum(
            self.M[i][j] * int(x[i]) * int(x[j])
            for i in range(self.n)
            for j in range(self.n)
        )

    def __call__(self, x) -> int:
        return self.eval(x)

    def gradient(self, x) -> list:
        """grad Q = 2 M x."""
        if len(x) != self.n:
            raise ValueError("dimension mismatch")
        return [2 * sum(self.M[i][j] * int(x[j]) for j in range(self.n))
                for i in range(self.n)]

    def matrix_mod(self, q: int) -> np.ndarray:
        return np.array([[v % q for v in row] for row in self.M], dtype=np.int64)

    def terms(self) -> list[tuple[int, int, int]]:
        """(i, j, c_ij) for the nonzero coefficients of Q = sum_{i <= j}
        c_ij x_i x_j: c_ii = M_ii and c_ij = 2 M_ij for i < j."""
        return [(i, j, self.M[i][j] * (1 if i == j else 2))
                for i in range(self.n) for j in range(i, self.n) if self.M[i][j]]

    def _sum_terms(self, X, terms, what: str) -> np.ndarray:
        """sum of c x_i x_j over the terms (i, j, c), one entry per integer
        row of X, after _check_int64."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"points of shape {X.shape}, form has n={self.n}")
        (X,) = _check_int64(terms, [X], what)
        return _term_sums(X, terms)

    def eval_batch_mod(self, X: np.ndarray, q: int) -> np.ndarray:
        """Q(x) mod q for every integer row of X, from the coefficients
        reduced mod q (so the int64 check is on sum (c_ij mod q) bound^2)."""
        terms = [(i, j, c % q) for i, j, c in self.terms() if c % q]
        return self._sum_terms(X, terms, "modulus") % q

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Exact Q(x) for every integer row of X (int64)."""
        return self._sum_terms(X, self.terms(), "points")

    def eval_grid(self, axes) -> np.ndarray:
        """Exact Q over the lexicographic product of the axes (one integer
        1-D array per coordinate): eval_batch of that grid's rows, built
        without the rows, one coordinate at a time by broadcasting,

            Q(x_1..x_j) = Q(x_1..x_{j-1}) + x_j (2 sum_{i<j} M_ij x_i + M_jj x_j).

        The int64 check is eval_batch's (_check_int64), bound = max |x_i|
        over the axes.
        """
        if len(axes) != self.n:
            raise ValueError(f"{len(axes)} axes, form has n={self.n}")
        axes = [np.asarray(a) for a in axes]
        if any(a.ndim != 1 for a in axes):
            raise ValueError("axes must be 1-D arrays")
        return self._grid(_check_int64(self.terms(), axes, "points"))

    def _grid(self, axes) -> np.ndarray:
        """eval_grid's kernel, without its checks, on int64 axes.  A stream
        that reads a grid block by block checks the whole grid's axes once
        and hands each block's axes, slices of those, here: the one check
        bounds every block."""
        # cols[i] is axis i shaped to run along index axis i of the grid
        cols = [a.reshape([1] * i + [-1] + [1] * (self.n - 1 - i)) for i, a in enumerate(axes)]
        out = np.zeros([1] * self.n, dtype=np.int64)
        for j in range(self.n):
            slope = self.M[j][j] * cols[j]
            for i in range(j):
                if self.M[i][j]:
                    slope = slope + 2 * self.M[i][j] * cols[i]
            out = out + cols[j] * slope
        return out.reshape(-1)

    def eval_float(self, x: np.ndarray) -> np.ndarray:
        """Q at real points; x shape (..., n)."""
        M = np.array(self.M, dtype=float)
        return np.einsum("...i,ij,...j->...", x, M, x)

    @cached_property
    def split(self) -> "Split":
        """The form's Split for counting's join, built on first use."""
        return _split(self)


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

#: most rows a block of grid_blocks or of residue_zeros_mod_p holds; a
#: block spans at least the whole last axis, so a longer last axis gives
#: longer blocks
_BLOCK_ROWS = 2_000_000


def _tuples(axes) -> np.ndarray:
    """Every tuple with column j drawn from axes[j], one per row, in the
    lexicographic order of the product: column 0 varies slowest."""
    k = len(axes)
    dims = [len(a) for a in axes]
    out = np.empty(dims + [k], dtype=np.result_type(*axes) if k else np.int64)
    for j in range(k):
        shape = [1] * k
        shape[j] = dims[j]
        out[..., j] = np.asarray(axes[j]).reshape(shape)
    return out.reshape(math.prod(dims), k)


def residue_grid(q: int, k: int) -> np.ndarray:
    """All vectors of (Z/q)^k in lexicographic order, shape (q^k, k)."""
    return _tuples([np.arange(q, dtype=np.int64)] * k)


#: relative slack on a ball's squared radius; it covers the rounding of a
#: caller's own test on shifted rows by a wide margin
_BALL_SLACK = 1e-6


def _rows_at(axes, index) -> np.ndarray:
    """The rows at the positions index of the lexicographic product of the
    axes, one column per axis."""
    rows = np.empty((len(index), len(axes)), dtype=np.result_type(np.int64, *axes))
    for j, at in enumerate(np.unravel_index(index, [len(a) for a in axes]) if axes else ()):
        rows[:, j] = axes[j][at]
    return rows


def _linear_grid(coeffs, axes) -> np.ndarray:
    """sum_j c_j x_j over the lexicographic product of the int64 axes."""
    return reduce(np.add.outer, [c * a for c, a in zip(coeffs, axes)],
                  np.zeros((), np.int64)).reshape(-1)


def _grid_sums(parts) -> np.ndarray:
    """e_1 + e_2 + ... + e_k, summed left to right, over the lexicographic
    product of the float axes parts = (e_1, ..., e_k); 0 for no axes."""
    k = len(parts)
    out = np.zeros([1] * k)
    for j, e in enumerate(parts):
        out = out + e.reshape([1] * j + [-1] + [1] * (k - 1 - j))
    return out.reshape(-1)


def _ball_cut(axes, parts, budget: float):
    """(axes, parts) cut to the ball: each axis to the run of values v
    whose e(v), plus the least e of every other axis, is below budget (a
    run, as e is convex along an axis, and never empty, as it holds the
    least), so no row whose sum of e is below budget is cut; None when no
    row's sum is."""
    least = [float(p.min()) for p in parts]
    room = budget - sum(least)
    if room <= 0:
        return None
    cut_axes, cut_parts = [], []
    for axis, part, low in zip(axes, parts, least):
        if len(part) > 1:
            keep = np.flatnonzero(part < low + room)
            run = slice(keep[0], keep[-1] + 1)
            axis, part = axis[run], part[run]
        cut_axes.append(axis)
        cut_parts.append(part)
    return cut_axes, cut_parts


def grid_block_axes(axes, rows: int, parts=None, budget: float | None = None):
    """The lexicographic product of the axes as blocks (axes, parts) of at
    most rows rows each, unless the last axis alone is longer; no row is
    built.  A product of more than rows rows splits its first axis of
    more than one value into ceil(its rows / rows) equal runs, each run
    split in turn.  So a block is one-value axes, one contiguous run of
    the next axis and the whole axes after it, the blocks in turn hold
    every row of the product in lexicographic order, and a block's parts
    are None.

    Given parts, parts[i] a convex float e_i(v) for each value v of axis
    i, only the ball sum_i e_i < budget is read: the product and each run
    are cut to it (_ball_cut) before they are split, so the axes after a
    block's run are runs too, every block holds a row of the ball, the
    blocks in turn hold every row of the ball, and each carries the runs
    of the parts that go with its axes, for the caller to mask
    (_grid_sums).  A caller that needs a function of the rows rather than
    the rows (QuadraticForm.eval_grid) reads a block off its axes."""
    axes = list(axes)
    if parts is not None:
        cut = _ball_cut(axes, parts, budget)
        if cut is None:
            return
        axes, parts = cut
    dims = [len(a) for a in axes]
    j = next((i for i, m in enumerate(dims) if m > 1), len(dims) - 1)
    if math.prod(dims) <= rows or j == len(dims) - 1:
        yield axes, parts
        return
    step = -(-dims[j] // -(-math.prod(dims) // rows))
    for at in range(0, dims[j], step):
        run = slice(at, at + step)
        yield from grid_block_axes(
            axes[:j] + [axes[j][run]] + axes[j + 1:], rows,
            None if parts is None else parts[:j] + [parts[j][run]] + parts[j + 1:], budget)


def grid_blocks(axes):
    """Every tuple over the axes (one 1-D array per column), in
    lexicographic order, as the rows of the grid_block_axes blocks under
    the budget _BLOCK_ROWS.  Each block is a fresh array the caller may
    modify."""
    for block, _ in grid_block_axes(axes, _BLOCK_ROWS):
        yield _tuples(block)


# --------------------------------------------------------------------------
# pencil determinant form and its discriminant
# --------------------------------------------------------------------------


def pencil_det_poly(Q1: QuadraticForm, Q2: QuadraticForm) -> tuple[int, ...]:
    """Coefficients (c_0, ..., c_n) of P(b1, b2) = det(b1 M1 + b2 M2),
    with c_k the coefficient of b1^(n-k) b2^k.

    Interpolated exactly, in integers, from the forward differences of n+1
    integer determinants and re-verified at two extra points.
    """
    n = Q1.n
    if Q2.n != n:
        raise ValueError("forms have different dimensions")

    def det_at(t: int) -> int:
        m = [[t * Q1.M[i][j] + Q2.M[i][j] for j in range(n)] for i in range(n)]
        return bareiss_det(m)

    # P(t, 1) = sum_k c_k t^(n-k) = sum_k D_k t (t - 1) ... (t - k + 1),
    # D_k = Delta^k P(0) / k! from the forward differences at t = 0..n;
    # k! divides Delta^k P(0) since P has integer coefficients
    diffs = [det_at(t) for t in range(n + 1)]
    newton = []
    for k in range(n + 1):
        d, rem = divmod(diffs[0], math.factorial(k))
        if rem:
            raise ArithmeticError("pencil interpolation produced a non-integer")
        newton.append(d)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    # Horner in the falling factorials: coeffs_t[j] multiplies t^j
    coeffs_t = [newton[n]]
    for k in range(n - 1, -1, -1):
        # coeffs_t (t - k) + D_k
        coeffs_t = [newton[k] - k * coeffs_t[0]] + [
            a - k * b for a, b in zip(coeffs_t, coeffs_t[1:])] + [coeffs_t[-1]]
    out = coeffs_t[::-1]  # c_k multiplies t^(n-k)
    for t in (n + 1, n + 2):
        check = sum(out[k] * t ** (n - k) for k in range(n + 1))
        if check != det_at(t):
            raise ArithmeticError("pencil interpolation failed verification")
    return tuple(out)


def binary_disc(coeffs) -> int:
    """Discriminant of the binary form P = sum_k c_k b1^(d-k) b2^k.

    disc = (-1)^(d(d-1)/2) Res(dP/db1, dP/db2) / d^(d-2), with the
    resultant taken of the two partials as binary forms of formal degree
    d-1 (Sylvester determinant).  This vanishes exactly when P has a
    repeated projective root, including roots at [1:0] or [0:1], which a
    naive dehomogenization would miss.
    """
    coeffs = [int(c) for c in coeffs]
    d = len(coeffs) - 1
    if d < 2:
        raise ValueError("degree must be at least 2")
    # partial derivatives as coefficient lists of formal degree d-1
    fx = [(d - k) * coeffs[k] for k in range(d)]         # d/db1
    fy = [k * coeffs[k] for k in range(1, d + 1)]        # d/db2
    size = 2 * (d - 1)
    syl = [[0] * size for _ in range(size)]
    for row in range(d - 1):
        for k, c in enumerate(fx):
            syl[row][row + k] = c
    for row in range(d - 1):
        for k, c in enumerate(fy):
            syl[d - 1 + row][row + k] = c
    res = bareiss_det(syl)
    scale = d ** (d - 2)
    if res % scale != 0:
        raise ArithmeticError("resultant not divisible by d^(d-2)")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * (res // scale)


# --------------------------------------------------------------------------
# dual (adjugate) form
# --------------------------------------------------------------------------


def _adjugate(M) -> list:
    n = len(M)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [M[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * bareiss_det(minor)
    return adj


def dual_form(Q: QuadraticForm) -> QuadraticForm:
    """Form with matrix adjugate(M) = det(M) * M^(-1)."""
    if bareiss_det([list(r) for r in Q.M]) == 0:
        raise ValueError("form is singular; dual undefined")
    return QuadraticForm.from_matrix(_adjugate([list(r) for r in Q.M]))


# --------------------------------------------------------------------------
# the split of a form into two halves
# --------------------------------------------------------------------------


def _matmul(X, Y) -> list:
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]


def _diagonalize(A) -> tuple[list, list]:
    """(D, s) for a nonsingular integer matrix A: D unimodular with D A V =
    diag(s) for some unimodular V (row and column steps on the pivot of
    least |value|).  So y is in A Z^h exactly when every (D y)_i = 0 mod
    s_i, and the residues of D y index the |det A| classes of Z^h / A Z^h."""
    h = len(A)
    S, D = [list(row) for row in A], [[int(i == j) for j in range(h)] for i in range(h)]
    t = 0
    while t < h:
        i, j = min(((i, j) for i in range(t, h) for j in range(t, h) if S[i][j]),
                   key=lambda at: abs(S[at[0]][at[1]]))
        S[t], S[i], D[t], D[i] = S[i], S[t], D[i], D[t]
        for row in S:
            row[t], row[j] = row[j], row[t]
        for i in range(t + 1, h):
            q = S[i][t] // S[t][t]
            S[i] = [a - q * b for a, b in zip(S[i], S[t])]
            D[i] = [a - q * b for a, b in zip(D[i], D[t])]
        q = [v // S[t][t] for v in S[t]]
        for row in S:
            row[t + 1:] = [v - c * row[t] for v, c in zip(row[t + 1:], q[t + 1:])]
        t += not any(S[i][t] or S[t][i] for i in range(t + 1, h))
    return D, [S[t][t] for t in range(h)]


@dataclass(frozen=True)
class Split:
    """Q on Z^n as two forms on the halves of (y, z) = P x, y the first h =
    ceil(n/2): delta Q(x) = left(y) + right(z) and x = W (y, z) / delta,
    integral exactly when y and z have one class, the residues of row . y
    for (row, modulus) in left_class, or of row . z in right_class (|delta|
    classes).  When direct, (y, z) is x in order, delta = 1 and there is
    one class (right is None at n = 1)."""

    order: tuple[int, ...]
    P: tuple[tuple[int, ...], ...]
    W: tuple[tuple[int, ...], ...]
    delta: int
    left: QuadraticForm
    right: QuadraticForm | None
    direct: bool = False
    left_class: tuple[tuple[tuple[int, ...], int], ...] = ()
    right_class: tuple[tuple[tuple[int, ...], int], ...] = ()

    @property
    def in_order(self) -> bool:
        """True when (y, z) is x, so the join lists x in lexicographic order."""
        return self.direct and self.order == tuple(range(len(self.order)))

    def runs(self, lo, hi) -> list[tuple[tuple[int, int], ...]]:
        """Per coordinate of (y, z), the increasing runs a..b of the values
        a join over the box lo..hi reads: its range over the box, except y
        on a split of n = 2 that is not direct, where delta Q = y^2 + e z^2:
        only the |y| with y^2 = -e z^2 for some z in z's range.  Then y =
        x_1 + x_2 and z = x_1 of 2 x_1 x_2 + x_2^2 on x_1 in t + [0, 50],
        |x_2| <= 2^28 (t > 0) read the 102 |y| in t + [0, 50] of the
        2^29 + 51 in y's range."""
        ranges = [(sum(min(c * a, c * b) for c, a, b in zip(row, lo, hi)),
                   sum(max(c * a, c * b) for c, a, b in zip(row, lo, hi))) for row in self.P]
        if self.direct or len(lo) > 2:
            return [(r,) for r in ranges]
        (c, d), e = ranges[1], self.right.M[0][0]
        low, high = sorted(-e * v for v in (0 if c <= 0 <= d else min(c * c, d * d),
                                            max(c * c, d * d)))
        a = math.isqrt(low - 1) + 1 if low > 0 else 0
        b = math.isqrt(high) if high >= 0 else -1
        (u, v), parts = ranges[0], [(-b, -a), (a, b)] if a > 0 else [(-b, b)]
        return [tuple((max(u, p), min(v, q)) for p, q in parts if max(u, p) <= min(v, q)),
                (ranges[1],)]

    def to_x(self, rows: np.ndarray) -> np.ndarray:
        """The points x = W (y, z) / delta of the int64 rows (y, z) of one class."""
        if self.direct:
            return rows if self.in_order else rows[:, np.argsort(self.order)]
        return rows @ np.array(self.W, dtype=np.int64).T // self.delta


def _split(Q: QuadraticForm) -> Split:
    """Q's Split (Lagrange; Cassels, Rational Quadratic Forms, ch. 2): the
    first h coordinates L (itertools.combinations, the given ones first)
    that Q couples to none of the rest R are direct.  Else, for the L of
    least |delta| = |det A| > 0, A, C, D the blocks of M on L x L, L x R
    and R x R, y = A x_L + C x_R and z = x_R give

        delta Q(x) = y^T adj(A) y + z^T (delta D - C^T adj(A) C) z,

    and x_L = adj(A) (y - C z) / delta is integral exactly when y - C z is
    in A Z^h (_diagonalize).  A form with no nonsingular h x h principal
    block is split after the first change x_i -> x_i + x_j that gives it
    one (2 x_1 x_2 becomes 2 x_1 x_2 + 2 x_2^2); one of rank below h has none."""
    n, h = Q.n, (Q.n + 1) // 2
    eye = [[int(a == b) for b in range(n)] for a in range(n)]
    # x = U x' for U the identity, then each change x_i = x'_i + x'_j
    shears = ([[int(a == b or (a, b) == ij) for b in range(n)] for a in range(n)]
              for ij in itertools.permutations(range(n), 2))
    for U in itertools.chain([eye], shears):
        M = Q.M if U is eye else _matmul(_matmul(list(zip(*U)), Q.M), U)
        best = None
        for L in itertools.combinations(range(n), h):
            R = [j for j in range(n) if j not in L]
            C = [[M[i][j] for j in R] for i in L]
            if U is eye and not any(map(any, C)):
                P = tuple(tuple(eye[i]) for i in (*L, *R))
                return Split((*L, *R), P, tuple(zip(*P)), 1, Q.restrict(L),
                             Q.restrict(R) if R else None, direct=True)
            A = [[M[i][j] for j in L] for i in L]
            delta = bareiss_det(A)
            if delta and (best is None or abs(delta) < abs(best[0])):
                best = delta, L, R, A, C
        if best is not None:
            break
    else:
        raise ValueError(f"no split of the form {Q.M}: every {h} x {h} principal block is "
                         "singular, also after any one change x_i -> x_i + x_j")
    delta, L, R, A, C = best
    adj = _adjugate(A)
    adjC = _matmul(adj, C)
    E = [[delta * M[a][b] - sum(c[ka] * v[kb] for c, v in zip(C, adjC))
          for kb, b in enumerate(R)] for ka, a in enumerate(R)]
    # y = (rows L of M) x' and z = x'_R for x' = U^-1 x = (2 - U) x; W =
    # delta P^-1 is adj(P) up to the sign of det P = +-delta
    P = _matmul([M[i] for i in L] + [eye[j] for j in R],
                [[2 * a - u for a, u in zip(e, row)] for e, row in zip(eye, U)])
    sign = delta // bareiss_det(P)
    D, s = _diagonalize(A)
    big = [i for i, v in enumerate(s) if abs(v) > 1]
    return Split((*L, *R), tuple(map(tuple, P)),
                 tuple(tuple(sign * v for v in row) for row in _adjugate(P)), delta,
                 QuadraticForm.from_matrix(adj), QuadraticForm.from_matrix(E), False,
                 tuple((tuple(D[i]), abs(s[i])) for i in big),
                 tuple((tuple(_matmul([D[i]], C)[0]), abs(s[i])) for i in big))


# --------------------------------------------------------------------------
# the pair
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadricPair:
    Q1: QuadraticForm
    Q2: QuadraticForm
    det2: int
    pencil_poly: tuple[int, ...]
    disc_P: int
    dual2: QuadraticForm
    bad_primes: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.Q1.n

    @classmethod
    def build(cls, Q1: QuadraticForm, Q2: QuadraticForm) -> "QuadricPair":
        if Q1.n != Q2.n:
            raise ValueError("forms have different dimensions")
        det2 = bareiss_det([list(r) for r in Q2.M])
        if det2 == 0:
            raise ValueError("Q2 must be non-singular")
        pencil = pencil_det_poly(Q1, Q2)
        disc = binary_disc(pencil)
        dual2 = QuadraticForm.from_matrix(_adjugate([list(r) for r in Q2.M]))
        divisor_primes = {2}
        for v in (det2, disc):
            if v != 0:
                divisor_primes.update(factorize(abs(v)).keys())
        return cls(
            Q1=Q1,
            Q2=Q2,
            det2=det2,
            pencil_poly=pencil,
            disc_P=disc,
            dual2=dual2,
            bad_primes=tuple(sorted(divisor_primes)),
        )

    def dual2_at(self, m) -> int:
        """Q2*(m) for an integer vector m."""
        return self.dual2.eval(m)

    def zero_mask_mod(self, X: np.ndarray, d: int) -> np.ndarray:
        """Mask of the rows x of X with d | Q1(x) and d | Q2(x)."""
        mask = self.Q1.eval_batch_mod(X, d) == 0
        mask &= self.Q2.eval_batch_mod(X, d) == 0
        return mask


# --------------------------------------------------------------------------
# mod-p geometry
# --------------------------------------------------------------------------


def _inverse_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """a^(p-2) mod p for every entry: the inverse of each unit a mod p."""
    out = np.ones_like(a)
    e = p - 2
    while e:
        if e & 1:
            out = out * a % p
        a = a * a % p
        e >>= 1
    return out


def _unit_minor(g1: np.ndarray, g2: np.ndarray, p: int):
    """(det, cols) for each row of the (N, n) arrays g1, g2 of residues
    mod p: the first 2 x 2 minor of (g1; g2), in the column order (0, 1),
    (0, 2), ..., (1, 2), ..., that is a unit mod p, and its columns
    (i, j); det 0 and cols (0, 0) where none is, where the rank is below
    2.  The one search of the package for the pivot of a gradient pair."""
    n = g1.shape[1]
    det = np.zeros(len(g1), dtype=np.int64)
    cols = np.zeros((len(g1), 2), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            minor = (g1[:, i] * g2[:, j] - g1[:, j] * g2[:, i]) % p
            new = (det == 0) & (minor != 0)
            det[new] = minor[new]
            cols[new] = (i, j)
    return det, cols


def _prefix_values(Q: QuadraticForm, slope: np.ndarray, axes, p: int):
    """(A, B) mod p over the lexicographic product of the axes: A = Q(x')
    by eval_grid and B = slope . x' by broadcasting, skipped when slope = 0."""
    A = Q.eval_grid(axes) % p
    if not slope.any():
        return A, np.broadcast_to(np.int64(0), A.shape)
    return A, _linear_grid(slope, axes) % p


def residue_zeros_mod_p(pair: QuadricPair, p: int,
                        guard: int = DEFAULT_GUARD) -> np.ndarray:
    """All common zeros x mod p of Q1 and Q2, x = 0 included, as an (N, n)
    int64 array in the order of residue_grid(p, n), whatever the block
    budget.

    The prefixes x' in F_p^(n-1) are read per grid_block_axes block under
    the budget _BLOCK_ROWS, their values by eval_grid, never as rows:
    Q_i(x', t) = A_i + B_i t + c_i t^2 with c_i = M_i[n-1][n-1], and
    L t + C = c2 Q1 - c1 Q2 (Q1 itself when c1 = c2 = 0 mod p) has no t^2
    term.  L != 0 leaves the one candidate t = -C / L; L = 0 != C leaves
    none; L = C = 0 leaves all p values of t, tried on the grid_block_axes
    blocks of those prefixes times F_p.  Where L t + C = 0, Q1 = 0 forces
    Q2 = 0 when c1 != 0 and holds already when c1 = 0, so only Q1
    (c1 != 0) or Q2 (c1 = 0) is checked.  Each zero is kept as one int64,
    its index sum x_c p^(n-1-c) in residue_grid(p, n) (below p^n); the
    indices are sorted, and the rows are read off them once.

    The guard is charged p^n, the most the L = C = 0 prefixes can cost.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    n = pair.n
    check_guard("residue_zeros_mod_p", p**n, guard)
    M1, M2 = pair.Q1.matrix_mod(p), pair.Q2.matrix_mod(p)
    c1, c2 = int(M1[-1, -1]), int(M2[-1, -1])
    w1, w2 = (1, 0) if c1 == c2 == 0 else (c2, p - c1)
    # the form checked, then the combination L t + C
    mats = (M1 if c1 else M2, (w1 * M1 + w2 * M2) % p)
    prefix = [(QuadraticForm.from_matrix(M[:-1, :-1]), 2 * M[:-1, -1] % p) for M in mats]
    T = np.arange(p, dtype=np.int64)
    cT2 = mats[0][-1, -1] * (T * T % p) % p
    inv = _inverse_mod_p(T, p)
    weight = [p ** (n - 1 - c) for c in range(n)]
    keys = []
    for axes, _ in grid_block_axes([T] * (n - 1), _BLOCK_ROWS):
        (A, B), (C, L) = (_prefix_values(Q, s, axes, p) for Q, s in prefix)
        solo = np.flatnonzero(L)
        t = -C[solo] * inv[L[solo]] % p
        keep = (A[solo] + B[solo] * t + cT2[t]) % p == 0
        at, ts = [solo[keep]], [t[keep]]
        free = np.flatnonzero((L == 0) & (C == 0))
        for (f, u), _ in grid_block_axes([free, T], _BLOCK_ROWS):
            i, j = np.nonzero((A[f, None] + B[f, None] * u + cT2[u]) % p == 0)
            at.append(f[i])
            ts.append(u[j])
        idx = np.unravel_index(np.concatenate(at), [len(a) for a in axes])
        key = np.concatenate(ts) * weight[-1]
        for a, i, w in zip(axes, idx, weight):
            key += a[i] * w
        keys.append(key)
    keys = np.concatenate(keys)
    keys.sort()
    Z = np.empty((len(keys), n), dtype=np.int64)
    for c, w in enumerate(weight):
        Z[:, c] = keys // w % p
    return Z


@dataclass(frozen=True, eq=False)
class ZeroLayer:
    """The data of the common zeros x0 mod p that does not depend on a dual
    vector m, one row per zero in residue_zeros_mod_p's order; every array
    is read-only.

    g1, g2 are the gradients of Q1, Q2 at x0 and a = (Q1(x0), Q2(x0)) / p,
    all mod p; G = (g1; g2) and full marks the zeros where G has rank 2.
    cols and inv give, for target t in F_p^n, lambda = t[cols] inv: the
    one lambda with lambda G = t whenever some lambda has it.  Where G has
    rank 2, cols holds the first columns (i, j), in the order (0, 1),
    (0, 2), ..., (1, 2), ..., whose 2 x 2 minor of G is a unit mod p and
    inv that minor's inverse (Cramer's rule).  Where G has rank 1, cols is
    (k, k) for k the first column where G is nonzero, and lambda =
    (t_k / g1_k, 0), or (0, t_k / g2_k) when g1_k = 0; at rank 0, lambda = 0.
    kernel counts the lambda in F_p^2 with lambda G = 0 and empty marks the
    zeros where one of them has lambda.a != 0: the zeros that lift to no
    zero mod p^2.  Rank 2 gives kernel 1 and never empty.
    """

    p: int
    Z: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    a: np.ndarray
    full: np.ndarray
    cols: np.ndarray
    inv: np.ndarray
    kernel: np.ndarray
    empty: np.ndarray

    def solve(self, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(hit, c) for target in F_p^n: hit marks the zeros where some
        lambda in F_p^2 has lambda G = target, checked on every column, and
        c is lambda.a mod p there (0 elsewhere).  Off the empty zeros every
        kernel vector has lambda.a = 0, so c is the same at each solution."""
        lam = np.einsum("ij,ijk->ik", target[self.cols], self.inv) % self.p
        hit = ((lam[:, :1] * self.g1 + lam[:, 1:] * self.g2 - target)
               % self.p == 0).all(axis=1)
        c = np.where(hit, (lam * self.a).sum(axis=1) % self.p, 0)
        return hit, c


def _build_zero_layer(pair: QuadricPair, p: int, guard: int) -> ZeroLayer:
    """The ZeroLayer of pair at p, built afresh: residue_zeros_mod_p (the
    p^(n-1) prefixes read per block by eval_grid, charged p^n), then
    O(N n^2) work on its N zeros."""
    Z = residue_zeros_mod_p(pair, p, guard=guard)
    g1 = 2 * (Z @ np.array(pair.Q1.M, dtype=np.int64)) % p
    g2 = 2 * (Z @ np.array(pair.Q2.M, dtype=np.int64)) % p
    a = np.column_stack([pair.Q1.eval_batch(Z) // p % p,
                         pair.Q2.eval_batch(Z) // p % p])
    det, cols = _unit_minor(g1, g2, p)
    full = det != 0
    rows = np.arange(len(Z))
    i, j = cols.T
    adj = np.array([[g2[rows, j], -g1[rows, j]], [-g2[rows, i], g1[rows, i]]])
    inv = adj.transpose(2, 0, 1) * np.where(full, _inverse_mod_p(det, p), 0)[:, None, None] % p
    # rank 0: every lambda has lambda G = 0; rank 1: those lambda are the
    # multiples of (g2_k, -g1_k), k the first column where G is nonzero,
    # and column k alone fixes the solution's one coordinate
    nonzero = (g1 != 0) | (g2 != 0)
    rank0 = ~nonzero.any(axis=1)
    k = nonzero.argmax(axis=1)
    g1k, g2k = g1[rows, k], g2[rows, k]
    rank1 = np.flatnonzero(~full & ~rank0)
    pivot = np.where(g1k != 0, g1k, g2k)[rank1]
    cols[rank1] = k[rank1, None]
    inv[rank1, 0, (g1k[rank1] == 0).astype(np.int64)] = _inverse_mod_p(pivot, p)
    kernel = np.where(full, 1, np.where(rank0, p * p, p))
    off = np.where(rank0, a.any(axis=1), (g2k * a[:, 0] - g1k * a[:, 1]) % p != 0)
    empty = ~full & off
    layer = ZeroLayer(p, Z, g1, g2, a, full, cols, inv, kernel, empty)
    for arr in (Z, g1, g2, a, full, cols, inv, kernel, empty):
        arr.flags.writeable = False
    return layer


#: the (pair, p) whose layer _zero_layer built last, and that layer
_kept: tuple = (None, None)


def _zero_layer(pair: QuadricPair, p: int,
                guard: int = DEFAULT_GUARD) -> ZeroLayer:
    """The ZeroLayer of pair at p, kept until a call asks for another.

    The guard is charged p^n, as by residue_zeros_mod_p, before the memo
    is read: a call the guard refuses raises even when its layer is kept.
    The old layer is dropped before a new one is built, so no more than
    one is held.
    """
    global _kept
    check_guard("residue_zeros_mod_p", p**pair.n, guard)
    key, layer = _kept
    if key != (pair, p):
        _kept = (None, None)
        layer = _build_zero_layer(pair, p, guard)
        _kept = ((pair, p), layer)
    return layer


def _smooth_intersection_mod_p(pair: QuadricPair, p: int) -> bool:
    """Every nonzero common zero of Q1, Q2 mod p has Jacobian rank 2.

    Built afresh under DEFAULT_GUARD, not through the memo, so that sweeps
    over many primes evict no layer a sum is using."""
    layer = _build_zero_layer(pair, p, DEFAULT_GUARD)
    return not (layer.Z.any(axis=1) & ~layer.full).any()


def _pencil_rank_ok_mod_p(pair: QuadricPair, p: int) -> bool:
    """rank(b1 M1 + b2 M2) >= n-1 for every [b1 : b2] in P^1(F_p)."""
    n = pair.n
    reps = [(1, t) for t in range(p)] + [(0, 1)]
    for b1, b2 in reps:
        m = [
            [b1 * pair.Q1.M[i][j] + b2 * pair.Q2.M[i][j] for j in range(n)]
            for i in range(n)
        ]
        if rank_mod_p(m, p) < n - 1:
            return False
    return True


def _pencil_roots_distinct_mod_p(pair: QuadricPair, p: int) -> bool:
    """p odd, disc_P != 0 and p prime to det2 * disc_P.

    Then det(b1 M1 + b2 M2) has distinct roots mod p, so every nonzero
    common zero of Q1, Q2 mod p has independent gradients and every point
    of the pencil has rank >= n-1 (Reid's criterion): the two facts the
    brute-force checks above test.
    """
    return pair.disc_P != 0 and p % 2 == 1 and p not in pair.bad_primes


def certified_good(pair: QuadricPair, p: int) -> bool:
    """True when p is an odd prime outside pair.bad_primes with pencil
    rank >= n-1 on P^1(F_p) and a smooth intersection mod p.

    By Reid's criterion when the pencil has distinct roots mod p;
    otherwise by the brute-force checks, the cheap pencil rank first and
    then the sweep of the p^n residues under DEFAULT_GUARD.
    """
    if not is_prime(p) or p == 2 or p in pair.bad_primes:
        return False
    if _pencil_roots_distinct_mod_p(pair, p):
        return True
    return _pencil_rank_ok_mod_p(pair, p) and _smooth_intersection_mod_p(pair, p)


def bad_primes(pair: QuadricPair, p_max: int) -> tuple[int, ...]:
    """pair.bad_primes joined with the odd primes p <= p_max that
    certified_good rejects.

    The result is a superset of the primes of bad reduction among p <= p_max;
    primes <= p_max that are absent are certified good.
    """
    if p_max < 2:
        raise ValueError("p_max must be at least 2")
    failed = (p for p in range(3, p_max + 1, 2)
              if is_prime(p) and not certified_good(pair, p))
    return tuple(sorted({*pair.bad_primes, *failed}))


def certified_good_primes(pair: QuadricPair, p_max: int) -> tuple[int, ...]:
    """Odd primes p <= p_max that certified_good accepts."""
    return tuple(p for p in range(3, p_max + 1) if certified_good(pair, p))


def is_Vm_singular_mod_p(pair: QuadricPair, m, p: int,
                         guard: int = DEFAULT_GUARD) -> bool:
    """True iff some x != 0 in F_p^n has Q1(x) = Q2(x) = m.x = 0 and the
    3 x n Jacobian (grad Q1; grad Q2; m) of rank < 3 mod p.

    Computable stand-in for "p divides the dual-variety value at m".  The
    Jacobian has rank < 3 iff G = (grad Q1; grad Q2) has rank < 2 or m
    lies in the row span of G, i.e. some lambda G = m: one solve per zero
    of the memoised zero layer (_zero_layer), whose guard charge p^n is
    made on every call.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if len(m) != pair.n:
        raise ValueError("dimension mismatch")
    if all(v % p == 0 for v in m):
        raise ValueError("m must be nonzero mod p")
    mvec = np.array([v % p for v in m], dtype=np.int64)
    layer = _zero_layer(pair, p, guard)
    hit, _ = layer.solve(mvec)
    on_plane = layer.Z.any(axis=1) & ((layer.Z @ mvec) % p == 0)
    return bool((on_plane & (~layer.full | hit)).any())


# --------------------------------------------------------------------------
# pair files
# --------------------------------------------------------------------------


def _parse_int_list(text: str) -> list:
    return [int(tok) for tok in text.replace(",", " ").split()]


def parse_pair_text(text: str) -> QuadricPair:
    """Key-value pair file: fields n, Q1.matrix, Q2.matrix (row-major).

    Forms may alternatively be given as Q1.poly / Q2.poly upper-triangular
    polynomial coefficients; odd cross terms are rejected.
    """
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        key = key.strip()
        if key in fields:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = val.strip()
    if "n" not in fields:
        raise ValueError("missing field: n")
    n = int(fields["n"])
    if n < 1:
        raise ValueError("n must be positive")

    def get_form(name: str) -> QuadraticForm:
        mkey, pkey = f"{name}.matrix", f"{name}.poly"
        if mkey in fields and pkey in fields:
            raise ValueError(f"give {mkey} or {pkey}, not both")
        if mkey in fields:
            entries = _parse_int_list(fields[mkey])
            if len(entries) != n * n:
                raise ValueError(f"{mkey}: expected {n * n} entries, got {len(entries)}")
            return QuadraticForm.from_matrix(
                [entries[i * n : (i + 1) * n] for i in range(n)]
            )
        if pkey in fields:
            return QuadraticForm.from_poly_coeffs(n, _parse_int_list(fields[pkey]))
        raise ValueError(f"missing field: {mkey}")

    return QuadricPair.build(get_form("Q1"), get_form("Q2"))


def load_pair(path) -> QuadricPair:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pair_text(fh.read())


def save_pair(pair: QuadricPair, path) -> None:
    lines = [f"n = {pair.n}"]
    for name, form in (("Q1", pair.Q1), ("Q2", pair.Q2)):
        flat = " ".join(str(v) for row in form.M for v in row)
        lines.append(f"{name}.matrix = {flat}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
