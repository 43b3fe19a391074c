"""Integer matrix normal forms, exact counting for linear congruences, and
Gaussian elimination over F_p.

The central object is K_q(M; a) = #{x mod q : M x = a (mod q)}, computed
per prime power through the Smith normal form: if A M B = diag(d_1, ...)
with A, B unimodular, then M x = a (mod p^r) transforms to the decoupled
system d_i y_i = (A a)_i whose solution counts multiply.

All arithmetic is over Python integers (no overflow); rank over the
rationals uses fraction-free (Bareiss) elimination so no floating point
ever touches the invariant-factor bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .modarith import PrimePower, factorize

__all__ = [
    "SmithDecomposition",
    "bareiss_det",
    "count_lincong",
    "rank_rational",
    "smith",
    "smith_bound",
    "solve_mod_p",
]

IntMatrix = list[list[int]]


# --------------------------------------------------------------------------
# small exact helpers shared across the package
# --------------------------------------------------------------------------


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    if len(a[0]) != inner:
        raise ValueError("inner dimensions differ")
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(a: IntMatrix, v: list[int]) -> list[int]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def bareiss_det(matrix: IntMatrix) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank_rational(matrix: IntMatrix) -> int:
    """Rank over Q via fraction-free elimination."""
    if not matrix:
        return 0
    m = [row[:] for row in matrix]
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(cols):
        pivot_row = None
        for i in range(rank, rows):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        for i in range(rank + 1, rows):
            for j in range(col + 1, cols):
                m[i][j] = (m[i][j] * m[rank][col] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == rows:
            break
    return rank


def solve_mod_p(rows: IntMatrix, rhs: list[int], p: int):
    """Solve rows . t = rhs over F_p (p prime) by Gauss-Jordan elimination.

    Returns (particular, kernel_basis), every solution being the particular
    one plus an F_p-combination of the basis vectors, or None if the system
    is inconsistent.  With rhs = 0 the rank is ncols - len(kernel_basis).
    There is one basis vector per non-pivot column: it is 1 there and 0 at
    every later column, so the pivot columns are those at which no basis
    vector ends.
    """
    ncols = len(rows[0])
    m = [[v % p for v in row] + [b % p] for row, b in zip(rows, rhs)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(v * inv) % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    part = [0] * ncols
    for i, c in enumerate(pivots):
        part[c] = m[i][ncols]
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        vec = [0] * ncols
        vec[c] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-m[i][c]) % p
        basis.append(vec)
    return part, basis


# --------------------------------------------------------------------------
# Smith normal form
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """A M B = diag(d) with A, B unimodular and d_1 | d_2 | ..."""

    A: tuple[tuple[int, ...], ...]
    B: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]

    def diagonal_matrix(self) -> IntMatrix:
        rows, cols = len(self.A), len(self.B)
        out = [[0] * cols for _ in range(rows)]
        for i, di in enumerate(self.d):
            out[i][i] = di
        return out


def _swap_rows(m: IntMatrix, a: IntMatrix, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]
    a[i], a[j] = a[j], a[i]


def _swap_cols(m: IntMatrix, b: IntMatrix, i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]
    for row in b:
        row[i], row[j] = row[j], row[i]


def _add_row(m: IntMatrix, a: IntMatrix, src: int, dst: int, c: int) -> None:
    m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
    a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]


def _add_col(m: IntMatrix, b: IntMatrix, src: int, dst: int, c: int) -> None:
    for row in m:
        row[dst] += c * row[src]
    for row in b:
        row[dst] += c * row[src]


def smith(matrix: IntMatrix) -> SmithDecomposition:
    """Smith normal form with accumulated unimodular transforms.

    Pivots are chosen by least absolute value in the working submatrix,
    which keeps intermediate entries small at this scale.
    """
    if not matrix or not matrix[0]:
        raise ValueError("matrix must be non-empty")
    m = [list(map(int, row)) for row in matrix]
    rows, cols = len(m), len(m[0])
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    a = identity_matrix(rows)
    b = identity_matrix(cols)

    t = 0
    while t < min(rows, cols):
        # locate the nonzero entry of least |value| in the submatrix
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        _swap_rows(m, a, t, best[0])
        _swap_cols(m, b, t, best[1])

        # clear row and column t; restart whenever a remainder appears,
        # since the new remainder is strictly smaller than the pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q, r = divmod(m[i][t], m[t][t])
                    _add_row(m, a, t, i, -q)
                    if r != 0:
                        _swap_rows(m, a, t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q, r = divmod(m[t][j], m[t][t])
                    _add_col(m, b, t, j, -q)
                    if r != 0:
                        _swap_cols(m, b, t, j)
                        dirty = True

        # enforce divisibility of the remaining submatrix by the pivot
        pivot = m[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(m, a, offender, t, 1)
            continue  # redo position t with the enlarged row
        t += 1

    # normalize signs on the diagonal
    for i in range(min(rows, cols)):
        if m[i][i] < 0:
            for j in range(cols):
                m[i][j] = -m[i][j]
            for j in range(rows):
                a[i][j] = -a[i][j]

    d = tuple(m[i][i] for i in range(min(rows, cols)))
    return SmithDecomposition(
        A=tuple(tuple(row) for row in a),
        B=tuple(tuple(row) for row in b),
        d=d,
    )


# --------------------------------------------------------------------------
# counting solutions of M x = a (mod q)
# --------------------------------------------------------------------------


def _count_prime_power(snf: SmithDecomposition, rows: int, cols: int,
                       a_vec: list[int], pr: int) -> int:
    """Solution count mod a prime power from a precomputed Smith form."""
    rhs = mat_vec([list(r) for r in snf.A], a_vec)
    count = 1
    for i in range(rows):
        di = snf.d[i] if i < len(snf.d) else 0
        g = math.gcd(di, pr)  # gcd(0, pr) = pr
        if g == 0:
            g = pr
        if rhs[i] % g != 0:
            return 0
        if i < cols:
            count *= g
    # columns beyond the number of equations are free
    for _ in range(rows, cols):
        count *= pr
    return count


def count_lincong(matrix: IntMatrix, a_vec: list[int], q: int) -> int:
    """K_q(M; a) = #{x mod q : M x = a (mod q)}, exactly.

    Multiplicative in q; each prime-power factor is counted through the
    Smith decomposition of M.
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    if q == 1:
        return 1
    rows, cols = len(matrix), len(matrix[0])
    if len(a_vec) != rows:
        raise ValueError("right-hand side length mismatch")
    snf = smith(matrix)
    total = 1
    for p, r in factorize(q).items():
        total *= _count_prime_power(snf, rows, cols, list(a_vec), p**r)
    return total


def smith_bound(matrix: IntMatrix, q: PrimePower) -> int:
    """min(p^{n r}, p^{(n - rho) r + delta_p}) with rho the rational rank
    and delta_p the p-adic order of the product of nonzero invariant factors.

    An upper bound for K_{p^r}(M; a) uniform in a.
    """
    n = len(matrix[0])
    rho = rank_rational(matrix)
    snf = smith(matrix)
    delta = 0
    prod = 1
    for di in snf.d[:rho]:
        prod *= di
    while prod % q.p == 0:
        delta += 1
        prod //= q.p
    return min(q.p ** (n * q.r), q.p ** ((n - rho) * q.r + delta))
