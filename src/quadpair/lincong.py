"""Exact counting for linear congruences, and elimination over Q and
Z/p^r.

The central object is K_q(M; a) = #{x mod q : M x = a (mod q)}.  It is
multiplicative in q, and each prime-power factor p^r is counted by one
elimination over Z/p^r.  Take a pivot p^v u (u a unit) of least p-adic
valuation among the remaining entries; row operations, applied to a as
well, clear the rest of its column, and a change of variables (which
leaves the count alone) would clear the rest of its row.  What is left of
the pivot's row is p^v u y = b: p^v values of y when p^v | b, none
otherwise.  Rows that end all zero mod p^r need a zero right-hand side,
and each column without a pivot is a free variable.  The pivot valuations
are min(v_p(d_i), r) for the invariant factors d_i of M, so smith_bound
reads delta_p off the same elimination, and the rank over F_p is its
number of pivots at r = 1 (rank_mod_p).  Every entry stays in [0, p^r).
The symmetric version of that elimination (jordan_gauss_sum) clears a
pivot's row and column together, which diagonalises a quadratic form mod
p^r (p odd) and gives its Gauss sum.

Determinant and rank over the rationals use fraction-free (Bareiss)
elimination over Python integers, so no floating point is involved.
"""

from __future__ import annotations

from .modarith import PrimePower, factorize, jacobi

__all__ = [
    "bareiss_det",
    "count_lincong",
    "jordan_gauss_sum",
    "rank_mod_p",
    "rank_rational",
    "smith_bound",
]

IntMatrix = list[list[int]]


# --------------------------------------------------------------------------
# small exact helpers shared across the package
# --------------------------------------------------------------------------


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


# --------------------------------------------------------------------------
# counting solutions of M x = a (mod q)
# --------------------------------------------------------------------------


def _valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _pivot_valuations(matrix: IntMatrix, rhs: list[int], p: int,
                      r: int) -> list[int] | None:
    """Eliminate M x = rhs over Z/p^r; the valuations of the pivots in the
    order taken (non-decreasing), or None when there is no solution."""
    q = p**r
    m = [[x % q for x in row] for row in matrix]
    b = [x % q for x in rhs]
    valuations = []
    while True:
        entries = [(_valuation(x, p), i, j)
                   for i, row in enumerate(m) for j, x in enumerate(row) if x]
        if not entries:
            return None if any(b) else valuations
        v, i, j = min(entries)
        row, bi = m.pop(i), b.pop(i)
        pv = p**v
        if bi % pv:
            return None
        inv = pow(row[j] // pv, -1, q)
        for k, other in enumerate(m):
            c = other[j] // pv * inv % q
            if c:
                m[k] = [(x - c * y) % q for x, y in zip(other, row)]
                b[k] = (b[k] - c * bi) % q
        valuations.append(v)


def rank_mod_p(rows: IntMatrix, p: int) -> int:
    """Rank over F_p (p prime): the pivots of the elimination mod p^1."""
    return len(_pivot_valuations(rows, [0] * len(rows), p, 1))


def jordan_gauss_sum(matrix: IntMatrix, p: int, r: int) -> int:
    """G_{p^r}(M) = sum over x mod p^r of e(x^T M x / p^r), M integer
    symmetric and p odd, when that is an integer; 0 otherwise.

    The symmetric twin of _pivot_valuations diagonalises M mod p^r as
    diag(u_i p^(v_i)): pivot on an entry of least valuation, preferring
    the diagonal (if only an off-diagonal entry m_ij attains it, e_i <-
    e_i + e_j first puts 2 m_ij, of the same valuation, on the diagonal),
    and clear its row and column together.  G is then a product of
    one-variable Gauss sums: a block with v >= r gives p^r, any other
    p^(v + floor((r - v)/2)), times (u/p) eps_p sqrt(p) when r - v is odd.
    With t such blocks and t even that is the integer p^(t/2) times
    ((-1)^(t/2) prod u_i / p).  For odd t, G(lambda M) = (lambda/p) G(M),
    so the sum of G over the unit multiples of M is 0, which is returned.
    """
    q = p**r
    m = [[x % q for x in row] for row in matrix]
    exponent = odd = 0
    units = 1
    while True:
        entries = [(_valuation(x, p), i != j, i, j)
                   for i, row in enumerate(m) for j, x in enumerate(row) if x]
        if not entries:
            break
        v, off, i, j = min(entries)
        if off:  # e_i <- e_i + e_j
            m[i] = [(x + y) % q for x, y in zip(m[i], m[j])]
            for row in m:
                row[i] = (row[i] + row[j]) % q
        pv = p**v
        row = m.pop(i)
        u = row.pop(i) // pv
        for other in m:
            del other[i]
        exponent += v + (r - v) // 2
        if (r - v) % 2:
            odd += 1
            units = units * u % p
        # e_k <- e_k - (w_k / u) e_i, w = row / p^v, clears row and column
        # i and turns m_kl into m_kl - p^v w_k w_l / u
        w = [x // pv for x in row]
        c_unit = pow(u, -1, q) * pv
        for k, other in enumerate(m):
            c = w[k] * c_unit % q
            if c:
                m[k] = [(x - c * y) % q for x, y in zip(other, w)]
    exponent += r * len(m)
    if odd % 2:
        return 0
    return p ** (exponent + odd // 2) * jacobi((-1) ** (odd // 2) * units, p)


def count_lincong(matrix: IntMatrix, a_vec: list[int], q: int) -> int:
    """K_q(M; a) = #{x mod q : M x = a (mod q)}, exactly.

    Multiplicative in q; each prime-power factor p^r is
    prod p^(v_i) * p^(r * #free columns) over the pivots of one
    elimination mod p^r, or 0 if that elimination finds no solution.
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    if not matrix or not matrix[0]:
        raise ValueError("matrix must be non-empty")
    cols = len(matrix[0])
    if any(len(row) != cols for row in matrix):
        raise ValueError("ragged matrix")
    if len(a_vec) != len(matrix):
        raise ValueError("right-hand side length mismatch")
    total = 1
    for p, r in factorize(q).items():
        valuations = _pivot_valuations(matrix, a_vec, p, r)
        if valuations is None:
            return 0
        total *= p ** (sum(valuations) + r * (cols - len(valuations)))
    return total


def smith_bound(matrix: IntMatrix, q: PrimePower) -> int:
    """min(p^{n r}, p^{(n - rho) r + delta_p}) with rho the rational rank
    and delta_p the p-adic order of the product of nonzero invariant factors.

    An upper bound for K_{p^r}(M; a) uniform in a.  delta_p is the sum of
    the pivot valuations mod p^(rho r + 1); a missing pivot means
    delta_p > rho r, and the bound is p^{n r}.
    """
    n = len(matrix[0])
    rho = rank_rational(matrix)
    valuations = _pivot_valuations(matrix, [0] * len(matrix), q.p, rho * q.r + 1)
    if len(valuations) < rho:
        return q.p ** (n * q.r)
    return min(q.p ** (n * q.r), q.p ** ((n - rho) * q.r + sum(valuations)))
