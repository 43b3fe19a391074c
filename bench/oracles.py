"""Reference values computed independently of quadpair.

The complete sums of a pair with diagonal forms are evaluated here through
additive characters instead of by enumerating residues: the conditions
d | Q_i(k) become averages of e_d(b Q_i(k)) over b mod d, after which the
k-sum splits into one-dimensional quadratic Gauss sums.  With N = d q,

    S_{d,q}(m) = d^-2 sum_{a unit mod q} sum_{b1, b2 mod d}
                 prod_i G_N(q b1 c1_i + (a + q b2) c2_i, m_i),
    G_N(alpha, mu) = sum_{x mod N} e_N(alpha x^2 + mu x),

where c1, c2 are the diagonals of Q1, Q2.  Linear congruence counts come
from sympy's Smith normal form.  None of this shares code with quadpair.
"""

from __future__ import annotations

import math

import numpy as np


def _units(q: int) -> list[int]:
    return [a for a in range(q) if math.gcd(a, q) == 1]  # q = 1 gives [0]


def _gauss_table(N: int, mu: int) -> np.ndarray:
    """G_N(alpha, mu) for every alpha mod N."""
    x = np.arange(N, dtype=np.int64)
    alpha = np.arange(N, dtype=np.int64)[:, None]
    expo = (alpha * ((x * x) % N) + mu * x) % N
    return np.exp(2j * np.pi * expo / N).sum(axis=1)


def complete_sum(c1, c2, d: int, q: int, m) -> tuple[complex, float]:
    """S_{d,q}(m) for the diagonal pair (c1, c2), with an error bound.

    The bound charges 1e-12 per unit of the summed magnitudes, far above
    the rounding of N-term sums of unit phases in double precision.
    """
    if not len(c1) == len(c2) == len(m):
        raise ValueError("dimension mismatch")
    N = d * q
    tables = [_gauss_table(N, int(mi) % N) for mi in m]
    a = np.array(_units(q), dtype=np.int64)
    b = np.arange(d, dtype=np.int64)
    A, B1, B2 = np.meshgrid(a, b, b, indexing="ij")
    shift1 = (q * B1).ravel()
    shift2 = (A + q * B2).ravel()
    prod = np.ones(shift1.shape, dtype=complex)
    for t, u, v in zip(tables, c1, c2):
        prod *= t[(shift1 * u + shift2 * v) % N]
    value = prod.sum() / (d * d)
    tol = 1e-12 * float(np.abs(prod).sum()) / (d * d) * N + 1e-9
    return complex(value), tol


def point_count(c1, c2, d: int) -> int:
    """rho(d) = #{x mod d : d | Q1(x), d | Q2(x)}."""
    value, tol = complete_sum(c1, c2, d, 1, [0] * len(c1))
    count = round(value.real)
    if abs(value - count) > max(tol, 1e-6):
        raise ArithmeticError(f"point count mod {d} is not an integer: {value}")
    return count


def primitive_point_count(c1, c2, p: int, k: int) -> int:
    """rho*(p^k): as rho but gcd(x, p) = 1.

    Non-primitive x = p y with y mod p^{k-1} satisfy p^k | p^2 Q(y), that
    is p^{k-2} | Q(y), so they number p^n rho(p^{k-2}) for k >= 2 and 1
    (x = 0) for k = 1.
    """
    n = len(c1)
    if k == 1:
        return point_count(c1, c2, p) - 1
    inner = point_count(c1, c2, p ** (k - 2)) if k > 2 else 1
    return point_count(c1, c2, p**k) - p**n * inner


def lincong_count(matrix, q: int) -> int:
    """#{x mod q : M x = a (mod q)} for a right-hand side a in the image.

    The solutions of a solvable system form a coset of the kernel, so the
    count is that of the homogeneous system: the product of
    gcd(d_i, q) over the invariant factors (gcd(0, q) = q), times q for
    each column beyond the number of rows.
    """
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    rows, cols = len(matrix), len(matrix[0])
    snf = smith_normal_form(Matrix(matrix), domain=ZZ)
    count = q ** max(cols - rows, 0)
    for i in range(min(rows, cols)):
        count *= math.gcd(int(snf[i, i]), q)
    return count
