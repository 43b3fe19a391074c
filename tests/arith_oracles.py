"""Oracles shared by the test files: independent, slow routes to values
the package computes another way."""

from fractions import Fraction

from quadpair.guard import DEFAULT_GUARD
from quadpair.modarith import chi4
from quadpair.padic import count_congruence_pair
from quadpair.quadforms import _tuples, grid_block_axes


def r2_chi_divisor_sum(M: int) -> int:
    """4 * sum over d | M of chi4(d), the right side of the classical
    identity r2(M) = 4 sum_{d | M} chi4(d); 0 for M <= 0."""
    if M <= 0:
        return 0
    total = 0
    d = 1
    while d * d <= M:
        if M % d == 0:
            total += chi4(d)
            if d != M // d:
                total += chi4(M // d)
        d += 1
    return 4 * total


def grid_rows(axes):
    """The rows of each block of grid_block_axes(axes), built: block by
    block, the lexicographic product of the axes."""
    for block, _ in grid_block_axes(axes):
        yield _tuples(block)


def sigma_p_truncated(pair, p: int, k: int, guard: int = DEFAULT_GUARD) -> Fraction:
    """The raw truncation (1 - chi(p)/p) p^{-k(n-1)} sum_e chi^e Ntilde_k(e)
    of sigma_p, exactly as the defining limit is written, with no
    rearrangement: Ntilde_k(e) = #{x mod p^k : p^e | Q1(x), p^k | Q2(x)},
    one count_congruence_pair each."""
    chi = chi4(p)
    total = sum(chi**e * count_congruence_pair(pair, p, k, e, k, guard=guard)
                for e in range(k + 1))
    return (1 - Fraction(chi, p)) * Fraction(total, p ** (k * (pair.n - 1)))
