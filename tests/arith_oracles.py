"""Oracles shared by the test files: independent, slow routes to values
the package computes another way."""

from quadpair.modarith import chi4


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
