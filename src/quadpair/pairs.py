"""Built-in quadric pairs used by the verification suites and demos.

Each constructor returns a fresh :class:`~quadpair.quadforms.QuadricPair`;
the same definitions ship as text files under ``pairs/`` at the repository
root for use with ``--pair``.
"""

from __future__ import annotations

from .quadforms import QuadraticForm, QuadricPair


def shipped_pair() -> QuadricPair:
    """The n = 5 pair driving the end-to-end experiment.

    Q1 = x1^2 + ... + x5^2,  Q2 = x1^2 + 2 x2^2 + 3 x3^2 - 4 x4^2 - 5 x5^2.
    The pencil det(t M1 + M2) has distinct roots (t = -1, -2, -3, 4, 5), so
    the intersection is geometrically nondegenerate.
    """
    return QuadricPair.build(
        QuadraticForm.diagonal([1, 1, 1, 1, 1]),
        QuadraticForm.diagonal([1, 2, 3, -4, -5]),
    )


def toy_pair_2() -> QuadricPair:
    """n = 2 hand-checkable pair: Q1 = x^2 + y^2, Q2 the xy-form.

    The zero set of Q2 is the two coordinate axes, so lattice counts and
    single-point weighted sums can be verified by hand; rho(3) = 1.
    """
    return QuadricPair.build(
        QuadraticForm.diagonal([1, 1]),
        QuadraticForm.from_matrix([[0, 1], [1, 0]]),
    )


def toy_pair_3() -> QuadricPair:
    """Small n = 3 pair with solutions in every completion.

    Q2 = x^2 + 3 y^2 - 4 z^2 vanishes on (1, 1, 1) and (2, 0, 1), and the
    class x = (2, 0, 1) mod 4 carries Q1 = 1 mod 4, so the two-squares
    weights r2(Q1) do not vanish identically on the cone.  (The seemingly
    simpler x^2 + 2 y^2 - 3 z^2 fails this: odd Q1 on that cone is always
    3 mod 4.)
    """
    return QuadricPair.build(
        QuadraticForm.diagonal([1, 1, 1]),
        QuadraticForm.diagonal([1, 3, -4]),
    )


def demo_pair_7() -> QuadricPair:
    """Diagonal n = 7 pair for exercising the closed-form evaluators.

    det M2 = 2 * 11 * 13 * 17 * 19 * 23, so the closed-form evaluator is
    valid at every modulus built from the primes 3, 5, 7.
    """
    return QuadricPair.build(
        QuadraticForm.diagonal([1] * 7),
        QuadraticForm.diagonal([1, 2, 11, -13, 17, -19, 23]),
    )
