"""Counting lattice points on a quadric, bare and weighted.

The counting layer enumerates integer zeros of Q2 in a box
(meet-in-the-middle when the coordinates split into uncoupled halves,
otherwise a scan that solves for the last coordinate) and counts zeros
of the pair to a modulus d (N_d).  On a symmetric box such as |x| <= 3
both read only the half x_1 >= 0: a form is even, so -x is a zero with
x.  N_d also reads x_i >= 0 on every coordinate neither form couples (a
sign change there fixes the pair), weighing each point by the points it
stands for; x*y couples its two.  The layer also forms the weighted sum
S(B), over the zeros in the weight's support ball, whose growth the
whole package is about.  The n=2 toy pair keeps every number here small
enough to check by hand.

Run:  python3 demos/lattice_counts.py
"""

import math

from quadpair import N_d, S_of_B, WeightFunction, enumerate_zeros, toy_pair_2


def main() -> None:
    toy = toy_pair_2()

    print("== integer zeros of Q2 in a box ==")
    pts = enumerate_zeros(toy.Q2, 3)
    print(f"Q2 = x*y has {len(pts)} zeros with |x|,|y| <= 3 "
          "(both axes, origin once):")
    print(sorted(map(tuple, pts.tolist())))

    print("\n== simultaneous zeros mod d in the same box ==")
    for d in (1, 2, 3):
        print(f"N_{d}(3) = {N_d(toy, d, 3)}")
    print("d=2 keeps the five points whose coordinates are both even")

    print("\n== the weighted count S(B) ==")
    # a bump supported so close to (1, 0) that exactly one lattice point
    # x = (B, 0) contributes; its Q1-value is B^2 = 9, with r(9) = 4
    W = WeightFunction(x0=(1.0, 0.0), rho=0.3)
    got = S_of_B(toy, W, 3.0)
    want = 4.0 * math.exp(-1.0)
    print(f"S(3) = {got!r}")
    print(f"4/e  = {want!r}")
    assert got == want

    print("\n== growth under doubling ==")
    W = WeightFunction.default_for_pair(toy, scale=3.0)
    prev = None
    for B in (4.0, 8.0, 16.0):
        s = S_of_B(toy, W, B)
        note = ""
        if prev is not None and prev > 0:
            note = f"  S(B)/S(B/2) = {s / prev:.3f}"
        print(f"B={B:4.0f}  S(B) = {s:10.3f}{note}")
        prev = s
    print("the zeros of x*y sit on the axes, so S(B) grows like B times a")
    print("slowly varying factor and the doubling ratio hovers near 2;")
    print("the clean B^(n-2) regime is a large-n statement, not an n=2 one")


if __name__ == "__main__":
    main()
