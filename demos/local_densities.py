"""Local densities: one factor per prime, one for 2, one for the reals.

The constant multiplying B^(n-2) factors as sigma_inf * sigma_2 * prod_p
sigma_p.  Each odd prime contributes a p-adic solution density that, at
certified-good primes, stabilizes after depth 1 (an exact-rational Hensel
certificate).  At the other primes the counts come from Gauss sums over
the pencil of the two forms mod p^k, deepened until two depths agree.  The prime 2 carries the Q1 = 1 mod 4 constraint and is
truncated with an explicit stabilization flag.  The real factor is
estimated twice — a shrinking slab around the quadric and a coarea surface
integral — and the two must agree.

Run:  python3 demos/local_densities.py
"""

from quadpair import (
    WeightFunction,
    certified_good_primes,
    demo_pair_7,
    shipped_pair,
    sigma_2,
    sigma_p,
    singular_constant,
    tau_infinity,
    toy_pair_3,
)


def main() -> None:
    ship = shipped_pair()

    print("== odd primes: exact rationals with a convergence certificate ==")
    good = certified_good_primes(ship, 23)
    print(f"certified-good primes up to 23 for the n=5 pair: {good}")
    for p in good[:3]:
        s = sigma_p(ship, p)
        frac = s.fraction
        print(f"sigma_{p} = {frac.numerator}/{frac.denominator} "
              f"(depth {s.k_used}, converged={s.converged})")

    print("\n== a prime dividing the discriminant needs more depth ==")
    s3 = sigma_p(toy_pair_3(), 5, k_max=4)
    print(f"n=3 toy, p=5: sigma_5 = {float(s3.fraction):.6f} after depth "
          f"{s3.k_used}, converged={s3.converged}")

    print("\n== the n=7 pair: every odd prime up to 23 divides its "
          "discriminant data ==")
    demo = demo_pair_7()
    for p in (3, 5, 7, 11, 13):
        s = sigma_p(demo, p, k_max=5)
        frac = s.fraction
        print(f"sigma_{p} = {frac.numerator}/{frac.denominator} "
              f"(depth {s.k_used}, converged={s.converged})")

    print("\n== the prime 2 ==")
    for k in (2, 3, 5, 6):
        s2 = sigma_2(ship, k_max=k)
        frac = s2.fraction
        print(f"k={k}: sigma_2 ~ {frac.numerator}/{frac.denominator} "
              f"(stabilized={s2.stabilized})")
    print("the flag compares the last two depths only, so the shallow "
          "truncations look settled until the jump at depth 5; depth 6 "
          "repeats 5/16 and confirms it")

    print("\n== the real factor, two independent estimators ==")
    W = WeightFunction.default_for_pair(ship)
    tau = tau_infinity(ship.Q2, W)
    print(f"slab   estimate: {tau.slab:.6f}")
    print(f"coarea estimate: {tau.coarea:.6f}")
    print(f"relative spread: {tau.spread:.2%}")
    print(f"slab ladder (epsilon halving): "
          + ", ".join(f"{v:.6f}" for v in tau.slab_ladder)
          + f"  at G = {tau.axis_points} ({tau.grid_rows} transverse rows"
          " over all passes)")

    print("\n== assembled truncated constant ==")
    report = singular_constant(ship, W, p_max=19, k_max=3)
    print(f"sigma_inf = {report.sigma_inf:.6f}  sigma_2 = "
          f"{report.sigma2.value:.6f}  c_truncated = {report.c_truncated:.6f}")
    print("(p_max and k_max kept small here; the experiment demo pushes "
          "them further)")


if __name__ == "__main__":
    main()
