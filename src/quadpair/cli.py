"""Command-line front end.

Three subcommands share the pair-file parsing and resource-guard plumbing:

* ``expsum``     — evaluate S_{d,q}(m) by two independent paths and report
                   their discrepancy;
* ``verify``     — run seeded self-check suites (gauss, multiplicativity,
                   vanishing, bounds, densities, all) and print one verdict
                   line per check;
* ``experiment`` — the end-to-end table S(B)/B^{n-2} vs the truncated
                   constant, as CSV, with the density report written as JSON
                   alongside; a stderr line names the factors of the
                   constant that are not certified.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 resource guard.  All numeric output uses 12 significant digits; reports
are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

from .counting import WeightFunction
from .densities import (
    ExperimentResult,
    _finite_or_none,
    certified_good,
    experiment,
    sigma_2,
    sigma_p,
    tau_infinity,
    two_squares_closed_form,
    two_squares_count,
)
from .expsums import D_p2_layered, M_mixed, Q_q_explicit, S_dq, S_two_power, T_dq, rho
from .guard import DEFAULT_GUARD, ResourceGuardError
from .lincong import count_lincong, smith_bound
from .modarith import PrimePower, chi4, one_d_quad_sum_direct, quad_gauss_1d
from .pairs import shipped_pair, toy_pair_3
from .quadforms import (
    QuadraticForm,
    QuadricPair,
    is_Vm_singular_mod_p,
    load_pair,
    residue_grid,
)

SUITES = ("gauss", "multiplicativity", "vanishing", "bounds", "densities")


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _csv_ints(text: str) -> list[int]:
    parts = [t.strip() for t in text.split(",")]
    parts = [t for t in parts if t]
    if not parts:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list")
    try:
        return [int(t) for t in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# --------------------------------------------------------------------------
# expsum
# --------------------------------------------------------------------------


def cmd_expsum(args: argparse.Namespace) -> int:
    pair = load_pair(args.pair)
    m = args.m if args.m is not None else [0] * pair.n
    if len(m) != pair.n:
        raise ValueError(f"--m needs {pair.n} components, got {len(m)}")
    direct = S_dq(pair, args.d, args.q, m, method="direct", guard=args.guard)
    second = S_dq(pair, args.d, args.q, m, method="ramanujan", guard=args.guard)
    diff = abs(direct.value - second.value)
    combined = direct.tol + second.tol
    agree = diff <= combined
    if args.format == "json":
        payload = {
            "d": args.d,
            "q": args.q,
            "m": list(m),
            "n": pair.n,
            "direct": {"re": direct.re, "im": direct.im, "tol": direct.tol},
            "ramanujan": {"re": second.re, "im": second.im, "tol": second.tol},
            "discrepancy": diff,
            "combined_tol": combined,
            "agree": agree,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        mtxt = ",".join(str(v) for v in m)
        print(f"S[d={args.d},q={args.q}](m={mtxt}) on n={pair.n} pair")
        print(f"direct    = {fmt_complex(direct.value)}  (tol {fmt(direct.tol)})")
        print(f"ramanujan = {fmt_complex(second.value)}  (tol {fmt(second.tol)})")
        print(f"discrepancy = {fmt(diff)}  agree = {'yes' if agree else 'NO'}")
    return 0 if agree else 1


# --------------------------------------------------------------------------
# verify suites
# --------------------------------------------------------------------------


class _Check:
    __slots__ = ("suite", "tag", "ok", "detail")

    def __init__(self, suite: str, tag: str, ok: bool, detail: str) -> None:
        self.suite = suite
        self.tag = tag
        self.ok = bool(ok)
        self.detail = detail


def _rng_for(seed: int, name: str) -> random.Random:
    # named child generators: same verdicts whether a suite runs alone or
    # as part of --suite all
    return random.Random(f"{seed}:{name}")


def _pair_gauss_brute() -> QuadricPair:
    # determinant -22 keeps every modulus used below coprime to 2*det
    return QuadricPair.build(
        QuadraticForm.diagonal([1, 1, 1]),
        QuadraticForm.diagonal([1, 2, -11]),
    )


def _suite_gauss(seed: int, guard: int) -> list[_Check]:
    rng = _rng_for(seed, "gauss")
    checks = []

    worst = 0.0
    trials = 0
    for p in (3, 5, 7):
        for r in (1, 2):
            q = p**r
            for _ in range(4):
                alpha = rng.randrange(1, q)
                while alpha % p == 0:
                    alpha = rng.randrange(1, q)
                mm = rng.randrange(q)
                closed = quad_gauss_1d(q, alpha, mm).value
                direct = one_d_quad_sum_direct(q, alpha, mm)
                worst = max(worst, abs(closed - direct) / (1e-6 * p ** (r / 2)))
                trials += 1
    checks.append(_Check("gauss", "one_d_closed_form", worst <= 1.0,
                         f"trials={trials} worst_err_ratio={fmt(worst)}"))

    pair = _pair_gauss_brute()
    worst = 0.0
    trials = 0
    for q in (3, 5, 9):
        for _ in range(3):
            mv = [rng.randrange(q) for _ in range(pair.n)]
            closed = Q_q_explicit(pair.Q2, q, mv, dual=pair.dual2).value
            brute = S_dq(pair, 1, q, mv, method="direct", guard=guard).value
            scale = max(1.0, abs(brute))
            worst = max(worst, abs(closed - brute) / (1e-6 * scale))
            trials += 1
    checks.append(_Check("gauss", "separable_closed_form", worst <= 1.0,
                         f"trials={trials} worst_err_ratio={fmt(worst)}"))

    cases = mismatches = 0
    for p, kmax in ((3, 2), (5, 2), (13, 2)):
        for k in range(1, kmax + 1):
            q = p**k
            for A in range(q):
                if two_squares_closed_form(A, p, k) != two_squares_count(A, p, k):
                    mismatches += 1
                cases += 1
    for k in (2, 3):
        q = 2 ** (k + 1)
        for A in range(1, q, 2):
            if two_squares_closed_form(A, 2, k) != two_squares_count(A, 2, k):
                mismatches += 1
            cases += 1
    checks.append(_Check("gauss", "two_squares_exact", mismatches == 0,
                         f"cases={cases} mismatches={mismatches}"))
    return checks


def _suite_multiplicativity(seed: int, guard: int) -> list[_Check]:
    rng = _rng_for(seed, "multiplicativity")
    pair = toy_pair_3()
    checks = []

    small = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (3, 1), (2, 3), (1, 7), (3, 2)]
    worst = 0.0
    trials = 0
    while trials < 12:
        d1, q1 = small[rng.randrange(len(small))]
        d2, q2 = small[rng.randrange(len(small))]
        if math.gcd(d1 * q1, d2 * q2) != 1:
            continue
        mod = d1 * d2 * q1 * q2
        mv = [rng.randrange(mod) for _ in range(pair.n)]
        whole = S_dq(pair, d1 * d2, q1 * q2, mv, method="direct", guard=guard)
        prod = S_dq(pair, d1, q1, mv, method="direct", guard=guard) * S_dq(
            pair, d2, q2, mv, method="direct", guard=guard)
        worst = max(worst, abs(whole.value - prod.value) / (whole.tol + prod.tol))
        trials += 1
    checks.append(_Check("multiplicativity", "coprime_factorization", worst <= 1.0,
                         f"trials={trials} worst_err_ratio={fmt(worst)}"))

    a_vec = (2, 0, 1)  # Q1(a) = 5 = 1 mod 4
    worst = 0.0
    trials = 0
    for d, qp, ell in ((1, 1, 1), (1, 3, 1), (3, 1, 2), (3, 3, 1)):
        q = (2**ell) * qp
        mv = [rng.randrange(4 * d * q) for _ in range(pair.n)]
        whole = T_dq(pair, a_vec, d, q, mv, guard=guard)
        prod = S_dq(pair, d, qp, mv, method="direct", guard=guard) * S_two_power(
            pair, a_vec, ell, chi4(d * qp), mv, guard=guard)
        worst = max(worst, abs(whole.value - prod.value) / (whole.tol + prod.tol))
        trials += 1
    checks.append(_Check("multiplicativity", "two_power_split", worst <= 1.0,
                         f"trials={trials} worst_err_ratio={fmt(worst)}"))

    worst = 0.0
    trials = 0
    while trials < 8:
        d, q = small[rng.randrange(len(small))]
        h = rng.randrange(1, d * q + 2)
        if math.gcd(h, d * q) != 1:
            continue
        mv = [rng.randrange(d * q) for _ in range(pair.n)]
        hm = [h * v for v in mv]
        a = S_dq(pair, d, q, mv, method="direct", guard=guard)
        b = S_dq(pair, d, q, hm, method="direct", guard=guard)
        worst = max(worst, abs(a.value - b.value) / (a.tol + b.tol))
        trials += 1
    checks.append(_Check("multiplicativity", "unit_scaling_invariance", worst <= 1.0,
                         f"trials={trials} worst_err_ratio={fmt(worst)}"))
    return checks


def _suite_vanishing(seed: int, guard: int) -> list[_Check]:
    rng = _rng_for(seed, "vanishing")
    pair = shipped_pair()
    checks = []

    worst = 0.0
    trials = 0
    for p in (11, 13):
        done = 0
        while done < 5:
            mv = [rng.randrange(p) for _ in range(pair.n)]
            if all(v == 0 for v in mv) or is_Vm_singular_mod_p(pair, mv, p, guard=guard):
                continue
            val = D_p2_layered(pair, p, mv, guard=guard)
            worst = max(worst, abs(val.value) / val.tol)
            done += 1
            trials += 1
    checks.append(_Check("vanishing", "prime_square_smooth_section", worst <= 1.0,
                         f"trials={trials} worst_abs_ratio={fmt(worst)}"))

    worst = 0.0
    trials = 0
    for p in (11, 13):
        done = 0
        while done < 3:
            mv = [rng.randrange(p) for _ in range(pair.n)]
            if (2 * pair.det2 * pair.dual2_at(mv)) % p == 0:
                continue
            val = M_mixed(pair, p, 1, 1, mv, guard=guard)
            worst = max(worst, abs(val.value) / val.tol)
            done += 1
            trials += 1
    checks.append(_Check("vanishing", "mixed_term_generic_m", worst <= 1.0,
                         f"trials={trials} worst_abs_ratio={fmt(worst)}"))
    return checks


def _suite_bounds(seed: int, guard: int) -> list[_Check]:
    rng = _rng_for(seed, "bounds")
    pair = shipped_pair()
    checks = []

    worst = 0.0
    trials = 0
    for q in (4, 8, 9, 25, 27, 49):
        for _ in range(3):
            alpha = rng.randrange(1, q)
            while math.gcd(alpha, q) != 1:
                alpha = rng.randrange(1, q)
            mm = rng.randrange(q)
            val = abs(one_d_quad_sum_direct(q, alpha, mm))
            worst = max(worst, val / (2.0 * math.sqrt(q)))
            trials += 1
    checks.append(_Check("bounds", "one_d_square_root_bound", worst <= 1.0 + 1e-9,
                         f"trials={trials} worst_ratio={fmt(worst)}"))

    worst = 0.0
    trials = 0
    half = pair.n / 2 + 1
    for p in (7, 11):
        for r in (1, 2):
            q = p**r
            samples = [[0] * pair.n] + [
                [rng.randrange(q) for _ in range(pair.n)] for _ in range(5)
            ]
            for mv in samples:
                val = abs(Q_q_explicit(pair.Q2, q, mv, dual=pair.dual2).value)
                worst = max(worst, val / p ** (r * half))
                trials += 1
    checks.append(_Check("bounds", "closed_form_growth", worst <= 1.0 + 1e-9,
                         f"trials={trials} worst_ratio={fmt(worst)}"))

    worst = 0.0
    trials = 0
    for p in (3, 5):
        for r in (1, 2):
            val = rho(pair, p**r, guard=guard)
            bound = 8.0 * p ** (r * (pair.n - 2)) * (1 + r)
            worst = max(worst, val / bound)
            trials += 1
    checks.append(_Check("bounds", "rho_growth", worst <= 1.0,
                         f"trials={trials} worst_ratio={fmt(worst)}"))

    bad = 0
    trials = 0
    for _ in range(30):
        n = rng.randrange(1, 4)
        k = rng.randrange(1, 3)
        q = rng.choice([2, 3, 4, 5, 8, 9, 16, 25, 27, 32])
        mat = [[rng.randrange(-q, q) for _ in range(n)] for _ in range(k)]
        avec = [rng.randrange(q) for _ in range(k)]
        count = count_lincong(mat, avec, q)
        lhs = (residue_grid(q, n) @ np.array(mat).T - np.array(avec)) % q
        hits = int((lhs == 0).all(axis=1).sum())
        if count != hits or count > smith_bound(mat, PrimePower.of(q)):
            bad += 1
        trials += 1
    checks.append(_Check("bounds", "linear_congruence_exact", bad == 0,
                         f"trials={trials} failures={bad}"))
    return checks


def _suite_densities(seed: int, guard: int, extra_pair: QuadricPair | None) -> list[_Check]:
    checks = []
    pairs = [("shipped_n5", shipped_pair()), ("toy_n3", toy_pair_3())]
    if extra_pair is not None and extra_pair.n >= 3:
        pairs.append(("user_pair", extra_pair))

    bad = 0
    trials = 0
    names = []
    for name, pair in pairs:
        for p in (3, 5, 7, 11, 13):
            if not certified_good(pair, p):
                continue
            s = sigma_p(pair, p, k_max=2, guard=guard)
            if not s.converged:
                bad += 1
            trials += 1
            names.append(f"{name}:p={p}")
    checks.append(_Check("densities", "depth_one_suffices", bad == 0,
                         f"trials={trials} failures={bad} [{' '.join(names)}]"))

    s2 = sigma_2(shipped_pair(), k_max=3, guard=guard)
    ok2 = 0 < s2.value < 4
    checks.append(_Check(
        "densities", "two_adic_truncation", ok2,
        f"k={s2.k_used} value={s2.fraction.numerator}/{s2.fraction.denominator} "
        f"stabilized={'yes' if s2.stabilized else 'no'}"))

    pair = shipped_pair()
    W = WeightFunction.default_for_pair(pair)
    tau = tau_infinity(pair.Q2, W, guard=guard)
    ok_tau = tau.slab > 0 and tau.spread <= 0.05
    checks.append(_Check("densities", "real_density_agreement", ok_tau,
                         f"slab={fmt(tau.slab)} coarea={fmt(tau.coarea)} "
                         f"spread={fmt(tau.spread)}"))
    return checks


def _run_suites(suite: str, seed: int, guard: int,
                extra_pair: QuadricPair | None) -> list[_Check]:
    wanted = SUITES if suite == "all" else (suite,)
    out: list[_Check] = []
    for name in wanted:
        if name == "gauss":
            out.extend(_suite_gauss(seed, guard))
        elif name == "multiplicativity":
            out.extend(_suite_multiplicativity(seed, guard))
        elif name == "vanishing":
            out.extend(_suite_vanishing(seed, guard))
        elif name == "bounds":
            out.extend(_suite_bounds(seed, guard))
        elif name == "densities":
            out.extend(_suite_densities(seed, guard, extra_pair))
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    extra = load_pair(args.pair) if args.pair else None
    checks = _run_suites(args.suite, args.seed, args.guard, extra)
    passed = sum(1 for c in checks if c.ok)
    total = len(checks)
    verdict = "PASS" if passed == total else "FAIL"
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "seed": args.seed,
            "checks": [
                {"suite": c.suite, "tag": c.tag, "pass": c.ok, "detail": c.detail}
                for c in checks
            ],
            "passed": passed,
            "total": total,
            "result": verdict,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"verify suite={args.suite} seed={args.seed}")
        for c in checks:
            print(f"[{c.suite}] {c.tag} {c.detail} "
                  f"{'PASS' if c.ok else 'FAIL'}")
        print(f"result: {verdict} checks={passed}/{total}")
    return 0 if verdict == "PASS" else 1


# --------------------------------------------------------------------------
# experiment
# --------------------------------------------------------------------------


def _replot(path: str) -> int:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ExperimentResult.CSV_HEADER:
        raise ValueError(f"{path}: expected header {ExperimentResult.CSV_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        vals = [float(t) for t in ln.split(",")]
        if len(vals) != 5:
            raise ValueError(f"{path}: expected 5 columns, got {len(vals)}")
        rows.append(tuple(vals))
    sys.stdout.write(ExperimentResult.CSV_HEADER + "\n")
    for row in rows:
        sys.stdout.write(",".join(fmt(v) for v in row) + "\n")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.replot:
        return _replot(args.replot)
    if not args.pair:
        raise ValueError("--pair is required (unless --replot)")
    if not args.B:
        raise ValueError("--B is required (unless --replot)")
    pair = load_pair(args.pair)
    W = WeightFunction.default_for_pair(pair)
    result = experiment(pair, W, args.B, p_max=args.p_max, k_max=args.k_max,
                        guard=args.guard)
    uncertified = result.report.uncertified()
    if uncertified:
        print("warning: c_trunc uses uncertified factors: "
              + ", ".join(uncertified), file=sys.stderr)
    csv_text = result.to_csv()
    json_text = result.report.to_json() + "\n"
    if args.format == "json":
        payload = {
            "report": json.loads(result.report.to_json()),
            "rows": [[_finite_or_none(v) for v in r] for r in result.rows],
            "csv_header": ExperimentResult.CSV_HEADER,
        }
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    else:
        sys.stdout.write(csv_text)
    if args.out:
        out = Path(args.out)
        out.write_text(csv_text, encoding="utf-8", newline="\n")
        jpath = out.with_suffix(".density.json")
        jpath.write_text(json_text, encoding="utf-8", newline="\n")
        print(f"wrote {out} and {jpath}", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# parser / entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="quadpair",
        description="Exponential sums, local densities, and lattice counts "
                    "for pairs of integral quadratic forms.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--guard", type=int, default=DEFAULT_GUARD, metavar="OPS",
                       help="resource guard: abort if a sweep would exceed "
                            "this many operations (default %(default)s)")
        p.add_argument("--format", choices=("json", "csv"), default="csv",
                       help="output format (default %(default)s)")

    p = sub.add_parser("expsum", help="evaluate S_{d,q}(m) two ways")
    p.add_argument("--pair", required=True, metavar="FILE")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--m", type=_csv_ints, default=None, metavar="CSVINTS")
    common(p)
    p.set_defaults(func=cmd_expsum)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pair", default=None, metavar="FILE",
                   help="optional extra pair for the densities suite")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="S(B) vs c * B^{n-2} table")
    p.add_argument("--pair", default=None, metavar="FILE")
    p.add_argument("--B", type=_csv_ints, default=None, metavar="CSVINTS")
    p.add_argument("--p-max", type=int, default=50, dest="p_max")
    p.add_argument("--k-max", type=int, default=5, dest="k_max")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the CSV here and the density report JSON "
                        "alongside (<FILE> with a .density.json suffix)")
    p.add_argument("--replot", default=None, metavar="FILE",
                   help="re-emit a previously written CSV (round-trip check)")
    common(p)
    p.set_defaults(func=cmd_experiment)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
