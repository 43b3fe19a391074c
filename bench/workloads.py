"""The three benchmark workloads: their inputs, drawn from a seed, and the
calls one repetition makes and checks.

densities  singular_constant on the shipped n = 5 pair, odd primes <= 31,
           k_max = 5: the local-density half of the predicted constant
           (sigma_p sweeps, the 2-adic sweep, the real density).
lattice    the S(B) ladder, N_d on one box and a full-box scan of a coupled
           n = 4 form: the lattice half of the comparison.
expsums    the five verify suites through the CLI plus a seeded batch of
           exponential sums, point counts and linear congruences.

For densities and lattice the seed picks a signed permutation of the
coordinates; the pair and its weight are moved together, so every seed
has the same exact answers and one stored reference checks them all.
For expsums the seed picks the vectors m, the linear systems and the
verify seed, and the references are computed per seed by oracles.py.

Input generation (make_job) runs in the benchmark's parent process; the
run_* functions run inside one repetition and take the imported package
as an argument, so importing this module does not import quadpair.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import signal
from fractions import Fraction

NAMES = ("densities", "lattice", "expsums")
PAIR_FILE = "pairs/shipped_n5.pair"

FULL = {
    "densities": {"p_max": 31, "k_max": 5},
    "lattice": {"B": [8, 10, 12, 14, 16], "nd_box": 40, "nd_d": [1, 3, 5, 8],
                "scan_T": 30},
}
# sizes for the seed-invariance self-test
REDUCED = {
    "densities": {"p_max": 13, "k_max": 3},
    "lattice": {"B": [4, 6], "nd_box": 10, "nd_d": [1, 3], "scan_T": 8},
}

# every off-diagonal entry is non-zero, so the two coordinate halves are
# coupled under any permutation and enumerate_zeros must scan the full box
COUPLED_N4 = [[1, 1, 1, 1], [1, 2, 1, 1], [1, 1, -1, 1], [1, 1, 1, -2]]

# (d, q) menus for S_dq, every entry used in every repetition so the cost
# does not depend on the seed; dq <= 15 on the shipped pair keeps each
# sweep of 15^5 residues under a second
SDQ_MENU = {
    "shipped": [(1, 3), (3, 1), (1, 5), (1, 7), (1, 11), (1, 13), (3, 5), (2, 9)],
    "toy3": [(1, 3), (3, 1), (1, 5), (3, 5), (1, 7), (7, 3), (1, 11), (1, 13),
             (2, 9), (1, 19), (3, 7), (1, 21)],
}
LAYERED_PRIMES = (11, 13, 17)
RHO_MENU = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1),
            (11, 2), (13, 1)]
# (rows, cols, modulus, how many); the 3 x 5 systems mod 1024 include the
# matrices on which lincong.smith lets its entries grow without bound
LINCONG_MENU = [(2, 5, 1024, 12), (3, 4, 1024, 12), (3, 5, 1024, 16),
                (3, 5, 243, 3), (3, 5, 125, 3)]
# per-call limit on count_lincong: a call fails once an entry of the matrix
# lincong.smith reduces passes this many bits (about 2466 digits).  It is a
# size, not a clock, so a seed fails the same calls on every run.  Entry
# growth on random 3 x 5 systems mod 1024 has no gap (a few hundred bits in
# 2 ms, thousands in 0.1 s, and a few in a hundred double their entries at
# every step); over seeds 1-10 one such system in five passes the limit, one
# 3 x 4 system in twenty, no two-row system, and no call under it takes
# longer than 0.07 s.
LINCONG_LIMIT_BITS = 8192
# wall-clock backstop for code the bit limit does not reach; no call of the
# menu comes near it
LINCONG_BACKSTOP_S = 5.0


# --------------------------------------------------------------------------
# seeds and moved pairs
# --------------------------------------------------------------------------


def signed_permutation(seed: int, n: int, label: str) -> dict:
    rng = random.Random(f"{label}:{seed}")
    perm = list(range(n))
    rng.shuffle(perm)
    return {"perm": perm, "signs": [rng.choice((1, -1)) for _ in range(n)]}


def move_matrix(M, move: dict) -> list[list[int]]:
    """P M P^T for y = P x with y_i = s_i x_perm(i), so Q'(P x) = Q(x)."""
    perm, signs = move["perm"], move["signs"]
    n = len(perm)
    return [[signs[i] * signs[j] * M[perm[i]][perm[j]] for j in range(n)]
            for i in range(n)]


def move_point(x, move: dict) -> tuple[float, ...]:
    return tuple(s * x[i] for i, s in zip(move["perm"], move["signs"]))


# --------------------------------------------------------------------------
# jobs (parent process)
# --------------------------------------------------------------------------


def _diagonals(pair) -> tuple[list[int], list[int]]:
    return list(pair.Q1.diagonal_entries()), list(pair.Q2.diagonal_entries())


def _expsums_inputs(qp, base, seed: int, move: dict) -> dict:
    import oracles

    rng = random.Random(f"expsums:{seed}")
    shipped = qp.QuadricPair.build(
        qp.QuadraticForm.from_matrix(move_matrix(base.Q1.M, move)),
        qp.QuadraticForm.from_matrix(move_matrix(base.Q2.M, move)))
    diag = {"shipped": _diagonals(shipped), "toy3": _diagonals(qp.toy_pair_3())}
    n = {"shipped": shipped.n, "toy3": 3}

    def vec(name, mod):
        return [rng.randrange(mod) for _ in range(n[name])]

    sdq = []
    for name, menu in SDQ_MENU.items():
        for d, q in menu:
            m = vec(name, d * q)
            ref, tol = oracles.complete_sum(*diag[name], d, q, m)
            sdq.append({"pair": name, "d": d, "q": q, "m": m,
                        "ref": [ref.real, ref.imag], "tol": tol})
    layered = []
    for p in LAYERED_PRIMES:
        entry = {"p": p}
        for key, d, q, mod in (("Q_q_explicit", 1, p, p), ("D_p2_layered", p * p, 1, p * p),
                               ("M_mixed", p, p, p * p)):
            m = vec("shipped", mod)
            ref, tol = oracles.complete_sum(*diag["shipped"], d, q, m)
            entry[key] = {"m": m, "ref": [ref.real, ref.imag], "tol": tol}
        layered.append(entry)
    rho = [{"p": p, "k": k,
            "rho": oracles.point_count(*diag["shipped"], p**k),
            "rho_star": oracles.primitive_point_count(*diag["shipped"], p, k)}
           for p, k in RHO_MENU]
    systems = []
    for rows, cols, q, count in LINCONG_MENU:
        for _ in range(count):
            M = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
            x = [rng.randrange(q) for _ in range(cols)]
            rhs = [sum(a * b for a, b in zip(row, x)) % q for row in M]
            systems.append({"matrix": M, "rhs": rhs, "q": q,
                            "count": oracles.lincong_count(M, q)})
    order = list(range(len(systems)))
    rng.shuffle(order)
    return {"verify_seed": rng.randrange(10**6), "sdq": sdq, "layered": layered,
            "rho": rho, "lincong": [systems[i] for i in order]}


def make_job(qp, base, workload: str, seed: int, reference: dict) -> dict:
    """Everything one repetition needs: moves, sizes, expected values.

    base is the shipped pair as loaded from PAIR_FILE.
    """
    move = signed_permutation(seed, 5, "pair")
    job = {"workload": workload, "seed": seed, "move": move}
    if workload in reference and reference[workload]["params"] != FULL[workload]:
        raise ValueError(f"reference.json holds {workload} values for other sizes; "
                         "run make_reference.py")
    if workload == "densities":
        job["params"] = FULL["densities"]
        job["expect"] = reference.get("densities")
    elif workload == "lattice":
        job["params"] = FULL["lattice"]
        job["coupled_move"] = signed_permutation(seed, 4, "coupled")
        job["expect"] = reference.get("lattice")
    elif workload == "expsums":
        job["params"] = _expsums_inputs(qp, base, seed, move)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return job


# --------------------------------------------------------------------------
# one repetition (child process)
# --------------------------------------------------------------------------


class CallLimitExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise CallLimitExceeded("over the wall-clock backstop")


@contextlib.contextmanager
def call_limit(seconds: float):
    """Interrupt the enclosed pure-Python call after `seconds` of wall time."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def entry_limit(lincong, bits: int):
    """Stop lincong.smith once an entry of its working matrix passes `bits`.

    smith changes that matrix only through the module's _add_row and
    _add_col, which it looks up in the module namespace; they are rebound
    for the enclosed call only.  Without those helpers nothing is limited.
    """
    add_row = getattr(lincong, "_add_row", None)
    add_col = getattr(lincong, "_add_col", None)
    if add_row is None or add_col is None:
        yield
        return

    def check(size: int) -> None:
        if size.bit_length() > bits:
            raise CallLimitExceeded(f"Smith-form entry over {bits} bits")

    def limited_row(m, a, src, dst, c):
        add_row(m, a, src, dst, c)
        check(max(abs(x) for x in m[dst]))

    def limited_col(m, b, src, dst, c):
        add_col(m, b, src, dst, c)
        check(max(abs(row[dst]) for row in m))

    lincong._add_row, lincong._add_col = limited_row, limited_col
    try:
        yield
    finally:
        lincong._add_row, lincong._add_col = add_row, add_col


class Ops:
    """Operations of one repetition, by label.

    A failed operation is a wrong value, an exception (a resource-guard
    trip included) or a call over its limit.  Only wrong values make the
    run incorrect; the others leave no output to be wrong.  Labels are
    unique within a workload, so the repetitions of a run, which make the
    same calls, can be merged operation by operation.
    """

    def __init__(self) -> None:
        self.attempted: list[str] = []
        self.failed: dict[str, str] = {}  # label -> why
        self.wrong: list[str] = []

    def run(self, label: str, call, check=None):
        """Call, then check the value; returns it, or None on failure."""
        self.attempted.append(label)
        try:
            value = call()
        except CallLimitExceeded as exc:
            self.failed[label] = f"over the per-call limit ({exc})"
            return None
        except Exception as exc:  # any raise is a failed operation
            self.failed[label] = f"{type(exc).__name__}: {exc}"
            return None
        if check is not None:
            ok, detail = check(value)
            if not ok:
                self.failed[label] = detail
                self.wrong.append(label)
        return value


def install_wrappers(qp, tracer) -> None:
    """Spans on the public functions that composite entry points call."""
    dens, counting, expsums = qp.densities, qp.counting, qp.expsums
    tracer.wrap(dens, "sigma_p", "densities.sigma_p", lambda a, k, out: {
        "p": a[1], "bad": a[1] in a[0].bad_primes, "k_used": out.k_used,
        "converged": out.converged})
    tracer.wrap(dens, "sigma_2", "densities.sigma_2", lambda a, k, out: {
        "k_used": out.k_used, "stabilized": out.stabilized})
    tracer.wrap(dens, "tau_infinity", "densities.tau_infinity", lambda a, k, out: {
        "axis_points": out.axis_points, "spread": out.spread})

    def route(a, k, out):
        # the rule enumerate_zeros documents: meet-in-the-middle unless the
        # leading ceil(n/2) coordinates are coupled to the rest
        M = a[0].M
        n = len(M)
        h = (n + 1) // 2
        coupled = any(M[i][j] for i in range(h) for j in range(h, n))
        return {"route": "scan" if coupled else "mitm", "rows": len(out)}

    tracer.wrap(counting, "enumerate_zeros", "counting.enumerate_zeros", route)
    for attr, primitive in (("count_divisibility", False),
                            ("count_divisibility_primitive", True)):
        tracer.wrap(expsums, attr, "padic.count_divisibility",
                    lambda a, k, out, primitive=primitive: {"primitive": primitive})


def _fraction_text(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def run_densities(qp, ctx: dict, job: dict, tracer, ops: Ops) -> dict:
    params, expect = job["params"], job.get("expect")
    pair, W = ctx["pair"], ctx["W"]
    with tracer.span("densities.singular_constant"):
        report = ops.run("singular_constant", lambda: qp.singular_constant(
            pair, W, p_max=params["p_max"], k_max=params["k_max"]))
    if report is None:
        return {}
    observed = {
        "primes": {str(s.p): {"fraction": _fraction_text(s.fraction),
                              "converged": s.converged} for s in report.primes},
        "sigma2": {"fraction": _fraction_text(report.sigma2.fraction),
                   "k_used": report.sigma2.k_used,
                   "stabilized": report.sigma2.stabilized},
        "tau_slab": report.sigma_inf / math.pi,
        "tau_spread": report.sigma_inf_spread,
    }
    if expect is None:
        return observed
    for p, ref in expect["primes"].items():
        got = observed["primes"].get(p)

        def check(got, ref=ref):
            if got is None:
                return False, "prime missing from the report"
            if got["converged"] and got["fraction"] != ref["fraction"]:
                return False, f"{got['fraction']} != {ref['fraction']}"
            return True, ""

        ops.run(f"sigma_p({p})", lambda got=got: got, check)

    def check_sigma2(s2):
        # uncertified today: checked for consistency with c_truncated only
        product = report.sigma_inf * report.sigma2.value
        for s in report.primes:
            product *= s.value
        if not _rel_close(product, report.c_truncated, 1e-12):
            return False, f"c_truncated {report.c_truncated} != product {product}"
        if not 0 < s2.value < 4:
            return False, f"sigma_2 = {s2.value} out of range"
        return True, ""

    ops.run("sigma_2", lambda: report.sigma2, check_sigma2)

    def check_tau(obs):
        slab, spread = obs
        if not _rel_close(slab, expect["tau_slab"], 0.01):
            return False, f"tau slab {slab} vs reference {expect['tau_slab']}"
        if spread > 0.05:
            return False, f"slab/coarea spread {spread} > 0.05"
        return True, ""

    ops.run("tau_infinity", lambda: (observed["tau_slab"], observed["tau_spread"]),
            check_tau)
    return observed


def run_lattice(qp, ctx: dict, job: dict, tracer, ops: Ops) -> dict:
    params, expect = job["params"], job.get("expect")
    pair, W = ctx["pair"], ctx["W"]
    observed = {"S": {}, "N_d": {}}

    def exact(ref):
        return lambda got: (got == ref, f"{got} != {ref}")

    for B in params["B"]:
        check = None
        if expect is not None:
            ref = expect["S"][str(B)]
            check = lambda got, ref=ref: (_rel_close(got, ref, 1e-9), f"{got} != {ref}")
        with tracer.span("counting.S_of_B", B=B):
            observed["S"][str(B)] = ops.run(f"S_of_B({B})",
                                            lambda: qp.S_of_B(pair, W, B), check)
    box = params["nd_box"]
    for d in params["nd_d"]:
        check = exact(expect["N_d"][str(d)]) if expect is not None else None
        with tracer.span("counting.N_d", d=d):
            observed["N_d"][str(d)] = ops.run(f"N_d({d})",
                                              lambda: qp.N_d(pair, d, box), check)
    form = qp.QuadraticForm.from_matrix(move_matrix(COUPLED_N4, job["coupled_move"]))

    def scan():
        zeros = qp.counting.enumerate_zeros(form, params["scan_T"])
        if (form.eval_batch(zeros) != 0).any():
            raise ArithmeticError("enumerate_zeros returned a non-zero of the form")
        return len(zeros)

    check = exact(expect["scan_zeros"]) if expect is not None else None
    observed["scan_zeros"] = ops.run("enumerate_zeros(coupled)", scan, check)
    return observed


def _sum_check(ref: dict):
    target = complex(*ref["ref"])

    def check(val):
        err = abs(val.value - target)
        return err <= val.tol + ref["tol"], f"{val.value} vs oracle {target} (err {err:.3g})"

    return check


def run_expsums(qp, ctx: dict, job: dict, tracer, ops: Ops) -> dict:
    params = job["params"]
    pairs = {"shipped": ctx["pair"], "toy3": qp.toy_pair_3()}

    for suite in ("gauss", "multiplicativity", "vanishing", "bounds", "densities"):
        argv = ["verify", "--suite", suite, "--seed", str(params["verify_seed"])]

        def verify(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = qp.cli.main(argv)
            return code, buf.getvalue().strip().splitlines()[-1]

        with tracer.span(f"cli.verify.{suite}"):
            ops.run(f"verify {suite}", verify, lambda out: (
                out[0] == 0 and out[1].startswith("result: PASS"), f"exit {out[0]}: {out[1]}"))

    for case in params["sdq"]:
        pair = pairs[case["pair"]]
        d, q, m = case["d"], case["q"], case["m"]
        values = {}
        for method in ("direct", "ramanujan"):
            with tracer.span("expsums.S_dq", method=method, dq=d * q):
                values[method] = ops.run(
                    f"S_dq {case['pair']} d={d} q={q} {method}",
                    lambda method=method: qp.S_dq(pair, d, q, m, method=method),
                    _sum_check(case))
        a, b = values["direct"], values["ramanujan"]
        if a is not None and b is not None:
            ops.run(f"S_dq {case['pair']} d={d} q={q} routes agree", lambda: (a, b),
                    lambda ab: (abs(ab[0].value - ab[1].value) <= ab[0].tol + ab[1].tol,
                                f"direct {ab[0].value} vs ramanujan {ab[1].value}"))

    shipped = pairs["shipped"]
    for entry in params["layered"]:
        p = entry["p"]
        calls = {
            "Q_q_explicit": lambda m: qp.Q_q_explicit(shipped.Q2, p, m, dual=shipped.dual2),
            "D_p2_layered": lambda m: qp.D_p2_layered(shipped, p, m),
            "M_mixed": lambda m: qp.M_mixed(shipped, p, 1, 1, m),
        }
        for key, call in calls.items():
            case = entry[key]
            with tracer.span(f"expsums.{key}", p=p):
                ops.run(f"{key} p={p}", lambda: call(case["m"]), _sum_check(case))

    for entry in params["rho"]:
        d = entry["p"] ** entry["k"]
        for key, call in (("rho", qp.rho), ("rho_star", qp.rho_star)):
            with tracer.span(f"expsums.{key}", d=d):
                ops.run(f"{key}({d})", lambda: call(shipped, d),
                        lambda got, ref=entry[key]: (got == ref, f"{got} != {ref}"))

    for i, case in enumerate(params["lincong"]):
        def solve(case=case):
            with tracer.span("lincong.count_lincong", q=case["q"]) as span:
                try:
                    with call_limit(LINCONG_BACKSTOP_S), \
                            entry_limit(qp.lincong, LINCONG_LIMIT_BITS):
                        return qp.count_lincong(case["matrix"], case["rhs"], case["q"])
                except CallLimitExceeded:
                    if span is not None:
                        span["over_limit"] = True
                    raise

        ops.run(f"count_lincong #{i}", solve,
                lambda got, ref=case["count"]: (got == ref, f"{got} != {ref}"))
    return {}


RUN = {"densities": run_densities, "lattice": run_lattice, "expsums": run_expsums}
