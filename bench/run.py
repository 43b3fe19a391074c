"""Benchmark for quadpair: one workload, one seed, one measured window.

    python3 bench/run.py --workload densities|lattice|expsums \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from src/ next to this
directory.  Repetitions run back to back, each in a fresh interpreter
(rep.py), until --seconds have elapsed; at least one runs.  With --trace 1
traced and untraced repetitions alternate, at least one of each.  Each
metric is printed by name and unit, and the last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}.

End-to-end metrics (--trace 0), all from untraced repetitions:
  wall_s       first workload call to last checked result, set-up excluded
               (median over repetitions)
  setup_s      interpreter start to pair built and weight chosen: import
               quadpair, load_pair and QuadricPair.build, default_for_pair
               (median of at least eleven set-ups: the repetitions' own and
               set-up-only interpreters, four before the repetitions and the
               rest after)
  cpu_s        user + system CPU of a repetition's process tree (median)
  peak_rss_mb  peak resident memory (largest over repetitions)
Printed as well but kept out of the JSON metrics, because it is zero on two
workloads: error_share = failed / ops_attempted.  Each operation of the
workload counts once per run, however many repetitions made it, and
counts as failed if it failed in any of them; the limits are counts, not
clocks, so the same seed gives the same figures on every run.

Per-layer metrics (--trace 1) come from the spans of spans.py (median over
traced repetitions); trace.overhead_s is traced wall_s minus untraced
wall_s.  The spans are written to .bench_trace/ at the checkout root.

Outputs are checked against bench/reference.json (densities, lattice; the
same for every seed) or against the oracles of oracles.py (expsums).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS_FIRST = 4  # set-up-only interpreters before the timed repetitions
MIN_SETUPS = 11
RUN_LIMIT_S = 170  # every run must end well inside three minutes

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
NOTES = {"densities.sigma_p.points_per_s": "(computed: sum of p^n over good primes / good_s)"}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_share", ".coverage", ".spread")):
        return "ratio"
    return "count"


PER_LAYER = {name: _unit(name) for name in (
    "densities.sigma_p.s", "densities.sigma_p.good_s", "densities.sigma_p.bad_s",
    "densities.sigma_p.max_s", "densities.sigma_p.k_used_sum",
    "densities.sigma_p.unconverged", "densities.sigma_p.points_per_s",
    "densities.sigma_2.s", "densities.sigma_2.k_used", "densities.sigma_2.stabilized",
    "densities.tau_infinity.s", "densities.tau_infinity.axis_points",
    "densities.tau_infinity.spread",
    "counting.S_of_B.s", "counting.S_of_B.max_s", "counting.N_d.s",
    "counting.enumerate_zeros.mitm_s", "counting.enumerate_zeros.scan_s",
    "counting.enumerate_zeros.rows", "counting.enumerate_zeros.rows_per_s",
    "counting.weight_search.s", "quadforms.load_pair.s",
    "expsums.S_dq.direct_s", "expsums.S_dq.ramanujan_s", "expsums.Q_q_explicit.s",
    "expsums.D_p2_layered.s", "expsums.M_mixed.s", "expsums.calls",
    "padic.count_divisibility.s", "padic.count_divisibility.calls",
    "lincong.count_lincong.s", "lincong.count_lincong.calls",
    "lincong.count_lincong.over_limit",
    "cli.verify.s", "cli.verify.gauss_s", "cli.verify.multiplicativity_s",
    "cli.verify.vanishing_s", "cli.verify.bounds_s", "cli.verify.densities_s",
    "trace.wall_s", "trace.overhead_s", "trace.coverage",
    "trace.densities_share", "trace.counting_share", "trace.expsums_share",
)}


class BenchError(RuntimeError):
    pass


def spawn(job: dict, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and measure it from here."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another repetition")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "rep.py")],
                              input=json.dumps(job), capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {timeout:.0f} s") from exc
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"repetition exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["setup_end"] - t0
    res["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    res["traced"] = bool(job.get("trace"))
    return res


def measure(job: dict, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    """Set-ups, repetitions until `seconds` have passed, set-up top-ups.

    The set-ups run on both sides of the repetitions, so their median
    spans the run rather than one moment of the host's load; the first
    ones also warm the file cache before anything is timed.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [spawn(dict(job, setup_only=True), deadline)["setup_s"]
              for _ in range(SETUPS_FIRST)]
    start = time.monotonic()
    plan = (False, True) if trace else (False,)
    reps = []
    while len(reps) < len(plan) or time.monotonic() - start < seconds:
        reps.append(spawn(dict(job, trace=plan[len(reps) % len(plan)]), deadline))
    setups += [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(dict(job, setup_only=True), deadline)["setup_s"])
    return reps, setups


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    plain = [r for r in reps if not r["traced"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "peak_rss_mb": max(r["maxrss_kb"] for r in plain) / 1024.0,
    }


def per_layer(reps: list[dict]) -> dict:
    traced = [spans.layer_metrics(r["spans"], r["window"], r["n"])
              for r in reps if r["traced"]]
    out = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    plain = statistics.median(r["wall_s"] for r in reps if not r["traced"])
    out["trace.overhead_s"] = statistics.median(r["wall_s"] for r in reps if r["traced"]) - plain
    return out


def write_spans(workload: str, seed: int, reps: list[dict]) -> Path:
    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}.json"
    payload = {"workload": workload, "seed": seed,
               "repetitions": [{"traced": r["traced"], "window": r["window"],
                                "spans": r["spans"]} for r in reps]}
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "quadpair" / "__init__.py").is_file() or \
            not (ROOT / workloads.PAIR_FILE).is_file():
        print(f"error: no quadpair sources under {ROOT} (need src/quadpair and "
              f"{workloads.PAIR_FILE})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import quadpair

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    base = quadpair.load_pair(ROOT / workloads.PAIR_FILE)
    job = workloads.make_job(quadpair, base, args.workload, args.seed, reference)
    try:
        reps, setups = measure(job, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # every repetition makes the same calls; an operation counts once per
    # run, failed if it failed in any repetition
    attempted = len({label for r in reps for label in r["attempted"]})
    failures = {label: why for r in reps for label, why in r["failed"].items()}
    failed = len(failures)
    correct = not any(r["wrong"] for r in reps)
    if args.trace:
        values, units = per_layer(reps), PER_LAYER
        print(f"spans written to {write_spans(args.workload, args.seed, reps)}")
    else:
        values, units = end_to_end(reps, setups), END_TO_END
    n_plain = sum(1 for r in reps if not r["traced"])
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions "
          f"({n_plain} untraced), {len(setups)} set-ups")
    for name, value in values.items():
        print(f"{name:40s} {value:.6g} {units[name]} {NOTES.get(name, '')}".rstrip())
    for kind, group in (("untraced", [r for r in reps if not r["traced"]]),
                        ("traced", [r for r in reps if r["traced"]])):
        if group:
            walls = " ".join(f"{r['wall_s']:.4g}" for r in group)
            print(f"{'wall_s of each ' + kind + ' repetition':40s} {walls} s")
    print(f"{'error_share':40s} {failed / attempted:.6g} ratio "
          f"({failed} failed of ops_attempted {attempted})")
    for label, why in failures.items():
        print(f"failed: {label}: {why}")
    print(f"correct: {correct}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
