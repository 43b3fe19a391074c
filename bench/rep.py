"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/rep.py < job.json

Reads a job (as written by run.py) on standard input and prints one JSON
line: the monotonic clock when set-up ended, the wall time of the
workload, peak memory, operation counts, and the spans when traced.

quadpair keeps module-level caches (densities._local_data is an unbounded
lru_cache keyed by the pair's value), so a second repetition in the same
interpreter would time a warmer program than a user's first call.
run_repetition therefore refuses to run twice in one interpreter, or in
one where quadpair is already imported.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

_repetitions: list[str] = []  # workloads run by this interpreter


def setup(job: dict, tracer: Tracer):
    """Import the package, build the moved pair and its weight.

    The weight is searched on the pair as loaded and then moved with the
    coordinates: on the shipped pair every cone direction scores the same,
    so a fresh search on the moved pair could pick another centre.
    """
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    qp = importlib.import_module("quadpair")
    importlib.import_module("quadpair.cli")
    move = job["move"]
    with tracer.span("quadforms.load_pair"):
        base = qp.load_pair(ROOT / workloads.PAIR_FILE)
        pair = qp.QuadricPair.build(
            qp.QuadraticForm.from_matrix(workloads.move_matrix(base.Q1.M, move)),
            qp.QuadraticForm.from_matrix(workloads.move_matrix(base.Q2.M, move)))
    with tracer.span("counting.weight_search"):
        W0 = qp.WeightFunction.default_for_pair(base)
    W = qp.WeightFunction(workloads.move_point(W0.x0, move), W0.rho)
    return qp, {"pair": pair, "W": W}


def run_repetition(job: dict) -> dict:
    if _repetitions:
        raise RuntimeError("this interpreter already ran a repetition; "
                           "each repetition needs a fresh interpreter")
    if "quadpair" in sys.modules:
        raise RuntimeError("quadpair is already imported; a repetition must "
                           "start from a fresh interpreter")
    _repetitions.append(job["workload"])
    tracer = Tracer(bool(job.get("trace")), f"{job['workload']}-{job['seed']}")
    qp, ctx = setup(job, tracer)
    out = {"setup_end": time.monotonic()}
    if not job.get("setup_only"):
        ops = workloads.Ops()
        if tracer.enabled:
            workloads.install_wrappers(qp, tracer)
        start = time.perf_counter()
        workloads.RUN[job["workload"]](qp, ctx, job, tracer, ops)
        end = time.perf_counter()
        out.update(wall_s=end - start, window=[start, end], attempted=ops.attempted,
                   failed=ops.failed, wrong=ops.wrong, spans=tracer.spans, n=ctx["pair"].n)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["maxrss_kb"] = max(own, kids)
    return out


if __name__ == "__main__":
    result = run_repetition(json.loads(sys.stdin.read()))
    sys.stdout.write(json.dumps(result) + "\n")
