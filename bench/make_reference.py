"""Regenerate bench/reference.json from the current package.

    python3 bench/make_reference.py

Runs the densities and lattice workloads once at full size on the pair as
shipped (no coordinate move) and stores what they observe.  Every seed of
run.py moves the coordinates, which leaves these values unchanged, so the
one file checks every seed.  Only regenerate it when a change is meant to
alter these values.
"""

from __future__ import annotations

import json

from rep import HERE, setup
from spans import Tracer

import workloads


def observe(workload: str, sizes=workloads.FULL, seed: int | None = None) -> dict:
    """Observed values of one workload; seed None leaves the pair unmoved."""
    n = 5
    if seed is None:
        job = {"workload": workload, "seed": 0, "params": sizes[workload],
               "move": {"perm": list(range(n)), "signs": [1] * n},
               "coupled_move": {"perm": [0, 1, 2, 3], "signs": [1] * 4}}
    else:
        job = {"workload": workload, "seed": seed, "params": sizes[workload],
               "move": workloads.signed_permutation(seed, n, "pair"),
               "coupled_move": workloads.signed_permutation(seed, 4, "coupled")}
    tracer = Tracer(False, "reference")
    qp, ctx = setup(job, tracer)
    ops = workloads.Ops()
    observed = workloads.RUN[workload](qp, ctx, job, tracer, ops)
    if ops.failed:
        raise RuntimeError(f"{workload}: {ops.failed}")
    return observed


if __name__ == "__main__":
    reference = {name: dict(observe(name), params=workloads.FULL[name])
                 for name in ("densities", "lattice")}
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
