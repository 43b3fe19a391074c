"""Self-tests of the benchmark's own machinery (not of quadpair).

    python3 -m pytest bench/test_bench.py

About ten seconds; the seed-invariance test runs densities and lattice
at reduced size, twice each.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_ONLY = {"workload": "lattice", "seed": 1, "setup_only": True,
              "move": {"perm": [0, 1, 2, 3, 4], "signs": [1] * 5}}


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=120)


def test_second_repetition_in_one_interpreter_is_refused():
    out = _python(
        "import rep\n"
        f"job = {SETUP_ONLY!r}\n"
        "rep.run_repetition(job)\n"
        "try:\n"
        "    rep.run_repetition(job)\n"
        "except RuntimeError as exc:\n"
        "    print('refused:', exc)\n")
    assert out.returncode == 0, out.stderr
    assert "refused: this interpreter already ran a repetition" in out.stdout


def test_repetition_refuses_an_already_imported_package():
    out = _python(
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import quadpair, rep\n"
        "try:\n"
        f"    rep.run_repetition({SETUP_ONLY!r})\n"
        "except RuntimeError as exc:\n"
        "    print('refused:', exc)\n")
    assert out.returncode == 0, out.stderr
    assert "refused: quadpair is already imported" in out.stdout


def test_seed_invariance_of_densities_and_lattice():
    from make_reference import observe

    assert (workloads.signed_permutation(1, 5, "pair")
            != workloads.signed_permutation(2, 5, "pair"))
    a = observe("densities", workloads.REDUCED, seed=1)
    b = observe("densities", workloads.REDUCED, seed=2)
    assert a["primes"] == b["primes"]
    assert a["sigma2"] == b["sigma2"]
    assert math.isclose(a["tau_slab"], b["tau_slab"], rel_tol=0.01)

    a = observe("lattice", workloads.REDUCED, seed=1)
    b = observe("lattice", workloads.REDUCED, seed=2)
    for B in a["S"]:
        assert math.isclose(a["S"][B], b["S"][B], rel_tol=1e-12)
    assert a["N_d"] == b["N_d"]
    assert a["scan_zeros"] == b["scan_zeros"]


def _brute_sum(c1, c2, d, q, m):
    N = d * q
    total = 0j
    for k in itertools.product(range(N), repeat=len(c1)):
        q1 = sum(c * x * x for c, x in zip(c1, k))
        q2 = sum(c * x * x for c, x in zip(c2, k))
        if q1 % d or q2 % d:
            continue
        mk = sum(a * b for a, b in zip(m, k))
        for a in oracles._units(q):
            total += np.exp(2j * np.pi * ((a * q2 + mk) % N) / N)
    return total


def test_character_sum_oracle_matches_enumeration():
    c1, c2 = [1, 1, 1], [1, 3, -4]
    for d, q, m in ((1, 5, [1, 2, 3]), (3, 1, [0, 1, 2]), (2, 3, [5, 0, 1]), (9, 1, [0, 0, 0])):
        value, tol = oracles.complete_sum(c1, c2, d, q, m)
        assert abs(value - _brute_sum(c1, c2, d, q, m)) <= tol + 1e-9
    assert oracles.point_count(c1, c2, 9) == round(_brute_sum(c1, c2, 9, 1, [0, 0, 0]).real)


def test_lincong_oracle_matches_enumeration():
    rng = np.random.default_rng(3)
    for rows, cols, q in ((2, 3, 8), (3, 2, 9), (2, 2, 12)):
        M = rng.integers(0, q, size=(rows, cols)).tolist()
        x0 = rng.integers(0, q, size=cols)
        rhs = (np.array(M) @ x0) % q
        hits = sum(1 for x in itertools.product(range(q), repeat=cols)
                   if ((np.array(M) @ np.array(x) - rhs) % q == 0).all())
        assert oracles.lincong_count(M, q) == hits


def test_entry_limit_stops_smith_and_restores_it():
    sys.path.insert(0, str(ROOT / "src"))
    from quadpair import lincong

    if not hasattr(lincong, "_add_row"):
        pytest.skip("lincong.smith no longer reduces through _add_row/_add_col")
    helpers = (lincong._add_row, lincong._add_col)
    M, rhs, q = [[6, 10, 15], [4, 9, 25]], [71, 97], 1024  # rhs = M (1, 2, 3)
    with pytest.raises(workloads.CallLimitExceeded):
        with workloads.entry_limit(lincong, 2):
            lincong.count_lincong(M, rhs, q)
    assert (lincong._add_row, lincong._add_col) == helpers
    with workloads.entry_limit(lincong, workloads.LINCONG_LIMIT_BITS):
        assert lincong.count_lincong(M, rhs, q) == oracles.lincong_count(M, q)
    assert (lincong._add_row, lincong._add_col) == helpers


def test_span_union_counts_overlaps_once():
    s = [{"start": 0.0, "end": 2.0}, {"start": 1.0, "end": 3.0}, {"start": 5.0, "end": 6.0}]
    assert spans._union(s, 0.0, 10.0) == 4.0
    assert spans._union(s, 1.5, 5.5) == 2.0


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "expsums",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
