import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import quadpair

MODULES = ["quadpair"] + sorted(
    f"quadpair.{m.name}" for m in pkgutil.iter_modules(quadpair.__path__))

#: names deleted with nothing left calling them
DELETED = {"full_quadratic_sum", "partial_sum_Q", "partial_sum_Q_series",
           "_Q_series_modulus", "Ntilde", "count_cone_points_mod_p",
           "sigma_infinity", "r2_chi_divisor_sum", "sigma_p_truncated",
           "count_congruence_pair_primitive", "D_d", "mobius",
           "residue_blocks", "_head_columns", "grid_blocks", "_STREAM_ROWS",
           "_CHUNK_ROWS"}


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [e for e in exported if not hasattr(module, e)] == []
    assert not DELETED & (set(exported) | set(vars(module)))


def test_the_library_runs_on_numpy_alone():
    # the densities and the lattice halves of the comparison, in a fresh
    # process, import none of numpy.polynomial (about 0.8 MB of a densities
    # run's peak RSS), sympy and scipy
    code = "\n".join([
        "import sys",
        "import quadpair",
        "from quadpair import S_of_B, WeightFunction, shipped_pair, singular_constant",
        "pair = shipped_pair()",
        "W = WeightFunction.default_for_pair(pair)",
        "singular_constant(pair, W, p_max=31, k_max=5)",
        "S_of_B(pair, W, 12)",
        "print(sorted(m for m in ('numpy.polynomial', 'sympy', 'scipy') if m in sys.modules))",
    ])
    src = str(Path(quadpair.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert run.stdout.strip() == "[]"
