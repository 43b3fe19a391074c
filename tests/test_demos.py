"""Each demo runs to completion as a script, the way its docstring says."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    if demo.name == "local_densities.py":
        assert "k=6: sigma_2 ~ 5/16 (stabilized=True)" in result.stdout
        assert "sigma_7 = 2752/2801 (depth 3, converged=True)" in result.stdout
        assert "at G = 18 (38950 transverse rows" in result.stdout
    if demo.name == "expsums_two_ways.py":
        # is_Vm_singular_mod_p and D_p2_layered end to end
        assert "smooth section mod p: True" in result.stdout
