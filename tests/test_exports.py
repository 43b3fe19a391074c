import importlib
import pkgutil

import pytest

import quadpair

MODULES = ["quadpair"] + sorted(
    f"quadpair.{m.name}" for m in pkgutil.iter_modules(quadpair.__path__))

#: names deleted with nothing left calling them
DELETED = {"full_quadratic_sum", "partial_sum_Q", "partial_sum_Q_series",
           "_Q_series_modulus", "Ntilde", "count_cone_points_mod_p",
           "sigma_infinity", "r2_chi_divisor_sum", "sigma_p_truncated",
           "count_congruence_pair_primitive"}


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [e for e in exported if not hasattr(module, e)] == []
    assert not DELETED & (set(exported) | set(vars(module)))
