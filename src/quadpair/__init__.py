"""Exponential sums, local densities, and lattice counts for pairs of
integral quadratic forms.

The library evaluates the complete exponential sums attached to a pair
(Q1, Q2) of quadratic forms in n variables and their closed forms, the
Hardy-Littlewood local densities of the system
``Q1 = sum of two squares, Q2 = 0``, and the weighted lattice count S(B)
whose growth the product of densities predicts.
"""

from .counting import BoxSpec, N_d, S_of_B, WeightFunction, enumerate_zeros, s_of_b_rows
from .densities import (
    DensityReport,
    ExperimentResult,
    Sigma2,
    SigmaP,
    TauInfinity,
    certified_good,
    experiment,
    sigma_2,
    sigma_p,
    singular_constant,
    tau_infinity,
    two_squares_closed_form,
    two_squares_count,
)
from .expsums import (
    D_p2_layered,
    M_mixed,
    Q_q_explicit,
    S_dq,
    S_dq_many,
    S_two_power,
    T_dq,
    rho,
    rho_star,
)
from .guard import DEFAULT_GUARD, ResourceGuardError, check_guard
from .lincong import count_lincong, smith_bound
from .modarith import (
    PrimePower,
    SumValue,
    chi4,
    e_q,
    eps,
    gauss_chi,
    jacobi,
    quad_gauss_1d,
    r2,
    ramanujan,
    sum_tol,
)
from .padic import (
    count_congruence_pair,
    count_divisibility,
    count_divisibility_primitive,
)
from .pairs import demo_pair_7, shipped_pair, toy_pair_2, toy_pair_3
from .quadforms import (
    QuadraticForm,
    QuadricPair,
    bad_primes,
    certified_good_primes,
    dual_form,
    is_Vm_singular_mod_p,
    load_pair,
    parse_pair_text,
    pencil_det_poly,
    save_pair,
)

__version__ = "0.1.0"

__all__ = [
    "BoxSpec",
    "DEFAULT_GUARD",
    "D_p2_layered",
    "DensityReport",
    "ExperimentResult",
    "M_mixed",
    "N_d",
    "PrimePower",
    "Q_q_explicit",
    "QuadraticForm",
    "QuadricPair",
    "ResourceGuardError",
    "S_dq",
    "S_dq_many",
    "S_of_B",
    "S_two_power",
    "Sigma2",
    "SigmaP",
    "SumValue",
    "T_dq",
    "TauInfinity",
    "WeightFunction",
    "bad_primes",
    "certified_good",
    "certified_good_primes",
    "check_guard",
    "chi4",
    "count_congruence_pair",
    "count_divisibility",
    "count_divisibility_primitive",
    "count_lincong",
    "demo_pair_7",
    "dual_form",
    "e_q",
    "enumerate_zeros",
    "eps",
    "experiment",
    "gauss_chi",
    "is_Vm_singular_mod_p",
    "jacobi",
    "load_pair",
    "parse_pair_text",
    "pencil_det_poly",
    "quad_gauss_1d",
    "r2",
    "ramanujan",
    "rho",
    "rho_star",
    "s_of_b_rows",
    "save_pair",
    "shipped_pair",
    "sigma_2",
    "sigma_p",
    "singular_constant",
    "smith_bound",
    "sum_tol",
    "tau_infinity",
    "toy_pair_2",
    "toy_pair_3",
    "two_squares_closed_form",
    "two_squares_count",
]
