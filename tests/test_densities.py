import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from arith_oracles import sigma_p_truncated
from quadpair.counting import WeightFunction
from quadpair import counting, densities, padic, quadforms
from quadpair.densities import (
    ExperimentResult,
    certified_good,
    sigma_2,
    sigma_p,
    singular_constant,
    tau_infinity,
    two_squares_closed_form,
    two_squares_count,
)
from quadpair.densities import _sigma2_fraction  # depth probe used below
from quadpair.guard import DEFAULT_GUARD, ResourceGuardError
from quadpair.lincong import jordan_gauss_sum
from quadpair.modarith import is_prime
from quadpair.padic import _GaussTable, _lift_count, count_congruence_pair
from quadpair.pairs import demo_pair_7, shipped_pair, toy_pair_2, toy_pair_3
from quadpair.quadforms import (
    QuadraticForm,
    QuadricPair,
    grid_blocks,
    load_pair,
    residue_grid,
    residue_zeros_mod_p,
)

PAIRS_DIR = Path(__file__).resolve().parent.parent / "pairs"


def test_two_squares_closed_form_small_sweep():
    for p, kmax in ((3, 3), (5, 2), (7, 2), (13, 2)):
        for k in range(1, kmax + 1):
            for A in range(p**k):
                assert two_squares_closed_form(A, p, k) == two_squares_count(
                    A, p, k
                ), (p, k, A)
    for k in (2, 3):
        for A in range(1, 2 ** (k + 1), 2):
            assert two_squares_closed_form(A, 2, k) == two_squares_count(A, 2, k)


def test_two_squares_hand_values():
    # p = 5, k = 1: A = 0 has the 9 solutions (0,0) and x = +/-2y, y != 0
    assert two_squares_closed_form(0, 5, 1) == 9
    assert two_squares_count(0, 5, 1) == 9
    # p = 3: x^2 + y^2 = 1 mod 3 has (0,+/-1),(+/-1,0)
    assert two_squares_closed_form(1, 3, 1) == 4
    # p = 2, k = 2: A = 1 mod 4 gives 2^{k+1}, A = 3 mod 4 gives none
    assert two_squares_closed_form(1, 2, 2) == 8
    assert two_squares_closed_form(3, 2, 2) == 0


def test_two_squares_closed_form_rejections():
    with pytest.raises(ValueError):
        two_squares_closed_form(2, 2, 2)  # even A at p = 2
    with pytest.raises(ValueError):
        two_squares_closed_form(1, 2, 1)  # k = 1 not covered at p = 2


def test_Ntilde_vs_brute():
    for pair in (toy_pair_2(), toy_pair_3()):
        p, k = 3, 2
        grid = residue_grid(p**k, pair.n)
        q2 = pair.Q2.eval_batch_mod(grid, p**k)
        q1 = pair.Q1.eval_batch_mod(grid, p**k)
        for e in range(k + 1):
            want = int(((q1 % p**e == 0) & (q2 == 0)).sum())
            assert count_congruence_pair(pair, p, k, e, k) == want, (pair.n, e)


def test_sigma_p_hensel_on_good_primes():
    for pair in (shipped_pair(), toy_pair_3()):
        for p in (11, 13):
            assert certified_good(pair, p)
            k1 = sigma_p(pair, p, k_max=1)
            k2 = sigma_p(pair, p, k_max=2)
            assert k1.fraction == k2.fraction
            assert k2.converged


def test_sigma_p_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sigma_p(toy_pair_3(), 4)
    with pytest.raises(ValueError):
        sigma_p(toy_pair_3(), 2)
    with pytest.raises(ValueError):
        sigma_p(toy_pair_2(), 3)  # n = 2 has no stabilized limit


def test_sigma_p_truncated_toy_value():
    # raw truncation at p = 3, k = 2 on the n = 2 toy, against direct counts
    pair = toy_pair_2()
    p, k = 3, 2
    total = sum((-1) ** e * count_congruence_pair(pair, p, k, e, k)
                for e in range(k + 1))
    want = (1 - Fraction(-1, 3)) * Fraction(total, 3 ** (k * (pair.n - 1)))
    assert sigma_p_truncated(pair, p, k) == want


def test_sigma_p_matches_truncation_when_stable():
    # on a certified-good prime the stabilized value equals a deep truncation
    pair = toy_pair_3()
    s = sigma_p(pair, 11, k_max=2)
    trunc = sigma_p_truncated(pair, 11, 2)
    assert abs(float(s.fraction) - float(trunc)) <= float(trunc) * 2e-2


def test_certified_good_excludes_divisors():
    ship = shipped_pair()
    for p in (3, 5):
        assert not certified_good(ship, p)
    assert certified_good(ship, 11)


def test_sigma_2_toy_is_depth_stable():
    toy = toy_pair_2()
    assert _sigma2_fraction(toy, 3) == _sigma2_fraction(toy, 4) == 4
    s = sigma_2(toy, k_max=4)
    assert s.stabilized and s.fraction == 4


def test_sigma_2_shipped_depth_profile():
    ship = shipped_pair()
    assert _sigma2_fraction(ship, 2) == Fraction(1, 4)
    assert _sigma2_fraction(ship, 4) == Fraction(1, 4)
    s = sigma_2(ship, k_max=4)
    assert s.fraction == Fraction(1, 4) and s.stabilized
    # the count jumps once more at depth 5 and holds at depth 6; k_max = 5
    # reports the new value with stabilized = False, k_max = 6 certifies it
    s = sigma_2(ship, k_max=5)
    assert s.fraction == Fraction(5, 16) and not s.stabilized
    s = sigma_2(ship, k_max=6, guard=DEFAULT_GUARD)
    assert s.k_used == 6 and s.fraction == Fraction(5, 16) and s.stabilized
    # each depth is charged the digits its count enumerates: 1312 at each
    # of depths 5 and 6
    with pytest.raises(ResourceGuardError) as err:
        sigma_2(ship, k_max=6, guard=1311)
    assert err.value.operation == "sigma_2"
    assert sigma_2(ship, k_max=6, guard=1312) == s


def test_singular_constant_raises_when_sigma_2_trips_the_guard():
    # the guard admits tau_infinity and sigma_p but not sigma_2 at k_max = 13,
    # whose depth 13 is charged 21848 (depths 11 and 12 are charged 5464);
    # the constant is refused rather than taken at a shallower 2-adic depth.
    # The guard is the charge of tau's finest pass, the largest it checks.
    pair = toy_pair_3()
    W = WeightFunction.default_for_pair(pair)
    G = tau_infinity(pair.Q2, W).axis_points
    guard = tau_charge(G, pair.n - 1)
    assert guard < 21848
    assert sigma_2(pair, k_max=12, guard=guard).stabilized
    tau_infinity(pair.Q2, W, guard=guard)
    assert sigma_p(pair, 3, k_max=13, guard=guard).converged
    with pytest.raises(ResourceGuardError) as err:
        singular_constant(pair, W, p_max=3, k_max=13, guard=guard)
    assert err.value.operation == "sigma_2"


def test_tau_infinity_toy_oracle():
    toy = toy_pair_2()
    W = WeightFunction((1.0, 0.0), 0.3)
    tau = tau_infinity(toy.Q2, W)
    nodes, wts = np.polynomial.legendre.leggauss(60)
    x = 1.0 + 0.3 * nodes
    t = ((x - 1.0) / 0.3) ** 2
    vals = np.exp(-1.0 / (1 - t)) / (2 * x)
    oracle = float((vals * wts).sum() * 0.3)
    assert tau.coarea == pytest.approx(oracle, rel=1e-2)
    assert tau.spread <= 0.05


def test_tau_infinity_epsilon_ladder_converged():
    ship = shipped_pair()
    W = WeightFunction.default_for_pair(ship)
    tau = tau_infinity(ship.Q2, W)
    assert singular_constant(ship, W, p_max=3, k_max=2).sigma_inf == math.pi * tau.slab
    ladder = tau.slab_ladder
    assert len(ladder) >= 2
    # halving the slab width at the finest rung moves the estimate < 2%
    assert abs(ladder[-1] - ladder[-2]) <= 0.02 * abs(ladder[-1])


def test_tau_infinity_refuses_support_on_the_vertex():
    # guard 0 trips the first grid pass, so a ValueError shows the weight
    # was refused before any integration, a ResourceGuardError that it
    # passed the check
    ship = shipped_pair()
    x0 = np.array(WeightFunction.default_for_pair(ship).x0)
    W = WeightFunction(tuple(0.05 * x0 / np.linalg.norm(x0)), rho=1.0)
    with pytest.raises(ValueError, match="vertex"):
        tau_infinity(ship.Q2, W, guard=0)
    with pytest.raises(ValueError, match="non-singular"):
        tau_infinity(QuadraticForm.diagonal([1, -1, 0, 2, 1]), W, guard=0)
    for name in ("shipped_n5", "demo_n7", "toy_n3", "toy_n2"):
        pair = load_pair(PAIRS_DIR / f"{name}.pair")
        with pytest.raises(ResourceGuardError):
            tau_infinity(pair.Q2, WeightFunction.default_for_pair(pair), guard=0)


# --------------------------------------------------------------------------
# tau_infinity's ball pass against the box grid it replaces
# --------------------------------------------------------------------------


def box_bump(s2: np.ndarray, y1: np.ndarray, c1: float, rho: float) -> np.ndarray:
    """W along the distinguished coordinate: squared transverse distance s2
    fixed, axis coordinate y1 varying."""
    t = (s2 + (y1 - c1) ** 2) / rho**2
    safe = np.minimum(t, 1.0 - 1e-15)
    return np.where(t < 1.0 - 1e-15, np.exp(-1.0 / (1.0 - safe)), 0.0)


def box_pass(Q2, W, eps_list, G):
    """densities._tau_pass on the transverse box, over the blocks of the
    block iterator (densities._tau_blocks): for each block every midpoint
    of its product of cells is built, b and c are taken on all of them,
    and the rows outside the support ball are dropped after; the number of
    rows kept is returned with the slab values and the coarea estimate."""
    n = Q2.n
    x0 = np.array(W.x0, dtype=float)
    M2 = np.array(Q2.M, dtype=float)
    grad0 = 2.0 * M2 @ x0
    axis = int(np.argmax(np.abs(grad0)))
    rest = [j for j in range(n) if j != axis]
    a0 = float(M2[axis, axis])
    c1 = x0[axis]
    rho = W.rho

    # midpoint rule on the transverse box of half-width rho about x0[rest]
    h = 2.0 * rho / G
    cell = h ** len(rest)
    slab_tot = [0.0 for _ in eps_list]
    co_tot = 0.0
    count = 0
    k = len(rest)
    pts = -rho + h * (np.arange(G) + 0.5)
    for cells, _ in densities._tau_blocks(G, k)[0]:
        yk = quadforms._tuples([pts[a] for a in cells])
        yk += x0[rest]
        # Q2(y1, y') = a y1^2 + b(y') y1 + c(y') in the distinguished coord
        b = 2.0 * yk @ M2[axis, rest]
        c = np.einsum("ij,ij->i", yk @ M2[np.ix_(rest, rest)], yk)
        s2 = ((yk - x0[rest]) ** 2).sum(axis=1)
        inside = s2 < rho**2
        if not inside.any():
            continue
        b, c, s2 = b[inside], c[inside], s2[inside]
        count += len(s2)
        r1 = np.sqrt(rho**2 - s2)
        lo, hi = c1 - r1, c1 + r1
        a = a0
        if a < 0:
            a, b, c = -a, -b, -c

        def weight_integral(left, right):
            left = np.maximum(left, lo)
            right = np.minimum(right, hi)
            half = 0.5 * (right - left)
            live = half > 0
            if not live.any():
                return 0.0
            mid = 0.5 * (left + right)[live]
            hw = half[live]
            t0 = s2[live]
            total = 0.0
            for node, wgt in zip(densities._GL_NODES, densities._GL_WEIGHTS):
                vals = box_bump(t0, mid + hw * node, c1, rho)
                total += float((wgt * hw * vals).sum())
            return total

        if abs(a) > 1e-15:
            for i, eps in enumerate(eps_list):
                # {y1: |q| <= eps} = [R1, R2] minus the open middle (m1, m2)
                disc_out = b * b - 4 * a * (c - eps)
                disc_in = b * b - 4 * a * (c + eps)
                has_out = disc_out > 0
                sq_out = np.sqrt(np.maximum(disc_out, 0.0))
                R1 = np.where(has_out, (-b - sq_out) / (2 * a), 1.0)
                R2 = np.where(has_out, (-b + sq_out) / (2 * a), 0.0)
                has_in = disc_in > 0
                sq_in = np.sqrt(np.maximum(disc_in, 0.0))
                m1 = np.where(has_in, (-b - sq_in) / (2 * a), R2)
                m2 = np.where(has_in, (-b + sq_in) / (2 * a), R2)
                part = weight_integral(R1, np.minimum(R2, m1))
                part += weight_integral(np.maximum(R1, m2), R2)
                slab_tot[i] += part * cell / (2.0 * eps)
            disc = b * b - 4 * a * c
            has = disc > 0
            sq = np.sqrt(np.maximum(disc, 0.0))
            for sgn in (-1.0, 1.0):
                root = (-b + sgn * sq) / (2 * a)
                deriv = np.abs(2 * a * root + b)
                ok = has & (root >= lo) & (root <= hi) & (deriv > 1e-12)
                if ok.any():
                    wv = box_bump(s2[ok], root[ok], c1, rho)
                    co_tot += float((wv / deriv[ok]).sum()) * cell
        else:
            bz = np.abs(b) > 1e-12
            bsafe = np.where(bz, b, 1.0)
            for i, eps in enumerate(eps_list):
                left = (-eps - c) / bsafe
                right = (eps - c) / bsafe
                swap = left > right
                l2 = np.where(swap, right, left)
                r2_ = np.where(swap, left, right)
                # b = 0 points contribute their whole segment iff |c| <= eps
                l2 = np.where(bz, l2, np.where(np.abs(c) <= eps, lo, 1.0))
                r2_ = np.where(bz, r2_, np.where(np.abs(c) <= eps, hi, 0.0))
                slab_tot[i] += weight_integral(l2, r2_) * cell / (2.0 * eps)
            root = np.where(bz, -c / bsafe, lo - 1.0)
            ok = bz & (root >= lo) & (root <= hi)
            wv = np.where(ok, box_bump(s2, root, c1, rho), 0.0)
            co_tot += float((wv / np.abs(bsafe)).sum()) * cell
    return slab_tot, co_tot, count


def _coupled_pair_n4():
    """An n = 4 pair whose Q2 couples the distinguished coordinate of its
    default weight to the others, and the others among themselves."""
    return QuadricPair.build(
        QuadraticForm.from_matrix([[3, -2, -3, 0], [-2, -3, 3, 0],
                                   [-3, 3, 0, 1], [0, 0, 1, 3]]),
        QuadraticForm.from_matrix([[3, -3, 2, 0], [-3, -1, 2, 3],
                                   [2, 2, -2, 1], [0, 3, 1, -3]]))


# pair and the transverse resolutions compared on it
TAU_CASES = {
    "shipped": (shipped_pair, (12, 24)),
    "toy_n3": (toy_pair_3, (12, 24)),
    "toy_n2": (toy_pair_2, (12, 64)),
    "demo_n7": (demo_pair_7, (8, 12)),
    "coupled_n4": (_coupled_pair_n4, (12, 24)),
}


def _signed_move(Q2, W, seed):
    """Q2 and W in the coordinates y_i = s_i x_perm(i); seed 0 is the
    identity."""
    n = Q2.n
    perm, signs = list(range(n)), [1] * n
    if seed:
        rng = random.Random(seed)
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
    Q2 = QuadraticForm.from_matrix(
        [[signs[i] * signs[j] * Q2.M[perm[i]][perm[j]] for j in range(n)]
         for i in range(n)])
    return Q2, WeightFunction(tuple(s * W.x0[i] for i, s in zip(perm, signs)), W.rho)


def _tau_case(name, seed=0):
    pair = TAU_CASES[name][0]()
    Q2, W = _signed_move(pair.Q2, WeightFunction.default_for_pair(pair), seed)
    grad0 = 2.0 * np.array(Q2.M, dtype=float) @ np.array(W.x0)
    scale = W.rho * float(np.sqrt(grad0 @ grad0))
    return Q2, W, tuple(f * scale for f in (0.2, 0.1, 0.05, 0.025))


def primitive_star(pair, p, k):
    """[Ntilde*_k(0), ..., Ntilde*_k(k)] as sigma_p reads them, off one
    Gauss-sum table of the prime (padic._primitive_counts)."""
    return padic._primitive_counts(_GaussTable(pair, p).counts, [(k, e, k) for e in range(k + 1)])


def tau_charge(G, k):
    """tau_infinity's guard charge of its pass at G on k transverse
    coordinates: 9 for each row of the blocks that _tau_blocks lists."""
    return 9 * sum(math.prod(len(a) for a in axes) for axes, _ in densities._tau_blocks(G, k)[0])


def tau_pass(Q2, W, eps_list, G):
    """densities._tau_pass at G over the blocks that _tau_blocks lists."""
    return densities._tau_pass(Q2, W, eps_list, G, *densities._tau_blocks(G, Q2.n - 1))


def _tau_axis(name):
    """Q2's matrix and the coordinate _tau_pass integrates exactly."""
    Q2, W, _ = _tau_case(name)
    M2 = np.array(Q2.M, dtype=float)
    axis = int(np.argmax(np.abs(2.0 * M2 @ np.array(W.x0))))
    return M2, axis, [j for j in range(Q2.n) if j != axis]


def test_tau_cases_cover_both_branches_and_coupling():
    M2, axis, rest = _tau_axis("toy_n2")
    assert M2[axis, axis] == 0  # the a = 0 branch of _tau_pass
    M2, axis, rest = _tau_axis("coupled_n4")
    block = M2[np.ix_(rest, rest)]
    assert np.count_nonzero(block - np.diag(np.diag(block))) > 0
    assert np.count_nonzero(M2[axis, rest]) == len(rest)


@pytest.mark.parametrize("seed", [0, 3, 8])
@pytest.mark.parametrize("name", sorted(TAU_CASES))
def test_ball_pass_matches_box_pass(name, seed):
    Q2, W, eps_list = _tau_case(name, seed)
    for G in TAU_CASES[name][1]:
        slabs, coarea, rows = tau_pass(Q2, W, eps_list, G)
        box_slabs, box_coarea, box_rows = box_pass(Q2, W, eps_list, G)
        assert slabs == box_slabs, (G, slabs, box_slabs)
        assert coarea == box_coarea, (G, coarea, box_coarea)
        assert rows == box_rows > 0


@pytest.mark.parametrize("name", ["shipped", "toy_n3", "toy_n2", "demo_n7"])
def test_tau_charge_bounds_the_rows_built(name):
    # the rows of the blocks _tau_blocks lists, each summed once,
    # and the rows in the ball, each integrated at 8 nodes, at the first
    # two passes of tau_infinity
    Q2, W, eps_list = _tau_case(name)
    k = Q2.n - 1
    for G in (12, densities._next_grid(12)):
        blocks, budget = densities._tau_blocks(G, k)
        charge = tau_charge(G, k)
        rows = densities._tau_pass(Q2, W, eps_list, G, blocks, budget)[2]
        handed = sum(math.prod(len(a) for a in axes) for axes, _ in blocks)
        assert 0 < rows <= handed <= G**k
        assert handed + 8 * rows <= charge


def test_tau_pass_memory_is_one_block():
    # shipped at G = 18 integrates 32,470 rows of the 69,936 in its blocks;
    # a block of at most _STREAM_ROWS of them, and its temporaries, are
    # alive at a time
    Q2, W, eps_list = _tau_case("shipped")
    tau_pass(Q2, W, eps_list, 12)
    tracemalloc.start()
    try:
        rows = tau_pass(Q2, W, eps_list, 18)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tau_charge(18, Q2.n - 1) // 9 > 2 * counting._STREAM_ROWS
    assert rows > counting._STREAM_ROWS
    assert peak < 3_000_000


def test_tau_charge_admits_demo_n7():
    # the passes at G = 12 and 18 that tau_infinity runs, and the next
    # rung, charged without being run; a charge of 8 for every midpoint of
    # the transverse box would refuse that rung
    k = demo_pair_7().n - 1
    G1 = densities._next_grid(12)
    G2 = densities._next_grid(G1)
    assert tau_charge(12, k) <= tau_charge(G1, k) <= DEFAULT_GUARD
    assert tau_charge(G2, k) <= DEFAULT_GUARD
    assert G2**k * 8 > DEFAULT_GUARD


def test_tau_infinity_demo_n7_stops_at_18():
    pair = demo_pair_7()
    tau = tau_infinity(pair.Q2, WeightFunction.default_for_pair(pair), guard=DEFAULT_GUARD)
    assert tau.axis_points == 18
    assert tau.guard_charge == tau_charge(12, 6) + tau_charge(18, 6)


@pytest.mark.parametrize("name", ["shipped", "toy_n3", "toy_n2", "coupled_n4"])
def test_tau_stop_rule_is_honest(name):
    # one pass past the resolution tau_infinity stopped at moves neither
    # estimate by the stop rule's 2e-4
    Q2, W, eps_list = _tau_case(name)
    tau = tau_infinity(Q2, W)
    slabs, coarea, _ = tau_pass(Q2, W, eps_list, densities._next_grid(tau.axis_points))
    slab = densities._extrapolate(np.array(eps_list), np.array(slabs))
    assert abs(slab - tau.slab) < 2e-4 * abs(slab)
    assert abs(coarea - tau.coarea) < 2e-4 * abs(coarea)


def test_tau_infinity_reports_rows_and_charge():
    Q2, W, eps_list = _tau_case("shipped")
    tau = tau_infinity(Q2, W)
    grids = [12]
    while grids[-1] < tau.axis_points:
        grids.append(densities._next_grid(grids[-1]))
    assert grids[-1] == tau.axis_points
    assert tau.grid_rows == sum(box_pass(Q2, W, eps_list, G)[2] for G in grids)
    assert tau.guard_charge == sum(tau_charge(G, Q2.n - 1) for G in grids)
    # the guard is checked pass by pass: the finest pass alone trips it
    with pytest.raises(ResourceGuardError):
        tau_infinity(Q2, W, guard=tau_charge(grids[-1], Q2.n - 1) - 1)


#: (axis_points, guard_charge) of tau_infinity on the TAU_CASES: 9 for
#: each row of the blocks of each pass, up to the one it stops at
TAU_CHARGES = {"shipped": (18, 816048), "toy_n3": (27, 10773), "toy_n2": (40, 873),
               "demo_n7": (18, 69507360), "coupled_n4": (27, 245187)}


@pytest.mark.parametrize("name", sorted(TAU_CASES))
def test_tau_infinity_walks_each_pass_once(monkeypatch, name):
    # tau_infinity lists a pass's blocks in one walk of the block iterator,
    # charges the guard off that list and integrates the same list
    Q2, W, _ = _tau_case(name)
    walks = []
    real = densities.grid_block_axes

    def spy(axes, *args):
        walks.append(len(axes[0]))
        return real(axes, *args)

    monkeypatch.setattr(densities, "grid_block_axes", spy)
    tau = tau_infinity(Q2, W)
    grids = [12]
    while grids[-1] < tau.axis_points:
        grids.append(densities._next_grid(grids[-1]))
    assert walks == grids
    assert (tau.axis_points, tau.guard_charge) == TAU_CHARGES[name]
    monkeypatch.undo()
    assert tau.guard_charge == sum(tau_charge(G, Q2.n - 1) for G in grids)


def test_experiment_result_csv_shape():
    rows = ((8.0, 1.5, 0.1, 0.2, 0.5),)
    res = ExperimentResult.__new__(ExperimentResult)
    object.__setattr__(res, "report", None)
    object.__setattr__(res, "rows", rows)
    text = res.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "B,S_B,S_over_Bn2,c_trunc,ratio"
    assert lines[1].startswith("8,1.5,0.1,0.2,0.5")


def test_guard_paths():
    # sigma_p at a prime the guard cannot afford must raise, not truncate
    pair = QuadricPair.build(
        QuadraticForm.diagonal([1, 1, 2]), QuadraticForm.diagonal([1, 5, -7])
    )
    with pytest.raises(ResourceGuardError):
        sigma_p(pair, 13, guard=10**2)


# --------------------------------------------------------------------------
# the closed-form routes against the sweeps they replace
# --------------------------------------------------------------------------


def _seeded_pair_n4(seed, zero_diagonal):
    """A non-diagonal n = 4 pair with det2 != 0 and disc_P != 0; with
    zero_diagonal, both matrices have M[0][0] = 0."""
    rng = random.Random(seed)
    while True:
        mats = []
        for _ in range(2):
            m = [[0] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i, 4):
                    m[i][j] = m[j][i] = rng.randint(-3, 3)
            if zero_diagonal:
                m[0][0] = 0
            mats.append(m)
        Q1, Q2 = (QuadraticForm.from_matrix(m) for m in mats)
        try:
            pair = QuadricPair.build(Q1, Q2)
        except ValueError:  # singular Q2
            continue
        off_diagonal = [np.array(Q.M)[~np.eye(4, dtype=bool)].any() for Q in (Q1, Q2)]
        if pair.disc_P != 0 and all(off_diagonal):
            return pair


ORACLE_PAIRS = {
    "shipped": shipped_pair,
    "toy_n3": toy_pair_3,
    "demo_n7": demo_pair_7,
    "seeded_n4": lambda: _seeded_pair_n4(1, False),
    "seeded_n4_zero_diag": lambda: _seeded_pair_n4(2, True),
}


def _odd_primes(lo, hi):
    return [p for p in range(lo, hi + 1) if p > 2 and is_prime(p)]


def _sigma2_sweep(pair, k):
    """_sigma2_fraction by the sweep over all 2^(kn) residues."""
    n = pair.n
    q = 2**k
    count = 0
    for block in grid_blocks([np.arange(q, dtype=np.int64)] * n):
        good1 = pair.Q1.eval_batch_mod(block % 4, 4) == 1
        good2 = pair.Q2.eval_batch_mod(block, q) == 0
        count += int((good1 & good2).sum())
    return Fraction(2 * count, 2 ** (k * (n - 1)))


def _sigma2_half_depth(pair, k):
    """_sigma2_fraction by enumerating the classes x0 mod 2^j only, with
    j = min(k, max(2, ceil(k/2))), and sizing the fiber over each by one
    linear congruence.

    Q1(x0 + 2^j t) = Q1(x0) mod 4, and since 2j >= k,
    Q2(x0 + 2^j t) = Q2(x0) + 2^(j+1) (M2 x0).t mod 2^k.  So, with
    m = max(k - j - 1, 0), each x0 with 2^(k-m) | Q2(x0) contributes the
    t mod 2^(k-j) solving one linear congruence mod 2^m, which number
    2^((k-j-m) n + m(n-1)) g when g = gcd(M2 x0, 2^m) divides its
    right-hand side.
    """
    n = pair.n
    j = min(k, max(2, (k + 1) // 2))
    m = max(k - j - 1, 0)
    mod = 2**m
    M2 = np.array(pair.Q2.M, dtype=np.int64)
    count = 0
    for x0 in grid_blocks([np.arange(2**j, dtype=np.int64)] * n):
        q2 = pair.Q2.eval_batch(x0)
        live = (pair.Q1.eval_batch_mod(x0 % 4, 4) == 1) & (q2 % 2 ** (k - m) == 0)
        g = np.gcd.reduce((x0[live] @ M2) % mod, axis=1, initial=mod)
        rhs = (-(q2[live] // 2 ** (k - m))) % mod
        count += int(g[rhs % g == 0].sum())
    count *= 2 ** ((k - j - m) * n + m * (n - 1))
    return Fraction(2 * count, 2 ** (k * (n - 1)))


def _gauss_sums_by_enumeration(m, p, R):
    """[G_{p^R}(lambda M) for lambda = 1, ..., p - 1], summed over the grid
    as floats (one histogram of x^T M x mod p^R serves every lambda)."""
    q = p**R
    grid = residue_grid(q, len(m))
    M = np.array(m, dtype=np.int64)
    hist = np.bincount((((grid @ M) % q) * grid).sum(axis=1) % q, minlength=q)
    v = np.arange(q)
    return [complex((hist * np.exp(2j * np.pi * lam * v / q)).sum())
            for lam in range(1, p)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_single_form_gauss_sum_vs_enumeration(p):
    # low-rank forms B^T D B, some with zero diagonal entries, so that the
    # pivot is not the leading entry or lies off the diagonal
    rng = random.Random(p)
    for trial in range(25):
        n = rng.randrange(1, 5)
        k = rng.randrange(0, n + 1)
        B = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(k)]
        D = [rng.randrange(-3, 4) for _ in range(k)]
        m = [[sum(B[t][i] * D[t] * B[t][j] for t in range(k)) for j in range(n)]
             for i in range(n)]
        if trial % 3 == 0:
            m[0][0] = 0
        for R in (1, 2):
            if p ** (R * n) > 10**6:
                continue
            got = jordan_gauss_sum(m, p, R)
            sums = _gauss_sums_by_enumeration(m, p, R)
            scale = p ** (R * n)
            # the sum over the unit multiples is (p - 1) G when G is an
            # integer and 0 otherwise, which is what jordan_gauss_sum returns
            assert abs(sum(sums) - (p - 1) * got) < 1e-6 * scale, (m, R)
            if got:
                assert abs(sums[0] - got) < 1e-6 * scale, (m, R)
            else:
                assert abs(sums[0].real) > 0.5 or abs(sums[0].imag) > 0.5, (m, R)


def _zero_counts_sweep(pair, p):
    """(#{Q2 = 0}, #{Q1 = Q2 = 0}) over F_p^n, Q1 evaluated only where
    Q2 vanishes."""
    n2 = n12 = 0
    for block in grid_blocks([np.arange(p, dtype=np.int64)] * pair.n):
        zeros2 = block[pair.Q2.eval_batch_mod(block, p) == 0]
        n2 += len(zeros2)
        n12 += int((pair.Q1.eval_batch_mod(zeros2, p) == 0).sum())
    return n2, n12


@pytest.mark.parametrize("name", sorted(ORACLE_PAIRS))
def test_pencil_counts_match_sweeps(name):
    pair = ORACLE_PAIRS[name]()
    for p in _odd_primes(3, 13):
        counts = (count_congruence_pair(pair, p, 1, 0, 1),
                  count_congruence_pair(pair, p, 1, 1, 1))
        assert counts == _zero_counts_sweep(pair, p), (name, p)
        if p**pair.n <= 10**7:  # the package's own sweep, where it is cheap
            assert counts[1] == len(residue_zeros_mod_p(pair, p)), (name, p)


@pytest.mark.parametrize("name", ["shipped", "toy_n3", "seeded_n4",
                                  "seeded_n4_zero_diag"])
def test_hensel_local_data_matches_sweep(name):
    # demo_n7 is left out: every odd prime up to 23 divides its det2 disc_P
    pair = ORACLE_PAIRS[name]()
    good = [p for p in _odd_primes(3, 23)
            if quadforms._pencil_roots_distinct_mod_p(pair, p)]
    assert good
    for p in good:
        # depth 2 lifted by Hensel from depth 1 against the Gauss-sum count
        # at depth 2, and both depths against digit lifting where that is
        # quick
        depth1 = primitive_star(pair, p, 1)
        hensel = densities._hensel_lift(pair.n, p, depth1)
        assert hensel == primitive_star(pair, p, 2), (name, p)
        inner = count_congruence_pair(pair, p, 1, 0, 0)
        assert hensel == [count_congruence_pair(pair, p, 2, e, 2) - inner
                          for e in range(3)], (name, p)
        if p**pair.n <= 10**6:
            for k, got in ((1, depth1), (2, hensel)):
                # at k <= 2 every imprimitive x = p y counts: p^(n(k-1)) of them
                inner = _lift_count(pair, p, k - 1, 0, 0)
                assert got == [_lift_count(pair, p, k, e, k) - inner
                               for e in range(k + 1)], (name, p, k)


def test_good_primes_do_not_sweep(monkeypatch):
    pair = QuadricPair.build(
        QuadraticForm.diagonal([1, 1, 1, 1]), QuadraticForm.diagonal([1, 2, -3, 5])
    )

    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran at a good prime")

    monkeypatch.setattr(quadforms, "residue_zeros_mod_p", no_sweep)
    monkeypatch.setattr(quadforms, "_pencil_rank_ok_mod_p", no_sweep)
    monkeypatch.setattr(quadforms, "_smooth_intersection_mod_p", no_sweep)
    monkeypatch.setattr(padic, "_lift_count", no_sweep)
    eliminations = []
    jordan = padic.jordan_gauss_sum
    monkeypatch.setattr(padic, "jordan_gauss_sum",
                        lambda *args: eliminations.append(args) or jordan(*args))
    for p in (11, 13, 101):
        assert certified_good(pair, p)
        del eliminations[:]
        assert sigma_p(pair, p).converged
        # the pencil polynomial gives G except at its at most n roots mod p;
        # depth 1 is counted once and depth 2 lifted from it
        assert len(eliminations) <= pair.n, p


SINGULAR_PAIRS = {
    # det(b1 M1 + b2 M2) = -(b1 + b2)^2 (b1 + 2 b2); rank 1 at b1 = -b2
    "repeated_root": lambda: QuadricPair.build(
        QuadraticForm.diagonal([1, -1, 1]), QuadraticForm.diagonal([1, -1, 2])),
    # det(b1 M1 + b2 M2) = -b2^2 (b1 + 2 b2); rank 2 everywhere, singular
    # common zero (0, 1, 0)
    "good_pencil_rank": lambda: QuadricPair.build(
        QuadraticForm.from_matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]]),
        QuadraticForm.from_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 2]])),
    # rank 1 at b2 = 0; no nonzero common zero when p = 3 mod 4
    "low_pencil_rank": lambda: QuadricPair.build(
        QuadraticForm.diagonal([1, 0, 0]), QuadraticForm.diagonal([1, 1, 1])),
}


@pytest.mark.parametrize("name", ["shipped", "toy_n3", "seeded_n4",
                                  *SINGULAR_PAIRS])
def test_certified_good_agrees_with_bad_primes(name):
    pair = {**ORACLE_PAIRS, **SINGULAR_PAIRS}[name]()
    good = quadforms.certified_good_primes(pair, 23)
    for p in range(2, 24):
        assert certified_good(pair, p) == (p in good), (name, p)


def test_sigma_p_at_101_fits_default_guard():
    s = sigma_p(shipped_pair(), 101, k_max=2, guard=DEFAULT_GUARD)
    assert s.converged and s.k_used == 2


def test_singular_constant_to_p_max_1000():
    # 101^5 > 1e9 made the sweep route refuse every prime past 61
    ship = shipped_pair()
    report = singular_constant(ship, WeightFunction.default_for_pair(ship),
                               p_max=1000, guard=DEFAULT_GUARD)
    assert len(report.primes) == 167 and report.primes[-1].p == 997
    assert all(s.converged for s in report.primes)


@pytest.mark.parametrize("name,k_max", [("toy_n2", 5), ("toy_n3", 5),
                                        ("shipped", 5), ("demo_n7", 3)])
def test_sigma2_fraction_matches_sweep(name, k_max):
    pair = {"toy_n2": toy_pair_2, "toy_n3": toy_pair_3,
            "shipped": shipped_pair, "demo_n7": demo_pair_7}[name]()
    for k in range(1, k_max + 1):
        assert _sigma2_fraction(pair, k) == _sigma2_sweep(pair, k), (name, k)


@pytest.mark.parametrize("name,k", [("shipped", 6), ("shipped", 7),
                                    ("demo_n7", 4), ("demo_n7", 5)])
def test_sigma2_fraction_matches_half_depth_enumeration(name, k):
    # the second route where the full sweep is too slow
    pair = {"shipped": shipped_pair, "demo_n7": demo_pair_7}[name]()
    assert _sigma2_fraction(pair, k) == _sigma2_half_depth(pair, k)


def test_sigma_2_solves_each_distinct_linear_system_once(monkeypatch):
    # one count_lincong call per distinct system, not per class: at
    # k_max = 5 on demo_n7, 24 calls where one per class would be 49,152
    calls = []
    solve = padic.count_lincong

    def record(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(padic, "count_lincong", record)
    assert sigma_2(demo_pair_7(), k_max=5).fraction == Fraction(3, 8)
    assert 0 < len(calls) <= 48


def test_singular_pair_skips_hensel():
    # det(b1 M1 + b2 M2) = -(b1 + b2)^2 (b1 + 2 b2): a repeated root, and
    # (1, 1, 0) is a singular common zero mod every p
    pair = QuadricPair.build(
        QuadraticForm.diagonal([1, -1, 1]), QuadraticForm.diagonal([1, -1, 2])
    )
    assert pair.disc_P == 0 and pair.bad_primes == (2,)
    differs = False
    for p in (3, 11, 13):
        assert not certified_good(pair, p)
        assert not quadforms._pencil_roots_distinct_mod_p(pair, p)
        # depth-2 primitive counts straight from the definition
        q = p * p
        grid = residue_grid(q, 3)
        grid = grid[(grid % p != 0).any(axis=1)]
        v1 = pair.Q1.eval_batch_mod(grid, q)
        v2 = pair.Q2.eval_batch_mod(grid, q)
        deep2 = v2 == 0
        star2 = [int((deep2 & (v1 % p**e == 0)).sum()) for e in range(3)]
        assert primitive_star(pair, p, 2) == star2, p
        got = sigma_p(pair, p)
        want = densities._stabilized_sigma(pair, p, star2)
        assert got.k_used == 2 and got.fraction == want, p
        differs |= densities._hensel_lift(
            pair.n, p, primitive_star(pair, p, 1)) != star2
    # Hensel lifting would have been wrong here
    assert differs


@pytest.mark.parametrize("name", ["shipped", "toy_n3", "seeded_n4",
                                  "seeded_n4_zero_diag"])
def test_lift_count_targets_match_sweep(name):
    # #{x mod p^R : Q1(x) = t1 mod p^r1, p^r2 | Q2(x)} for every t1, r1 and
    # r2, so both the shifted Q1 and the per-system linear step are held to
    # the definition, at p = 2 as well as at an odd prime
    pair = ORACLE_PAIRS[name]()
    cases = 0
    for p in (2, 3):
        for R in range(1, 4):
            if p ** (R * pair.n) > 2**21:
                continue
            grid = residue_grid(p**R, pair.n)
            q1 = pair.Q1.eval_batch_mod(grid, p**R)
            q2 = pair.Q2.eval_batch_mod(grid, p**R)
            for r2 in range(R + 1):
                deep2 = q2 % p**r2 == 0
                for r1 in range(R + 1):
                    want = np.bincount(q1[deep2] % p**r1, minlength=p**r1)
                    for t1 in range(p**r1):
                        got = _lift_count(pair, p, R, r1, r2, t1=t1)
                        assert got == want[t1], (name, p, R, r1, r2, t1)
                        cases += 1
    assert cases >= 100


# --------------------------------------------------------------------------
# the Gauss-sum count at every odd prime
# --------------------------------------------------------------------------


# (R, r1, r2) up to depth 3, as deep as _lift_count, the digit-lifting
# oracle, goes in a few seconds per pair; the depth-1 counts
# past that are checked against the sweep in test_pencil_counts_match_sweeps
def _gauss_count_cases(pair, p):
    size = p**pair.n
    depth = 3 if size <= 2 * 10**4 else 2 if size <= 10**5 else 1 if size <= 10**6 else 0
    return [(R, r1, r2) for R in range(1, depth + 1)
            for r1 in range(R + 1) for r2 in range(R + 1)]


@pytest.mark.parametrize("name", [*sorted(ORACLE_PAIRS), *SINGULAR_PAIRS, "toy_n2"])
def test_gauss_count_matches_count_congruence_pair(name):
    # toy_n2 has n = 2 mod 4, where (-1/p)^(n/2) enters the unit blocks
    pair = {**ORACLE_PAIRS, **SINGULAR_PAIRS, "toy_n2": toy_pair_2}[name]()
    for p in _odd_primes(3, 13):
        for R, r1, r2 in _gauss_count_cases(pair, p):
            assert (count_congruence_pair(pair, p, R, r1, r2)
                    == _lift_count(pair, p, R, r1, r2)), (name, p, R, r1, r2)


def _val(y, p, c):
    """v_p(y mod p^c), c at 0."""
    v = 0
    while v < c and y % p ** (v + 1) == 0:
        v += 1
    return v


def _reads(p, c, r1, r2):
    """The primitive members (a, b) of level c, (1, x) then (x, 1) with
    p | x, each with whether the count with targets r1, r2 reads it: those
    with v(a) >= c - r1 and v(b) >= c - r2."""
    members = [(1, x) for x in range(p**c)] + [(x, 1) for x in range(0, p**c, p)]
    return [((a, b), _val(a, p, c) >= c - r1 and _val(b, p, c) >= c - r2)
            for a, b in members]


def test_orbits_partition_the_pairs():
    # the primitive members of level c, scaled by p^(R - c), are one
    # representative of each unit orbit of (Z/p^R)^2 minus (0, 0), of
    # (p - 1) p^(c - 1) pairs each; a count (R, r1, r2) reads the orbits of
    # its (a p^(R - r1), b p^(R - r2)), (a, b) in Z/p^r1 x Z/p^r2, and
    # _thresholds names exactly those members
    for p in (3, 5):
        for R in range(1, 4):
            vals = {c: [_val(y, p, c) for y in range(p**c)] for c in range(1, R + 1)}
            for c, v in vals.items():
                assert padic._valuations(np.arange(p**c), p, c).tolist() == v
                for lo in range(c + 1):
                    for hi in range(lo + 1, c + 2):
                        # the members a shell adds, and the guard's charge for them
                        x = padic._shell(p, c, lo, hi).tolist()
                        assert x == [y for y in range(p**c) if lo <= v[y] < hi]
                        assert padic._shell_size(p, c, lo, hi) == len(x)
            for r1 in range(R + 1):
                for r2 in range(R + 1):
                    sizes = []
                    for c in range(1, R + 1):
                        reads = _reads(p, c, r1, r2)
                        sizes.append((p - 1) * p ** (c - 1) * sum(r for _, r in reads))
                        v = vals[c]
                        lo = padic._thresholds(c, r1, r2)
                        named = ({(1, x) for x in range(p**c) if v[x] >= lo[0]}
                                 | {(x, 1) for x in range(0, p**c, p) if v[x] >= lo[1]})
                        assert named == {ab for ab, r in reads if r}, (p, c, r1, r2)
                    assert 1 + sum(sizes) == p ** (r1 + r2), (p, R, r1, r2)
            if p ** (2 * R) > 625:
                continue
            # every (A, B) lies in the orbit of exactly one scaled member,
            # and the orbits read are exactly the pairs of each target
            q = p**R
            seen = {}
            for c in range(1, R + 1):
                for (x, y), _ in _reads(p, c, 0, 0):
                    orbit = {(lam * x * p ** (R - c) % q, lam * y * p ** (R - c) % q)
                             for lam in range(1, q) if lam % p}
                    assert len(orbit) == (p - 1) * p ** (c - 1)
                    assert not orbit & seen.keys()
                    seen.update(dict.fromkeys(orbit, (c, x, y)))
            assert len(seen) + 1 == q * q
            for r1 in range(R + 1):
                for r2 in range(R + 1):
                    want = {(A, B) for A in range(0, q, p ** (R - r1))
                            for B in range(0, q, p ** (R - r2))} - {(0, 0)}
                    read = {(c, ab) for c in range(1, R + 1)
                            for ab, r in _reads(p, c, r1, r2) if r}
                    got = {AB for AB, (c, x, y) in seen.items() if (c, (x, y)) in read}
                    assert got == want, (p, R, r1, r2)


DEMO_N7_SIGMA = {
    3: Fraction(400, 363),
    5: Fraction(15152964, 15249025),
    7: Fraction(2752, 2801),
    11: Fraction(15984, 16105),
    13: Fraction(12377575420, 12445491253),
    17: Fraction(134361861268, 133874406377),
    19: Fraction(137884, 137561),
    23: Fraction(293136, 292561),
}


def test_demo_n7_bad_primes_converge():
    # every odd prime up to 23 divides det2 * disc_P of the n = 7 pair
    pair = demo_pair_7()
    for p in _odd_primes(3, 23):
        s = sigma_p(pair, p, k_max=5, guard=DEFAULT_GUARD)
        assert s.converged and s.fraction == DEMO_N7_SIGMA[p], p


def test_guard_estimate_covers_eliminations(monkeypatch):
    calls = []  # [estimate, eliminations run after it]
    check, jordan = padic.check_guard, padic.jordan_gauss_sum

    def record_check(op, estimate, guard):
        calls.append([estimate, 0])
        return check(op, estimate, guard)

    def record_jordan(*args):
        calls[-1][1] += 1
        return jordan(*args)

    monkeypatch.setattr(padic, "check_guard", record_check)
    monkeypatch.setattr(padic, "jordan_gauss_sum", record_jordan)
    for pair, primes in ((shipped_pair(), (3, 5, 7, 11)),
                         (demo_pair_7(), (3, 7, 13)),
                         (SINGULAR_PAIRS["good_pencil_rank"](), (3, 5))):
        for p in primes:
            del calls[:]
            sigma_p(pair, p, k_max=4)
            assert calls and sum(c[1] for c in calls) > 0, p
            for estimate, eliminations in calls:
                assert estimate >= pair.n**3 * eliminations, (p, calls)


def test_sigma_p_eliminates_each_member_once(monkeypatch):
    # one Gauss-sum table per call: every depth and target reads the level
    # sums, so no (member, p, level) is Jordan-decomposed twice
    calls = []
    jordan = padic.jordan_gauss_sum

    def record(matrix, p, r):
        calls.append((tuple(map(tuple, matrix)), p, r))
        return jordan(matrix, p, r)

    monkeypatch.setattr(padic, "jordan_gauss_sum", record)
    for pair, p in ((shipped_pair(), 3), (shipped_pair(), 5), (demo_pair_7(), 7)):
        del calls[:]
        sigma_p(pair, p, k_max=5)
        assert calls and len(set(calls)) == len(calls), (pair.n, p)


@pytest.mark.parametrize("name", ["shipped", "toy_n3"])
def test_count_charge_covers_members(monkeypatch, name):
    # a count evaluates each member it reads once, closed form or Jordan,
    # none that it does not read, and is charged n^3 for each beforehand
    pair = ORACLE_PAIRS[name]()
    charged, members = [], []
    check, shell = padic.check_guard, padic._shell

    def record_check(op, estimate, guard):
        charged.append(estimate)
        return check(op, estimate, guard)

    def record_shell(*args):
        x = shell(*args)
        members.append(len(x))
        return x

    monkeypatch.setattr(padic, "check_guard", record_check)
    monkeypatch.setattr(padic, "_shell", record_shell)
    for p in (3, 5):
        for R in range(1, 4):
            for r1 in range(R + 1):
                for r2 in range(R + 1):
                    del charged[:], members[:]
                    count_congruence_pair(pair, p, R, r1, r2)
                    reads = sum(r for c in range(1, max(r1, r2) + 1)
                                for _, r in _reads(p, c, r1, r2))
                    assert sum(members) == reads, (p, R, r1, r2)
                    assert reads <= sum(charged) // pair.n**3, (p, R, r1, r2)


def test_sigma_p_never_calls_count_congruence_pair(monkeypatch):
    def no_digit_lifting(*args, **kwargs):
        raise AssertionError("sigma_p ran digit lifting")

    monkeypatch.setattr(padic, "_lift_count", no_digit_lifting)
    for pair, primes in ((shipped_pair(), (3, 5, 7, 11)),
                         (demo_pair_7(), (3, 5)),
                         (SINGULAR_PAIRS["repeated_root"](), (3, 5))):
        for p in primes:
            sigma_p(pair, p, k_max=4)


def test_sigma_p_truncated_reaches_demo_n7(monkeypatch):
    # each count is one Gauss-sum count, so the raw truncation at depth 3 on
    # the n = 7 pair needs no digit lifting (which gives the same fraction
    # in about two minutes); it approaches the limit from below
    def no_digit_lifting(*args, **kwargs):
        raise AssertionError("the truncation ran digit lifting")

    monkeypatch.setattr(padic, "_lift_count", no_digit_lifting)
    trunc = sigma_p_truncated(demo_pair_7(), 7, 3, guard=DEFAULT_GUARD)
    assert trunc == Fraction(39628800, 40353607)
    assert 0 < DEMO_N7_SIGMA[7] - trunc < Fraction(1, 1000)


def test_gauss_legendre_literals_are_leggauss():
    # tau's 8-point rule is held as literals, numpy's own rule to the last bit
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert densities._GL_NODES.tobytes() == nodes.tobytes()
    assert densities._GL_WEIGHTS.tobytes() == weights.tobytes()
