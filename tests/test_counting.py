import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from arith_oracles import r2_chi_divisor_sum

from quadpair import counting, quadforms
from quadpair.counting import (
    BoxSpec,
    N_d,
    S_of_B,
    WeightFunction,
    enumerate_zeros,
    s_of_b_rows,
)
from quadpair.guard import ResourceGuardError
from quadpair.modarith import r2
from quadpair.pairs import shipped_pair, toy_pair_2, toy_pair_3
from quadpair.quadforms import (
    QuadraticForm,
    QuadricPair,
    grid_blocks,
    load_pair,
    residue_grid,
)

PAIRS_DIR = Path(__file__).resolve().parent.parent / "pairs"


def brute_zeros(Q2, B):
    n = Q2.n
    side = 2 * B + 1
    grid = residue_grid(side, n) - B
    pts = grid[Q2.eval_batch(grid) == 0]
    return sorted(map(tuple, pts))


def brute_box_zeros(Q2, lo, hi):
    """Zeros of Q2 with lo_i <= x_i <= hi_i, point by point."""
    return [x for x in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
            if Q2.eval(x) == 0]


def signed_move(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(n)]


def move_form(F, move):
    """The form F' with F'(y) = F(x) for y_i = s_i x_perm(i)."""
    perm, signs = move
    n = len(perm)
    return QuadraticForm.from_matrix(
        [[signs[i] * signs[j] * F.M[perm[i]][perm[j]] for j in range(n)]
         for i in range(n)])


def move_weight(W, move):
    perm, signs = move
    return WeightFunction(tuple(s * W.x0[i] for i, s in zip(perm, signs)), W.rho)


def full_slab_scan(Q2, T):
    """The box |x| <= T scanned slab by slab, Q2 evaluated on every row."""
    n = Q2.n
    axis = np.arange(-T, T + 1, dtype=np.int64)
    found = []
    for x1 in axis:
        for rest in grid_blocks([axis] * (n - 1)):
            block = np.insert(rest, 0, x1, axis=1)
            found.append(block[Q2.eval_batch(block) == 0])
    rows = np.vstack(found)
    return rows[np.lexsort(rows.T[::-1])]


def by_route(route, Q, box, guard=10**9):
    """The zeros of Q in the box by one private route of counting (_mitm,
    the join, or _scan, the solved scan), its blocks stacked."""
    lo, hi = counting._bounds(box, Q.n)
    return np.vstack(list(route(Q, lo, hi, guard)))


def N_d_by_listing(pair, d, box):
    """N_d by listing the zeros of Q2 in the box and testing d | Q1."""
    zeros = enumerate_zeros(pair.Q2, box, guard=10**9)
    return int((pair.Q1.eval_batch(zeros) % d == 0).sum())


def S_of_B_listed(pair, W, B, box=None):
    """S(B) from the full list of zeros of Q2 in a box, filtered and
    weighted afterwards, r2 from modarith.r2 per value, the terms summed
    exactly rounded (math.fsum); the box is given, or by default the cube
    |x| <= B (max |x0_i| + rho) + 1."""
    if box is None:
        reach = max(abs(v) for v in W.x0) + W.rho
        box = int(math.floor(B * reach + 1e-9)) + 1
    zeros = enumerate_zeros(pair.Q2, box)
    q1 = pair.Q1.eval_batch(zeros)
    keep = (q1 > 0) & (q1 % 2 == 1)
    pts, vals = zeros[keep], q1[keep]
    w = W.eval_batch(pts / B)
    live = w > 0
    if not live.any():
        return 0.0
    uniq, inverse = np.unique(vals[live], return_inverse=True)
    r2_table = np.array([r2(int(v)) for v in uniq], dtype=float)
    return math.fsum((r2_table[inverse] * w[live]).tolist())


def test_hyperbola_thirteen_points():
    Q = QuadraticForm.diagonal([1, -1])
    pts = enumerate_zeros(Q, 3)
    assert len(pts) == 13
    tups = set(map(tuple, pts))
    assert (0, 0) in tups
    assert all((-x, -y) in tups for x, y in tups)


@pytest.mark.parametrize("B", [1, 4, 8])
def test_enumeration_matches_full_scan(B):
    # the join needs uncoupled halves; coupled forms take the scan
    for Q in (toy_pair_3().Q2, shipped_pair().Q2):
        mitm = [tuple(p) for p in by_route(counting._mitm, Q, B)]
        scan = [tuple(p) for p in by_route(counting._scan, Q, B)]
        assert mitm == scan == brute_zeros(Q, B), (Q.M, B)
        assert [tuple(p) for p in enumerate_zeros(Q, B)] == mitm
    for Q in (
        toy_pair_2().Q2,
        QuadraticForm.from_matrix([[1, 1, 0], [1, -2, 1], [0, 1, 1]]),
    ):
        got = [tuple(p) for p in enumerate_zeros(Q, B)]
        assert got == [tuple(p) for p in by_route(counting._scan, Q, B)]
        assert got == brute_zeros(Q, B), (Q.M, B)


def test_guard_on_huge_box():
    with pytest.raises(ResourceGuardError):
        enumerate_zeros(shipped_pair().Q2, 10**6, guard=10**6)


def test_N_d_toy_values():
    toy = toy_pair_2()
    # zeros of the xy-form in |x| <= 3 are the 13 axis points; Q1 = t^2 on
    # them, so 2 | Q1 exactly at the five even-coordinate points
    assert N_d(toy, 1, 3) == 13
    assert N_d(toy, 2, 3) == 5
    for d in (1, 2, 3):
        assert N_d(toy, d, 3) >= N_d(toy, 2 * d, 3)


def test_N_d_monotone_on_shipped():
    ship = shipped_pair()
    vals = {d: N_d(ship, d, 8) for d in (1, 2, 3, 4, 6, 8)}
    for d in (1, 2, 3, 4):
        if 2 * d in vals:
            assert vals[d] >= vals[2 * d]


def test_N_d_growth_bound():
    # N_d(B) d^{1/n} / B^{n-2} below a constant fitted on the smallest B
    ship = shipped_pair()
    n = ship.n
    fitted = 0.0
    for d in (1, 2, 3, 4, 5, 6, 8, 9, 10):
        fitted = max(fitted, N_d(ship, d, 10) * d ** (1 / n) / 10 ** (n - 2))
    for B in (15, 20):
        for d in (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 20):
            if d > B:
                continue
            ratio = N_d(ship, d, B) * d ** (1 / n) / B ** (n - 2)
            assert ratio <= fitted * 1.05, (B, d, ratio, fitted)


ND_DIVISORS = (1, 2, 3, 4, 8, 9)


def test_N_d_join_matches_enumeration_on_shipped(monkeypatch):
    ship = shipped_pair()
    rng = random.Random("N_d join")
    moves = [(list(range(5)), [1] * 5)] + [signed_move(rng, 5) for _ in range(3)]
    boxes = [12, BoxSpec(lo=(-3, 0, -7, 2, -5), hi=(8, 4, 1, 9, 6))]
    want = {}
    for move in moves:
        moved = QuadricPair.build(move_form(ship.Q1, move), move_form(ship.Q2, move))
        for k, box in enumerate(boxes):
            for d in ND_DIVISORS:
                got = N_d(moved, d, box)
                assert got == N_d_by_listing(moved, d, box), (move, box, d)
                if k == 0:  # the cube is invariant under the moves
                    assert want.setdefault(d, got) == got
    # the join lists no zero
    monkeypatch.setattr(counting, "enumerate_zeros", None)
    assert N_d(ship, 3, 12) == want[3]


@pytest.mark.parametrize("name", ["toy_n2", "toy_n3", "demo_n7"])
def test_N_d_join_matches_enumeration_on_pair_files(name):
    pair = load_pair(PAIRS_DIR / f"{name}.pair")
    box = 3 if pair.n == 7 else 9
    for d in ND_DIVISORS:
        assert N_d(pair, d, box) == N_d_by_listing(pair, d, box), d


def q1_coupled_pair():
    """Q2 diagonal, so its zeros are joined; Q1 couples x1 to x3 and x4 (across
    the halves) and leaves x2 free."""
    return QuadricPair.build(
        QuadraticForm.from_matrix([[1, 0, 1, 2], [0, 1, 0, 0], [1, 0, 1, 0],
                                   [2, 0, 0, 3]]),
        QuadraticForm.diagonal([1, 2, -3, -5]))


def test_N_d_coupled_Q1_takes_the_enumeration_route(monkeypatch):
    pair = q1_coupled_pair()
    want = {d: N_d_by_listing(pair, d, 8) for d in ND_DIVISORS}
    assert want[1] > want[2] > 0
    monkeypatch.setattr(counting, "_N_d_join", None)
    assert {d: N_d(pair, d, 8) for d in ND_DIVISORS} == want


def test_N_d_key_int64_edge():
    # x1^2 - x2^2 on the box b-1 <= x_i <= b: zeros (b-1, b-1) and (b, b),
    # where Q1 = 2 x^2; each half's key is Q2_half d + r with |Q2_half| <= b^2
    pair = QuadricPair.build(QuadraticForm.diagonal([1, 1]),
                             QuadraticForm.diagonal([1, -1]))
    b, d = 2**29 + 15, 31  # 31 | b
    assert (b * b + 1) * d <= 2**63 < (b * b + 1) * (d + 1)
    box = BoxSpec(lo=(b - 1, b - 1), hi=(b, b))
    assert N_d(pair, d, box) == 1 == N_d_by_listing(pair, d, box)
    assert N_d(pair, 2, box) == 2
    with pytest.raises(ValueError, match="int64"):
        N_d(pair, d + 1, box)
    # the largest bound c with (c^2 + 1) d <= 2^63
    c = math.isqrt(2**63 // d - 1)
    assert (c * c + 1) * d <= 2**63 < ((c + 1) ** 2 + 1) * d
    box = BoxSpec(lo=(c - 1, c - 1), hi=(c, c))
    assert N_d(pair, d, box) == N_d_by_listing(pair, d, box)
    with pytest.raises(ValueError, match="int64"):
        N_d(pair, d, BoxSpec(lo=(c, c), hi=(c + 1, c + 1)))


def test_N_d_large_d_counts_Q1_zero():
    # Q1 = sum x_i^2, so |Q1| <= 5 * 40^2 = 8000 on the box: a larger d
    # divides Q1 only at Q1 = 0, the origin
    ship = shipped_pair()
    for d in (8000, 8001, 2**50, 10**18):
        assert N_d(ship, d, 40) == N_d_by_listing(ship, d, 40), d
    assert N_d(ship, 2**50, 40) == N_d(ship, 10**18, 40) == 1


def test_N_d_guard_refuses_before_allocating(monkeypatch):
    # the folded box's (10^4 + 1)^3 + (10^4 + 1)^2 rows: refused before
    # any grid or key is built
    for name in ("grid_block_axes", "_rows_at", "_half_keys"):
        monkeypatch.setattr(counting, name, None)
    with pytest.raises(ResourceGuardError, match="N_d"):
        N_d(shipped_pair(), 3, 10**4)
    monkeypatch.undo()
    assert N_d(shipped_pair(), 3, 4, guard=5**3 + 5**2) == N_d(shipped_pair(), 3, 4)
    with pytest.raises(ResourceGuardError):
        N_d(shipped_pair(), 3, 4, guard=5**3 + 5**2 - 1)


def test_N_d_charges_the_rows_it_reads():
    # shipped's box |x| <= 40 folds to 0 <= x_i <= 40: the join reads
    # 41^3 left and 41^2 right rows, and is charged exactly those
    ship = shipped_pair()
    assert N_d(ship, 3, 40, guard=41**3 + 41**2) == 191633
    with pytest.raises(ResourceGuardError) as err:
        N_d(ship, 3, 40, guard=70601)
    assert err.value.estimated_ops == 70602


def test_N_d_builds_no_row(monkeypatch):
    # the join reads each half's keys off its axes: with the row builder
    # gone, N_d on shipped still gives the counts of bench/reference.json
    monkeypatch.setattr(counting, "_rows_at", None)
    ship = shipped_pair()
    got = {d: N_d(ship, d, 40) for d in (1, 3, 5, 8)}
    assert got == {1: 547849, 3: 191633, 5: 86385, 8: 99245}


def test_right_half_index_table_and_search_agree():
    # dense right keys are read off the table over their span, far left keys
    # clipped to its empty ends; one far right key sends the same keys down
    # the search route.  The table is sized by the 204 left rows of far
    rng = np.random.default_rng(8)
    right = rng.integers(-50, 50, size=40)
    for far_right in (False, True):
        if far_right:
            right = np.append(right, 10**15)
        keys, start, count = np.unique(np.sort(right), return_index=True, return_counts=True)
        half = counting._RightHalf(np.argsort(right, kind="stable"), keys, start, count, 204)
        assert (half._table is None) == far_right
        where = {int(k): i + 1 for i, k in enumerate(keys)}
        left = rng.integers(-60, 60, size=200)
        want = [where.get(int(k), 0) for k in left]
        assert half._index(left.copy()).tolist() == want
        far = np.append(left, [10**15, -10**15, 2**63 - 1, -2**63])
        assert half._index(far.copy()).tolist() == want + [where.get(10**15, 0), 0, 0, 0]
        # pairs: the run length of each key's looked-up or searched index
        runs = dict(zip(keys.tolist(), count.tolist()))
        want_pairs = sum(runs.get(int(k), 0) for k in far)
        assert half.pairs(far.copy()) == want_pairs
        edge = counting._RightHalf(np.arange(2), np.array([-2**63, 2**63 - 1]),
                                   np.arange(2), np.ones(2, np.int64), 204)
        assert edge._index(far).tolist() == [0] * 200 + [0, 0, 2, 1]


def test_split_left_half_changes_no_result(monkeypatch):
    # block and stream budgets small enough that the join's left half
    # comes in many head blocks, for listing and for N_d, on every pair below
    ship = shipped_pair()
    cases = [(ship, 5), (load_pair(PAIRS_DIR / "toy_n3.pair"), 9),
             (load_pair(PAIRS_DIR / "demo_n7.pair"), 3)]
    W = WeightFunction.default_for_pair(ship)

    def run():
        return ([N_d(pair, d, box) for pair, box in cases for d in ND_DIVISORS],
                [enumerate_zeros(pair.Q2, box) for pair, box in cases],
                [repr(S_of_B(ship, W, B)) for B in (4, 6)])

    before = run()
    monkeypatch.setattr(quadforms, "_BLOCK_ROWS", 5)
    monkeypatch.setattr(counting, "_STREAM_ROWS", 5)
    for pair, box in cases:
        h = (pair.n + 1) // 2
        left = counting._axes(*counting._bounds(box, pair.n))[:h]
        assert len(list(quadforms.grid_block_axes(left, 5))) > 1
    after = run()
    assert before[0] == after[0]
    assert all(np.array_equal(a, b) for a, b in zip(before[1], after[1]))
    assert before[2] == after[2]


def coupled_n4_pair():
    return QuadricPair.build(QuadraticForm.diagonal([1, 1, 1, 1]),
                             QuadraticForm.from_matrix(COUPLED_N4))


def test_join_builds_one_slot_table(monkeypatch):
    # the lookup table is built with the right half, once per join, however
    # many left blocks read it
    built = []

    def counted(keys, most):
        table = real(keys, most)
        built.append(table is not None)
        return table

    real = counting._slot_table
    monkeypatch.setattr(counting, "_slot_table", counted)
    monkeypatch.setattr(quadforms, "_BLOCK_ROWS", 5)
    monkeypatch.setattr(counting, "_STREAM_ROWS", 5)
    ship = shipped_pair()
    W = WeightFunction.default_for_pair(ship)
    left = counting._axes(*counting._bounds(5, 5))[:3]
    assert len(list(quadforms.grid_block_axes(left, 5))) > 1
    for call in (lambda: N_d(ship, 3, 5), lambda: N_d(ship, 1, 5),
                 lambda: S_of_B(ship, W, 6), lambda: enumerate_zeros(ship.Q2, 5)):
        built.clear()
        call()
        assert built == [True]


def test_streams_read_at_most_the_budget(monkeypatch):
    # every block of the join's left half (N_d, listing, S(B)) and of the
    # coupled scan goes through the eval_grid kernel, at most _STREAM_ROWS
    # rows at a time when the last axis fits in the budget
    lengths = []
    real = QuadraticForm._grid

    def recorded(self, axes):
        out = real(self, axes)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(QuadraticForm, "_grid", recorded)
    ship, coupled = shipped_pair(), coupled_n4_pair()
    W = WeightFunction.default_for_pair(ship)
    for budget, box, T, B in ((None, 40, 30, 16), (300, 5, 5, 3)):
        if budget is not None:
            monkeypatch.setattr(counting, "_STREAM_ROWS", budget)
        for call in (lambda: N_d(ship, 3, box), lambda: enumerate_zeros(coupled.Q2, T),
                     lambda: N_d(coupled, 3, T), lambda: S_of_B(ship, W, B),
                     lambda: enumerate_zeros(ship.Q2, box)):
            lengths.clear()
            call()
            assert len(lengths) > 2 and max(lengths) <= counting._STREAM_ROWS


def test_stream_budget_changes_no_result(monkeypatch):
    ship, toy, coupled = shipped_pair(), toy_pair_3(), coupled_n4_pair()
    W = WeightFunction.default_for_pair(coupled)
    cases = [(ship, 5), (toy, 9), (coupled, 6)]

    W_ship = WeightFunction.default_for_pair(ship)

    def run():
        return ([N_d(pair, d, box) for pair, box in cases for d in ND_DIVISORS],
                [enumerate_zeros(pair.Q2, box).tolist() for pair, box in cases],
                [repr(S_of_B(coupled, W, B)) for B in (8, 12)],
                [repr(S_of_B(ship, W_ship, B)) for B in (4, 8)])

    want = run()
    for budget in (1, 7):
        monkeypatch.setattr(counting, "_STREAM_ROWS", budget)
        assert run() == want, budget


def test_r2_table_matches_r2():
    table = counting._r2_table(3000, 10**9)
    assert table.dtype == float and len(table) == 3001 and table[0] == 1
    assert all(table[m] == r2(m) == r2_chi_divisor_sum(m) for m in range(1, 3001))
    assert counting._r2_table(0, 1).tolist() == [1.0]
    # isqrt(3000) = 54: the square holding the quarter disc has 55^2 pairs
    assert counting._r2_table(3000, 55**2)[2997] == r2(2997)
    with pytest.raises(ResourceGuardError):
        counting._r2_table(3000, 55**2 - 1)


def test_r2_table_changes_with_no_run_of_rows(monkeypatch):
    want = counting._r2_table(3000, 10**9)
    for budget in (1, 7, 200):
        monkeypatch.setattr(counting, "_STREAM_ROWS", budget)
        assert np.array_equal(counting._r2_table(3000, 10**9), want), budget


def test_ball_max_bounds_the_form_on_the_ball():
    # at least the form's largest value at an integer point of the ball,
    # and within a few units of its value on the real ball for the
    # identity, where the bound is that value
    rng = random.Random("ball_max")
    for _ in range(80):
        n = rng.randint(1, 3)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = rng.randint(-3, 3)
        Q = QuadraticForm.from_matrix(M)
        center = [rng.uniform(-4, 4) for _ in range(n)]
        radius = rng.uniform(0.5, 4)
        box = itertools.product(*(range(math.floor(c - radius), math.ceil(c + radius) + 1)
                                  for c in center))
        inside = [x for x in box if sum((v - c) ** 2 for v, c in zip(x, center)) <= radius**2]
        top = counting._ball_max(Q, center, radius)
        assert top >= max([0] + [Q.eval(x) for x in inside])
    assert counting._ball_max(QuadraticForm.diagonal([1, 1]), (3.0, 4.0), 2.0) == 50
    assert counting._ball_max(QuadraticForm.diagonal([-1, -1]), (3.0, 4.0), 2.0) == 0
    ship = shipped_pair()
    W = WeightFunction.default_for_pair(ship)
    want = (math.hypot(*W.x0) + W.rho) ** 2 * 16**2
    assert want < counting._ball_max(ship.Q1, [16 * c for c in W.x0], 16 * W.rho) < want + 2


def test_S_of_B_refuses_before_its_r2_table(monkeypatch):
    # a box the join refuses costs no table
    def no_table(*args):
        raise AssertionError("the r2 table was built")

    monkeypatch.setattr(counting, "_r2_table", no_table)
    ship = shipped_pair()
    with pytest.raises(ResourceGuardError, match="enumerate_zeros"):
        S_of_B(ship, WeightFunction.default_for_pair(ship), 1000)
    coupled = coupled_n4_pair()
    with pytest.raises(ResourceGuardError, match="enumerate_zeros"):
        S_of_B(coupled, WeightFunction.default_for_pair(coupled), 1000, guard=10**6)


def test_exact_sum_is_fsum():
    # any split, any order: the correctly rounded sum, math.fsum's
    rng = np.random.default_rng(12)
    for trial in range(40):
        n = int(rng.integers(1, 3000))
        x = rng.random(n) * np.exp(-1 / (1 - rng.random(n))) * rng.integers(1, 300, n)
        if trial % 4 == 1:
            x[: n // 2] = rng.random(n // 2) * 1e-310  # subnormal
        elif trial % 4 == 2:
            x *= rng.choice([-1.0, 1.0], n) * 1e300
        elif trial % 4 == 3:
            x[::3] = 0.0
        total = counting._ExactSum()
        for part in np.array_split(rng.permutation(x), int(rng.integers(1, 6))):
            total.add(part)
        assert total.value() == math.fsum(x.tolist()), trial
    assert counting._ExactSum().value() == 0.0


def test_S_of_B_is_the_exact_sum_of_its_terms(monkeypatch):
    # the terms S_of_B adds, block by block, summed by math.fsum in a seeded
    # shuffle: the same bits
    ship = shipped_pair()
    W = WeightFunction.default_for_pair(ship)
    seen = []
    add = counting._ExactSum.add

    def record(self, terms):
        seen.append(np.array(terms))
        return add(self, terms)

    monkeypatch.setattr(counting._ExactSum, "add", record)
    for B in (12, 16, 40):
        seen.clear()
        value = S_of_B(ship, W, B)
        terms = np.concatenate(seen)
        np.random.default_rng(B).shuffle(terms)
        assert len(seen) > 1 and value == math.fsum(terms.tolist()), B


def test_S_of_B_does_not_depend_on_blas_threads():
    # a BLAS dot product sums in an order that moves with its thread count;
    # the exactly rounded sum does not
    script = ("from quadpair.counting import S_of_B, WeightFunction\n"
              "from quadpair.pairs import shipped_pair\n"
              "p = shipped_pair()\n"
              "print(repr(S_of_B(p, WeightFunction.default_for_pair(p), 40)))\n")
    src = str(Path(counting.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    got = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True)
        got.add(run.stdout.strip())
    ship = shipped_pair()
    assert got == {repr(S_of_B(ship, WeightFunction.default_for_pair(ship), 40))}


def test_S_of_B_memory_is_a_few_blocks():
    # left blocks of at most _STREAM_ROWS rows and terms summed as they
    # come; the r2 table is the one array that grows with B (with the left
    # half read as one block and every term held, the peaks were 5.5, 17.8,
    # 4.7 and 23.6 MB)
    ship = shipped_pair()
    W = WeightFunction.default_for_pair(ship)
    S_of_B(ship, W, 8)
    for B, most in ((16, 3e6), (24, 3e6), (40, 4.7e6), (80, 23.6e6)):
        tracemalloc.start()
        try:
            S_of_B(ship, W, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < most, (B, peak)


def test_weight_function_profile():
    W = WeightFunction((1.0, 0.0), 0.5)
    assert W.eval_batch(np.array([[1.0, 0.0]]))[0] == pytest.approx(math.exp(-1))
    assert W.eval_batch(np.array([[1.6, 0.0]]))[0] == 0.0
    # value at half-radius: t = 1/4
    assert W.eval_batch(np.array([[1.25, 0.0]]))[0] == pytest.approx(
        math.exp(-1 / (1 - 0.25))
    )


def sphere_dirs_by_rounding(n):
    """The directions of _sphere_dirs, deduplicated by rounding the unit
    vectors to 12 places and keeping each one's first grid position."""
    idx = np.arange(5**n, dtype=np.int64)
    grid = np.stack([(idx // 5**j) % 5 - 2 for j in range(n)], axis=1)
    grid = grid[(grid != 0).any(axis=1)]
    norms = np.sqrt((grid.astype(float) ** 2).sum(axis=1))
    dirs = grid / norms[:, None]
    _, keep = np.unique(np.round(dirs, 12), axis=0, return_index=True)
    return dirs[np.sort(keep)]


def shell_points(x0, rho, dirs):
    """x0 and the shells x0 + f rho dirs, f = 1/4, 1/2, 3/4, 1."""
    c = np.array(x0, dtype=float)
    return np.vstack([c[None, :]] + [c[None, :] + f * rho * dirs
                                     for f in (0.25, 0.5, 0.75, 1.0)])


def weight_point_by_point(pair, scale=6.0):
    """default_for_pair one point at a time: a double loop over the
    segments, a Newton polish per candidate, and every shell point
    resampled for each rho."""
    dirs = sphere_dirs_by_rounding(pair.n)
    q2 = pair.Q2.eval_float(dirs)
    q1 = pair.Q1.eval_float(dirs)
    M2 = np.array(pair.Q2.M, dtype=float)
    M1 = np.array(pair.Q1.M, dtype=float)

    candidates = []
    for i in np.flatnonzero((np.abs(q2) < 1e-12) & (q1 > 1e-9)):
        candidates.append(dirs[i])
    pos = np.flatnonzero(q2 > 1e-12)
    neg = np.flatnonzero(q2 < -1e-12)
    pos = pos[np.argsort(-q1[pos], kind="stable")][:50]
    neg = neg[np.argsort(-q1[neg], kind="stable")][:50]
    for i in pos:
        u = dirs[i]
        for j in neg:
            dvec = dirs[j] - u
            a = float(dvec @ M2 @ dvec)
            b = 2.0 * float(u @ M2 @ dvec)
            c = float(q2[i])
            if abs(a) < 1e-15:
                roots = [-c / b] if abs(b) > 1e-15 else []
            else:
                disc = b * b - 4 * a * c
                if disc < 0:
                    continue
                s = math.sqrt(disc)
                roots = [(-b - s) / (2 * a), (-b + s) / (2 * a)]
            for t in roots:
                if 0.0 < t < 1.0:
                    candidates.append(u + t * dvec)

    best, best_score = None, -math.inf
    for x in candidates:
        y = np.array(x, dtype=float)
        for _ in range(5):
            g = 2.0 * M2 @ y
            gg = float(g @ g)
            if gg < 1e-20:
                break
            y = y - float(pair.Q2.eval_float(y)) / gg * g
        nrm = float(np.sqrt(y @ y))
        if nrm < 1e-9 or abs(float(pair.Q2.eval_float(y))) > 1e-9 * nrm * nrm:
            continue
        score = float(pair.Q1.eval_float(y)) / (nrm * nrm)
        if score > best_score + 1e-12:
            best, best_score = y / nrm, score
    if best is None or best_score <= 0:
        raise ValueError("no point with Q1 > 0 found on the cone Q2 = 0")

    x0 = tuple(float(scale * v) for v in best)
    target = scale * scale * best_score / 2.0
    rho = 0.5 * scale
    while rho > 1e-3 * scale:
        pts = shell_points(x0, rho, dirs)
        grads = 2.0 * pts @ M1
        if (pair.Q1.eval_float(pts).min() > target
                and np.sqrt((grads**2).sum(axis=1)).min() > 0):
            return WeightFunction(x0, rho)
        rho *= 0.95
    raise ValueError("no admissible support radius found")


@pytest.mark.parametrize("n", range(1, 8))
def test_sphere_dirs_match_rounding_dedup(n):
    dirs = counting._sphere_dirs(n)
    assert np.array_equal(dirs, sphere_dirs_by_rounding(n))
    # 5^n - 1 nonzero vectors, of which 3^n - 1 repeat a direction as 2w
    assert len(dirs) == 5**n - 3**n


def _moved_shipped(seed):
    move = signed_move(random.Random(f"weight:{seed}"), 5)
    ship = shipped_pair()
    return QuadricPair.build(move_form(ship.Q1, move), move_form(ship.Q2, move))


WEIGHT_CASES = {
    **{name: (lambda name=name: (load_pair(PAIRS_DIR / f"{name}.pair"), 6.0))
       for name in ("shipped_n5", "demo_n7", "toy_n3", "toy_n2")},
    **{f"shipped_moved{k}": (lambda k=k: (_moved_shipped(k), 6.0)) for k in range(6)},
    "shipped_scale3": lambda: (shipped_pair(), 3.0),
    "toy_n3_scale3": lambda: (toy_pair_3(), 3.0),
    # x^2 + y^2 = 3 (z^2 + w^2) has no rational zero but 0, so no grid
    # direction lies on the cone and a segment root wins
    "no_cone_direction_n3": lambda: (
        QuadricPair.build(QuadraticForm.diagonal([1, 2, 1]),
                          QuadraticForm.diagonal([1, 1, -3])), 6.0),
    "no_cone_direction_n4": lambda: (
        QuadricPair.build(QuadraticForm.diagonal([2, 1, 1, 3]),
                          QuadraticForm.diagonal([1, 1, -3, -3])), 6.0),
}


@pytest.mark.parametrize("name", sorted(WEIGHT_CASES))
def test_default_weight_matches_point_by_point_search(name):
    pair, scale = WEIGHT_CASES[name]()
    W = WeightFunction.default_for_pair(pair, scale)
    want = weight_point_by_point(pair, scale)
    assert W == want


def random_coupled_pair(seed):
    """A pair of random symmetric integer forms, n = 3, 4 or 5, entries in
    [-3, 3]: cross terms everywhere, so the products' rounding shows."""
    rng = random.Random(f"coupled-weight:{seed}")
    n = rng.choice([3, 4, 5])

    def form():
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = rng.randint(-3, 3)
        return QuadraticForm.from_matrix(M)

    return QuadricPair.build(form(), form())


@pytest.mark.parametrize("seed", range(20))
def test_default_weight_matches_point_by_point_on_coupled_pairs(seed):
    # seeds 13 and 17 move x0 unless the winner's polish is replayed alone
    pair = random_coupled_pair(seed)
    assert WeightFunction.default_for_pair(pair) == weight_point_by_point(pair)


@pytest.mark.parametrize("sign", [1, -1])
def test_default_weight_refuses_definite_Q2(sign):
    # Q2 definite: no direction on the cone and one sign class empty, so
    # the segment batch has a zero-length axis
    pair = QuadricPair.build(QuadraticForm.diagonal([1, 1, 1]),
                             QuadraticForm.diagonal([sign, 2 * sign, sign]))
    q2 = pair.Q2.eval_float(counting._sphere_dirs(3))
    assert (sign * q2 > 0).all()
    for search in (WeightFunction.default_for_pair, weight_point_by_point):
        with pytest.raises(ValueError, match="no point with Q1 > 0 found on the cone"):
            search(pair)


def test_default_weight_sits_on_cone():
    for pair in (shipped_pair(), toy_pair_3(), toy_pair_2(),
                 load_pair(PAIRS_DIR / "demo_n7.pair")):
        W = WeightFunction.default_for_pair(pair)
        x0 = np.array(W.x0)
        norm = float(np.linalg.norm(x0))
        assert abs(pair.Q2.eval_float(x0[None, :])[0]) <= 1e-6 * norm**2
        pts = shell_points(W.x0, W.rho, counting._sphere_dirs(pair.n))
        grads = 2.0 * pts @ np.array(pair.Q1.M, dtype=float)
        assert pair.Q1.eval_float(pts).min() > 0
        assert np.sqrt((grads**2).sum(axis=1)).min() > 0


def test_S_of_B_zero_when_support_misses_lattice():
    toy = toy_pair_2()
    W = WeightFunction((0.51, 0.24), 0.05)
    assert S_of_B(toy, W, 1) == 0.0


def test_S_of_B_single_point_value():
    toy = toy_pair_2()
    W = WeightFunction((1.0, 0.0), 0.3)
    # only x = (3, 0) lands in the support at B = 3; Q1 = 9, r2 = 4
    assert S_of_B(toy, W, 3) == pytest.approx(4 * math.exp(-1), rel=1e-12)


def test_S_of_B_doubling_on_shipped():
    ship = shipped_pair()
    W = WeightFunction.default_for_pair(ship)
    s8 = S_of_B(ship, W, 8)
    s16 = S_of_B(ship, W, 16)
    assert s8 > 0 and s16 > 0
    assert abs(s16 / s8 / 2 ** (ship.n - 2) - 1) <= 0.35
    s20 = S_of_B(ship, W, 20)
    s40 = S_of_B(ship, W, 40)
    assert abs(s40 / s20 / 2 ** (ship.n - 2) - 1) <= 0.35


def test_S_of_B_relabeling_invariance():
    perm = [2, 0, 1]
    t3 = toy_pair_3()

    def permute(F):
        M = F.M
        return QuadraticForm.from_matrix(
            [[M[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
        )

    t3p = QuadricPair.build(permute(t3.Q1), permute(t3.Q2))
    W = WeightFunction.default_for_pair(t3)
    Wp = WeightFunction(tuple(W.x0[perm[i]] for i in range(3)), W.rho)
    a = S_of_B(t3, W, 12)
    b = S_of_B(t3p, Wp, 12)
    assert a == pytest.approx(b, rel=1e-12)


def test_s_of_b_rows_shape():
    toy = toy_pair_2()
    W = WeightFunction((1.0, 0.0), 0.3)
    rows = s_of_b_rows(toy, W, [3, 6])
    assert len(rows) == 2
    for B, s, norm in rows:
        assert norm == pytest.approx(s / B ** (toy.n - 2))


def test_box_spec_validation():
    assert [f.name for f in dataclasses.fields(BoxSpec)] == ["lo", "hi"]
    spec = BoxSpec(lo=(-1, 2), hi=(3, 2))
    assert spec.bounds(2) == ((-1, 2), (3, 2))
    with pytest.raises(ValueError):
        spec.bounds(3)
    for bad in ({"lo": (0, 1), "hi": (1, 0)}, {"lo": (0,), "hi": (1, 1)}):
        with pytest.raises(ValueError):
            BoxSpec(**bad)


# --------------------------------------------------------------------------
# per-coordinate boxes, the lexicographic join and the solved scan
# --------------------------------------------------------------------------

BOX_FORMS = [
    QuadraticForm.diagonal([0]),
    QuadraticForm.diagonal([3]),
    QuadraticForm.diagonal([1, -4]),
    QuadraticForm.diagonal([1, 3, -4]),
    QuadraticForm.diagonal([2, 3, -4]),
    QuadraticForm.diagonal([1, 2, 3, -4, -5]),
]


@pytest.mark.parametrize("Q", BOX_FORMS, ids=lambda Q: f"n{Q.n}-{Q.diagonal_entries()}")
def test_per_coordinate_boxes_against_brute_force(Q):
    rng = random.Random(f"boxes:{Q.M}")
    n = Q.n
    width = 6 if n == 5 else 11
    for _ in range(4):
        lo = [rng.randint(-width, 2) for _ in range(n)]
        hi = [a + rng.randint(0, width) for a in lo]
        spec = BoxSpec(lo=tuple(lo), hi=tuple(hi))
        want = brute_box_zeros(Q, lo, hi)
        for route in (counting._mitm, counting._scan):
            got = by_route(route, Q, spec)
            assert got.dtype == np.int64 and got.shape[1] == n
            assert [tuple(p) for p in got] == want, (route.__name__, lo, hi)


COUPLED = [
    # a > 0, a < 0: the last coordinate solves a quadratic
    QuadraticForm.from_matrix([[1, 1], [1, -2]]),
    QuadraticForm.from_matrix([[1, 1, 1], [1, 2, 1], [1, 1, 3]]),
    QuadraticForm.from_matrix([[1, 1, 1], [1, 2, 1], [1, 1, -1]]),
    QuadraticForm.from_matrix([[-3, 2, 1], [2, 1, 0], [1, 0, -2]]),
    # a = 0: linear in the last coordinate; b = c = 0 where x1 = 0
    QuadraticForm.from_matrix([[0, 1], [1, 0]]),
    QuadraticForm.from_matrix([[1, 1, 1], [1, -1, 0], [1, 0, 0]]),
    QuadraticForm.from_matrix([[2, 0, 3], [0, -1, 1], [3, 1, 0]]),
    QuadraticForm.from_matrix([[0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 0, 0]]),
]


@pytest.mark.parametrize("Q", COUPLED, ids=lambda Q: str(Q.M))
def test_solved_scan_against_brute_force(Q):
    rng = random.Random(f"coupled:{Q.M}")
    n = Q.n
    width = 7 if n == 4 else 12
    boxes = [([-width // 2] * n, [width // 2] * n)]
    for _ in range(3):
        lo = [rng.randint(-width, 1) for _ in range(n)]
        boxes.append((lo, [a + rng.randint(0, width) for a in lo]))
    for lo, hi in boxes:
        got = [tuple(p) for p in enumerate_zeros(Q, BoxSpec(lo=tuple(lo), hi=tuple(hi)))]
        assert got == brute_box_zeros(Q, lo, hi), (lo, hi)


COUPLED_N4 = [[1, 1, 1, 1], [1, 2, 1, 1], [1, 1, -1, 1], [1, 1, 1, -2]]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solved_scan_against_full_slab_scan(seed):
    rng = random.Random(f"scan:{seed}")
    base = QuadraticForm.from_matrix(COUPLED_N4)
    Q = move_form(base, signed_move(rng, 4))
    for T in (3, 9):
        got = enumerate_zeros(Q, T)
        assert np.array_equal(got, full_slab_scan(Q, T)), T


def test_solved_scan_roots_past_float_precision():
    # Q = 2 x1 x2 + x2^2 has the zeros x2 = 0 and x2 = -2 x1, and
    # b^2 - 4ac = 4 x1^2 passes 2^53, where sqrt of the float rounds
    Q = QuadraticForm.from_matrix([[0, 1], [1, 1]])
    x1 = 2**27 - 61
    got = enumerate_zeros(Q, BoxSpec(lo=(x1, -2**28), hi=(x1 + 50, 2**28)))
    want = sorted([(t, -2 * t) for t in range(x1, x1 + 51)]
                  + [(t, 0) for t in range(x1, x1 + 51)])
    assert [tuple(p) for p in got] == want


@pytest.mark.parametrize("Q", [Q for Q in COUPLED if Q.n > 2], ids=lambda Q: str(Q.M))
def test_solved_scan_in_small_blocks(monkeypatch, Q):
    # blocks of a few rows fix head columns and slice the next axis (a
    # block spans at least the last solved-over axis, so n = 2 has one
    # block); the stream is still every zero in lexicographic order, block
    # after block
    monkeypatch.setattr(quadforms, "_BLOCK_ROWS", 10)
    monkeypatch.setattr(counting, "_STREAM_ROWS", 10)
    for T in (2, 5):
        lo, hi = counting._bounds(T, Q.n)
        blocks = list(counting._scan(Q, lo, hi, 10**9))
        assert len(blocks) == len(list(quadforms.grid_block_axes(
            counting._axes(lo[:-1], hi[:-1]), 10))) > 1
        got = np.vstack(blocks)
        assert np.array_equal(got, got[np.lexsort(got.T[::-1])])
        assert [tuple(p) for p in got] == brute_zeros(Q, T)
        assert np.array_equal(got, full_slab_scan(Q, T))
        assert np.array_equal(enumerate_zeros(Q, T), got)


def test_solved_scan_refuses_before_any_block(monkeypatch):
    def no_block(*args):
        raise AssertionError("a block was built")

    monkeypatch.setattr(counting, "_solve_last", no_block)
    Q = QuadraticForm.from_matrix([[1, 1], [1, -2]])
    with pytest.raises(ResourceGuardError):
        enumerate_zeros(Q, 10**6, guard=10**5)
    with pytest.raises(ValueError, match="int64"):
        enumerate_zeros(Q, BoxSpec(lo=(0, -2**31), hi=(0, 2**31)))


def test_solved_scan_int64_check():
    # one slab of one row, but b^2 - 4ac reaches 2^63 on its last axis
    Q = QuadraticForm.from_matrix([[1, 1], [1, -2]])
    with pytest.raises(ValueError, match="int64"):
        enumerate_zeros(Q, BoxSpec(lo=(0, -2**31), hi=(0, 2**31)))


# --------------------------------------------------------------------------
# symmetric boxes: the half x_1 >= 0 and the fold x -> -x
# --------------------------------------------------------------------------

FOLD_FORMS = {
    "shipped": shipped_pair().Q2,
    "toy_n3": load_pair(PAIRS_DIR / "toy_n3.pair").Q2,
    "toy_n2": load_pair(PAIRS_DIR / "toy_n2.pair").Q2,
    **{f"coupled{k}": Q for k, Q in enumerate(COUPLED)},
    "coupled_n4": QuadraticForm.from_matrix(COUPLED_N4),
    "n1_zero": QuadraticForm.diagonal([0]),
    "n1": QuadraticForm.diagonal([3]),
}


def asymmetric_boxes(n, T):
    """Two boxes near |x| <= T, T >= 1, with lo_i != -hi_i for one i: the
    last coordinate's lower end raised, the first's upper end raised."""
    return [BoxSpec(lo=(-T,) * (n - 1) + (1 - T,), hi=(T,) * n),
            BoxSpec(lo=(-T,) * n, hi=(T + 1,) + (T,) * (n - 1))]


def full_walk(Q, box):
    """The zeros of Q in the box by its own route's stream of the whole
    box, no fold."""
    route = counting._scan if counting._couples(Q.M, (Q.n + 1) // 2) else counting._mitm
    return by_route(route, Q, box)


def N_d_unfolded(pair, d, box):
    zeros = full_walk(pair.Q2, box)
    return int((pair.Q1.eval_batch(zeros) % d == 0).sum())


def spy_zero_blocks(monkeypatch):
    """The list of the boxes (lo, hi) counting._zero_blocks is asked to
    stream, filled call by call."""
    boxes = []
    real = counting._zero_blocks

    def spy(Q2, lo, hi, guard, ball=None):
        boxes.append((tuple(lo), tuple(hi)))
        return real(Q2, lo, hi, guard, ball)

    monkeypatch.setattr(counting, "_zero_blocks", spy)
    return boxes


@pytest.mark.parametrize("name", FOLD_FORMS)
def test_enumerate_zeros_fold_matches_the_full_walk(name):
    Q = FOLD_FORMS[name]
    for T in (0, 1, 4, 8):
        got = enumerate_zeros(Q, T)
        assert got.dtype == np.int64 and got.shape[1] == Q.n
        assert np.array_equal(got, full_walk(Q, T)), T
        # -x is listed with every x: the sorted list, negated, reverses
        assert np.array_equal(got, -got[::-1]), T


@pytest.mark.parametrize("name", FOLD_FORMS)
def test_enumerate_zeros_streams_an_asymmetric_box_whole(monkeypatch, name):
    Q = FOLD_FORMS[name]
    streamed = spy_zero_blocks(monkeypatch)
    for T in (1, 4, 8):
        for box in asymmetric_boxes(Q.n, T):
            streamed.clear()
            assert np.array_equal(enumerate_zeros(Q, box), full_walk(Q, box)), box
            assert streamed == [(box.lo, box.hi)]


FOLD_PAIRS = {
    # every coordinate free
    "join": shipped_pair,
    # Q2 couples every coordinate: the scan, no free coordinate
    "coupled": coupled_n4_pair,
    # free x3 and x4, one in each half, beside Q1's x1-x2 and Q2's x5-x6
    "join_mixed": lambda: QuadricPair.build(
        QuadraticForm.from_matrix([[2, 1, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                                   [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 3]]),
        QuadraticForm.from_matrix([[1, 0, 0, 0, 0, 0], [0, -2, 0, 0, 0, 0], [0, 0, 3, 0, 0, 0],
                                   [0, 0, 0, -1, 0, 0], [0, 0, 0, 0, 1, 2], [0, 0, 0, 0, 2, -3]])),
    # no free coordinate, two classes x1-x2 and x3-x4, one per half
    "join_no_free": lambda: QuadricPair.build(
        QuadraticForm.from_matrix([[1, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        QuadraticForm.from_matrix([[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, -1], [0, 0, -1, -2]])),
    # Q1 couples the halves: the listing stream, x2 free
    "stream_mixed": q1_coupled_pair,
    # x1-x3 and x2-x3: one class, linked only through x3
    "stream_chain": lambda: QuadricPair.build(
        QuadraticForm.from_matrix([[1, 0, 1], [0, 1, 1], [1, 1, 2]]),
        QuadraticForm.diagonal([1, 2, -3])),
}


def partly_symmetric_boxes(n, T):
    """Boxes near |x| <= T, T >= 1, each with lo_i != -hi_i for one i:
    asymmetric_boxes, and one box per coordinate with its lower end raised."""
    return asymmetric_boxes(n, T) + [
        BoxSpec(lo=tuple(1 - T if j == i else -T for j in range(n)), hi=(T,) * n)
        for i in range(n)]


def test_sign_folds_are_the_first_of_each_symmetric_class():
    folds = counting._sign_folds
    ship, coupled = shipped_pair(), coupled_n4_pair()
    assert folds(ship, (-3,) * 5, (3,) * 5) == [True] * 5
    assert folds(ship, (-3,) * 4 + (-2,), (3,) * 5) == [True] * 4 + [False]
    assert folds(coupled, (-3,) * 4, (3,) * 4) == [True, False, False, False]
    assert folds(coupled, (-3,) * 4, (3, 3, 4, 3)) == [False] * 4
    assert folds(q1_coupled_pair(), (-3,) * 4, (3,) * 4) == [True, True, False, False]
    assert folds(q1_coupled_pair(), (-3, -3, -3, 0), (3,) * 4) == [False, True, False, False]
    two = FOLD_PAIRS["join_no_free"]()
    assert folds(two, (-3,) * 4, (3,) * 4) == [True, False, True, False]
    assert folds(two, (-3,) * 4, (3, 3, 3, 4)) == [True, False, False, False]
    assert folds(FOLD_PAIRS["join_mixed"](), (-3,) * 6, (3,) * 6) == [
        True, False, True, True, True, False]
    assert folds(FOLD_PAIRS["stream_chain"](), (-3,) * 3, (3,) * 3) == [True, False, False]


@pytest.mark.parametrize("route", sorted(FOLD_PAIRS))
def test_N_d_fold_matches_the_full_walk(route):
    pair = FOLD_PAIRS[route]()
    h = (pair.n + 1) // 2
    assert (counting._couples(pair.Q1.M, h) or counting._couples(pair.Q2.M, h)) == (
        not route.startswith("join"))
    for T in (0, 1, 4, 8):
        for box in [T] + (partly_symmetric_boxes(pair.n, T) if T else []):
            for d in (1, 2, 3, 5, 8):
                want = N_d_unfolded(pair, d, box)
                assert N_d(pair, d, box) == want == N_d_by_listing(pair, d, box), (box, d)


def test_fold_reads_half_the_box(monkeypatch):
    # N_d's join reads both halves only where every coordinate is >= 0, as
    # shipped's forms couple none: at most (T + 1)^3 left rows and
    # (T + 1)^2 right rows keyed
    read, keyed = [], []
    real = counting.grid_block_axes
    real_right = counting._right_half

    def spy(axes, *args, **kwargs):
        for block, parts in real(axes, *args, **kwargs):
            read.append(math.prod(len(a) for a in block))
            yield block, parts

    def spy_right(Q2, Q1, axes, *args, **kwargs):
        keyed.append(math.prod(len(a) for a in axes))
        return real_right(Q2, Q1, axes, *args, **kwargs)

    monkeypatch.setattr(counting, "grid_block_axes", spy)
    monkeypatch.setattr(counting, "_right_half", spy_right)
    ship = shipped_pair()
    for T in (4, 12):
        want = N_d_unfolded(ship, 3, T)
        read.clear()
        keyed.clear()
        assert N_d(ship, 3, T) == want
        assert 0 < sum(read) <= (T + 1) ** 3
        assert keyed == [(T + 1) ** 2]
    # the listing (join and scan) streams the box with lo_1 = 0 alone; the
    # stream route of N_d has lo_i = 0 on every folded coordinate: x1 alone
    # for the coupled n = 4 form, x1 (first of x1, x3, x4) and the free x2
    # for the pair whose Q1 couples the halves
    streamed = spy_zero_blocks(monkeypatch)
    coupled = coupled_n4_pair()
    for call, want in ((lambda: enumerate_zeros(ship.Q2, 6), (0,) + (-6,) * 4),
                       (lambda: enumerate_zeros(coupled.Q2, 6), (0,) + (-6,) * 3),
                       (lambda: N_d(coupled, 3, 6), (0,) + (-6,) * 3),
                       (lambda: N_d(q1_coupled_pair(), 3, 6), (0, 0, -6, -6))):
        streamed.clear()
        call()
        assert streamed == [(want, (6,) * len(want))]


def test_N_d_folded_join_builds_the_table_for_the_whole_box(monkeypatch):
    # the lookup table is sized by the left rows the folded half stands for
    # (81^3 on shipped's box 40), not the 41^3 read, so d = 5 and d = 8, whose
    # key spans hold 72,000 and 115,200 slots, read one table, no search
    built = []

    def counted(keys, most):
        table = real(keys, most)
        built.append(table is not None)
        return table

    real = counting._slot_table
    monkeypatch.setattr(counting, "_slot_table", counted)
    monkeypatch.setattr(counting._RightHalf, "_search", None)
    ship = shipped_pair()
    for d, want in ((5, 86385), (8, 99245)):
        built.clear()
        assert N_d(ship, d, 40) == want
        assert built == [True]


def test_enumerate_zeros_guard_charges_the_half_box():
    # shipped at T = 4: the half x_1 >= 0 has 5 * 9^2 + 9^2 = 486 rows in
    # its join's halves and 405 of the box's 745 zeros
    Q2 = shipped_pair().Q2
    want = enumerate_zeros(Q2, 4)
    assert len(want) == 745
    assert np.array_equal(enumerate_zeros(Q2, 4, guard=486), want)
    with pytest.raises(ResourceGuardError):
        enumerate_zeros(Q2, 4, guard=485)


def test_enumerate_zeros_assembles_the_fold_in_one_array():
    # the half stream's blocks and the output are all that is held: the
    # peak was 2.0 times the output with the whole box streamed, and 2.5
    # with the x_1 > 0 rows copied out by a mask and the halves stacked
    Q2 = shipped_pair().Q2
    enumerate_zeros(Q2, 8)
    tracemalloc.start()
    try:
        got = enumerate_zeros(Q2, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * got.nbytes, peak / got.nbytes


def test_support_box_holds_the_support():
    W = WeightFunction((1.5, -0.25, 0.0), 0.75)
    for B in (1.0, 7.5, 16.0, 40.0):
        lo, hi = W.support_box(B)
        for i in range(W.n):
            # the extreme points of the support ball along axis i, scaled
            # by B and rounded outwards, lie in the box ...
            for side in (-1, 1):
                x = np.array(W.x0)
                x[i] += side * W.rho
                assert lo[i] <= math.floor(B * x[i]) and math.ceil(B * x[i]) <= hi[i]
            # ... which is at most one unit wider than rounding outwards
            assert lo[i] >= B * (W.x0[i] - W.rho) - 2
            assert hi[i] <= B * (W.x0[i] + W.rho) + 2


def test_S_of_B_guard_charges_the_support_box():
    # the cube |x| <= 74 costs 3.3e6 rows at B = 16, the support box 2e5
    ship = shipped_pair()
    W = WeightFunction.default_for_pair(ship)
    assert S_of_B(ship, W, 16, guard=10**6) == S_of_B(ship, W, 16)


CUBE_CASES = {
    "shipped": lambda: (shipped_pair(), None),
    "toy2": lambda: (toy_pair_2(), WeightFunction((1.0, 0.0), 0.3)),
    "toy3": lambda: (toy_pair_3(), None),
}


@pytest.mark.parametrize("name", sorted(CUBE_CASES))
def test_S_of_B_matches_cube_route(name):
    pair, W = CUBE_CASES[name]()
    if W is None:
        W = WeightFunction.default_for_pair(pair)
    rng = random.Random(f"cube:{name}")
    moves = [(list(range(pair.n)), [1] * pair.n), signed_move(rng, pair.n)]
    for move in moves:
        moved = QuadricPair.build(move_form(pair.Q1, move), move_form(pair.Q2, move))
        Wm = move_weight(W, move)
        for B in (7.5, 8, 12, 16):
            assert S_of_B(moved, Wm, B) == S_of_B_listed(moved, Wm, B), (move, B)


LISTED_CASES = {
    # shipped at B = 16, demo_n7 at B = 8 and toy2 at every B: the support
    # ball holds a small share of the support box's zeros
    "shipped": (shipped_pair, (8, 12, 16), None),
    "toy3": (toy_pair_3, (8, 12), None),
    "toy2": (toy_pair_2, (7.5, 8, 12, 16), WeightFunction((1.0, 0.0), 0.3)),
    "demo_n7": (lambda: load_pair(PAIRS_DIR / "demo_n7.pair"), (4, 6, 8), None),
    # Q2 couples the halves, so the stream is the solved scan
    "coupled_n4": (lambda: QuadricPair.build(QuadraticForm.diagonal([1, 1, 1, 1]),
                                             QuadraticForm.from_matrix(COUPLED_N4)), (8, 12),
                   None),
}


@pytest.mark.parametrize("name", sorted(LISTED_CASES))
def test_S_of_B_matches_list_then_weight(name):
    # the stream is cut to the support ball and filtered block by block; the
    # oracle lists the whole support box first, and the two must agree to
    # the last bit
    make, Bs, W = LISTED_CASES[name]
    pair = make()
    if W is None:
        W = WeightFunction.default_for_pair(pair)
    rng = random.Random(f"listed:{name}")
    for move in [(list(range(pair.n)), [1] * pair.n), signed_move(rng, pair.n)]:
        moved = QuadricPair.build(move_form(pair.Q1, move), move_form(pair.Q2, move))
        Wm = move_weight(W, move)
        for B in Bs:
            box = BoxSpec(*Wm.support_box(B))
            got, want = S_of_B(moved, Wm, B), S_of_B_listed(moved, Wm, B, box)
            assert repr(got) == repr(want), (move, B)


def weighed_rows(monkeypatch, pair, W, B):
    """S_of_B(pair, W, B) and the rows it hands the weight, stacked."""
    seen = []
    eval_batch = WeightFunction.eval_batch

    def record(self, X):
        seen.append(np.array(X))
        return eval_batch(self, X)

    monkeypatch.setattr(WeightFunction, "eval_batch", record)
    value = S_of_B(pair, W, B)
    monkeypatch.setattr(WeightFunction, "eval_batch", eval_batch)
    return value, np.vstack(seen) if seen else np.empty((0, pair.n))


def test_S_of_B_weighs_only_the_support_ball(monkeypatch):
    ship = shipped_pair()
    W = WeightFunction.default_for_pair(ship)
    B = 16
    value, rows = weighed_rows(monkeypatch, ship, W, B)
    assert value == S_of_B(ship, W, B)
    # every row handed to the weight lies in the ball with its slack ...
    t = ((rows - np.array(W.x0)) ** 2).sum(axis=1) / W.rho**2
    assert (t < 1 + 2 * quadforms._BALL_SLACK).all()
    # ... every zero of the box with W > 0 is among them ...
    zeros = enumerate_zeros(ship.Q2, BoxSpec(*W.support_box(B)))
    q1 = ship.Q1.eval_batch(zeros)
    odd = zeros[(q1 > 0) & (q1 % 2 == 1)]
    live = odd[W.eval_batch(odd / B) > 0]
    assert set(map(tuple, live / B)) <= set(map(tuple, rows))
    # ... and the box holds several times as many zeros of the filter
    assert 3 * len(rows) < len(odd)


def test_S_of_B_zero_when_no_half_row_survives(monkeypatch):
    ship = shipped_pair()
    # at B = 1 every left half-row sums to at least 3/4 > rho^2
    W = WeightFunction((0.5,) * 5, 0.1)
    assert weighed_rows(monkeypatch, ship, W, 1)[1].shape == (0, 5)
    assert S_of_B(ship, W, 1) == 0.0
    # the left half-row (0, 0, 0) survives, no right half-row does
    W = WeightFunction((0.0, 0.0, 0.0, 0.5, 0.5), 0.3)
    assert weighed_rows(monkeypatch, ship, W, 1)[1].shape == (0, 5)
    assert S_of_B(ship, W, 1) == 0.0


def test_S_of_B_and_coupled_N_d_list_no_box(monkeypatch):
    ship = shipped_pair()
    coupled = QuadricPair.build(QuadraticForm.diagonal([1, 1, 1, 1]),
                                QuadraticForm.from_matrix(COUPLED_N4))
    weighted = [(pair, WeightFunction.default_for_pair(pair)) for pair in (ship, coupled)]

    def values():
        return ([S_of_B(pair, W, 8) for pair, W in weighted]
                + [N_d(coupled, d, 6) for d in ND_DIVISORS])

    want = values()
    assert want[2:] == [N_d_by_listing(coupled, d, 6) for d in ND_DIVISORS]
    monkeypatch.setattr(counting, "enumerate_zeros", None)
    assert values() == want

