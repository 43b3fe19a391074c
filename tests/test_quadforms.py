import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy

from arith_oracles import grid_rows
from quadpair import quadforms
from quadpair.counting import BoxSpec, enumerate_zeros
from quadpair.guard import ResourceGuardError
from quadpair.pairs import shipped_pair, toy_pair_2, toy_pair_3
from quadpair.quadforms import (
    QuadraticForm,
    QuadricPair,
    bad_primes,
    certified_good_primes,
    dual_form,
    is_Vm_singular_mod_p,
    parse_pair_text,
    pencil_det_poly,
    residue_grid,
    residue_zeros_mod_p,
    save_pair,
)


def test_eval_and_gradient():
    Q = QuadraticForm.from_matrix([[1, 1], [1, 3]])  # x^2 + 2xy + 3y^2
    assert Q.eval([2, -1]) == 4 - 4 + 3
    assert Q.gradient([2, -1]) == [2 * 2 + 2 * -1, 2 * 2 + 6 * -1]


def test_from_poly_coeffs():
    # 2x^2 + 4xy + y^2 has even cross coefficient -> fine
    Q = QuadraticForm.from_poly_coeffs(2, [2, 4, 1])
    assert Q.eval([1, 1]) == 7
    with pytest.raises(ValueError):
        QuadraticForm.from_poly_coeffs(2, [1, 3, 1])  # odd cross term


def test_eval_batch_agrees_with_eval():
    Q = toy_pair_3().Q2
    X = residue_grid(7, 3) - 3
    vals = Q.eval_batch(X)
    for row, v in zip(X, vals):
        assert Q.eval([int(t) for t in row]) == int(v)
    modvals = Q.eval_batch_mod(X % 7, 7)
    assert ((vals - modvals) % 7 == 0).all()


def test_int64_paths_reject_overflow():
    # terms x^2 + 4xy - 3y^2: sum |c_ij| = 8, so points up to 2^30 - 1 fit
    Q = QuadraticForm.from_matrix([[1, 2], [2, -3]])
    b = 2**30 - 1
    X = np.array([[b, b], [b, -b], [-b, 0]], dtype=np.int64)
    assert Q.eval_batch(X).tolist() == [Q.eval(x) for x in X.tolist()] == [
        2 * b * b, -6 * b * b, b * b]
    # int32 rows are widened before any product
    assert Q.eval_batch(X.astype(np.int32)).tolist() == [2 * b * b, -6 * b * b, b * b]
    with pytest.raises(ValueError, match="points too large"):
        Q.eval_batch(X + 1)
    with pytest.raises(ValueError, match="points too large"):
        Q.eval_batch(-X - 1)  # past the bound on the negative side only
    # x^2 + 3y^2 - 4z^2 mod q has the coefficients 1, 3, q - 4, which sum
    # to q: rows with |x_i| <= bound fit while q bound^2 < 2^63
    Q = toy_pair_3().Q2
    q = 2**21
    X = np.array([[q - 1, q - 2, q - 3], [q - 1, 0, 1], [1 - q, 5, 1 - q]],
                 dtype=np.int64)
    assert Q.eval_batch_mod(X, q).tolist() == [Q.eval(x) % q for x in X.tolist()]
    with pytest.raises(ValueError, match="modulus too large"):
        Q.eval_batch_mod(X + 1, q)
    # a term whose coefficient vanishes mod q is not summed: 4 = 0 mod 4
    assert Q.eval_batch_mod(X % 4, 4).tolist() == [Q.eval(x) % 4 for x in (X % 4).tolist()]


def test_eval_batch_matches_eval_on_dense_forms():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for _ in range(4):
            A = rng.integers(-9, 10, size=(n, n))
            Q = QuadraticForm.from_matrix((A + A.T).tolist())
            X = rng.integers(-50, 51, size=(200, n))
            want = [Q.eval(x) for x in X.tolist()]
            assert Q.eval_batch(X).tolist() == want
            assert Q.eval_batch(X.astype(np.int32)).tolist() == want
            for q in (2, 7, 12, 1024):
                assert Q.eval_batch_mod(X % q, q).tolist() == [v % q for v in want]
                assert Q.eval_batch_mod(X, q).tolist() == [v % q for v in want]
    Q = toy_pair_3().Q2
    for bad in (np.zeros((2, 2), dtype=np.int64), np.zeros(3, dtype=np.int64),
                np.zeros((2, 3))):
        with pytest.raises(ValueError):
            Q.eval_batch(bad)
        with pytest.raises(ValueError):
            Q.eval_batch_mod(bad, 5)


def random_axes(rng, n):
    """n short integer axes: negative, offset or one-value ranges."""
    axes = []
    for _ in range(n):
        a = int(rng.integers(-40, 41))
        axes.append(np.arange(a, a + int(rng.choice([1, 1, 2, 3, 5])), dtype=np.int64))
    return axes


def test_eval_grid_matches_eval_batch_on_the_lex_grid():
    rng = np.random.default_rng(22)
    for n in range(1, 8):
        for coupled in (False, True):
            for _ in range(3):
                A = rng.integers(-9, 10, size=(n, n))
                M = A + A.T if coupled else np.diag(rng.integers(-9, 10, size=n))
                Q = QuadraticForm.from_matrix(M.tolist())
                axes = random_axes(rng, n)
                rows = np.array(list(itertools.product(*axes)), dtype=np.int64)
                got = Q.eval_grid(axes)
                assert got.dtype == np.int64
                assert np.array_equal(got, Q.eval_batch(rows)), (M, axes)
                assert np.array_equal(Q.eval_grid([a.astype(np.int32) for a in axes]), got)
    Q = toy_pair_3().Q2
    for bad in ([np.arange(3)] * 2, [np.arange(3.0)] * 3, [np.zeros((2, 2), np.int64)] * 3):
        with pytest.raises(ValueError):
            Q.eval_grid(bad)


def test_eval_grid_int64_edge_is_eval_batch_edge():
    # x1^2 - x2^2 on the box c-1 <= x_i <= c, the form and box shape of
    # counting's N_d key edge: both kernels check 2 bound^2 < 2^63
    Q = QuadraticForm.diagonal([1, -1])
    c = math.isqrt((2**63 - 1) // 2)
    assert 2 * c * c <= 2**63 - 1 < 2 * (c + 1) ** 2
    for top in (math.isqrt(2**63 // 31 - 1), c):
        axes = [np.arange(top - 1, top + 1, dtype=np.int64)] * 2
        rows = np.array(list(itertools.product(*axes)), dtype=np.int64)
        assert np.array_equal(Q.eval_grid(axes), Q.eval_batch(rows))
        assert Q.eval_grid(axes).tolist() == [Q.eval(x) for x in rows.tolist()]
    for axes in ([np.arange(c, c + 2, dtype=np.int64)] * 2,
                 [np.arange(-c - 1, -c + 1, dtype=np.int64)] * 2):
        rows = np.array(list(itertools.product(*axes)), dtype=np.int64)
        with pytest.raises(ValueError, match="int64"):
            Q.eval_batch(rows)
        with pytest.raises(ValueError, match="int64"):
            Q.eval_grid(axes)


def _blocks(rows, axes, *ball):
    """The blocks of grid_block_axes(axes, *ball) under the row budget
    rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadforms, "_BLOCK_ROWS", rows)
        return list(quadforms.grid_block_axes(axes, *ball))


def _block_axes(axes, rows, mode):
    """The axes of each block of grid_block_axes(axes) under the row
    budget rows in one of its two modes: with no ball, each block's parts
    None, or with a ball holding the whole grid (parts (v - 1/2)^2, budget
    above their largest sum), whose blocks each carry the runs of the
    parts that go with their axes."""
    if mode == "plain":
        blocks = _blocks(rows, axes)
        assert all(parts is None for _, parts in blocks)
    else:
        parts = [(a - 0.5) ** 2 for a in axes]
        budget = sum(float(p.max()) for p in parts) + 1.0
        blocks = _blocks(rows, axes, parts, budget)
        assert all(np.array_equal(p, (a - 0.5) ** 2)
                   for block, block_parts in blocks for a, p in zip(block, block_parts))
    return [block for block, _ in blocks]


@pytest.mark.parametrize("budget", [1, 3, 10, 30, 10**6])
def test_grid_block_axes_are_the_grid_blocks(budget):
    for mode in ("plain", "ball"):
        _check_grid_block_axes(budget, mode)


def _check_grid_block_axes(budget, mode):
    """test_grid_block_axes_are_the_grid_blocks in one mode (_block_axes)."""
    axes = [np.arange(-2, 1, dtype=np.int64), np.arange(4, 6, dtype=np.int64),
            np.arange(-1, 3, dtype=np.int64), np.array([7], dtype=np.int64)]
    Q = QuadraticForm.from_matrix([[1, 2, 0, -1], [2, -3, 1, 0], [0, 1, 5, 2],
                                   [-1, 0, 2, 4]])
    block_axes = _block_axes(axes, budget, mode)
    rows = np.vstack([quadforms._tuples(ax) for ax in block_axes])
    assert [tuple(r) for r in rows.tolist()] == list(itertools.product(*axes))
    for ax in block_axes:
        assert np.array_equal(Q.eval_grid(ax), Q.eval_batch(quadforms._tuples(ax)))
    # each block fixes its leading columns as one-value axes, runs one
    # contiguous slice of the next axis and the whole tail axes after it:
    # the blocks stacked are the unsplit lexicographic grid, row for row,
    # and each holds at most the budget unless the last axis alone is
    # longer (the third axis below, and the last of the second set, pass 3)
    for grid in (axes, [np.arange(-2, 1, dtype=np.int64), np.arange(-4, 8, dtype=np.int64)]):
        sliced = _block_axes(grid, budget, mode)
        for ax in sliced:
            run = next((j for j, a in enumerate(ax) if len(a) > 1), len(ax) - 1)
            assert all(len(a) == 1 for a in ax[:run])
            assert [a.tolist() for a in ax[run + 1:]] == [a.tolist() for a in grid[run + 1:]]
            at = int(np.flatnonzero(grid[run] == ax[run][0])[0])
            assert ax[run].tolist() == grid[run][at:at + len(ax[run])].tolist()
        blocks = [quadforms._tuples(ax) for ax in sliced]
        assert np.array_equal(np.vstack(blocks), quadforms._tuples(grid))
        assert max(map(len, blocks)) <= max(budget, len(grid[-1]))
        assert all(np.array_equal(Q.restrict(range(len(grid))).eval_grid(ax),
                                  Q.restrict(range(len(grid))).eval_batch(block))
                   for ax, block in zip(sliced, blocks))


@pytest.mark.parametrize("seed", range(4))
def test_grid_block_axes_split_random_grids(seed):
    # for k = 0..5 axes of random lengths and several budgets, the blocks
    # stacked are the whole lexicographic grid, none holds more than the
    # budget unless the last axis alone is longer, and each block's values
    # of a form are its rows'
    rng = np.random.default_rng(seed)
    for k in range(6):
        axes = [np.sort(rng.choice(np.arange(-9, 10), size=rng.integers(1, 7), replace=False))
                for _ in range(k)]
        M = rng.integers(-3, 4, size=(k, k))
        Q = QuadraticForm.from_matrix(M + M.T) if k else None
        for rows, mode in itertools.product((1, 2, 5, 17, 64, 1000), ("plain", "ball")):
            sliced = _block_axes(axes, rows, mode)
            blocks = [quadforms._tuples(ax) for ax in sliced]
            assert np.array_equal(np.vstack(blocks), quadforms._tuples(axes))
            assert max(map(len, blocks)) <= max(rows, len(axes[-1]) if k else 1)
            if Q is not None:
                assert all(np.array_equal(Q.eval_grid(ax), Q.eval_batch(block))
                           for ax, block in zip(sliced, blocks))


@pytest.mark.parametrize("q, k", [(1, 3), (2, 4), (3, 3), (5, 2), (7, 1), (4, 0)])
def test_residue_grid_is_lexicographic(q, k):
    want = list(itertools.product(range(q), repeat=k))
    got = residue_grid(q, k)
    assert got.shape == (q**k, k) and got.dtype == np.int64
    assert [tuple(r) for r in got.tolist()] == want


def test_grid_blocks_unchunked_is_the_full_grid():
    # the rows of a grid within the budget come as one block
    (block,) = grid_rows([np.arange(5, dtype=np.int64)] * 3)
    assert np.array_equal(block, residue_grid(5, 3))
    (empty,) = grid_rows([])
    assert empty.shape == (1, 0)


@pytest.mark.parametrize("budget", [1, 10, 30])
def test_grid_blocks_chunked_order(monkeypatch, budget):
    monkeypatch.setattr(quadforms, "_BLOCK_ROWS", budget)
    for axis, k in ((np.arange(3, dtype=np.int64), 4),
                    (np.arange(-2, 3, dtype=np.int64), 3),
                    (np.linspace(-1.0, 1.0, 4), 3)):
        side = len(axis)
        blocks = list(grid_rows([axis] * k))
        assert len(blocks) > 1
        assert all(len(b) <= max(budget, side) for b in blocks)
        # the tail is the most trailing columns whose grid fits the budget
        # (one at least), the column before it runs slices of as many values
        # as fit over the tail, and the columns before that are fixed: the
        # blocks in turn are the full grid in lexicographic order
        tail = max([j for j in range(1, k) if side**j <= budget], default=1)
        step = max(1, budget // side**tail)
        assert len(blocks) == side ** (k - tail - 1) * -(-side // step)
        rows = np.concatenate(blocks)
        assert np.array_equal(rows, axis[residue_grid(side, k)])
        assert rows.dtype == axis.dtype


@pytest.mark.parametrize("budget", [1, 10, 30, 10**6])
def test_grid_blocks_per_coordinate_axes(monkeypatch, budget):
    monkeypatch.setattr(quadforms, "_BLOCK_ROWS", budget)
    axes = [np.arange(-2, 1, dtype=np.int64), np.arange(4, 6, dtype=np.int64),
            np.arange(-1, 3, dtype=np.int64), np.array([7], dtype=np.int64)]
    product = list(itertools.product(*axes))
    rows = np.concatenate(list(grid_rows(axes)))
    assert [tuple(r) for r in rows] == product
    # one axis repeated k times is its power, in lexicographic order
    same = np.concatenate(list(grid_rows([axes[2]] * 3)))
    assert np.array_equal(same, axes[2][residue_grid(4, 3)])


#: tau_infinity's cases of grid_block_axes with a ball, in cell units
#: (G, k): the cell indices 0..G-1 on each of k axes, parts
#: (i + 1/2 - G/2)^2
TAU_CELLS = ((12, 1), (27, 2), (18, 4), (12, 6))


def _ball_cases(seed, tau_cells=TAU_CELLS):
    """(axes, parts, bound) for grid_block_axes with a ball: S(B)'s, k =
    1..4 integer axes with parts (v / 2 - c_i)^2 about a random centre, then
    tau_infinity's (G, k) in tau_cells, with its budget
    (G/2)^2 (1 + _BALL_SLACK)."""
    rng = np.random.default_rng(seed)
    for k in (1, 2, 3, 4):
        axes = [np.arange(-int(rng.integers(3, 9)), int(rng.integers(3, 9))) for _ in range(k)]
        x0 = rng.uniform(-2, 2, k)
        yield axes, [(a / 2.0 - c) ** 2 for a, c in zip(axes, x0)], float(rng.uniform(0.5, 3.0))
    for G, k in tau_cells:
        cells = np.arange(G, dtype=np.int64)
        yield ([cells] * k, [(cells + 0.5 - G / 2) ** 2] * k,
               (G / 2) ** 2 * (1 + quadforms._BALL_SLACK))


def _ball_positions(axes, parts, bound, budget, mode="ball"):
    """(block, positions) for each block of grid_block_axes: the
    lexicographic positions in the product of the axes of the rows it
    holds with a sum below bound.  With mode "ball" the blocks are those
    of the ball; with mode "plain" those of the whole product, each block
    masked by the parts of its own values."""
    dims = [len(a) for a in axes]
    ball = (parts, bound) if mode == "ball" else ()
    for block, block_parts in _blocks(budget, axes, *ball):
        if block_parts is None:
            block_parts = [p[np.searchsorted(a, b)] for a, p, b in zip(axes, parts, block)]
        at = np.flatnonzero(quadforms._grid_sums(block_parts) < bound)
        rows = quadforms._rows_at(block, at)
        yield block, np.ravel_multi_index(
            [np.searchsorted(a, r) for a, r in zip(axes, rows.T)], dims)


@pytest.mark.parametrize("budget", [1, 5, 40, 1000])
def test_ball_blocks_hold_the_ball_rows(budget):
    # in turn, the blocks' rows with a sum below the bound are the
    # product's, each once, in lexicographic order; each block holds at
    # most the budget unless its last axis alone is longer; in both modes,
    # the plain blocks on the grids of up to 18^4 rows
    for mode, cells in (("ball", TAU_CELLS), ("plain", TAU_CELLS[:3])):
        for axes, parts, bound in _ball_cases(budget, cells):
            got = []
            for block, at in _ball_positions(axes, parts, bound, budget, mode):
                assert math.prod(len(a) for a in block) <= max(budget, len(block[-1]))
                got.append(at)
            assert np.array_equal(np.concatenate(got),
                                  np.flatnonzero(quadforms._grid_sums(parts) < bound))


@pytest.mark.parametrize("budget", [1, 10, 100, 10**6])
def test_ball_blocks_are_grid_blocks_cut_to_the_ball(budget):
    # a block is a box of the grid, its axes and its parts one run of the
    # grid's each, cut to the ball: it holds a row of the ball, and each
    # axis of more than one value ends at values that reach into the ball
    # with the least part of every other axis
    for axes, parts, bound in _ball_cases(budget, TAU_CELLS[:3]):
        for block, block_parts in _blocks(budget, axes, parts, bound):
            for a, p, whole, whole_p in zip(block, block_parts, axes, parts):
                at = int(np.searchsorted(whole, a[0]))
                assert np.array_equal(a, whole[at:at + len(a)])
                assert np.array_equal(p, whole_p[at:at + len(a)])
            assert quadforms._grid_sums(block_parts).min() < bound
            least = [float(p.min()) for p in block_parts]
            for j, p in enumerate(block_parts):
                room = bound - sum(least) + least[j]
                assert len(p) == 1 or max(p[0], p[-1]) < room


@pytest.mark.parametrize("budget", [1, 3, 7, 40, 300])
def test_ball_blocks_hold_at_most_the_budget(budget):
    # the rows in turn do not depend on the budget, and the blocks split
    # them as often as the budget asks unless a last axis is longer
    for mode, (axes, parts, bound) in itertools.product(
            ("plain", "ball"), _ball_cases(budget, TAU_CELLS[:3])):
        blocks = list(_ball_positions(axes, parts, bound, budget, mode))
        (_, unsplit), = _ball_positions(axes, parts, bound, 2**62, mode)
        assert np.array_equal(np.concatenate([at for _, at in blocks]), unsplit)
        most = max(budget, max(len(block[-1]) for block, _ in blocks))
        assert len(blocks) >= len(unsplit) / most


def test_chunking_changes_no_count(monkeypatch):
    pair = toy_pair_3()
    coupled = QuadraticForm.from_matrix([[1, 1, 1], [1, 2, 1], [1, 1, -1]])
    box = BoxSpec(lo=(-3, -5, 0, -4, -2), hi=(5, 2, 6, 3, 4))

    def run():
        # the zeros follow the sweep, whose order the chunking changes
        zeros = [residue_zeros_mod_p(pair, p) for p in (5, 7)]
        return [Z[np.lexsort(Z.T)] for Z in zeros] + [
            enumerate_zeros(pair.Q2, 6), enumerate_zeros(coupled, 6),
            enumerate_zeros(shipped_pair().Q2, box)]

    before = run()
    monkeypatch.setattr(quadforms, "_BLOCK_ROWS", 7)
    after = run()
    for a, b in zip(before, after):
        assert np.array_equal(a, b)


def test_pencil_roots_of_shipped_pair_distinct():
    ship = shipped_pair()
    coeffs = pencil_det_poly(ship.Q1, ship.Q2)  # det(M1 + t M2)
    t = sympy.symbols("t")
    poly = sum(c * t**i for i, c in enumerate(coeffs))
    roots = sympy.roots(sympy.Poly(poly, t))
    assert sum(roots.values()) == 5  # degree 5, counted with multiplicity
    assert all(mult == 1 for mult in roots.values())
    assert set(roots) == {
        -1,
        sympy.Rational(-1, 2),
        sympy.Rational(-1, 3),
        sympy.Rational(1, 4),
        sympy.Rational(1, 5),
    }


def pencil_by_lagrange(Q1, Q2):
    """det(t M1 + M2) by Lagrange interpolation in fractions at t = 0..n,
    as (c_0, ..., c_n) with c_k the coefficient of t^(n-k)."""
    n = Q1.n
    vals = [sympy.Matrix(Q1.M) * t + sympy.Matrix(Q2.M) for t in range(n + 1)]
    vals = [int(M.det()) for M in vals]
    coeffs_t = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        num, denom = [Fraction(1)], Fraction(1)
        for j in range(n + 1):
            if j != i:
                # num *= (t - j)
                num = [Fraction(0)] + num
                for k in range(len(num) - 1):
                    num[k] -= j * num[k + 1]
                denom *= i - j
        for k, c in enumerate(num):
            coeffs_t[k] += Fraction(vals[i]) / denom * c
    assert all(c.denominator == 1 for c in coeffs_t)
    return tuple(int(c) for c in coeffs_t[::-1])


def test_pencil_det_poly_matches_lagrange_interpolation():
    rng = random.Random("pencil")
    for trial in range(240):
        n = trial % 7 + 1
        forms = []
        for _ in range(2):
            M = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    M[i][j] = M[j][i] = rng.randint(-9, 9)
            forms.append(QuadraticForm.from_matrix(M))
        assert pencil_det_poly(*forms) == pencil_by_lagrange(*forms), forms


def test_pencil_det_poly_refuses_a_non_integer_difference(monkeypatch):
    # P(t) = t^2 has Delta^2 P(0) = 2; a determinant of 5 at t = 2 makes
    # it 3, which 2! does not divide
    Q1, Q2 = QuadraticForm.diagonal([1, 1]), QuadraticForm.diagonal([0, 0])
    assert pencil_det_poly(Q1, Q2) == (1, 0, 0)
    det = quadforms.bareiss_det
    monkeypatch.setattr(quadforms, "bareiss_det",
                        lambda m: 5 if m[0][0] == 2 else det(m))
    with pytest.raises(ArithmeticError, match="non-integer"):
        pencil_det_poly(Q1, Q2)


def test_dual_form_is_adjugate():
    for Q in (toy_pair_3().Q2, shipped_pair().Q2, toy_pair_2().Q2):
        M = sympy.Matrix(Q.M)
        adj = M.adjugate()
        D = dual_form(Q)
        assert sympy.Matrix(D.M) == adj
        # M * adj = det * I
        assert M * adj == M.det() * sympy.eye(Q.n)


def test_dual2_at_matches_dual_form():
    ship = shipped_pair()
    D = dual_form(ship.Q2)
    for m in ([1, 0, 0, 0, 0], [1, 2, 3, 4, 5], [0, 0, 0, 0, 2]):
        assert ship.dual2_at(m) == D.eval(m)


def test_certified_good_primes_shipped():
    ship = shipped_pair()
    assert certified_good_primes(ship, 23) == (11, 13, 17, 19, 23)
    for p in (2, 3, 5):
        assert p in ship.bad_primes


def test_bad_primes_trusts_distinct_pencil_roots(monkeypatch):
    pairs = (shipped_pair(), toy_pair_3(), QuadricPair.build(
        QuadraticForm.from_matrix([[0, 1, 0], [1, 2, 1], [0, 1, -1]]),
        QuadraticForm.from_matrix([[1, 0, 2], [0, -3, 0], [2, 0, 1]])))
    # the brute-force checks, kept as oracles, agree at every other prime
    for pair in pairs:
        assert pair.disc_P != 0
        for p in range(3, 24):
            if quadforms.is_prime(p) and p not in pair.bad_primes:
                assert quadforms._pencil_rank_ok_mod_p(pair, p), p
                assert quadforms._smooth_intersection_mod_p(pair, p), p

    def no_sweep(*args, **kwargs):
        raise AssertionError("brute-force check ran with disc_P != 0")

    monkeypatch.setattr(quadforms, "_pencil_rank_ok_mod_p", no_sweep)
    monkeypatch.setattr(quadforms, "_smooth_intersection_mod_p", no_sweep)
    for pair in pairs:
        assert bad_primes(pair, 1000) == pair.bad_primes


def test_bad_primes_sweeps_a_singular_pair():
    # a repeated pencil root, and the singular common zero (1, 1, 0) mod every p
    pair = QuadricPair.build(
        QuadraticForm.diagonal([1, -1, 1]), QuadraticForm.diagonal([1, -1, 2])
    )
    assert pair.disc_P == 0 and pair.bad_primes == (2,)
    assert bad_primes(pair, 13) == (2, 3, 5, 7, 11, 13)
    assert certified_good_primes(pair, 13) == ()


def test_bad_primes_guards_its_sweep(monkeypatch):
    # det(b1 M1 + b2 M2) = -b2^2 (b1 + 2 b2) has a repeated root but rank 2
    # at both roots, so only the sweep finds the singular zero (0, 1, 0)
    pair = QuadricPair.build(
        QuadraticForm.from_matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]]),
        QuadraticForm.from_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 2]]))
    assert pair.disc_P == 0 and pair.bad_primes == (2,)
    for p in (3, 5, 7, 11, 13):
        assert quadforms._pencil_rank_ok_mod_p(pair, p), p
    assert bad_primes(pair, 13) == (2, 3, 5, 7, 11, 13)
    monkeypatch.setattr(quadforms, "DEFAULT_GUARD", 100)  # 5^3 > 100
    with pytest.raises(ResourceGuardError):
        bad_primes(pair, 13)


def test_bad_primes_checks_pencil_rank():
    # b1 M1 + b2 M2 has rank 1 at b2 = 0; for p = 3 mod 4 the only common
    # zero is 0, so the sweep alone would find nothing singular
    pair = QuadricPair.build(QuadraticForm.diagonal([1, 0, 0]),
                             QuadraticForm.diagonal([1, 1, 1]))
    assert pair.disc_P == 0 and pair.bad_primes == (2,)
    for p in (3, 7, 11):
        assert quadforms._smooth_intersection_mod_p(pair, p), p
    assert bad_primes(pair, 13) == (2, 3, 5, 7, 11, 13)


def test_cone_points_mod_p_vs_brute():
    pair = toy_pair_3()
    for p in (3, 5, 7):
        grid = residue_grid(p, 3)
        brute = int(
            (
                (pair.Q1.eval_batch_mod(grid, p) == 0)
                & (pair.Q2.eval_batch_mod(grid, p) == 0)
            ).sum()
        )
        assert len(residue_zeros_mod_p(pair, p)) == brute


def test_Vm_singular_predicate():
    ship = shipped_pair()
    # found by random search: D_{13^2}(m) != 0 exactly at such m
    assert is_Vm_singular_mod_p(ship, (12, 12, 11, 4, 6), 13)
    assert not is_Vm_singular_mod_p(ship, (9, 10, 7, 3, 7), 11)


def test_zero_layer_memo_is_bounded_and_read_only():
    pair = shipped_pair()
    for p in (3, 5, 7, 11, 13):
        is_Vm_singular_mod_p(pair, (1, 2, 3, 4, 5), p)
        # one layer is kept: the last (pair, p) asked for
        assert quadforms._kept[0] == (pair, p)
    layer = quadforms._zero_layer(pair, 13)
    assert quadforms._zero_layer(pair, 13) is layer
    arrays = [v for v in vars(layer).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 9
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    # the zeros stay public, a fresh array on every call
    zeros = quadforms.residue_zeros_mod_p(pair, 13)
    assert np.array_equal(zeros, layer.Z) and zeros.flags.writeable
    assert not np.shares_memory(zeros, layer.Z)
    assert not np.shares_memory(zeros, quadforms.residue_zeros_mod_p(pair, 13))
    # the smoothness check builds its layer without touching the memo
    assert not quadforms._smooth_intersection_mod_p(pair, 5)
    assert quadforms._kept[1] is layer


def test_mod_p_searches_take_the_callers_guard():
    # p^3 = 1.03e9 passes the default guard; the caller's larger one admits it
    pair = toy_pair_3()
    p, m = 1009, (1, 2, 3)
    with pytest.raises(ResourceGuardError):
        residue_zeros_mod_p(pair, p)
    with pytest.raises(ResourceGuardError):
        is_Vm_singular_mod_p(pair, m, p)
    # x^2 + y^2 + z^2 = x^2 + 3y^2 - 4z^2 = 0 forces x != 0 off the origin;
    # at x = 1 it is y^2 = -5/7, z^2 = -2/7
    inv7 = pow(7, -1, p)
    ys = [y for y in range(p) if (y * y + 5 * inv7) % p == 0]
    zs = [z for z in range(p) if (z * z + 2 * inv7) % p == 0]
    assert len(residue_zeros_mod_p(pair, p, guard=10**10)) == 1 + (p - 1) * len(ys) * len(zs)
    on_plane = [(y, z) for y in ys for z in zs if (m[0] + m[1] * y + m[2] * z) % p == 0]
    assert not on_plane and ys and zs
    assert not is_Vm_singular_mod_p(pair, m, p, guard=10**10)


def test_pair_text_roundtrip(tmp_path):
    ship = shipped_pair()
    path = tmp_path / "pair.txt"
    save_pair(ship, path)
    text = path.read_text()
    back = parse_pair_text(text)
    assert back.Q1.M == ship.Q1.M and back.Q2.M == ship.Q2.M


def test_pair_text_poly_field():
    pair = parse_pair_text("n = 2\nQ1.poly = 1 0 1\nQ2.poly = 0 2 0\n")
    assert pair.Q1.M == ((1, 0), (0, 1))
    assert pair.Q2.M == ((0, 1), (1, 0))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("n = 2\nQ1.matrix = 1 0 0\nQ2.matrix = 0 1 1 0", "expected 4 entries"),
        ("Q1.matrix = 1", "missing field: n"),
        ("n = 2\nQ1.matrix = 1 0 0 1", "missing field: Q2.matrix"),
        ("n = 2\nn = 3\nQ1.matrix = 1 0 0 1\nQ2.matrix = 0 1 1 0", "duplicate"),
        (
            "n = 2\nQ1.matrix = 1 0 0 1\nQ1.poly = 1 0 1\nQ2.matrix = 0 1 1 0",
            "not both",
        ),
        ("n = 2\nQ1.poly = 1 1 1\nQ2.matrix = 0 1 1 0", "cross"),
        ("n = 2\nnonsense line\nQ1.matrix = 1 0 0 1", "key = value"),
    ],
)
def test_pair_text_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_pair_text(text)


def test_random_n5_pairs_build_quickly():
    # |disc_P| of these pairs runs from 1e25 to 5e30, with prime factors up
    # to 4.9e26; trial division alone did not finish four of them in 20 s
    rng = random.Random(3)

    def sym():
        M = [[0] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i, 5):
                M[i][j] = M[j][i] = rng.randint(-4, 4)
        return QuadraticForm.from_matrix(M)

    start = time.perf_counter()
    pairs = [QuadricPair.build(sym(), sym()) for _ in range(6)]
    assert time.perf_counter() - start < 5.0
    for pair in pairs:
        assert all(sympy.isprime(p) for p in pair.bad_primes)
        for v in (pair.det2, pair.disc_P):
            rest = abs(v)
            for p in pair.bad_primes:
                while rest % p == 0:
                    rest //= p
            assert rest == 1, (v, pair.bad_primes)


def test_build_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        QuadricPair.build(
            QuadraticForm.diagonal([1, 1]), QuadraticForm.diagonal([1, 1, 1])
        )
