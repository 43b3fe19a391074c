"""Lattice-point counters for a pair of forms and the weighted sum S(B).

The headline quantity is

    S(B) = sum over x in Z^n with Q2(x) = 0 and Q1(x) odd of
              r2(Q1(x)) * W(x / B),

where r2 counts representations as a sum of two squares and W is a smooth
bump supported on a ball on which Q1 is positive.  Everything here is an
exact integer enumeration followed by one exactly rounded sum of the
float terms, so neither the split of the stream nor its order moves a
bit.  S(B) joins only the zeros in the weight's support ball:
each half-row and each match of the join whose sum of (x_i / B - x0_i)^2
reaches rho^2 (up to a relative slack) is dropped, inside the integer box
around B times the ball (WeightFunction.support_box).

Zeros of Q2 in a box lo_i <= x_i <= hi_i come as one stream of
lexicographic blocks.  Unless Q2 couples the first h = ceil(n/2)
coordinates to the rest, the stream is a meet-in-the-middle join on the
key Q2 d + (Q1 mod d) of each half-row, both forms restricted to the
half once per join (listing takes d = 1).  The keys are read off each
half's coordinate axes (QuadraticForm.eval_grid), so no row is built to
key it: the right half is one table, its lexicographic positions
stable-sorted by key with the start and length of each key's run, and a
left row x_L meets the run of key -key(x_L).  That run is looked up in
one table over the span of the right keys, built with the right half
when the span is no longer than the left half's rows and the right rows
together (else searched for), and every left block reads the same table.
The left half comes in the blocks of quadforms.grid_block_axes(axes,
_STREAM_ROWS), the one block iterator, which every grid of the package
reads (tau_infinity's cells, the r2 table's square, the prefixes mod p):
at most _STREAM_ROWS rows each, the product split into equal runs along
its first axis of more than one value, each run split in turn; for S(B)
the product and each run are first cut to the ball.  A form's int64
check runs once per stream, on the whole axes, and each block runs the
eval_grid kernel alone.  N_d sums the run lengths of each key's index,
building no row (past the keys and their indices, no array as long as
the block); listing builds rows only for the matches, from their
positions in the product of the left block's axes and the right axes
(quadforms._rows_at), block by block, which keeps the stream in order.
A coupled Q2 is scanned over the same blocks of its first n - 1
coordinates, with the last coordinate solved for: Q2 = a x_n^2 +
b(x') x_n + c(x'), b = 2 m.x', and the discriminant b^2 - 4ac, itself a
quadratic form in x' (_grid_form, built once), is read off the block's
axes; b is taken only where that is a square, the integer roots come
from an exact integer square root, rows are built for the roots only,
and each block is sorted.  So a block of the join or of the scan stays
that small at any box size, unless its last axis alone is longer.
enumerate_zeros stacks the stream; S(B) and N_d of a pair that couples
the halves read it block by block.  Every form is even, so on a
symmetric box (lo_i = -hi_i for every i) the zeros come in pairs
{x, -x}, the origin its own pair, and enumerate_zeros reads only the
half x_1 >= 0, putting the stream's x_1 > 0 rows, negated in reverse
order, before it in one array.  N_d reads less: negating a class of the
coordinates the two forms link (a coordinate neither form couples is a
class of its own) fixes both forms, and the box too when the class's
intervals are symmetric.  So N_d reads the first coordinate of every
such class on 0 .. hi_i alone, and a point read stands for 2^k points,
k the number of those coordinates of it that are nonzero: the join
weighs both halves' rows by per-axis factors (1 at 0, 2 elsewhere),
and the stream weighs each zero.  On shipped's box |x| <= 40 that is
41^5 of its 81^5 points.  Any other box is read whole; S(B) always is,
as W is not even.

The default weight (WeightFunction.default_for_pair) is found by array
passes over a fixed grid of unit directions.  Its candidates are the grid
directions on the cone Q2 = 0 with Q1 > 0, then the roots t in (0, 1) of
Q2(u + t (w - u)) = a t^2 + b t + c for every pair of a direction u with
Q2 > 0 and a direction w with Q2 < 0 (the 50 of each sign with the
largest Q1), all pairs solved in one broadcast.  All candidates take
their Newton steps towards the cone together.  The center is the first
candidate whose Q1 / |x|^2 beats every earlier one by more than 1e-12;
many candidates tie, so the order (cone directions, then u outer, w
inner, the root -s before +s) picks the center.  The winner's polish is
replayed on its own, with the one-point products, so the center keeps
the bits of a point-by-point search.  The radius is tested on the shells
x0 + s d, s = f rho, f = 1/4 .. 1, through
Q1(x0 + s d) = Q1(x0) + 2 s d.M1 x0 + s^2 Q1(d): two numbers per
direction, computed once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .guard import DEFAULT_GUARD, check_guard
from .quadforms import (
    _BALL_SLACK,
    QuadraticForm,
    QuadricPair,
    _check_int64,
    _grid_sums,
    _rows_at,
    _term_sums,
    grid_block_axes,
)

__all__ = [
    "BoxSpec",
    "N_d",
    "S_of_B",
    "WeightFunction",
    "enumerate_zeros",
    "s_of_b_rows",
]

@dataclass(frozen=True)
class BoxSpec:
    """The integer box lo_i <= x_i <= hi_i."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("box bounds lo and hi need one length")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box bounds need lo_i <= hi_i")

    def bounds(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(lo, hi), one bound per coordinate of Z^n."""
        if len(self.lo) != n:
            raise ValueError(f"box has {len(self.lo)} coordinates, form has n={n}")
        return tuple(self.lo), tuple(self.hi)


#: most rows of a left block of the join (N_d, listing, S(B)) and of a
#: block of the coupled scan's first n - 1 coordinates: 128 KiB per int64
#: column, glibc's default mmap threshold, which the first such array
#: freed raises past it, so later blocks reuse heap pages.  A larger array
#: is a fresh mapping whose pages fault in on first touch unless earlier
#: large frees have raised the threshold that far: in a fresh process,
#: the lattice benchmark's S ladder, N_d x 4 and scan took 748, 5,636 and
#: 1,343 minor page faults with blocks of 2^15 rows, and 126, 0 and 8 with
#: 2^14, the budget the only change (2-core VM).
_STREAM_ROWS = 1 << 14


def _axes(lo, hi) -> list[np.ndarray]:
    return [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo, hi)]


def _check_solve_fits(M, bound: int) -> None:
    """Raise unless b^2 - 4ac of _solve_last fits int64 for |x| <= bound."""
    n = len(M)
    b_max = 2 * sum(abs(row[-1]) for row in M[:-1]) * bound
    c_max = (n - 1) ** 2 * max(abs(v) for row in M for v in row) * bound**2
    if b_max * b_max + 4 * abs(M[-1][-1]) * c_max >= 2**62:
        raise ValueError("points too large for int64 path")


def _grid_form(M) -> QuadraticForm:
    """The (n - 1)-form _solve_last reads off the axes of x' for the form M
    = a x_n^2 + b(x') x_n + c(x'), b = 2 m.x' with m_i = M_in: c itself
    when a = 0, else the discriminant b^2 - 4ac = x'^T 4 (m m^T - a M') x',
    M' the leading block of M."""
    a, m = M[-1][-1], [row[-1] for row in M[:-1]]
    if a == 0:
        return QuadraticForm.from_matrix([row[:-1] for row in M[:-1]])
    return QuadraticForm.from_matrix([[4 * (mi * mj - a * v) for mj, v in zip(m, row)]
                                      for mi, row in zip(m, M)])


def _solve_last(M, form, axes, lo: int, hi: int) -> np.ndarray:
    """Every zero (x', x_n) of the form M with x' in the lexicographic
    product of the axes and lo <= x_n <= hi, from Q = a x_n^2 + b(x') x_n
    + c(x'), b = 2 m.x'.  form is _grid_form(M) (None at n = 1), read off
    the axes by the eval_grid kernel, the caller having checked it on axes
    these are slices of.  When a != 0 that is the discriminant, and b is
    evaluated only at the x' where the discriminant is a square; when
    a = 0 it is c, and b a broadcast sum.  Rows are built only for the
    integer roots."""
    n = len(M)
    a = M[-1][-1]
    dims = [len(ax) for ax in axes]
    values = form._grid(axes) if n > 1 else np.zeros(1, dtype=np.int64)
    if a == 0:
        # b x_n + c = 0: one root where b != 0, the whole axis where b = c = 0
        c = values
        b = np.zeros(len(c), dtype=np.int64)
        grid = b.reshape(dims)
        for j, ax in enumerate(axes):
            if M[j][-1]:
                grid += 2 * M[j][-1] * ax.reshape([1] * j + [-1] + [1] * (n - 2 - j))
        idx = np.flatnonzero(b != 0)
        idx = idx[c[idx] % b[idx] == 0]
        rows, roots = [idx], [-c[idx] // b[idx]]
        flat = np.flatnonzero((b == 0) & (c == 0))
        rows.append(np.repeat(flat, hi - lo + 1))
        roots.append(np.tile(np.arange(lo, hi + 1, dtype=np.int64), len(flat)))
    else:
        idx = np.flatnonzero(values >= 0)
        d = values[idx]
        del values
        # integer square root: a float estimate, corrected by one either
        # way (IEEE sqrt already gives the root of a perfect square exactly)
        s = d.astype(float)
        s = np.floor(np.sqrt(s, out=s), out=s).astype(np.int64)
        s -= s * s > d
        s += (s + 1) * (s + 1) <= d
        keep = s * s == d
        idx, s = idx[keep], s[keep]
        b = np.zeros(len(idx), dtype=np.int64)
        for j, at in enumerate(np.unravel_index(idx, dims) if n > 1 else ()):
            if M[j][-1]:
                b += 2 * M[j][-1] * axes[j][at]
        rows, roots = [], []
        for sign in (-1, 1):
            if sign == 1:  # a double root is listed once
                idx, s, b = idx[s > 0], s[s > 0], b[s > 0]
            num = sign * s - b
            ok = num % (2 * a) == 0
            rows.append(idx[ok])
            roots.append(num[ok] // (2 * a))
    rows, roots = np.concatenate(rows), np.concatenate(roots)
    inside = (roots >= lo) & (roots <= hi)
    return np.column_stack([_rows_at(axes, rows[inside]), roots[inside]])


def _scan(Q2: QuadraticForm, lo, hi, guard: int):
    """Zeros of Q2 in the box by the solved scan, one lexicographically
    sorted block per grid_block_axes block of the first n - 1 coordinates
    (at most _STREAM_ROWS of them unless the last is longer), read off
    that block's axes; the last coordinate is solved for, _grid_form built
    and checked for int64 on the whole axes once.  The guard is charged
    the zeros found so far (_zero_blocks charges the rows over the first
    n - 1 coordinates)."""
    _check_solve_fits(Q2.M, max(map(abs, lo + hi)))
    axes = _axes(lo[:-1], hi[:-1])
    form = _grid_form(Q2.M) if Q2.n > 1 else None
    if form is not None:
        _check_int64(form.terms(), axes, "points")
    total = 0
    for block, _ in grid_block_axes(axes, _STREAM_ROWS):
        rows = _solve_last(Q2.M, form, block, lo[-1], hi[-1])
        total += len(rows)
        check_guard("enumerate_zeros", total, guard)
        yield rows[np.lexsort(rows.T[::-1])]


def _half_keys(Q2: QuadraticForm, Q1, side, d: int, sign: int, axes):
    """The keys of one half of the join as a function of a block's axes:
    sign Q2(x) d + (sign Q1(x) mod d) over their lexicographic product.
    Both forms are restricted to the coordinates in side, and checked for
    int64 on axes, the half's whole axes (every block's axes are slices of
    them), once, here, so each block runs the eval_grid kernel alone (Q1 is
    not read when d = 1)."""
    forms = [F.restrict(side, sign) for F in ((Q2, Q1) if d > 1 else (Q2,))]
    for q in forms:
        _check_int64(q.terms(), axes, "points")
    q2, q1 = forms[0], forms[1] if d > 1 else None

    def keys(axes) -> np.ndarray:
        key = q2._grid(axes)
        if q1 is not None:
            r = q1._grid(axes)
            # key d + r - (r // d) d, in place: numpy divides an integer array
            # by a scalar far faster than it takes the remainder
            key *= d
            key += r
            r //= d
            r *= d
            key -= r
        return key

    return keys


def _slot_table(keys: np.ndarray, most: int):
    """(lo, table) for the sorted distinct keys: table[k - lo] = 1 + the
    index of key k, 0 elsewhere, over their span and one empty slot either
    side; None when the span holds more than most slots (as for the sparse
    keys of huge boxes) or its ends would leave int64.  The slots take the
    narrowest unsigned type that holds the indices, as the span is often
    far longer than the keys (N_d's keys Q2 d + r spread over d times the
    span of Q2: 115,200 slots for 1,445 keys at d = 8 on the lattice
    benchmark's box), and a table past glibc's mmap threshold is a fresh
    mapping: with int64 slots the benchmark's S ladder and N_d x 4 took
    326 and 433 minor page faults in a fresh process, against 57 and 0."""
    lo, hi = int(keys[0]) - 1, int(keys[-1]) + 1
    if hi - lo - 1 > most or lo < -2**63 or hi >= 2**63:
        return None
    table = np.zeros(hi - lo + 1, dtype=np.min_scalar_type(len(keys)))
    table[keys - lo] = np.arange(1, len(keys) + 1)
    return lo, table


class _RightHalf:
    """The right half of the join: the lexicographic positions of its rows
    stable-sorted by key (order), and the distinct keys with the start and
    length of each key's run in that order.

    The join's one lookup table (_slot_table) is built here, for every
    left block to read, when the span of the keys is no longer than the
    left half's rows and the right rows together; else every key is
    searched for."""

    def __init__(self, order: np.ndarray, keys: np.ndarray, start: np.ndarray,
                 count: np.ndarray, left_rows: int, weight: np.ndarray | None = None):
        self.order, self.keys, self.start, self.count = order, keys, start, count
        # what pairs counts by 1 + key index, 0 for a key no right row has:
        # the run length, or the given weight of each key's run
        self._count = np.concatenate([np.zeros(1, np.int64),
                                      count if weight is None else weight])
        self._table = _slot_table(keys, left_rows + len(order)) if len(keys) else None

    def _search(self, keys: np.ndarray) -> np.ndarray:
        """_index, one searchsorted per key."""
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[at] == keys, at + 1, 0)

    def _index(self, keys: np.ndarray) -> np.ndarray:
        """1 + the index in self.keys of each of the keys, 0 where it is
        not there, read off the table (the keys outside its span clipped to
        its empty ends) when there is one, else searched for; keys may be
        overwritten."""
        if not len(keys) or not len(self.keys):
            return np.zeros(len(keys), dtype=np.int64)
        if self._table is None:
            return self._search(keys)
        lo, table = self._table
        np.clip(keys, lo, lo + len(table) - 1, out=keys)
        keys -= lo
        return table[keys]

    def pairs(self, keys: np.ndarray, factors=None) -> int:
        """The pairs of one of the keys and a right row of that key: the
        run length (or run weight) of each key's index, summed.  Given
        factors, one integer vector per axis of a grid whose lexicographic
        product the keys run over, each key's term is first times the
        product of its factors, one axis contracted at a time; keys may be
        overwritten."""
        # np.take: indexing by the table's narrow unsigned slots goes down
        # numpy's slow path for non-intp indices
        runs = np.take(self._count, self._index(keys))
        if factors is not None:
            runs = runs.reshape([len(f) for f in factors])
            for f in reversed(factors):
                runs = runs @ f
        return int(runs.sum())

    def runs(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(hit, count, start): the positions in keys of the keys some right
        row has, and the length and start of each one's run; keys may be
        overwritten."""
        at = self._index(keys)
        hit = np.flatnonzero(at)
        at = at[hit] - 1
        return hit, np.take(self.count, at), np.take(self.start, at)


def _right_half(Q2: QuadraticForm, Q1, axes, d: int, left_rows: int, rows=None,
                weight=None) -> _RightHalf:
    """The table of the right-half rows x_{h+1..n} over their axes, keyed
    by _half_keys with sign +1; at n = 1 the one empty row, of key 0.
    Given rows, the lexicographic positions of the rows to keep (in
    increasing order), the table holds only those.  Given weight, one
    integer per row of the product of the axes, each key's run counts
    the weights of its rows, not their number.  left_rows, the rows the
    left half stands for, sizes the lookup table (see _RightHalf)."""
    n, h = Q2.n, Q2.n - len(axes)
    keys = (_half_keys(Q2, Q1, range(h, n), d, 1, axes)(axes) if h < n
            else np.zeros(1, np.int64))
    if rows is None:
        order = np.argsort(keys, kind="stable")
    else:
        order = rows[np.argsort(keys[rows], kind="stable")]
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    start = np.flatnonzero(new)
    count = np.diff(start, append=len(keys))
    if weight is not None:
        weight = np.add.reduceat(weight[order], start)
    return _RightHalf(order, keys[start], start, count, left_rows, weight)


def _join_charge(lo, hi) -> int:
    """The rows of the two halves of the box, what a join reads."""
    h = (len(lo) + 1) // 2
    widths = [b - a + 1 for a, b in zip(lo, hi)]
    return math.prod(widths[:h]) + math.prod(widths[h:])


def _mitm(Q2: QuadraticForm, lo, hi, guard: int, ball=None):
    """Zeros of Q2 in the box by the join, one lexicographic block per left
    block of at most _STREAM_ROWS rows (unless the last left axis is
    longer): each left row meets the run of right rows of its key, read off
    the right half's one lookup table.  Rows are built only to expand the
    matches, from their indices.

    ball = (parts, budget), parts[i] a float e_i(v) >= 0 for each value v
    of axis i, keeps only the zeros with sum_i e_i(x_i) < budget (and may
    keep some just above it): a half-row whose own sum reaches budget is
    dropped before its key is looked up, and a match whose two half sums
    do before its row is built.  The guard is charged the matches
    expanded, at most the zeros of the box (_zero_blocks charges the
    halves)."""
    h = (Q2.n + 1) // 2
    axes = _axes(lo, hi)
    left_keys = _half_keys(Q2, None, range(h), 1, -1, axes[:h])
    left_rows = math.prod(len(a) for a in axes[:h])
    if ball is None:
        right = _right_half(Q2, None, axes[h:], 1, left_rows)
        left_parts = budget = None
    else:
        parts, budget = ball
        left_parts, right_sum = parts[:h], _grid_sums(parts[h:])
        right = _right_half(Q2, None, axes[h:], 1, left_rows,
                            np.flatnonzero(right_sum < budget))
        right_sum = right_sum[right.order]
    # a match's row is the one at left * right_size + right of the product
    # of a left block's axes and the right axes
    right_size = math.prod(len(a) for a in axes[h:])
    total = 0
    for block, block_parts in grid_block_axes(axes[:h], _STREAM_ROWS, left_parts, budget):
        keys = left_keys(block)
        if ball is None:
            hit, counts, first = right.runs(keys)
        else:
            left_sum = _grid_sums(block_parts)
            left = np.flatnonzero(left_sum < budget)
            hit, counts, first = right.runs(keys[left])
            hit = left[hit]
        found = int(counts.sum())
        total += found
        check_guard("enumerate_zeros", total, guard)
        # expand the join without a Python loop: left row hit[i] meets the
        # counts[i] right rows from first[i] on
        at_left = np.repeat(hit, counts)
        at_right = np.repeat(first - np.cumsum(counts) + counts, counts)
        at_right += np.arange(found)
        if ball is not None:
            near = np.repeat(left_sum[hit], counts) + right_sum[at_right] < budget
            at_left, at_right = at_left[near], at_right[near]
        yield _rows_at(block + axes[h:], at_left * right_size + right.order[at_right])


def _bounds(B, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(lo, hi) of B, a BoxSpec or a half-width T >= 0 for |x| <= T."""
    if not isinstance(B, BoxSpec):
        if B < 0:
            raise ValueError("box half-width must be non-negative")
        T = int(math.floor(B + 1e-12))
        B = BoxSpec(lo=(-T,) * n, hi=(T,) * n)
    return B.bounds(n)


def _couples(M, h: int) -> bool:
    """True when M has a cross term between the first h coordinates and the rest."""
    return any(M[i][j] for i in range(h) for j in range(h, len(M)))


def _zero_blocks(Q2: QuadraticForm, lo, hi, guard: int, ball=None):
    """The zero stream of Q2 in the box: the join, cut to the ball if one
    is given (see _mitm), or the full scan if Q2 couples the halves.  The
    guard is charged the rows the stream reads (the two halves for the
    join, the first n - 1 coordinates for the scan) here, when the stream
    is made, so a refused box costs nothing: a generator's own checks run
    only when its first block is asked for."""
    if _couples(Q2.M, (Q2.n + 1) // 2):
        check_guard("enumerate_zeros", math.prod(b - a + 1 for a, b in zip(lo[:-1], hi)),
                    guard)
        return _scan(Q2, lo, hi, guard)
    check_guard("enumerate_zeros", _join_charge(lo, hi), guard)
    return _mitm(Q2, lo, hi, guard, ball)


def _symmetric(lo, hi) -> bool:
    """True when lo_i = -hi_i for every i: a form is even, so its zeros in
    such a box come in pairs {x, -x} and are read off the half x_1 >= 0."""
    return all(a == -b for a, b in zip(lo, hi))


def _zeros_at_0(Z: np.ndarray) -> int:
    """How many rows of a sorted block of the half x_1 >= 0 have x_1 = 0
    (they come first)."""
    return int(np.searchsorted(Z[:, 0], 0, side="right"))


def _unfold(blocks: list[np.ndarray]) -> np.ndarray:
    """The zeros of a symmetric box from the sorted blocks of its half
    x_1 >= 0, in one array: the x_1 > 0 rows (a view of each block past its
    x_1 = 0 rows) negated in reverse order, which lists the x_1 < 0 zeros
    lexicographically, then the half itself."""
    neg = [Z[_zeros_at_0(Z):] for Z in blocks]
    half = sum(map(len, neg))
    out = np.empty((half + sum(map(len, blocks)), blocks[0].shape[1]), dtype=np.int64)
    end = half
    for Z in neg:
        np.negative(Z[::-1], out=out[end - len(Z):end])
        end -= len(Z)
    np.concatenate(blocks, out=out[half:])
    return out


def enumerate_zeros(Q2: QuadraticForm, B, *, guard: int = DEFAULT_GUARD) -> np.ndarray:
    """All x in Z^n with Q2(x) = 0 in the box B, as a lexicographically
    sorted (N, n) int64 array: the zero stream of the module notes, stacked.

    B is a BoxSpec(lo, hi) or a half-width T >= 0 for the box |x| <= T.
    On a symmetric box (lo_i = -hi_i for every i) only the half x_1 >= 0
    is streamed, and its rows with x_1 > 0, negated, give the rest
    (_unfold); any other box is streamed whole.  The guard is charged, on
    the box streamed, the two half-box sizes (join) or the rows over the
    first n - 1 coordinates (scan), then the zeros found there.
    """
    lo, hi = _bounds(B, Q2.n)
    if not _symmetric(lo, hi):
        return np.vstack(list(_zero_blocks(Q2, lo, hi, guard)))
    return _unfold(list(_zero_blocks(Q2, (0,) + lo[1:], hi, guard)))


def _check_key_fits(Q2: QuadraticForm, lo, hi, h: int, d: int) -> None:
    """Raise unless every key Q2_half d + (Q1_half mod d) of _half_keys
    fits int64 on the box, for both halves."""
    for side in (range(h), range(h, Q2.n)):
        bound = max(max(abs(lo[i]), abs(hi[i])) for i in side)
        top = sum(abs(c) for i, _, c in Q2.terms() if i in side) * bound**2
        if (top + 1) * d > 2**63:
            raise ValueError("N_d key too large for int64 path")


def _sign_folds(pair: QuadricPair, lo, hi) -> list[bool]:
    """Which coordinates N_d reads on 0 .. hi_i alone: the first of each
    class of coordinates the forms link (i and j are linked when M1_ij or
    M2_ij is nonzero), provided every interval of the class is symmetric
    (lo_i = -hi_i).  Each form is a sum of even forms, one per class, so
    negating a class fixes the pair and such a box; a coordinate neither
    form couples is a class of its own, and with all its coordinates
    linked the fold is x -> -x."""
    cls = list(range(pair.n))  # each class labelled by its first coordinate
    for i in range(pair.n):
        for j in range(i):
            if pair.Q1.M[i][j] or pair.Q2.M[i][j]:
                keep, gone = min(cls[i], cls[j]), max(cls[i], cls[j])
                cls = [keep if c == gone else c for c in cls]
    return [c == i and all(lo[k] == -hi[k] for k in range(pair.n) if cls[k] == i)
            for i, c in enumerate(cls)]


def _fold_factors(axes, folded) -> list[np.ndarray]:
    """Per axis, the weight factor of each of its values: 1 at 0 and 2
    elsewhere on a folded axis (folded[i] marks axis i), 1 on the others.
    A row of the axes' product stands for the product of its factors,
    2^k rows, k the number of its folded coordinates that are nonzero."""
    return [np.where(axis == 0, 1, 2) if fold else np.ones(len(axis), np.int64)
            for axis, fold in zip(axes, folded)]


def _N_d_join(pair: QuadricPair, d: int, lo, hi, folded) -> int:
    """N_d from the right-half table and the keys of each left block of at
    most _STREAM_ROWS rows (unless the last left axis is longer): a left
    row meets every right row of its key.  The box is the folded one (lo_i
    = 0 on the folded coordinates, see _sign_folds), each of its rows
    standing for the product of its _fold_factors: the right table's runs
    count the weights of their rows, and a left block's terms are
    contracted with its axes' factors.  No row is built, and the left
    keys' forms and the lookup table are built once, the table sized by
    the left rows the folded half stands for."""
    h = (pair.n + 1) // 2
    axes = _axes(lo, hi)
    factors = _fold_factors(axes, folded)
    weight = functools.reduce(np.multiply.outer, factors[h:], np.ones((), np.int64))
    right = _right_half(pair.Q2, pair.Q1, axes[h:], d,
                        math.prod(int(f.sum()) for f in factors[:h]), weight=weight.reshape(-1))
    left_keys = _half_keys(pair.Q2, pair.Q1, range(h), d, -1, axes[:h])
    return sum(right.pairs(left_keys(block), _fold_factors(block, folded[:h]))
               for block, _ in grid_block_axes(axes[:h], _STREAM_ROWS))


def N_d(pair: QuadricPair, d: int, B, *, guard: int = DEFAULT_GUARD) -> int:
    """#{ x in the box B : d | Q1(x), Q2(x) = 0 }, B a BoxSpec or a
    half-width as in enumerate_zeros.

    The sign changes that fix both forms and the box (_sign_folds) fix
    the count, so only the part of the box with x_i >= 0 on the folded
    coordinates is read, and a point there stands for 2^k points, k the
    number of its folded coordinates that are nonzero.  When neither form
    couples the first ceil(n/2) coordinates to the rest, no zero is
    listed: N_d is the join of the module notes, charged the two half-box
    sizes of the folded box, the rows it reads (70,602 on shipped's box
    |x| <= 40, 126,002,502 on |x| <= 500).  Otherwise d | Q1 is counted
    on each block of the zero stream of Q2 on the folded box, guarded as
    in enumerate_zeros.  A d beyond the largest |Q1| on the
    box, R, counts as R + 1: either way d | Q1 iff Q1 = 0.

    Monotone in d: N_e(B) <= N_d(B) whenever d | e.
    """
    if d < 1:
        raise ValueError("d must be positive")
    n = pair.n
    lo, hi = _bounds(B, n)
    h = (n + 1) // 2
    # |Q1| <= R on the box, so every d > R counts the zeros with Q1 = 0
    R = sum(abs(c) for _, _, c in pair.Q1.terms()) * max(map(abs, lo + hi)) ** 2
    d = min(d, R + 1)
    folded = _sign_folds(pair, lo, hi)
    start = tuple(0 if fold else a for a, fold in zip(lo, folded))
    if _couples(pair.Q1.M, h) or _couples(pair.Q2.M, h):
        total = 0
        for Z in _zero_blocks(pair.Q2, start, hi, guard):
            if d > 1:
                Z = Z[pair.Q1.eval_batch(Z) % d == 0]
            total += int(np.left_shift(1, (Z[:, folded] != 0).sum(axis=1)).sum())
        return total
    check_guard("N_d", _join_charge(start, hi), guard)
    _check_key_fits(pair.Q2, lo, hi, h, d)
    return _N_d_join(pair, d, start, hi, folded)


# --------------------------------------------------------------------------
# the smooth weight
# --------------------------------------------------------------------------


def _sphere_dirs(n: int) -> np.ndarray:
    """Deterministic set of unit directions: the nonzero integer vectors
    with entries in [-2, 2], normalized, in grid order, each direction once.

    Two such vectors share a direction only as w and 2w with w in
    {-1, 0, 1}^n; the grid lists 2w after w iff the last nonzero entry of
    w is positive, and the earlier of the two is kept."""
    idx = np.arange(5**n, dtype=np.int64)
    grid = np.stack([(idx // 5**j) % 5 - 2 for j in range(n)], axis=1)
    grid = grid[(grid != 0).any(axis=1)]
    last = grid[np.arange(len(grid)), n - 1 - np.argmax(grid[:, ::-1] != 0, axis=1)]
    doubled = (np.abs(grid) != 1).all(axis=1) & (last > 0)
    halved = (np.abs(grid) <= 1).all(axis=1) & (last < 0)
    grid = grid[~(doubled | halved)]
    norms = np.sqrt((grid.astype(float) ** 2).sum(axis=1))
    return grid / norms[:, None]


def _cone_candidates(q2: np.ndarray, q1: np.ndarray, dirs: np.ndarray,
                     M2: np.ndarray) -> np.ndarray:
    """Starting points on or near the cone Q2 = 0, in search order: the
    directions on the cone with Q1 > 0, then the roots of Q2 on the
    segments u -> w joining the 50 directions with Q2 > 0 (outer) and the
    50 with Q2 < 0 (inner) of largest Q1, the root -s before +s."""
    cone = np.flatnonzero((np.abs(q2) < 1e-12) & (q1 > 1e-9))
    pos = np.flatnonzero(q2 > 1e-12)
    neg = np.flatnonzero(q2 < -1e-12)
    pos = pos[np.argsort(-q1[pos], kind="stable")][:50]
    neg = neg[np.argsort(-q1[neg], kind="stable")][:50]
    # Q2(u + t dvec) = a t^2 + b t + c, each coefficient from a stack of
    # (1, n) @ (n, n) products, the products one segment alone would take
    u = dirs[pos][:, None, None, :]
    dvec = dirs[neg][None, :, None, :] - u
    a = (dvec @ M2 @ dvec.swapaxes(-1, -2))[..., 0, 0]
    b = 2.0 * (u @ M2 @ dvec.swapaxes(-1, -2))[..., 0, 0]
    c = np.broadcast_to(q2[pos][:, None], a.shape)
    flat = np.abs(a) < 1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(b * b - 4 * a * c)  # nan where there is no real root
        t = np.stack([(-b - s) / (2 * a), (-b + s) / (2 * a)], axis=-1)
        t[flat, 0] = np.where(np.abs(b[flat]) > 1e-15, -c[flat] / b[flat], np.nan)
    t[flat, 1] = np.nan
    inside = (0.0 < t) & (t < 1.0)
    return np.vstack([dirs[cone], (u + t[..., None] * dvec)[inside]])


def _polish(Q2: QuadraticForm, M2: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Five Newton steps along grad Q2 from every row of Y; a row stops at
    the first step where |grad Q2|^2 < 1e-20."""
    Y = Y.copy()
    live = np.ones(len(Y), dtype=bool)
    for _ in range(5):
        g = 2.0 * Y @ M2
        gg = (g * g).sum(axis=1)
        live &= ~(gg < 1e-20)
        Y[live] -= (Q2.eval_float(Y[live]) / gg[live])[:, None] * g[live]
    return Y


def _bump(t: np.ndarray) -> np.ndarray:
    """exp(-1 / (1 - t)) in the storage of the float array t, the bump
    profile of WeightFunction.  t is clipped to 1 - 1e-15 first: there the
    exponent is below -9e14, so the bump underflows to exactly 0 outside
    its support."""
    np.minimum(t, 1.0 - 1e-15, out=t)
    np.subtract(1.0, t, out=t)
    np.divide(-1.0, t, out=t)
    return np.exp(t, out=t)


@dataclass(frozen=True)
class WeightFunction:
    """Smooth bump W(x) = exp(-1 / (1 - t)) with t = |x - x0|^2 / rho^2,
    supported on the closed ball of radius rho about x0."""

    x0: tuple[float, ...]
    rho: float

    def __post_init__(self) -> None:
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if not self.x0:
            raise ValueError("center must be non-empty")

    @property
    def n(self) -> int:
        return len(self.x0)

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        c = np.array(self.x0, dtype=float)
        t = ((np.asarray(X, dtype=float) - c) ** 2).sum(axis=-1) / self.rho**2
        return _bump(np.asarray(t))

    def __call__(self, x) -> float:
        return float(self.eval_batch(np.asarray(x, dtype=float)[None, :])[0])

    def support_box(self, B: float) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Integer bounds (lo, hi) of a box holding every x with
        W(x / B) > 0: B (x0_i -+ rho) rounded outwards, widened by one."""
        lo = tuple(math.floor(B * (c - self.rho)) - 1 for c in self.x0)
        hi = tuple(math.ceil(B * (c + self.rho)) + 1 for c in self.x0)
        return lo, hi

    @classmethod
    def default_for_pair(cls, pair: QuadricPair, scale: float = 6.0) -> "WeightFunction":
        """Center on the real cone Q2 = 0 where Q1 > 0; see module notes.

        x0 is `scale` times the unit point of largest Q1 on the cone
        (larger scale means more lattice points inside the scaled support,
        hence less counting noise at a given B).  rho starts at |x0| / 2
        and shrinks by 0.95 until Q1 > Q1(x0) / 2 on the shells
        x0 + f rho d; grad Q1 vanishes nowhere there, since
        x . grad Q1(x) = 2 Q1(x) > 0.
        """
        if not scale > 0:
            raise ValueError("scale must be positive")
        dirs = _sphere_dirs(pair.n)
        q2 = pair.Q2.eval_float(dirs)
        q1 = pair.Q1.eval_float(dirs)
        M2 = np.array(pair.Q2.M, dtype=float)

        start = _cone_candidates(q2, q1, dirs, M2)
        Y = _polish(pair.Q2, M2, start)
        nrm = np.sqrt((Y * Y).sum(axis=1))
        score = pair.Q1.eval_float(Y) / (nrm * nrm)
        score[(nrm < 1e-9) | (np.abs(pair.Q2.eval_float(Y)) > 1e-9 * nrm * nrm)] = -np.inf
        # a candidate can only pass `score > best + 1e-12` if it beats
        # every earlier one, so the first-wins scan visits the records only
        before = np.fmax.accumulate(np.concatenate([[-np.inf], score[:-1]]))
        win, best_score = None, -math.inf
        for k in np.flatnonzero(score > before):
            if score[k] > best_score + 1e-12:
                win, best_score = k, score[k]
        if win is None or best_score <= 0:
            raise ValueError("no point with Q1 > 0 found on the cone Q2 = 0")
        # the winner's polish again, with the products one point takes: the
        # batch rounds differently, and x0 and its score keep these bits
        y = start[win]
        for _ in range(5):
            g = 2.0 * M2 @ y
            gg = float(g @ g)
            if gg < 1e-20:
                break
            y = y - float(pair.Q2.eval_float(y)) / gg * g
        nrm = float(np.sqrt(y @ y))
        best_score = float(pair.Q1.eval_float(y)) / (nrm * nrm)
        x0 = scale * (y / nrm)

        # Q1(x0 + s d) = Q1(x0) + 2 s d.M1 x0 + s^2 Q1(d), with s = f rho
        q1_x0 = float(pair.Q1.eval_float(x0))
        lin = 2.0 * (dirs @ (np.array(pair.Q1.M, dtype=float) @ x0))
        target = scale * scale * best_score / 2.0
        fracs = np.array([[0.25], [0.5], [0.75], [1.0]])
        rho = 0.5 * scale
        while rho > 1e-3 * scale:
            s = fracs * rho
            if min(q1_x0, float((q1_x0 + s * lin + s * s * q1).min())) > target:
                return cls(tuple(float(v) for v in x0), rho)
            rho *= 0.95
        raise ValueError("no admissible support radius found")


# --------------------------------------------------------------------------
# the weighted sum
# --------------------------------------------------------------------------


def _r2_table(top: int, guard: int) -> np.ndarray:
    """r2(M) for 0 <= M <= top as floats: u^2 + v^2 over the quarter disc
    u, v >= 0, each pair weighted by its (+-u, +-v) fold (entry 0 is 1, the
    origin), scattered into the table (np.add.at) block by block: the
    blocks of grid_block_axes over the square holding the disc, with the
    ball u^2 + v^2 < top + 1, at most _STREAM_ROWS pairs each unless one
    row is longer.  The guard is charged the (isqrt(top) + 1)^2 pairs of
    that square before the table is made."""
    s = math.isqrt(top)
    check_guard("S_of_B r2 table", (s + 1) ** 2, guard)
    table = np.zeros(top + 1)
    t = np.arange(s + 1, dtype=np.int64)
    squares, fold = t * t, np.where(t == 0, 1.0, 2.0)
    for (u, v), (u2, v2) in grid_block_axes([t, t], _STREAM_ROWS, [squares] * 2, top + 1):
        norms = u2[:, None] + v2
        inside = norms <= top
        np.add.at(table, norms[inside], (fold[u, None] * fold[v])[inside])
    return table


class _ExactSum:
    """The exactly rounded sum of float64 terms added block by block, so
    its bits depend on neither the split nor the order: math.fsum's value.

    A finite term is m 2^q with m an integer, |m| < 2^53.  The high and
    low 26-bit halves of m are summed per q: bincount's float sums of such
    halves are exact for fewer than 2^26 terms, so add takes the terms in
    runs of at most that many, and the int64 totals hold fewer than 2^36
    terms per q.  value() rounds the integer total once."""

    _BIAS = 1126  # q + _BIAS over 0 .. 2097, from 2^-1074 to the largest float
    _RUN = 1 << 26

    def __init__(self) -> None:
        self._hi = np.zeros(2098, dtype=np.int64)
        self._lo = np.zeros(2098, dtype=np.int64)

    def add(self, terms: np.ndarray) -> None:
        for at in range(0, len(terms), self._RUN):
            f, e = np.frexp(terms[at:at + self._RUN])
            m = np.ldexp(f, 53).astype(np.int64)
            q = e + (self._BIAS - 53)
            self._hi += np.bincount(q, m >> 26, len(self._hi)).astype(np.int64)
            self._lo += np.bincount(q, m & ((1 << 26) - 1), len(self._lo)).astype(np.int64)

    def value(self) -> float:
        used = np.flatnonzero(self._hi | self._lo).tolist()
        if not used:
            return 0.0
        low = used[0]
        total = sum(((int(self._hi[i]) << 26) + int(self._lo[i])) << (i - low) for i in used)
        q = low - self._BIAS
        # int true division rounds correctly, as math.fsum does
        return float(total << q) if q >= 0 else total / (1 << -q)


def _ball_max(Q: QuadraticForm, center, radius: float) -> int:
    """An integer upper bound on Q over the ball |x - center| <= radius, at
    least 0: Q(center + y) = Q(center) + 2 y.M center + Q(y) is at most
    Q(center) + 2 radius |M center| + radius^2 max(lambda_max(M), 0), the
    value itself when M is a multiple of the identity.  The floats are
    raised by 1e-9 of the scale |M| (|center| + radius)^2, far above
    their rounding."""
    M = np.array(Q.M, dtype=float)
    c = np.array(center, dtype=float)
    Mc = M @ c
    top = (float(c @ Mc) + 2 * radius * float(np.linalg.norm(Mc))
           + radius**2 * max(float(np.linalg.eigvalsh(M)[-1]), 0.0))
    top += 1e-9 * float(np.abs(M).sum()) * (float(np.linalg.norm(c)) + radius) ** 2
    return max(0, math.floor(top) + 1)


def S_of_B(pair: QuadricPair, W: WeightFunction, B: float, *,
           guard: int = DEFAULT_GUARD) -> float:
    """S(B) = sum over Q2(x) = 0, Q1(x) odd of r2(Q1(x)) W(x / B).

    The zero stream of Q2 on the weight's support box (guarded as in
    enumerate_zeros) is, for the join, cut to the support ball: with
    e_i(v) = (v / B - x0_i)^2 per axis, the join drops every half-row and
    every match whose sum of e_i reaches rho^2 (1 + _BALL_SLACK), where
    W(x / B) = 0 (the slack covers the rounding of W's own sum).  A pair
    whose Q2 couples the halves streams the whole box.  r2 is read off one
    table up to top = _ball_max of Q1 on the ball |x - B x0| <= B rho,
    where W(x / B) > 0; it is made once, after the stream's own guard
    charge and before its first block, and the guard is charged the
    (isqrt(top) + 1)^2 pairs of its square.  Block by block, the terms
    r2(Q1(x)) W(x / B) of the points with Q1 odd and positive and W > 0
    (the others contribute nothing) go straight into one exactly rounded
    sum (_ExactSum, the value math.fsum gives), and neither the zeros nor
    the terms are held.  So the result is the correctly rounded sum of the
    terms: the block split, the order of the terms and the cut change no
    bit of it.
    """
    if B <= 0:
        raise ValueError("B must be positive")
    if W.n != pair.n:
        raise ValueError("weight dimension mismatch")
    lo, hi = W.support_box(B)
    parts = [(axis / B - c) ** 2 for axis, c in zip(_axes(lo, hi), W.x0)]
    ball = (parts, W.rho**2 * (1.0 + _BALL_SLACK))
    blocks = _zero_blocks(pair.Q2, lo, hi, guard, ball)
    # every zero lies in the box, so one check of Q1 on it serves them all
    q1_terms = pair.Q1.terms()
    _check_int64(q1_terms, [np.array(lo + hi)], "points")
    r2 = _r2_table(_ball_max(pair.Q1, [B * c for c in W.x0], B * W.rho), guard)

    total = _ExactSum()
    for zeros in blocks:
        q1 = _term_sums(zeros, q1_terms)
        keep = (q1 > 0) & (q1 % 2 == 1)
        w = W.eval_batch(zeros[keep] / B)
        live = w > 0
        total.add(r2[q1[keep][live]] * w[live])
    return total.value()


def s_of_b_rows(pair: QuadricPair, W: WeightFunction, B_values, *,
                guard: int = DEFAULT_GUARD) -> list[tuple]:
    """Rows (B, S(B), S(B) / B^{n-2}) for export."""
    rows = []
    for B in B_values:
        s = S_of_B(pair, W, B, guard=guard)
        rows.append((float(B), s, s / float(B) ** (pair.n - 2)))
    return rows
