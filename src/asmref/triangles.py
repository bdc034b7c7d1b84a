"""Alternating sign matrices, monotone triangles, and refined counting tables.

Counting rests on alpha_count, the number of triangular arrays over a
prescribed weakly increasing bottom row in which every row above the bottom
is strictly increasing and consecutive rows interlace.  All refined ASM counts
reduce to it: deleting d columns from the staircase row (1, ..., n) counts the
order-n matrices whose last d rows are unit rows with their 1s in those
columns, read upward in increasing order.

One counting kernel computes it, _add_line, which adds one line of the
matrix of the ASM <-> domain-wall correspondence along either axis.  It
splits the states by the running sum h of the line being added, h0 and h1,
over the partial sums of the lines across it; each cell moves a state
between them.  The states are held in the blocks of lists of _Blocks, and a
cell adds row slices, strided column slices or single pairs of them.  Two
walks call it:

- the column sweep (_column_sweep) adds the matrix row by row and counts every
  subset of {1..n} at once; it carries and keeps only the subsets that
  contain column 1, since a translate of a triangle is a triangle, and
  _sweep_count reads any other subset from its translate that contains
  column 1; every refined table and refined_count is such a lookup into the
  sweep of its order (_staircase_counts), and so is every term of a row with
  a tie, which alpha_count sums over the strictly increasing rows that
  interlace it from above, though no claim counts such a row;
- the row transfer (_row_transfer) adds the n x W matrix of one strictly
  increasing row of width W column by column; alpha_count_grid counts every
  row of a grid of candidate entries in one depth-first walk over the
  columns, in which the rows with the same entries so far share each
  column's states, and alpha_count sends every strictly increasing row there
  as the grid of its singleton levels, under one budget on the whole walk.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .combinat import as_int, as_size, int_text, ints_text
from .config import DEFAULT_BUDGET, Budget
from .errors import BudgetError, ValidationError


@dataclass(frozen=True)
class Asm:
    """A validated alternating sign matrix (rows as tuples over {-1, 0, 1})."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise ValidationError("matrix must be nonempty")
        for row in self.entries:
            if len(row) != n:
                raise ValidationError("matrix must be square")
        for axis, lines in (("row", self.entries), ("column", zip(*self.entries))):
            for pos, line in enumerate(lines, 1):
                partial = 0
                for value in line:
                    if value == 0:
                        continue  # a valid entry that keeps the partial sum
                    if value == 1:
                        partial += 1
                    elif value == -1:
                        partial -= 1
                    else:
                        raise ValidationError(f"entries must be -1, 0 or 1, got {int_text(value)}")
                    if partial != 0 and partial != 1:
                        raise ValidationError(
                            f"{axis} {pos}: partial sums must stay in {{0, 1}}"
                        )
                if partial != 1:
                    raise ValidationError(f"{axis} {pos}: entries must sum to 1")

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class MonotoneTriangle:
    """A monotone triangle; rows top first, so row i (1-based) has i entries."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValidationError("triangle must be nonempty")
        for i, row in enumerate(self.rows, 1):
            if len(row) != i:
                raise ValidationError(f"row {i} must have {i} entries, got {len(row)}")
            a = row[0]
            for b in row[1:]:
                if a >= b:
                    raise ValidationError(f"row {i} must be strictly increasing: {ints_text(row)}")
                a = b
        for upper, lower in zip(self.rows, self.rows[1:]):
            low = lower[0]
            for value, high in zip(upper, lower[1:]):
                if not low <= value <= high:
                    raise ValidationError(
                        f"rows {ints_text(upper)} over {ints_text(lower)}"
                        " violate the interlacing condition"
                    )
                low = high

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def bottom_row(self) -> tuple[int, ...]:
        return self.rows[-1]

    @property
    def is_complete(self) -> bool:
        return self.bottom_row == tuple(range(1, self.n + 1))


def asm_to_mt(a: Asm) -> MonotoneTriangle:
    """Map an ASM to the triangle of its partial column-sum 1-positions.

    The Asm is validated, so every partial column sum is 0 or 1 and is true
    exactly where it is 1.
    """
    columns = range(1, a.n + 1)
    sums = [0] * a.n
    rows = []
    for row in a.entries:
        sums = list(map(operator.add, sums, row))
        rows.append(tuple(itertools.compress(columns, sums)))
    return MonotoneTriangle(tuple(rows))


def mt_to_asm(t: MonotoneTriangle) -> Asm:
    """Inverse of asm_to_mt; the triangle must be complete (bottom row 1..n)."""
    if not t.is_complete:
        raise ValidationError(
            f"triangle is not complete: bottom row {ints_text(t.bottom_row)} is not 1..{t.n}"
        )
    prev = [0] * t.n
    entries = []
    for row in t.rows:
        cur = [0] * t.n
        for v in row:
            cur[v - 1] = 1
        entries.append(tuple(map(operator.sub, cur, prev)))
        prev = cur
    return Asm(tuple(entries))


def alpha_count(bottom: Sequence[int], budget: Budget = DEFAULT_BUDGET) -> int:
    """Number of monotone triangles over a weakly increasing bottom row.

    Ties are allowed in the bottom row only: every row above it is strictly
    increasing, so a row with a tie counts the triangles over the strictly
    increasing rows that interlace it from above.

    A strictly increasing row is counted by the row transfer, as the grid of
    its entries' singleton levels, and raises BudgetError before counting
    when the transfer would exceed the budget.  A row with a tie of
    width W sums lookups into the column sweep of order W, and raises
    BudgetError before counting when W exceeds table_max_n, like every table.
    """
    row = _normalized(bottom)
    if len(row) < 2:
        return 1
    if all(a < b for a, b in zip(row, row[1:])):
        return alpha_count_grid([(v,) for v in row], budget)[0]
    width = row[-1] + 1
    cap = budget.table_max_n
    if width > cap:
        raise BudgetError(f"a tied row of width {width} exceeds the budget cap {cap}")
    # entry v of a row above is column v + 1 of the sweep, bit v + 1 of its mask
    counts = _staircase_counts(width)
    return sum(
        _sweep_count(counts, sum(2 << v for v in above)) for above in _interlacing_rows(row)
    )


def alpha_count_grid(
    levels: Sequence[Sequence[int]], budget: Budget = DEFAULT_BUDGET
) -> list[int]:
    """alpha_count of every row of a grid of candidate entries, from one row transfer.

    Entry i of a row is a candidate of levels[i]; the rows are listed in the
    order of itertools.product(*levels).  checked_grid checks the levels and
    the budget before counting.
    """
    return _row_transfer(checked_grid(levels, budget))


def checked_grid(
    levels: Sequence[Sequence[int]], budget: Budget = DEFAULT_BUDGET
) -> tuple[tuple[int, ...], ...]:
    """The levels of a grid as int tuples, once the row transfer over them fits the budget.

    Every level must be nonempty and strictly increasing and lie below the
    next one, so every row is strictly increasing.  With n entries, it
    raises BudgetError when the whole walk, the sum over i of its column
    steps with i entries placed times n * binom(n, i), exceeds
    table_max_n^2 * 2^table_max_n, the nominal cell updates of the largest
    column sweep the budget allows, unpruned.
    """
    grid = tuple(tuple(map(as_int, level)) for level in levels)
    if not grid:
        raise ValidationError("at least one level is required")
    for level in grid:
        if not level or any(a >= b for a, b in zip(level, level[1:])):
            raise ValidationError(
                f"levels must be nonempty and strictly increasing: {ints_text(level)}"
            )
    for below, above in zip(grid, grid[1:]):
        if below[-1] >= above[0]:
            raise ValidationError(
                f"level {ints_text(above)} overlaps the level {ints_text(below)} before it"
            )
    n, cap = len(grid), budget.table_max_n
    # the walk takes `steps` columns with i entries placed, each of n cells on
    # about binom(n, i) states, since i entries leave i row bits set
    cost, rows, steps = 0, 1, grid[0][-1] - grid[0][0] + 1
    for i, level in enumerate(grid):
        cost += steps * n * math.comb(n, i)
        if i + 1 < n:
            steps = rows * sum(grid[i + 1][-1] - e for e in level)
        rows *= len(level)
    if cost > cap * cap * 2**cap:
        raise BudgetError(
            f"row transfer over a grid of {rows} rows of {n} entries"
            f" up to column {int_text(grid[-1][-1])}"
            f" exceeds the budget of an order-{cap} sweep"
        )
    return grid


def _normalized(bottom: Sequence[int]) -> tuple[int, ...]:
    """The row as ints translated to start at zero; raises unless weakly increasing."""
    row = tuple(map(as_int, bottom))
    if any(a > b for a, b in zip(row, row[1:])):
        raise ValidationError(f"bottom row must be weakly increasing: {ints_text(row)}")
    return tuple(v - row[0] for v in row)


def _interlacing_rows(row: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All strictly increasing rows interlacing the given row from above."""

    def rec(pos: int, lo: int) -> Iterator[tuple[int, ...]]:
        if pos == len(row) - 1:
            yield ()
            return
        for v in range(max(row[pos], lo), row[pos + 1] + 1):
            for rest in rec(pos + 1, v + 1):
                yield (v,) + rest

    yield from rec(0, row[0])


def complete_monotone_triangles(
    n: int, budget: Budget = DEFAULT_BUDGET
) -> list[MonotoneTriangle]:
    """All monotone triangles of order n with bottom row 1..n."""
    n = as_size(n, "order")
    if n > budget.enumeration_max_n:
        raise BudgetError(
            f"enumeration at n={n} exceeds the budget cap {budget.enumeration_max_n}"
        )

    def extend_upward(rows: tuple[tuple[int, ...], ...]) -> Iterator[MonotoneTriangle]:
        if len(rows[0]) == 1:
            yield MonotoneTriangle(rows)
        else:
            for above in _interlacing_rows(rows[0]):
                yield from extend_upward((above,) + rows)

    return list(extend_upward((tuple(range(1, n + 1)),)))


def enumerate_asms(n: int, budget: Budget = DEFAULT_BUDGET) -> list[Asm]:
    """All ASMs of order n, sorted lexicographically by row-major entries."""
    asms = [mt_to_asm(t) for t in complete_monotone_triangles(n, budget)]
    asms.sort(key=lambda a: a.entries)
    return asms


def refined_count(n: int, indices: Sequence[int], budget: Budget = DEFAULT_BUDGET) -> int:
    """Count order-n ASMs refined by the 1-columns of their leading rows.

    With d = len(indices), this is the number of order-n ASMs whose first d
    rows place their fresh 1s in the given columns; it equals the number of
    monotone triangles of order n - d over the complement of the indices in
    1..n, and is 1 by convention when d = n.  The count is read from the column
    sweep of order n, so it is capped by budget.table_max_n like every table.
    """
    idx = tuple(map(as_int, indices))
    n = as_size(n, "order")
    if not idx:
        raise ValidationError("at least one index is required")
    if idx[0] < 1 or idx[-1] > n or any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValidationError(f"indices must be strictly increasing in 1..{n}: {ints_text(idx)}")
    checked_table(n, len(idx), budget)
    return _sweep_count(_staircase_counts(n), _complement_mask(n, idx))


@dataclass(frozen=True)
class RefinedTable:
    """All d-fold refined counts of order n, keyed by index tuples."""

    n: int
    d: int
    entries: Mapping[tuple[int, ...], int]

    def __post_init__(self):
        n = as_size(self.n, "order")
        as_size(self.d, "depth", 1, n)
        if self.entries.keys() != set(itertools.combinations(range(1, n + 1), self.d)):
            raise ValidationError(
                f"a table needs one entry per increasing {self.d}-tuple in 1..{self.n}"
            )
        if not all(type(v) is int for v in self.entries.values()):
            counts = {key: as_int(value, "counts") for key, value in self.entries.items()}
            object.__setattr__(self, "entries", counts)
        for key, value in self.entries.items():
            if value < 0:
                raise ValidationError(f"count at {key} is negative: {int_text(value)}")

    def value(self, *indices: int) -> int:
        key = indices[0] if len(indices) == 1 and isinstance(indices[0], tuple) else indices
        try:
            return self.entries[tuple(key)]
        except KeyError:
            raise ValidationError(f"no entry at {ints_text(key)}") from None


def build_table(n: int, d: int, budget: Budget = DEFAULT_BUDGET) -> RefinedTable:
    """Build the complete d-fold refined table of order n."""
    n, d = checked_table(n, d, budget)
    counts = _staircase_counts(n)
    entries = {
        combo: _sweep_count(counts, _complement_mask(n, combo))
        for combo in itertools.combinations(range(1, n + 1), d)
    }
    return RefinedTable(n, d, entries)


def checked_table(n: int, d: int, budget: Budget) -> tuple[int, int]:
    """The order and depth of a table as ints, once its order is within table_max_n."""
    n = as_size(n, "order")
    d = as_size(d, "depth", 1, n)
    cap = budget.table_max_n
    if n > cap:
        raise BudgetError(f"refined counts at n={n} exceed the budget cap {cap}")
    return n, d


# Column sweeps by order.  A sweep of order N maps the bitmask S of the empty
# set and of every subset of {1..N} that contains column 1 (column j is bit j)
# to alpha_count(S), 2^(N-1) + 1 entries; _sweep_count reads any other subset
# from its translate.  The count does not depend on N, because every row of a
# triangle lies between the ends of its bottom row, so one sweep also answers
# every lower order, and the memo keeps only the highest order swept.
_sweep_memo: dict[int, dict[int, int]] = {}


def _staircase_counts(n: int) -> dict[int, int]:
    for order, counts in _sweep_memo.items():
        if order >= n:
            return counts
    _sweep_memo.clear()  # the new sweep holds every count of a lower one
    counts = _sweep_memo[n] = _column_sweep(n)
    return counts


def _column_sweep(n: int) -> dict[int, int]:
    """alpha_count of the empty set and of every subset of {1..n} that contains column 1.

    The ASM rows are added one entry at a time.  A state holds the partial
    column sums as bits 1..n, and is kept in h0 or h1 by the running row sum
    h; the entry in column j is the cell between h and bit j.  A row is
    complete when h is 1.  After row k the states are the k-subsets that are
    the bottom rows of k-row monotone triangles, with their counts.

    Only the subsets that contain column 1 are carried and kept.  A translate
    of a triangle is a triangle, so alpha_count(T << t) = alpha_count(T), and
    every nonempty subset of {1..n} is one such T shifted by its least column
    minus 1 (_sweep_count).  Row k + 1 starts from row k: its k-subsets that
    contain column 1 are h0, where the 0 in column 1 keeps them, and the
    translates of them inside {2..n}, each with column 1 added by a +1, are
    h1.  The other states, the k-subsets of {2..n} with a 0 in column 1, end
    the row without column 1 and are never made.  So h1 starts with every
    (k + 1)-subset that contains column 1, and no cell adds a state.

    The states over columns 2..n are blocks of _Blocks, and _add_line adds
    a row's cells to them.
    """
    blocks = _Blocks(range(2, n + 1))
    counts = {0: 1, 2: 1}
    row = [[1]]  # row 1: the one triangle over column 1
    for k in range(1, n):
        # the columns but 1 of row k + 1's states, block by block; the previous
        # row is h0 itself, counts holds its own copy of it, and each state of
        # h1 counts what its translate in that row does
        parts = blocks.masks(k)
        h1 = [[counts[s // (s & -s) * 2] for s in part] for part in parts]
        _add_line(blocks.plans[k - 1], row, h1)
        for part, block in zip(parts, h1):
            counts.update(zip([s | 2 for s in part], block))
        row = h1
    return counts


def _masks_by_size(columns: range) -> list[list[int]]:
    """The bitmasks of the subsets of the columns, by size, in combinations order."""
    bits = [1 << c for c in columns]
    return [list(map(sum, itertools.combinations(bits, size))) for size in range(len(bits) + 1)]


def _sweep_count(counts: Mapping[int, int], mask: int) -> int:
    """alpha_count of the subset with this mask, read from a column sweep.

    A nonempty subset counts what its translate that contains column 1 does:
    the mask shifted down until bit 1 is its least bit.
    """
    return counts[mask // (mask & -mask) * 2] if mask else counts[0]


def _row_transfer(grid: tuple[tuple[int, ...], ...]) -> list[int]:
    """alpha_count of every row of the grid, from one six-vertex transfer.

    The transpose of _column_sweep: the n x W matrix of a row's triangles is
    added one column at a time, top to bottom.  A state holds the partial row
    sums as bits 1..n, and is kept in h0 or h1 by the column's running sum,
    under the same cell rule.  Column c ends with its sum at 1 if c is an
    entry of the row and at 0 otherwise, and the states after column c depend
    only on the entries up to c.  So a depth-first walk reads the columns
    once for every row with the same entries so far: at each candidate of the
    next entry it branches into the rows with their entry there, which go on
    from the column's h1, and the rows with it further right, which go on
    from its h0.  The count of a row is the weight of the all-ones state in
    h1 at the end of its last entry's column, with every row and that column
    summing to 1.

    With i entries placed, the states are the i-subsets of the rows, held as
    the blocks of _Blocks over rows 1..n.  Each column starts h1 from zero
    blocks of the (i + 1)-subsets, and _add_line adds its n cells by the
    plan of size i, which _Blocks builds with every other size's at the start.
    """
    n = len(grid)
    blocks = _Blocks(range(1, n + 1))
    candidates = [set(level) for level in grid]
    counts: list[int] = []

    def walk(i: int, start: int, h0: list[list[int]]) -> None:
        plan, shape = blocks.plans[i], blocks.shapes[i + 1]
        for c in range(start, grid[i][-1] + 1):
            h1 = [[0] * size for size in shape]
            _add_line(plan, h0, h1)
            if c in candidates[i]:
                if i == n - 1:
                    counts.append(h1[0][0])  # the one n-subset: every row
                else:
                    walk(i + 1, c + 1, h1)

    walk(0, grid[0][0], [[1]])
    return counts


def _add_line(plan: list, h0: list[list[int]], h1: list[list[int]]) -> None:
    """One line's cells, between the running sum h and each line across it, in place.

    The one counting kernel: _column_sweep adds an ASM row with it and
    _row_transfer a column.  h0 and h1 hold the states with h at 0 and at 1
    as the blocks of _Blocks, h1's states one column larger than h0's, and
    the plan is _Blocks.plans of h0's size.  The cell in column j acts on the
    pairs x in h0 without j and x + j in h1: a +1 moves x up to x + j, a -1
    moves x + j down to x, and a 0 keeps a state, so both end with the sum of
    their ways and every other state is kept.  A step of the plan pairs one
    h0 block with one h1 block, by single positions, by rows or by strided
    columns of equal length; a slice pair takes the sum by one map, and both
    ends get the result.
    """
    add = operator.add
    for a0, a1, pairs, w0, w1 in plan:
        b0, b1 = h0[a0], h1[a1]
        if w1:
            for i, j in pairs:
                b0[i::w0] = b1[j::w1] = list(map(add, b0[i::w0], b1[j::w1]))
        elif w0 > 1:
            for i, j in pairs:
                i, j = i * w0, j * w0
                ways = list(map(add, b0[i : i + w0], b1[j : j + w0]))
                b0[i : i + w0] = b1[j : j + w0] = ways
        else:
            for i, j in pairs:
                b0[i] = b1[j] = b0[i] + b1[j]


class _Blocks:
    """The states over a run of columns as blocks of lists, with each size's cell plan.

    A state is split into its low columns L, the first `low` of the run, and
    its high columns H, the rest, and the states of one size with |L| = a
    are one block: a flat row-major list, a row per L and a column per H,
    both in itertools.combinations order.  The blocks of a size run from the
    least a it admits up.  The cell in a low column j pairs the rows L of an
    h0 block with the rows L + j of the h1 block with one more low column and
    the same width; the cell in a high column j pairs the columns H of an h0
    block with the columns H + j of the h1 block with the same rows, as
    strided slices.  A block of width 1, or of one row, pairs single
    positions instead.

    Up to 8 columns every column is low, so each size is one block of single
    states and its cells one run of scalar pair updates; past that the first
    (width + 1) // 2 columns are low, and the cells add whole slices.  Both
    arms count the same; the threshold is where their measured times cross.

    plans[s] holds the steps of _add_line from the states of size s, for
    every s below the width: a sweep reads them all, and so does a walk that
    reaches its last entry.  A step is (h0 block, h1 block, pairs, w0, w1),
    with the pairs of every column that pairs those two blocks, in column
    order.  They are positions of rows of width w0 when w1 is 0, of single
    states when w0 is 1 too, and of columns of blocks w0 and w1 wide
    otherwise.  Steps on other blocks touch other states, so the low cells
    can run block by block, and then the high cells, and each block's
    columns keep their order.  The masks of a size are built when asked for.
    """

    def __init__(self, columns: range, low: int | None = None):
        width = len(columns)
        if low is None:
            low = width if width <= 8 else (width + 1) // 2
        self.lows = lows = _masks_by_size(columns[:low])
        self.highs = highs = _masks_by_size(columns[low:])
        sizes = range(width + 1)
        # the a of each size's blocks, and their lengths
        self.blocks = [range(max(0, s - len(highs) + 1), min(low, s) + 1) for s in sizes]
        self.shapes = [[len(lows[a]) * len(highs[s - a]) for a in self.blocks[s]] for s in sizes]
        low_pairs = [_half_pairs(lows, a) for a in range(len(lows) - 1)]
        high_pairs = [_half_pairs(highs, b) for b in range(len(highs) - 1)]
        self.plans = []
        for s in range(width):
            first, first1 = self.blocks[s][0], self.blocks[s + 1][0]
            plan = []
            for a in self.blocks[s]:
                if a < len(low_pairs):
                    plan.append((a - first, a + 1 - first1, low_pairs[a], len(highs[s - a]), 0))
            for a in self.blocks[s]:
                b = s - a
                if b < len(high_pairs):
                    w0, w1 = (1, 0) if len(lows[a]) == 1 else (len(highs[b]), len(highs[b + 1]))
                    plan.append((a - first, a - first1, high_pairs[b], w0, w1))
            self.plans.append(plan)

    def masks(self, size: int) -> list[list[int]]:
        """The masks of the states of this size, block by block."""
        lows, highs = self.lows, self.highs
        return [[low | high for low in lows[a] for high in highs[size - a]] for a in self.blocks[size]]


def _half_pairs(masks: list[list[int]], size: int) -> list[tuple[int, int]]:
    """The positions of each mask x of this size without a column of the half, and of x + it.

    masks are a half's masks by size; the pairs of each column follow those
    of the column before.
    """
    level, above = masks[size], masks[size + 1]
    position = dict(zip(above, range(len(above))))
    return [(i, position[x | bit]) for bit in masks[1] for i, x in enumerate(level) if not x & bit]


def _complement_mask(n: int, indices: Sequence[int]) -> int:
    """Bitmask of {1..n} minus the indices: the bottom row of a refined count."""
    mask = (1 << (n + 1)) - 2
    for i in indices:
        mask ^= 1 << i
    return mask


def clear_caches() -> None:
    """Drop the shared counting memo, the column sweeps."""
    _sweep_memo.clear()
