"""Alternating sign matrices, monotone triangles, and refined counting tables.

Counting rests on alpha_count, the number of triangular arrays over a
prescribed weakly increasing bottom row in which every row above the bottom
is strictly increasing and consecutive rows interlace.  All refined ASM counts
reduce to it: deleting d columns from the staircase row (1, ..., n) counts the
order-n matrices whose last d rows are unit rows with their 1s in those
columns, read upward in increasing order.

Two kernels compute it, one six-vertex cell rule (_cell) read along either
axis of the ASM <-> domain-wall correspondence.  Both keep their states in two
dicts split by the running sum h of the line being added, h0 and h1, keyed by
the partial sums of the lines across it; the cell moves a state between them.

- the column sweep (_column_sweep) adds the matrix row by row and counts every
  subset of {1..n} at once; it carries and keeps only the subsets that
  contain column 1, since a translate of a triangle is a triangle, and
  _sweep_count reads any other subset from its translate that contains
  column 1; every refined table and refined_count is such a lookup into the
  sweep of its order (_staircase_counts), and so is every term of a row with
  a tie, which alpha_count sums over the strictly increasing rows that
  interlace it from above, though no claim counts such a row;
- the row transfer (_row_transfer) adds the n x W matrix of one strictly
  increasing row of width W column by column, in at most W * n * 2^n cell
  updates; alpha_count_grid counts every row of a grid of candidate entries
  in one depth-first walk over the columns, in which the rows with the same
  entries so far share each column's states, and alpha_count sends every
  strictly increasing row there as the grid of its singleton levels, under a
  budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .combinat import as_int, as_size
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
        if any(len(row) != n for row in self.entries):
            raise ValidationError("matrix must be square")
        for axis, lines in (("row", self.entries), ("column", zip(*self.entries))):
            for pos, line in enumerate(lines, 1):
                partial = 0
                for value in line:
                    if value not in (-1, 0, 1):
                        raise ValidationError(f"entries must be -1, 0 or 1, got {value}")
                    partial += value
                    if partial not in (0, 1):
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
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValidationError(f"row {i} must be strictly increasing: {row}")
        for upper, lower in zip(self.rows, self.rows[1:]):
            for j, value in enumerate(upper):
                if not lower[j] <= value <= lower[j + 1]:
                    raise ValidationError(
                        f"rows {upper} over {lower} violate the interlacing condition"
                    )

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
    """Map an ASM to the triangle of its partial column-sum 1-positions."""
    n = a.n
    sums = [0] * n
    rows = []
    for i in range(n):
        for j in range(n):
            sums[j] += a.entries[i][j]
        rows.append(tuple(j + 1 for j in range(n) if sums[j] == 1))
    return MonotoneTriangle(tuple(rows))


def mt_to_asm(t: MonotoneTriangle) -> Asm:
    """Inverse of asm_to_mt; the triangle must be complete (bottom row 1..n)."""
    if not t.is_complete:
        raise ValidationError(
            f"triangle is not complete: bottom row {t.bottom_row} is not 1..{t.n}"
        )
    n = t.n
    prev = [0] * n
    entries = []
    for row in t.rows:
        cur = [0] * n
        for v in row:
            cur[v - 1] = 1
        entries.append(tuple(cur[j] - prev[j] for j in range(n)))
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
    next one, so every row is strictly increasing.  With W the width of the
    widest row, from the first candidate of the first level to the last of
    the last, and n entries, it raises BudgetError when W * n * 2^n exceeds
    table_max_n^2 * 2^table_max_n, the nominal cell updates of the largest
    column sweep the budget allows, unpruned, and when the whole walk would:
    the sum over i of its column steps with i entries placed times
    n * binom(n, i).
    """
    grid = tuple(tuple(map(as_int, level)) for level in levels)
    if not grid:
        raise ValidationError("at least one level is required")
    for level in grid:
        if not level or any(a >= b for a, b in zip(level, level[1:])):
            raise ValidationError(
                f"levels must be nonempty and strictly increasing: {level}"
            )
    for below, above in zip(grid, grid[1:]):
        if below[-1] >= above[0]:
            raise ValidationError(f"level {above} overlaps the level {below} before it")
    n = len(grid)
    width = grid[-1][-1] - grid[0][0] + 1
    cap = budget.table_max_n
    if width * n * 2**n > cap * cap * 2**cap:
        raise BudgetError(
            f"row transfer over {n} entries of width {width} exceeds the budget "
            f"of an order-{cap} sweep"
        )
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
            f"row transfer over a grid of {rows} rows exceeds the budget of an order-{cap} sweep"
        )
    return grid


def _normalized(bottom: Sequence[int]) -> tuple[int, ...]:
    """The row as ints translated to start at zero; raises unless weakly increasing."""
    row = tuple(map(as_int, bottom))
    if any(a > b for a, b in zip(row, row[1:])):
        raise ValidationError(f"bottom row must be weakly increasing: {row}")
    return tuple(v - row[0] for v in row)


def _interlacing_rows(row: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All strictly increasing rows interlacing the given row from above."""
    m = len(row)
    buf = [0] * (m - 1)

    def rec(pos: int, lo: int) -> Iterator[tuple[int, ...]]:
        if pos == m - 1:
            yield tuple(buf)
            return
        start = row[pos] if row[pos] > lo else lo
        for v in range(start, row[pos + 1] + 1):
            buf[pos] = v
            yield from rec(pos + 1, v + 1)

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
    out: list[MonotoneTriangle] = []
    stack: list[tuple[int, ...]] = [tuple(range(1, n + 1))]

    def extend_upward():
        top = stack[-1]
        if len(top) == 1:
            out.append(MonotoneTriangle(tuple(reversed(stack))))
            return
        for nxt in _interlacing_rows(top):
            stack.append(nxt)
            extend_upward()
            stack.pop()

    extend_upward()
    return out


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
        raise ValidationError(f"indices must be strictly increasing in 1..{n}: {idx}")
    _check_table_budget(n, budget)
    return _sweep_count(_staircase_counts(n), _complement_mask(n, idx))


@dataclass(frozen=True)
class RefinedTable:
    """All d-fold refined counts of order n, keyed by index tuples."""

    n: int
    d: int
    entries: Mapping[tuple[int, ...], int]

    def __post_init__(self):
        as_size(self.d, "depth", 1, self.n)
        if self.entries.keys() != set(itertools.combinations(range(1, self.n + 1), self.d)):
            raise ValidationError(
                f"a table needs one entry per increasing {self.d}-tuple in 1..{self.n}"
            )
        for key, value in self.entries.items():
            if as_int(value, "counts") < 0:
                raise ValidationError(f"count at {key} is negative: {value}")

    def value(self, *indices: int) -> int:
        key = indices[0] if len(indices) == 1 and isinstance(indices[0], tuple) else indices
        try:
            return self.entries[tuple(key)]
        except KeyError:
            raise ValidationError(f"no entry at {key}") from None


def build_table(n: int, d: int, budget: Budget = DEFAULT_BUDGET) -> RefinedTable:
    """Build the complete d-fold refined table of order n."""
    n = as_size(n, "order")
    d = as_size(d, "depth", 1, n)
    _check_table_budget(n, budget)
    counts = _staircase_counts(n)
    entries = {
        combo: _sweep_count(counts, _complement_mask(n, combo))
        for combo in itertools.combinations(range(1, n + 1), d)
    }
    return RefinedTable(n, d, entries)


def _check_table_budget(n: int, budget: Budget) -> None:
    cap = budget.table_max_n
    if n > cap:
        raise BudgetError(f"refined counts at n={n} exceed the budget cap {cap}")


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
    the row without column 1 and are never made.
    """
    counts = {0: 1, 2: 1}
    row = {2: 1}  # row 1: the one triangle over column 1
    for _ in range(1, n):
        h1 = {
            (state << t) | 2: ways
            for state, ways in row.items()
            for t in range(1, n + 2 - state.bit_length())
        }
        # the previous row is h0 itself; counts holds its own copy of it
        for j in range(2, n + 1):
            _cell(row, h1, j)
        row = h1
        counts.update(row)
    return counts


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
    """
    n = len(grid)
    done = (1 << (n + 1)) - 2
    candidates = [set(level) for level in grid]
    counts: list[int] = []

    def walk(i: int, start: int, h0: dict[int, int]) -> None:
        for c in range(start, grid[i][-1] + 1):
            h1: dict[int, int] = {}
            for bit in range(1, n + 1):
                _cell(h0, h1, bit)
            if c in candidates[i]:
                if i == n - 1:
                    counts.append(h1.get(done, 0))
                else:
                    walk(i + 1, c + 1, h1)

    walk(0, grid[0][0], {0: 1})
    return counts


def _cell(h0: dict[int, int], h1: dict[int, int], bit: int) -> None:
    """One six-vertex cell between the running sum h and the line sum at bit, in place.

    h0 and h1 hold the states with h at 0 and at 1, keyed by the line sums.
    A +1 moves a state x of h0 without the bit up to x + bit in h1, a -1
    moves x + bit down to x, and a 0 keeps a state, so x and x + bit both
    end with the sum of their ways and every other state is kept.

    The pairs are found from h0 alone, so h0 must hold x whenever h1 holds
    x + bit.  Both kernels start a line from every subset of one size (the
    sweep, from its second cell on, from every one that contains column 1).
    If x + bit came from the start S, the cells before the bit added one
    element, since h went from 0 to 1, and the bit is in S.  So x, which is
    x + bit on the cells before the bit and S on the cells after it, has the
    size of S: it is a start too, and 0s carry it to h0.
    """
    mask = 1 << bit
    # the loop changes values of h0 but adds no key
    for state, ways in h0.items():
        if not state & mask:
            ways += h1.get(state | mask, 0)
            h0[state] = h1[state | mask] = ways


def _complement_mask(n: int, indices: Sequence[int]) -> int:
    """Bitmask of {1..n} minus the indices: the bottom row of a refined count."""
    mask = (1 << (n + 1)) - 2
    for i in indices:
        mask ^= 1 << i
    return mask


def clear_caches() -> None:
    """Drop the shared counting memo, the column sweeps."""
    _sweep_memo.clear()
