"""Counting oracles shared by the test modules.

alpha_count_dfs counts the triangles over a weakly increasing bottom row by a
memoized depth-first walk over the interlacing rows above it.  It shares no
code with the six-vertex kernels of asmref.triangles, so the tests check both
kernels and the tied-row sums against it.  It takes no budget: a wide row runs
for a long time.
"""

from __future__ import annotations

from typing import Sequence

from asmref.errors import ValidationError

# The DFS memo.  Counting rows are translation invariant, so keys are
# normalized to start at zero.
_alpha_memo: dict[tuple[int, ...], int] = {}


def alpha_count_dfs(bottom: Sequence[int]) -> int:
    """alpha_count by the interlacing DFS alone, for any weakly increasing row."""
    row = _normalized(bottom)
    return _alpha(row) if row else 1


def _normalized(bottom: Sequence[int]) -> tuple[int, ...]:
    """The row as ints translated to start at zero; raises unless weakly increasing."""
    row = tuple(int(v) for v in bottom)
    if any(a > b for a, b in zip(row, row[1:])):
        raise ValidationError(f"bottom row must be weakly increasing: {row}")
    return tuple(v - row[0] for v in row)


def _alpha(row: tuple[int, ...]) -> int:
    if len(row) == 1:
        return 1
    cached = _alpha_memo.get(row)
    if cached is not None:
        return cached
    m = len(row)
    buf = [0] * (m - 1)

    # depth-first accumulation over interlacing predecessor rows, kept free of
    # generator overhead
    def descend(pos: int, lo: int) -> int:
        if pos == m - 1:
            first = buf[0]
            return _alpha(tuple(v - first for v in buf))
        total = 0
        start = row[pos] if row[pos] > lo else lo
        for v in range(start, row[pos + 1] + 1):
            buf[pos] = v
            total += descend(pos + 1, v + 1)
        return total

    result = descend(0, row[0])
    _alpha_memo[row] = result
    return result
