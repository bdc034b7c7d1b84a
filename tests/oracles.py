"""Oracles shared by the test modules.

alpha_count_dfs counts the triangles over a weakly increasing bottom row by a
memoized depth-first walk over the interlacing rows above it.  It shares no
code with the six-vertex kernels of asmref.triangles, so the tests check both
kernels and the tied-row sums against it.  It takes no budget: a wide row runs
for a long time.

theorem1_witnesses, conjecture3_witnesses and dense_sufficiency_system write
out the reflection equations, the near-symmetry and the last-column boundary
by hand, each on its own, as asmref.extension did before it stated every
family of equations once.  The tests require the same witnesses and the same
linear system from asmref.extension.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from asmref.combinat import binom, refined_asm_count, total_asm_count
from asmref.errors import ValidationError
from asmref.extension import ExtendedMatrix, LinearSystem
from asmref.reports import Witness

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


def theorem1_witnesses(matrix: ExtendedMatrix) -> list[Witness]:
    """The witnesses of the depth-2 reflection system, by its double sum."""
    n = matrix.n
    witnesses = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rhs = 0
            for p in range(i, n + 1):
                bp = binom(2 * n - i - 2, p - i)
                if bp == 0:
                    continue
                for q in range(j, n + 1):
                    bq = binom(2 * n - j - 2, q - j)
                    if bq == 0:
                        continue
                    term = bp * bq * matrix.entry(q, p)
                    rhs += term if (p + q) % 2 == 0 else -term
            lhs = matrix.entry(i, j)
            if lhs != rhs:
                witnesses.append(Witness((i, j), lhs, rhs))
    return witnesses


def conjecture3_witnesses(
    coeffs: dict[tuple[int, ...], int], n: int, d: int
) -> list[Witness]:
    """The witnesses of the depth-d reflection equations, by the shift loop."""
    global_sign = 1 if (n * d) % 2 == 0 else -1
    witnesses = []
    for index in itertools.product(range(1, n + 1), repeat=d):
        rhs = 0
        for shifted in itertools.product(*(range(i, n + 1) for i in index)):
            term = coeffs[tuple(reversed(shifted))]
            if term == 0:
                continue
            for i_r, j_r in zip(index, shifted):
                term *= binom(2 * n - i_r - d, j_r - i_r)
            rhs += term if sum(shifted) % 2 == 0 else -term
        rhs *= global_sign
        lhs = coeffs[index]
        if lhs != rhs:
            witnesses.append(Witness(index, lhs, rhs))
    return witnesses


def dense_sufficiency_system(n: int) -> LinearSystem:
    """The conj1 system assembled row by row in dense form."""
    size = n * n
    labels = tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1))

    def idx(i: int, j: int) -> int:
        return (i - 1) * n + (j - 1)

    rows: list[list[int]] = []
    rhs: list[int] = []

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            coeffs = [0] * size
            coeffs[idx(i, j)] += 1
            for p in range(i, n + 1):
                bp = binom(2 * n - i - 2, p - i)
                if bp == 0:
                    continue
                for q in range(j, n + 1):
                    bq = binom(2 * n - j - 2, q - j)
                    if bq == 0:
                        continue
                    term = bp * bq
                    coeffs[idx(q, p)] -= term if (p + q) % 2 == 0 else -term
            rows.append(coeffs)
            rhs.append(0)

    exceptional = {
        (n - 1, 1): total_asm_count(n - 2),
        (n, 2): total_asm_count(n - 2) - total_asm_count(n - 1),
    }
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if (i, j) in exceptional or (i, j) == (n + 1 - j, n + 1 - i):
                continue
            coeffs = [0] * size
            coeffs[idx(i, j)] += 1
            coeffs[idx(n + 1 - j, n + 1 - i)] -= 1
            rows.append(coeffs)
            rhs.append(0)
    for (i, j), value in exceptional.items():
        coeffs = [0] * size
        coeffs[idx(i, j)] = 1
        rows.append(coeffs)
        rhs.append(value)

    for i in range(1, n):
        coeffs = [0] * size
        coeffs[idx(i, n)] = 1
        rows.append(coeffs)
        rhs.append(refined_asm_count(n - 1, i))

    return LinearSystem(tuple(tuple(r) for r in rows), tuple(rhs), labels)
