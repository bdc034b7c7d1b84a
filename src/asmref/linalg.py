"""Exact linear algebra: fraction-free elimination, rank, solving, inversion."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SingularSystemError


def fraction_free_echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Bareiss elimination on an integer matrix.

    Returns the echelon matrix and the pivot column indices.  Every
    intermediate entry is a minor of the input, so the arithmetic stays in the
    integers with no rational blow-up; the interior divisions are exact.
    """
    m = [[int(v) for v in row] for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    if any(len(row) != ncols for row in m):
        raise ValueError("matrix rows must all have the same length")
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # smallest nonzero magnitude as pivot to damp coefficient growth
        best = None
        for i in range(r, nrows):
            v = m[i][c]
            if v != 0 and (best is None or abs(v) < abs(m[best][c])):
                best = i
        if best is None:
            continue
        m[r], m[best] = m[best], m[r]
        pivot = m[r][c]
        for i in range(r + 1, nrows):
            factor = m[i][c]
            row_i, row_r = m[i], m[r]
            for j in range(c + 1, ncols):
                num = pivot * row_i[j] - factor * row_r[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise AssertionError("fraction-free update was not exact")
                row_i[j] = q
            row_i[c] = 0
        prev = pivot
        pivot_cols.append(c)
        r += 1
    return m, pivot_cols


@dataclass(frozen=True)
class LinearSolveResult:
    """Rank report and, when the solution is unique, the exact solution."""

    rank: int
    num_unknowns: int
    consistent: bool
    solution: tuple[Fraction, ...] | None

    @property
    def unique(self) -> bool:
        return self.consistent and self.rank == self.num_unknowns


def solve_integer_system(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int]
) -> LinearSolveResult:
    """Exact rank/consistency analysis and solve of an integer system A x = b."""
    nrows = len(matrix)
    if nrows != len(rhs):
        raise ValueError("matrix and right-hand side sizes disagree")
    ncols = len(matrix[0]) if nrows else 0
    augmented = [list(row) + [b] for row, b in zip(matrix, rhs)]
    echelon, pivot_cols = fraction_free_echelon(augmented)
    consistent = ncols not in pivot_cols
    rank = sum(1 for c in pivot_cols if c < ncols)
    solution = None
    if consistent and rank == ncols:
        x = [Fraction(0)] * ncols
        for row_idx in reversed(range(rank)):
            c = pivot_cols[row_idx]
            row = echelon[row_idx]
            acc = Fraction(row[ncols])
            for j in range(c + 1, ncols):
                if row[j]:
                    acc -= row[j] * x[j]
            x[c] = acc / row[c]
        solution = tuple(x)
    return LinearSolveResult(rank, ncols, consistent, solution)


def invert_matrix(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact inverse of a square matrix via Gauss-Jordan over the rationals.

    The package itself expands in the binomial basis by back-substitution;
    this inverse is the test oracle of that expansion.
    """
    n = len(rows)
    work = [[Fraction(v) for v in row] for row in rows]
    if any(len(row) != n for row in work):
        raise ValueError("matrix must be square")
    inverse = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot_row is None:
            raise SingularSystemError(f"matrix is singular at column {c}")
        work[c], work[pivot_row] = work[pivot_row], work[c]
        inverse[c], inverse[pivot_row] = inverse[pivot_row], inverse[c]
        pivot = work[c][c]
        work[c] = [v / pivot for v in work[c]]
        inverse[c] = [v / pivot for v in inverse[c]]
        for i in range(n):
            if i == c or work[i][c] == 0:
                continue
            factor = work[i][c]
            work[i] = [a - factor * b for a, b in zip(work[i], work[c])]
            inverse[i] = [a - factor * b for a, b in zip(inverse[i], inverse[c])]
    return inverse
