"""Exact linear algebra: sparse integer elimination for rank and solving, inversion.

Everything is in Python ints and Fraction.  solve_integer_system works on
sparse rows and touches only the rows that have a nonzero in the pivot
column; it is the one elimination the program runs, for conj1's rank
certificate and for its fallback solve of all n^2 unknowns.  The dense
Bareiss elimination it replaced, which rescales every remaining row at every
pivot, is kept in the tests as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .combinat import as_int
from .errors import SingularSystemError


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
    """Exact rank/consistency analysis and solve of an integer system A x = b.

    Each row is held as a dict from column to nonzero int, with the
    right-hand side at key ncols.  The columns are eliminated in order
    0..ncols; a pivot on the right-hand side means the system is
    inconsistent.  Of the unused rows with a nonzero in the column, the pivot
    row is the one with the fewest nonzeros, then the smallest entry there,
    then the lowest index.  Every other row with a nonzero f there becomes
    (p/g)*row - (f/g)*pivot_row, with p the pivot and g = gcd(p, f), and is
    then divided by the gcd of its entries.  Rows with a zero in the pivot
    column are not touched.

    Both steps are exact: the update multiplies a row by a nonzero integer
    and subtracts an integer multiple of another row, and the division by the
    content of a row leaves integers.  Both can be undone, so the rank, the
    consistency and the solution set are those of the input, whatever the
    pivot order; dividing out the content keeps the entries from growing
    with every pivot.  The unique solution is back-substituted in Fraction
    over the pivot rows in reverse order.
    """
    if len(matrix) != len(rhs):
        raise ValueError("matrix and right-hand side sizes disagree")
    ncols = len(matrix[0]) if matrix else 0
    rows: list[dict[int, int]] = []
    for row, value in zip(matrix, rhs):
        if len(row) != ncols:
            raise ValueError("matrix rows must all have the same length")
        entries = {c: v for c, v in enumerate(map(as_int, row)) if v}
        if value := as_int(value):
            entries[ncols] = value
        rows.append(entries)
    unused = [i for i, row in enumerate(rows) if row]
    pivots: list[tuple[int, dict[int, int]]] = []
    for c in range(ncols + 1):
        hits = [i for i in unused if c in rows[i]]
        if not hits:
            continue
        if c == ncols:
            return LinearSolveResult(len(pivots), ncols, False, None)
        chosen = min(hits, key=lambda i: (len(rows[i]), abs(rows[i][c]), i))
        pivot_row = rows[chosen]
        p = pivot_row[c]
        pivots.append((c, pivot_row))
        unused.remove(chosen)
        for i in hits:
            if i == chosen:
                continue
            f = rows[i][c]
            g = gcd(p, f)
            a, b = p // g, f // g
            updated = rows[i].copy() if a == 1 else {k: a * v for k, v in rows[i].items()}
            for k, v in pivot_row.items():
                w = updated.get(k, 0) - b * v
                if w:
                    updated[k] = w
                else:
                    del updated[k]
            if updated:
                content = gcd(*updated.values())
                if content != 1:
                    updated = {k: v // content for k, v in updated.items()}
            else:
                unused.remove(i)
            rows[i] = updated
    rank = len(pivots)
    solution = None
    if rank == ncols:
        x = [Fraction(0)] * ncols
        for c, row in reversed(pivots):
            acc = Fraction(row.get(ncols, 0))
            for j, v in row.items():
                if c < j < ncols:
                    acc -= v * x[j]
            x[c] = acc / row[c]
        solution = tuple(x)
    return LinearSolveResult(rank, ncols, True, solution)


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
