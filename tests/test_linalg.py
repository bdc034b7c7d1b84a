"""Sparse integer elimination against Bareiss and plain rational Gauss oracles.

The oracles' adjugate, which conj1's Krylov oracle inverts with, is checked
here against the rational inverse.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmref.errors import SingularSystemError
from asmref.extension import sufficiency_system
from asmref.linalg import LinearSolveResult, invert_matrix, solve_integer_system

from oracles import adjugate


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


def bareiss_solve(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> LinearSolveResult:
    """The dense solve: Bareiss on the augmented matrix, then back-substitution."""
    ncols = len(matrix[0]) if matrix else 0
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


def assert_solves(matrix, rhs, result):
    for row, b in zip(matrix, rhs):
        assert sum(a * x for a, x in zip(row, result.solution)) == b


def gauss_rank(rows: list[list[int]]) -> int:
    """Row-reduce over Fraction with naive pivoting; no shared code."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda nc: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=nc, max_size=nc),
        min_size=1,
        max_size=5,
    )
)


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_echelon_rank_matches_gauss(rows):
    echelon, pivots = fraction_free_echelon([tuple(r) for r in rows])
    assert len(pivots) == gauss_rank(rows)
    # pivot columns strictly increase and each pivot entry is nonzero
    assert list(pivots) == sorted(set(pivots))
    for r, col in enumerate(pivots):
        assert echelon[r][col] != 0
        assert all(echelon[rr][col] == 0 for rr in range(r + 1, len(echelon)))


def test_echelon_known_rank():
    rows = [(1, 2, 3), (2, 4, 6), (1, 0, 1)]
    _, pivots = fraction_free_echelon(rows)
    assert len(pivots) == 2


def test_solve_unique_system():
    # x + y = 3, x - y = 1
    result = solve_integer_system([(1, 1), (1, -1)], (3, 1))
    assert result.consistent and result.unique
    assert result.solution == (Fraction(2), Fraction(1))


def test_solve_rational_solution():
    result = solve_integer_system([(2, 0), (0, 3)], (1, 1))
    assert result.solution == (Fraction(1, 2), Fraction(1, 3))


def test_solve_underdetermined():
    result = solve_integer_system([(1, 1)], (2,))
    assert result.consistent
    assert result.rank == 1 and result.num_unknowns == 2
    assert not result.unique
    assert result.solution is None


def test_solve_inconsistent():
    result = solve_integer_system([(1, 1), (2, 2)], (1, 3))
    assert not result.consistent
    assert result.solution is None


def test_solve_overdetermined_consistent():
    result = solve_integer_system([(1, 0), (0, 1), (1, 1)], (4, 5, 9))
    assert result.consistent and result.unique
    assert result.solution == (Fraction(4), Fraction(5))


def laplace_det(rows) -> int:
    """det by expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * v * laplace_det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, v in enumerate(rows[0])
    )


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        )
    )
)
def test_solve_solution_satisfies_system(matrix_rhs):
    rows, rhs = matrix_rhs
    result = solve_integer_system([tuple(r) for r in rows], tuple(rhs))
    if result.solution is not None:
        assert_solves(rows, rhs, result)


@pytest.mark.parametrize("n", range(3, 10))
def test_solve_matches_bareiss_on_sufficiency_systems(n):
    system = sufficiency_system(n)
    result = solve_integer_system(system.matrix, system.rhs)
    assert result == bareiss_solve(system.matrix, system.rhs)
    assert result.unique
    assert_solves(system.matrix, system.rhs, result)


@st.composite
def rectangular_systems(draw):
    """1..7 rows over 1..6 columns, some of them repeated or negated.

    The right-hand side is either drawn freely, which makes most overdetermined
    systems inconsistent, or is A times an integer vector, which keeps a
    rank-deficient system consistent.
    """
    ncols = draw(st.integers(min_value=1, max_value=6))
    entries = st.integers(min_value=-9, max_value=9)
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=7))
    rows = [
        [sign * v for v in base[k]]
        for k, sign in draw(
            st.lists(
                st.tuples(st.integers(0, len(base) - 1), st.sampled_from((1, -1))),
                min_size=1,
                max_size=7,
            )
        )
    ]
    if draw(st.booleans()):
        x = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    else:
        rhs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


@settings(max_examples=200, deadline=None)
@given(rectangular_systems())
def test_solve_matches_bareiss_on_random_systems(system):
    rows, rhs = system
    result = solve_integer_system([tuple(r) for r in rows], tuple(rhs))
    assert result == bareiss_solve(rows, rhs)
    assert result.rank == gauss_rank(rows)
    assert result.consistent == (gauss_rank([r + [b] for r, b in zip(rows, rhs)]) == result.rank)
    if result.unique:
        assert_solves(rows, rhs, result)


def test_solve_rejects_ragged_rows():
    with pytest.raises(ValueError):
        solve_integer_system([(1, 2), (3,)], (1, 1))
    with pytest.raises(ValueError):
        solve_integer_system([(1,), (2, 3)], (1, 1))


def test_solve_rejects_rhs_length_mismatch():
    with pytest.raises(ValueError):
        solve_integer_system([(1, 2), (3, 4)], (1,))
    with pytest.raises(ValueError):
        solve_integer_system([(1, 2)], (1, 2))


def test_solve_empty_system():
    result = solve_integer_system([], [])
    assert (result.rank, result.num_unknowns, result.consistent) == (0, 0, True)
    assert result == bareiss_solve([], [])


def test_invert_matrix_roundtrip():
    rows = [(2, 1), (7, 4)]
    inv = invert_matrix(rows)
    prod = [
        [sum(Fraction(rows[i][k]) * inv[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]


def test_invert_singular_matrix_raises():
    with pytest.raises(SingularSystemError):
        invert_matrix([(1, 2), (2, 4)])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_invert_random_matrices(rows):
    n = len(rows)
    try:
        inv = invert_matrix([tuple(r) for r in rows])
    except SingularSystemError:
        assert gauss_rank(rows) < n
        return
    assert gauss_rank(rows) == n
    for i in range(n):
        for j in range(n):
            entry = sum(Fraction(rows[i][k]) * inv[k][j] for k in range(n))
            assert entry == (1 if i == j else 0)


def laplace_det(rows) -> int:
    """det by expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * v * laplace_det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, v in enumerate(rows[0])
    )


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_adjugate_matches_the_rational_inverse(rows):
    det, adj = adjugate(rows)
    try:
        inv = invert_matrix([tuple(r) for r in rows])
    except SingularSystemError:
        assert (det, adj) == (0, None)
        return
    assert det == laplace_det(rows) != 0
    assert adj == [[det * v for v in row] for row in inv]
    n = len(rows)
    assert [[sum(rows[i][k] * adj[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == [
        [det * (i == j) for j in range(n)] for i in range(n)
    ]


def test_adjugate_with_swapped_pivots():
    # a zero leading entry needs a swap; det = -1 keeps the swap's sign
    assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    assert adjugate([[0, 2, 0], [0, 0, 3], [5, 0, 0]]) == (30, [[0, 0, 6], [15, 0, 0], [0, 10, 0]])
    assert adjugate([[1, 2], [2, 4]]) == (0, None)
    with pytest.raises(ValueError):
        adjugate([[1, 2]])
