"""The extended square array of doubly refined counts and its governing equations.

The doubly refined counts A(n; i, j) are defined for i < j; the extension
fills the whole n x n array by a fixed integer linear combination of the i < j
entries.  The extended array satisfies a reflection system of linear
equations, a near-symmetry with exactly two exceptional entries, closed
special values along the boundary, an explicit entry formula, and (at depth
d >= 3) conjectural analogues; the verifiers here check all of them exactly.

Each family of equations is stated once: the reflection by its one-axis factor
reflection_weights at every depth (theorem1, conj3), the near-symmetry _mirror
with _exceptional_entries (theorem2) and the boundary last_column.  conj1
takes all three together as one linear system.  The reflection reads
row-major values: theorem1 flattens ExtendedMatrix.rows, and
BinomBasisExpansion.coeffs holds them.  refined_table is the one table
provider; it caps the order before the cache.

The system is decided by one route, _certified_solution, which takes its
candidate solution as one array: solve_sufficiency passes the counted array,
and conj1 passes the array it compares with, read once.  A system of rank
n^2 has at most one solution, so a candidate that passes theorem1's and
theorem2's verifiers and the last column, which together check every row,
is that solution, and nothing is solved.  The rank comes from a run-time
certificate through the system's structure: the reflection and the
near-symmetry are involutions, so the first column of an array in the
kernel, n numbers, fixes it through a Krylov matrix, and the boundary fixes
those n numbers (W^2 = I, the Krylov matrix of rank n, the n boundary forms
of rank n).  When the certificate or a row fails, the sparse solve of all
n^2 unknowns in linalg runs instead and reports the exact rank.

Both closed forms run in ints.  extend_matrix sums c_coeff by one Pascal
recurrence in O(n^2), and reads each half of its kernel at a shifted corner.
explicit_formula sums only the nonzero terms of its k-sum, each half over its
own range, with the integer numerator kept over the running lcm of the term
denominators; one exact division at the end gives the entry or raises
NonIntegralError.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from .combinat import (
    as_int, as_size, binom, binom_plus, ints_text, refined_asm_count, total_asm_count,
)
from .config import DEFAULT_BUDGET, Budget
from .documents import TableCache, table_document
from .errors import (
    BudgetError,
    ExcludedIndexError,
    NonIntegralError,
    SingularSystemError,
    ValidationError,
)
from .linalg import solve_integer_system
from .polynomials import BinomBasisExpansion, apply_axes, expand_in_binomial_basis, gn_poly
from .reports import VerificationReport
from .triangles import RefinedTable, build_table, checked_table


def c_coeff(i: int, j: int, p: int, q: int) -> int:
    """Extension coefficient tying entry (i, j) to the refined count at (p, q)."""
    i, j, p, q = (as_int(v, "indices") for v in (i, j, p, q))
    if p < j:
        return 0
    sign = -1 if (i + q) % 2 == 0 else 1
    return sign * (binom_plus(p - j + 1, q - i) - binom_plus(p - j - 1, q - i - 1))


def _checked_indices(n: int, i, j) -> tuple[int, int]:
    """(i, j) through as_int, each in 1..n; else ValidationError."""
    i, j = as_int(i, "indices"), as_int(j, "indices")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValidationError(f"indices must lie in 1..{n}, got {ints_text((i, j))}")
    return i, j


@dataclass(frozen=True)
class ExtendedMatrix:
    """The square completion of the doubly refined counting triangle."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        as_size(self.n, "order")
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise ValidationError(f"need a {self.n} x {self.n} array")
        if not all(type(v) is int for v in itertools.chain.from_iterable(self.rows)):
            object.__setattr__(self, "rows", tuple(tuple(map(as_int, row)) for row in self.rows))

    def entry(self, i: int, j: int) -> int:
        i, j = _checked_indices(self.n, i, j)
        return self.rows[i - 1][j - 1]


def extend_matrix(table: RefinedTable) -> ExtendedMatrix:
    """Complete the i < j triangle of refined counts to the full square array."""
    if table.d != 2:
        raise ValidationError(f"a depth-2 table is required, got depth {table.d}")
    n = table.n
    # c_coeff(i, j, p, q) = (-1)^(i+q+1) (C(a+1, b) - C(a-1, b-1)), (a, b) =
    # (p-j, q-i); the count takes the sign (-1)^q in s, and the entry (-1)^(i+1)
    s = [[0] * (n + 2) for _ in range(n + 2)]
    for (p, q), v in table.entries.items():
        s[p][q] = -v if q % 2 else v
    # by Pascal's rule f[j][i] is the sum of C(a, b) s[j+a][i+b] over a, b >= 0,
    # the C(a+1, b) half is f[j-1][i] - s[j-1][i], the C(a-1, b-1) half f[j+1][i+1]
    f = [[0] * (n + 2) for _ in range(n + 2)]
    for j in range(n, -1, -1):
        for i in range(n, 0, -1):
            f[j][i] = s[j][i] + f[j + 1][i] + f[j + 1][i + 1]
    # each row is tuple() of a list: tuple() of a generator is resized as it
    # grows, and the freed tuples fill CPython's per-size free lists (1-2 MB)
    rows = []
    for i in range(1, n + 1):
        sign = 1 if i % 2 else -1
        rows.append(tuple([
            table.entries[i, j] if i < j else sign * (f[j - 1][i] - s[j - 1][i] - f[j + 1][i + 1])
            for j in range(1, n + 1)
        ]))
    return ExtendedMatrix(n, tuple(rows))


def reflection_weights(n: int, d: int) -> list[list[int]]:
    """W[i-1][j-1] = (-1)^j binom(2n - i - d, j - i), the one-axis factor of the reflection.

    The depth-d equation at (i_1, ..., i_d) is E(i_1, ..., i_d) = (-1)^(nd)
    times the sum over j of prod_r W[i_r][j_r] E(j_d, ..., j_1).  E is the
    extended array at d = 2 (theorem1), and the coefficient array of the
    depth-d specialization at every depth (conj3); theorem4 equates the two
    at d = 2.
    """
    cells = range(1, n + 1)
    return [[(-1) ** j * binom(2 * n - i - d, j - i) for j in cells] for i in cells]


def _reflection_cases(n: int, d: int, values: Sequence[int]) -> Iterator[tuple]:
    """Row-major cases (i, E(i), its reflection): W on every axis, d * n^d * (n+1)/2 multiply-adds.

    values holds E's n^d entries row-major, the last axis fastest.  W is
    upper triangular: row i of each axis sums the slabs j >= i at their
    nonzero weights and replaces slab i, which no later row reads.  The
    reflection reads its image at the reversed index, whose row-major position
    weighs axis r by n^r.
    """
    nonzero = [[(j, w) for j, w in enumerate(row) if w] for row in reflection_weights(n, d)]

    def reflect(slabs: list[list[int]]) -> list[list[int]]:
        for i, row in enumerate(nonzero):  # W[i][i] = +-1: no row is empty
            acc = None
            for j, w in row:
                term = slabs[j] if w == 1 else map(operator.mul, slabs[j], itertools.repeat(w))
                acc = term if acc is None else map(operator.add, acc, term)
            slabs[i] = list(acc)
        return slabs

    image = apply_axes(values, n, [reflect] * d)
    reversed_at = [0]
    for r in range(d):
        steps = range(0, n ** (r + 1), n ** r)
        reversed_at = [p + step for p in reversed_at for step in steps]
    sign = (-1) ** (n * d)
    indices = itertools.product(range(1, n + 1), repeat=d)
    return ((index, lhs, sign * image[p]) for index, lhs, p in zip(indices, values, reversed_at))


def entry_cases(
    matrix: ExtendedMatrix,
    value: Callable[[int, int], object],
    skip: Container[tuple[int, int]] = (),
) -> Iterator[tuple]:
    """Row-major cases ((i, j), value(i, j), extended entry) for the pairs not in skip.

    A value that raises NonIntegralError has the error text as its left side.
    """
    for i, row in enumerate(matrix.rows, 1):
        for j, expected in enumerate(row, 1):
            if (i, j) in skip:
                continue
            try:
                got = value(i, j)
            except NonIntegralError as exc:
                got = str(exc)
            yield (i, j), got, expected


def _array(n: int, matrix: ExtendedMatrix | None) -> ExtendedMatrix:
    """The array to check at order n: matrix, which must have order n, or the counted one."""
    if matrix is None:
        return extended_matrix(n)
    if matrix.n != as_size(n, "order"):
        raise ValidationError(f"an array of order {n} is required, got order {matrix.n}")
    return matrix


def verify_theorem1(matrix: ExtendedMatrix) -> VerificationReport:
    """Check the reflection system of linear equations on the extended array."""
    n = matrix.n
    cases = _reflection_cases(n, 2, list(itertools.chain.from_iterable(matrix.rows)))
    return VerificationReport.from_cases("theorem1", f"n={n}, all {n * n} index pairs", cases)


def _mirror(n: int, i: int, j: int) -> tuple[int, int]:
    """The partner of (i, j) under the near-symmetry of the extended array."""
    return n + 1 - j, n + 1 - i


def _exceptional_entries(
    n: int, total_minus_1: int, total_minus_2: int
) -> dict[tuple[int, int], int]:
    """The two entries that break the near-symmetry, with their values."""
    return {
        (n - 1, 1): total_minus_2,
        (n, 2): total_minus_2 - total_minus_1,
    }


def last_column(n: int) -> dict[tuple[int, int], int]:
    """The boundary A(n; i, n) = A_{n-1, i} for i < n, by the product formula."""
    return {(i, n): refined_asm_count(n - 1, i) for i in range(1, n)}


def refined_table(
    n: int, d: int, cache: TableCache | None = None, budget: Budget = DEFAULT_BUDGET
) -> RefinedTable:
    """The depth-d table of order n, read from the cache or built and stored there.

    The order is capped first.  The cache returns only files whose entries
    match their stored digest.  A cached table is also rejected when it is
    not a valid table (its keys are not the d-subsets of 1..n, or a count is
    negative) or when its cells with a product formula disagree with it: the
    d=1 row, and at d=2 the last column, whose entry (i, n) is
    refined_asm_count(n - 1, i).  A rejected table is rebuilt and overwritten.
    """
    n, d = checked_table(n, d, budget)
    if cache is not None:
        doc = cache.load("refined", n, d)
        if doc is not None:
            try:
                table = RefinedTable(n, d, doc.int_entries())
            except ValidationError:
                pass  # not a valid table: rebuilt below
            else:
                if _matches_product_formulas(table):
                    return table
    table = build_table(n, d, budget)
    if cache is not None:
        cache.store(table_document(table))
    return table


def _matches_product_formulas(table: RefinedTable) -> bool:
    n = table.n
    if table.d == 1:
        return all(table.value(k) == refined_asm_count(n, k) for k in range(1, n + 1))
    if table.d == 2:
        return all(table.value(index) == value for index, value in last_column(n).items())
    return True


def extended_matrix(n: int, cache: TableCache | None = None) -> ExtendedMatrix:
    """The extended square array of order n, from the cached depth-2 table.

    The order is checked before the table's depth, which the caller did not give.
    """
    return extend_matrix(refined_table(as_size(n, "order", 2), 2, cache))


def verify_theorem2(
    matrix: ExtendedMatrix, total_minus_1: int, total_minus_2: int
) -> VerificationReport:
    """Check near-symmetry of the extended array with its two exceptional entries."""
    n = as_size(matrix.n, "order", 3)
    exceptional = _exceptional_entries(n, total_minus_1, total_minus_2)

    def cases():
        for i, row in enumerate(matrix.rows, 1):
            for j, value in enumerate(row, 1):
                mirrored = matrix.entry(*_mirror(n, i, j))
                if (i, j) not in exceptional:
                    yield (i, j), value, mirrored
                    continue
                yield (i, j), value, exceptional[i, j]
                # the exception must be genuine, not an accidental symmetry: the
                # right side is the value itself unless the value is its mirror's
                yield (i, j), value, f"!= mirror {mirrored}" if value == mirrored else value

    return VerificationReport.from_cases(
        "theorem2", f"n={n}, all pairs, exceptional entries ({n - 1},1) and ({n},2)", cases()
    )


def verify_special_values(matrix: ExtendedMatrix) -> VerificationReport:
    """Check the closed special values of the extended array.

    Bottom row partial sums of singly refined counts of order n - 1, which
    include the corners (n, 1) = -A_(n-1) and (n, n) = 0, and the
    alternating-sum expression for the (1, 1) entry.
    """
    n = matrix.n
    row = [refined_asm_count(n - 1, r) for r in range(1, n)]
    cases = [((n, j), matrix.entry(n, j), -sum(row[j - 1:])) for j in range(1, n + 1)]
    alternating = sum(
        (1 if i % 2 == 1 else -1) * matrix.entry(i, i + 1) for i in range(1, n)
    )
    cases.append(((1, 1), matrix.entry(1, 1), alternating))
    return VerificationReport.from_cases(
        "special-values", f"n={n}, bottom row and corners", cases
    )


def entry_closed_form(n: int, i: int, j: int, table: RefinedTable) -> int:
    """Closed representation of extended entry (i, j) through the i < j counts."""
    if table.n != n or table.d != 2:
        raise ValidationError("a depth-2 table of matching order is required")
    i, j = _checked_indices(n, i, j)
    value = 0
    if i < j:
        value += table.value(i, j)
    if j < i:
        value -= table.value(j, i)
    if i == n - 1 and j == 1:
        value += total_asm_count(n - 1)
    # the signed sums of binom(top - b, k - a) * A(a, b) over a < b <= top
    for top, k in [(i - 1, j)] if i == n else [(i, j - 1), (i - 1, j)]:
        for a in range(1, top):
            for b in range(a + 1, top + 1):
                coeff = binom(top - b, k - a)
                if coeff:
                    sign = 1 if (a + j) % 2 == 1 else -1
                    value += sign * coeff * table.value(a, b)
    return value


def verify_ilse(n: int, table: RefinedTable | None = None) -> VerificationReport:
    """The closed i < j representation reproduces every extended entry."""
    if table is None:
        table = refined_table(as_size(n, "order", 2), 2)
    cases = entry_cases(extend_matrix(table), lambda i, j: entry_closed_form(n, i, j, table))
    return VerificationReport.from_cases("ilse", f"n={n}, all {n * n} index pairs", cases)


def z_value(n: int, p: int, i: int) -> int:
    """Shift-subset sums of the order n-1 counting function, missing column i.

    Sums the counting function over all p-element subsets of the first n - 2
    positions of the row (1, ..., n) with i removed, each chosen position
    shifted up by one; 0 when i = 0 by convention.  Read from refined_table(n, 2).
    """
    p = as_size(p, "subset size", 0, n - 2)
    i = as_size(i, "column index", 0, n)
    return _z_row(n, i, refined_table(n, 2).entries)[p]


def _z_row(n: int, i: int, counts: Mapping[tuple[int, int], int]) -> list[int]:
    """z(n, p, i) for p in 0..n-2, each row above a shifted row read as the count of its pair.

    A row t above base + s leaves out a pair of 1..n and interlaces when
    t_(k-1) <= base_k + s_k <= t_k for every k, a floor and a cap on each
    shift alone.  Around t, t_(-1) = 0 and t_(n-2) = base_(n-2), which keeps
    the last entry unshifted.  So t weighs binom(free, p - forced).
    """
    row = [0] * (n - 1)
    if i == 0:
        return row
    base = [v for v in range(1, n + 1) if v != i]
    for pair, count in counts.items():
        t = [0] + [v for v in range(1, n + 1) if v not in pair] + base[-1:]
        forced = free = 0
        for k, b in enumerate(base):
            lo, hi = max(t[k] - b, 0), min(t[k + 1] - b, 1)
            if lo > hi:
                break
            forced, free = forced + lo, free + hi - lo
        else:
            for p in range(forced, forced + free + 1):
                row[p] += count * math.comb(free, p - forced)
    return row


def w_value(n: int, i: int, j: int) -> int:
    """Alternating binomial transform of the shift-subset sums."""
    i = as_size(i, "first index", 0, n)
    j = as_size(j, "second index", 1, n + 1)
    return _binomial_transform(n, j, _z_row(n, i, refined_table(n, 2).entries))


def _binomial_transform(n: int, j: int, z: list[int]) -> int:
    """Sum of (-1)^(p+j+n) binom(p, n-j) z[p] over p in 0..n-2, skipping zero terms."""
    total = 0
    for p in range(n - 1):
        coeff = binom(p, n - j)
        if coeff == 0:
            continue
        term = coeff * z[p]
        total += term if (p + j + n) % 2 == 0 else -term
    return total


def verify_zw_chain(n: int, matrix: ExtendedMatrix | None = None) -> VerificationReport:
    """The shift-subset route, read from the array's i < j entries, reproduces every entry.

    extend_matrix copies the counts to those entries and builds the rest from
    them by other sums, so a wrong count fails this check.
    """
    matrix = _array(n, matrix)
    pairs = itertools.combinations(range(1, n + 1), 2)
    counts = {(i, j): matrix.rows[i - 1][j - 1] for i, j in pairs}
    total_prev = total_asm_count(n - 1)
    # every transform at column index i reads the same shift-subset sums; count them once
    z = [_z_row(n, i, counts) for i in range(n)]

    def value(i: int, j: int) -> int:
        total = -_binomial_transform(n, j + 1, z[i - 1])
        if i != n:
            total += _binomial_transform(n, j, z[i])
        if i == n - 1 and j == 1:
            total += total_prev
        return total

    return VerificationReport.from_cases(
        "zw-chain", f"n={n}, all {n * n} index pairs", entry_cases(matrix, value)
    )


@dataclass(frozen=True)
class LinearSystem:
    """Assembled equations over the n*n extended entries (row-major labels)."""

    matrix: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    labels: tuple[tuple[int, int], ...]


def sufficiency_system(n: int) -> LinearSystem:
    """Equations proposed to pin down the extended array uniquely.

    Rows: the reflection system for every index pair, near-symmetry for every
    non-exceptional pair, the two exceptional values, and the last-column
    boundary.  Right-hand sides use the product formulas only, so solving is
    independent of the counting recurrence.
    """
    n = as_size(n, "order", 3)
    labels = tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    column = {label: k for k, label in enumerate(labels)}
    rows: list[tuple[int, ...]] = []
    rhs: list[int] = []

    def add_row(terms: Iterable[tuple[tuple[int, int], int]], value: int) -> None:
        coeffs = [0] * len(labels)
        for index, c in terms:
            coeffs[column[index]] += c
        rows.append(tuple(coeffs))
        rhs.append(value)

    # row (i, j) reads W's rows i and j; the depth-2 sign (-1)^(2n) is 1
    nonzero = [[(a, w) for a, w in enumerate(row, 1) if w] for row in reflection_weights(n, 2)]
    for i, j in labels:
        terms = [((b, a), -wa * wb) for a, wa in nonzero[i - 1] for b, wb in nonzero[j - 1]]
        add_row([((i, j), 1)] + terms, 0)
    exceptional = _exceptional_entries(n, total_asm_count(n - 1), total_asm_count(n - 2))
    for index in labels:
        mirrored = _mirror(n, *index)
        if index not in exceptional and index != mirrored:
            add_row([(index, 1), (mirrored, -1)], 0)
    for index, value in itertools.chain(exceptional.items(), last_column(n).items()):
        add_row([(index, 1)], value)
    return LinearSystem(tuple(rows), tuple(rhs), labels)


@dataclass(frozen=True)
class SufficiencyResult:
    """Rank report and, when unique, the solved extended array."""

    rank: int
    num_unknowns: int
    solution: ExtendedMatrix | None

    @property
    def unique(self) -> bool:
        return self.solution is not None

    @cached_property
    def system(self) -> LinearSystem:
        """sufficiency_system of the solved order, assembled when first read."""
        return sufficiency_system(math.isqrt(self.num_unknowns))


def solve_sufficiency(
    n: int, budget: Budget = DEFAULT_BUDGET, cache: TableCache | None = None
) -> SufficiencyResult:
    """Solve sufficiency_system(n) exactly, up to order table_max_n: its rank and solution.

    The order is capped before any table is read.  _certified_solution then
    decides from the counted array, extend_matrix of refined_table(n, 2, cache).
    """
    n = _solve_order(n, budget)
    return _certified_solution(extend_matrix(refined_table(n, 2, cache, budget)))


def _solve_order(n: int, budget: Budget) -> int:
    """n as an order of the system; BudgetError above table_max_n."""
    n = as_size(n, "order", 3)
    if n > budget.table_max_n:
        raise BudgetError(
            f"sufficiency solve at n={n} exceeds the budget cap {budget.table_max_n}"
        )
    return n


def _certified_solution(candidate: ExtendedMatrix) -> SufficiencyResult:
    """The rank and solution of sufficiency_system(candidate.n), with candidate as the guess.

    A system of rank n^2 has at most one solution.  So when the run-time
    certificate _full_rank holds and candidate passes verify_theorem1,
    verify_theorem2 and the last column, which together check every row of
    the system, candidate is the solution and nothing is solved.  When the
    certificate or a row fails, the sparse solve of all n^2 unknowns runs
    instead and gives the exact rank, SingularSystemError when the system is
    inconsistent, and NonIntegralError, naming the first entry in row-major
    order, when the solution is not integral.  The result's system is
    assembled only when it is read.
    """
    n = candidate.n
    if (
        _full_rank(n)
        and verify_theorem1(candidate).passed
        and verify_theorem2(candidate, total_asm_count(n - 1), total_asm_count(n - 2)).passed
        and all(candidate.entry(*index) == v for index, v in last_column(n).items())
    ):
        return SufficiencyResult(n * n, n * n, candidate)
    system = sufficiency_system(n)
    result = solve_integer_system(system.matrix, system.rhs)
    if not result.consistent:
        raise SingularSystemError(
            f"the assembled equations at n={n} are inconsistent; this is a bug"
        )
    solution = _integral_array(n, result.solution) if result.unique else None
    return SufficiencyResult(result.rank, n * n, solution)


def _integral_array(n: int, values: Iterable[Fraction]) -> ExtendedMatrix:
    """The array of row-major solution values; NonIntegralError at the first non-integer."""
    flat = []
    for value in values:
        if value.denominator != 1:
            raise NonIntegralError(f"solved entry {value} is not an integer")
        flat.append(value.numerator)
    return ExtendedMatrix(n, tuple(tuple(flat[k:k + n]) for k in range(0, n * n, n)))


def _full_rank(n: int) -> bool:
    """The run-time certificate that sufficiency_system(n) has rank n^2.

    Write E for the array, W for reflection_weights(n, 2) and J for the
    reversal.  On an array in the kernel of the system the reflection rows
    say E = W.E^T.W^T, and the mirror rows with the two exceptional rows,
    which set both exceptional entries to 0, say J.E^T.J = E.  So
    E = M.E.M^T with M = W.J.  When W^2 = I, M has the
    inverse J.W, and E.B = M.E with B = W^T.J: E's columns E.B^k.e_1 are
    M^k.u, u = E.e_1.  When the Krylov matrix K = [e_1, B.e_1, ..., B^(n-1).e_1]
    has rank n, those columns fix E, so u fixes E.  The last column rows say
    E.e_n = (-1)^n M.u = 0 off entry n, and E(n - 1, 1) = u_(n-1) = 0: when
    these n forms in u have rank n, u = 0, E = 0 and the rank is n^2.  The
    forms are the rows of M named by last_column(n)'s keys and e_(n-1); their
    determinant is +-binom(2n - 4, n - 2) for every n, W^2 = I holds for
    every n, and only K's rank is not known in closed form.
    """
    weights = reflection_weights(n, 2)
    cells = range(n)
    square = [[sum(map(operator.mul, row, column)) for column in zip(*weights)] for row in weights]
    if square != [[int(i == j) for j in cells] for i in cells]:
        return False
    b = [[weights[n - 1 - j][i] for j in cells] for i in cells]
    krylov = [[int(i == 0) for i in cells]]
    for _ in range(n - 1):
        krylov.append([sum(map(operator.mul, row, krylov[-1])) for row in b])
    forms = [weights[i - 1][::-1] for i, _ in last_column(n)]
    forms.append([int(k == n - 2) for k in cells])
    return all(solve_integer_system(rows, [0] * len(rows)).rank == n for rows in (krylov, forms))


_EXCLUDED_OFFSETS = ((-1, 1), (0, 1), (0, 2))


def _excluded_pairs(n: int) -> set[tuple[int, int]]:
    return {(n + di, j) for di, j in _EXCLUDED_OFFSETS}


def explicit_formula(n: int, i: int, j: int) -> int:
    """Closed-form extended entry at (i, j); the three excluded pairs raise.

    The inner sum over k visits only the k where a term can be nonzero, and is
    kept as one integer numerator over the lcm of the term denominators: every
    harmonic number it reads is an integer over L = lcm(1..3n).  The prefactor
    is applied once, and one exact division at the end either gives the entry
    or raises NonIntegralError rather than rounding.
    """
    n = as_size(n, "order", 3)
    i, j = _checked_indices(n, i, j)
    if (i, j) in _excluded_pairs(n):
        raise ExcludedIndexError(f"({i}, {j}) is an excluded pair at n={n}")
    return _formula_entry(n, i, j, *_harmonic_table(n))


def _harmonic_table(n: int) -> tuple[int, list[int]]:
    """L = lcm(1..3n) and h[m] = L * H(m), the constants every entry of order n reads.

    h covers m in 0..3n; the arguments reach down to -2n, and a negative index
    reads the zero tail, as H(m) = 0 for m < 1.
    """
    scale = math.lcm(*range(1, 3 * n + 1))
    h = [0] * (5 * n + 1)
    for m in range(1, 3 * n + 1):
        h[m] = h[m - 1] + scale // m
    return scale, h


def _lcm_sum(terms: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The sum of the fractions t/d as one numerator over the lcm of the d."""
    num, den = 0, 1
    for term, term_den in terms:
        g = math.gcd(den, term_den)
        num, den = num * (term_den // g) + term * (den // g), den // g * term_den
    return num, den


def _formula_entry(n: int, i: int, j: int, scale: int, h: list[int]) -> int:
    """explicit_formula at a valid, non-excluded (i, j), given _harmonic_table(n).

    The x half of the k-sum is nonzero only for 0 <= k <= i - 1, and the y
    half only for j - i <= k <= j - 2, so each runs over its own range and
    zero terms are dropped.  Where the ranges overlap, both halves carry a
    harmonic bracket over L and enter as one term over pole^2; those terms
    and the plain ones are summed apart, each over the running lcm of its
    denominators, and meet once, the bracketed sum over L.  A binomial whose
    arguments are nonnegative over its range is read from math.comb.
    """
    bracketed, plain = [], []
    for k in range(i):
        x = binom(3 * k - 3 * j + 4, k) * binom(2 * j + i - 2 * k - 5, i - k - 1)
        pole = k - j + 3 - n
        if j - i <= k <= j - 2:
            # x: sign * factor / pole * (bracket / L + 1 / pole)
            bracket = (
                3 * h[3 * j - 2 * k - 5] - 3 * h[3 * j - 3 * k - 5]
                + 2 * h[2 * j + i - 2 * k - 5] - 2 * h[2 * j - k - 4]
                + h[k - j + i] - h[j - k - 2]
            )
            x *= math.comb(i - 2, k - j + i) * (i - 1) * (bracket * pole + scale)
            # y: sign * factor / pole * bracket / L, over pole^2 * L as x
            y = (
                binom(3 * k - 3 * j + 4, k + i - j)
                * math.comb(3 * j - 2 * k - 5, j - k - 1)
                * (j - k - 1)
                * math.comb(i - 1, k)
                * (h[3 * j - 2 * k - 5] - h[2 * j - k - 4] - h[k] + h[i - k - 1])
                * pole
            )
            term = (x if (j + k) % 2 else -x) + (y if (i + k) % 2 == 0 else -y)
            if term:
                bracketed.append((term, pole * pole))
        elif x:
            plain.append((x, binom(k - j + i, i - 1) * pole))
    for k in range(j - i, j - 1):
        if 0 <= k < i:
            continue  # bracketed above
        y = (
            binom(3 * k - 3 * j + 4, k + i - j)
            * math.comb(3 * j - 2 * k - 5, j - k - 1)
            * (j - k - 1)
        )
        if y:
            plain.append((-y, binom(k, i) * (k - j + 3 - n) * i))
    num, den = _lcm_sum(bracketed)
    if num:
        plain.append((num, den * scale))
    num, den = _lcm_sum(plain)
    f = math.factorial
    quadratic = (
        2 + 2 * i + i * i - 3 * j - i * j + j * j - 2 * n - 2 * i * n + j * n + n * n
    )
    top = (
        total_asm_count(n - 1)
        * f(2 * n - 2 - i) * f(2 * n - 2 - j) * f(n + i - 3) * f(n + j - 3)
        * ((n + j - i - 1) * den + quadratic * num)
    )
    bottom = (
        f(3 * n - 5) * f(n - 2)
        * f(i - 1) * f(j - 1) * f(n - i) * f(n - j)
        * den
    )
    value, rest = divmod(top, bottom)
    if rest:
        raise NonIntegralError(f"formula value at n={n}, ({i},{j}) is {Fraction(top, bottom)}")
    return value


def verify_conjecture1(n: int, cache: TableCache | None = None) -> VerificationReport:
    """The assembled system has full rank and its solution is the extended array.

    The array is read once and is both the route's candidate and the
    comparison's right side.
    """
    n = _solve_order(n, DEFAULT_BUDGET)
    matrix = extended_matrix(n, cache)
    checked = f"n={n}, rank of {n * n} unknowns plus solution comparison"
    try:
        result = _certified_solution(matrix)
    except NonIntegralError as exc:
        cases = [((n,), str(exc), "an integer")]
    else:
        if result.unique:
            cases = entry_cases(matrix, result.solution.entry)
        else:
            cases = [((n,), f"rank {result.rank}", result.num_unknowns)]
    return VerificationReport.from_cases("conj1", checked, cases)


def verify_conjecture2(n: int, matrix: ExtendedMatrix | None = None) -> VerificationReport:
    """The closed entry formula matches the extended array off the excluded pairs."""
    n = as_size(n, "order", 3)
    matrix = _array(n, matrix)
    excluded = _excluded_pairs(n)
    scale, h = _harmonic_table(n)
    cases = entry_cases(matrix, lambda i, j: _formula_entry(n, i, j, scale, h), excluded)
    return VerificationReport.from_cases(
        "conj2", f"n={n}, all pairs except the {len(excluded)} excluded", cases
    )


def drefined_F(n: int, d: int = 3, budget: Budget = DEFAULT_BUDGET) -> BinomBasisExpansion:
    """Integer expansion coefficients of the depth-d specialization."""
    return expand_in_binomial_basis(gn_poly(n, d, budget))


def verify_conjecture3(
    n: int, d: int = 3, budget: Budget = DEFAULT_BUDGET
) -> VerificationReport:
    """The depth-d reflection equations hold for the expansion coefficients."""
    d = as_size(d, "depth", 2)
    coeffs = drefined_F(n, d, budget).coeffs  # checks n and d before n**d is written
    checked = f"n={n}, d={d}, all {len(coeffs)} index tuples"
    return VerificationReport.from_cases("conj3", checked, _reflection_cases(n, d, coeffs))


def verify_conjecture4(
    n: int, d: int = 3, budget: Budget = DEFAULT_BUDGET, cache: TableCache | None = None
) -> VerificationReport:
    """Expansion coefficients equal the refined counts on increasing index tuples."""
    counts = refined_table(n, d, cache, budget).entries  # the table cap holds before the walk
    expansion = drefined_F(n, d, budget)
    checked = f"n={n}, d={d}, all {len(counts)} increasing tuples"
    cases = ((combo, expansion.coefficient(combo), count) for combo, count in counts.items())
    return VerificationReport.from_cases("conj4", checked, cases)


def verify_triangular_system(
    n: int, matrix: ExtendedMatrix | None = None
) -> VerificationReport:
    """The six-term expansion equations and their triangular reduction.

    These equations follow from the extension alone: the array that
    extend_matrix builds from any depth-2 table, random counts included,
    satisfies them.  So this claim checks the algebra of extend_matrix, not
    the counts; theorem1, theorem2 and special-values reject wrong counts.
    """
    f = _array(n, matrix).entry
    # suffix sums, zero past n: rect[i][j] sums f(p, q) over p >= i and q >= j,
    # down[i][j] sums f(p, j) over p >= i, and right[i][j] sums f(i, q) over q >= j
    size = n + 2
    rect = [[0] * size for _ in range(size)]
    down = [[0] * size for _ in range(size)]
    right = [[0] * size for _ in range(size)]
    for i in range(n, 0, -1):
        for j in range(n, 0, -1):
            value = f(i, j)
            right[i][j] = value + right[i][j + 1]
            down[i][j] = value + down[i + 1][j]
            rect[i][j] = right[i][j] + rect[i + 1][j]

    def cases():
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                yield ("full", i, j), f(i, j) + rect[i + 1][j], -f(j, i) - rect[j + 1][i]
        yield ("corner", n, n), f(n, n), 0
        for i in range(1, n):
            yield ("diagonal", i), down[i][i] + right[i + 1][i + 2], 0
        for i in range(1, n + 1):
            for j in range(1, i):
                yield ("below", i, j), down[i][j] - f(i, j + 1) + f(j, i) + right[j + 1][i + 1], 0

    return VerificationReport.from_cases(
        "triangular-system", f"n={n}, full system and reduced forms", cases()
    )
