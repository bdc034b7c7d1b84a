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
solves all three together, so it solves what theorem1 and theorem2 check.

Both closed forms run in ints.  extend_matrix reads every coefficient
c_coeff(i, j, p, q) from one table of its order.  explicit_formula sums its
harmonic terms over one common integer denominator, and one exact division
at the end either gives the entry or raises NonIntegralError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Container, Iterable, Iterator, Mapping

from .combinat import as_int, as_size, binom, binom_plus, refined_asm_count, total_asm_count
from .config import DEFAULT_BUDGET, Budget
from .errors import (
    BudgetError,
    ExcludedIndexError,
    NonIntegralError,
    SingularSystemError,
    ValidationError,
)
from .linalg import solve_integer_system
from .polynomials import BinomBasisExpansion, apply_axis, expand_in_binomial_basis, gn_poly
from .reports import VerificationReport
from .triangles import RefinedTable, build_table, refined_count


def c_coeff(i: int, j: int, p: int, q: int) -> int:
    """Extension coefficient tying entry (i, j) to the refined count at (p, q)."""
    if p < j:
        return 0
    sign = -1 if (i + q) % 2 == 0 else 1
    return sign * (binom_plus(p - j + 1, q - i) - binom_plus(p - j - 1, q - i - 1))


@dataclass(frozen=True)
class ExtendedMatrix:
    """The square completion of the doubly refined counting triangle."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        as_size(self.n, "order")
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise ValidationError(f"need a {self.n} x {self.n} array")
        for v in itertools.chain.from_iterable(self.rows):
            as_int(v)

    def entry(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValidationError(f"indices must lie in 1..{self.n}, got ({i}, {j})")
        return self.rows[i - 1][j - 1]


def extend_matrix(table: RefinedTable) -> ExtendedMatrix:
    """Complete the i < j triangle of refined counts to the full square array."""
    if table.d != 2:
        raise ValidationError(f"a depth-2 table is required, got depth {table.d}")
    n = table.n
    # c_coeff(i, j, p, q) = (-1)^(i+q+1) g[p-j][q-i] for p >= j; the sign
    # (-1)^q goes with the count and (-1)^(i+1) with the entry
    g = [[binom_plus(a + 1, b) - binom_plus(a - 1, b - 1) for b in range(n + 1)] for a in range(n)]
    signed = {(p, q): -v if q % 2 else v for (p, q), v in table.entries.items()}
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i < j:
                row.append(table.value(i, j))
                continue
            # g[a][b] vanishes unless b <= a + 1, so only the pairs p < q
            # with j <= p and i <= q <= p + i - j + 1 are summed
            total = sum(
                g[p - j][q - i] * signed[p, q]
                for p in range(j, n + 1)
                for q in range(max(p + 1, i), min(n, p + i - j + 1) + 1)
            )
            row.append(total if i % 2 else -total)
        rows.append(tuple(row))
    return ExtendedMatrix(n, tuple(rows))


def reflection_weights(n: int, d: int) -> list[list[int]]:
    """W[i-1][j-1] = (-1)^j binom(2n - i - d, j - i), the one-axis factor of the reflection.

    The depth-d equation at (i_1, ..., i_d) is E(i_1, ..., i_d) = (-1)^(nd)
    times the sum over j of prod_r W[i_r][j_r] E(j_d, ..., j_1).  At d = 2, E
    is the extended array (theorem1); at d >= 3 it is the coefficient array
    of the depth-d specialization (conj3).
    """
    cells = range(1, n + 1)
    return [[(-1) ** j * binom(2 * n - i - d, j - i) for j in cells] for i in cells]


def _reflection_cases(n: int, d: int, values: Mapping[tuple[int, ...], int]) -> Iterator[tuple]:
    """Row-major cases (i, E(i), its reflection): W on every axis, d * n^(d+1) multiply-adds."""
    weights = reflection_weights(n, d)
    indices = list(itertools.product(range(1, n + 1), repeat=d))
    image = flat = [values[index] for index in indices]
    for axis in range(d):
        image = apply_axis(image, n, d, axis, lambda fiber: [
            sum(w * v for w, v in zip(row, fiber)) for row in weights
        ])
    image_at = dict(zip(indices, image))
    sign = (-1) ** (n * d)
    # the reflection reads its image at the reversed index
    return ((index, lhs, sign * image_at[index[::-1]]) for index, lhs in zip(indices, flat))


def _entries(matrix: ExtendedMatrix) -> dict[tuple[int, int], int]:
    return {
        (i, j): value
        for i, row in enumerate(matrix.rows, 1)
        for j, value in enumerate(row, 1)
    }


def entry_cases(
    matrix: ExtendedMatrix,
    value: Callable[[int, int], object],
    skip: Container[tuple[int, int]] = (),
) -> Iterator[tuple]:
    """Row-major cases ((i, j), value(i, j), extended entry) for the pairs not in skip.

    A value that raises NonIntegralError has the error text as its left side.
    """
    for index, expected in _entries(matrix).items():
        if index in skip:
            continue
        try:
            got = value(*index)
        except NonIntegralError as exc:
            got = str(exc)
        yield index, got, expected


def _array(n: int, matrix: ExtendedMatrix | None) -> ExtendedMatrix:
    """The array to check at order n: matrix, which must have order n, or the counted one."""
    if matrix is None:
        return extend_matrix(build_table(n, 2))
    if matrix.n != as_size(n, "order"):
        raise ValidationError(f"an array of order {n} is required, got order {matrix.n}")
    return matrix


def verify_theorem1(matrix: ExtendedMatrix) -> VerificationReport:
    """Check the reflection system of linear equations on the extended array."""
    n = matrix.n
    return VerificationReport.from_cases(
        "theorem1", f"n={n}, all {n * n} index pairs", _reflection_cases(n, 2, _entries(matrix))
    )


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


def verify_theorem2(
    matrix: ExtendedMatrix, total_minus_1: int, total_minus_2: int
) -> VerificationReport:
    """Check near-symmetry of the extended array with its two exceptional entries."""
    n = as_size(matrix.n, "order", 3)
    exceptional = _exceptional_entries(n, total_minus_1, total_minus_2)
    values = _entries(matrix)

    def cases():
        for index, value in values.items():
            mirrored = values[_mirror(n, *index)]
            if index not in exceptional:
                yield index, value, mirrored
                continue
            yield index, value, exceptional[index]
            # the exception must be genuine, not an accidental symmetry: the
            # right side is the value itself unless the value is its mirror's
            yield index, value, f"!= mirror {mirrored}" if value == mirrored else value

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
    row = [refined_count(n - 1, (r,)) for r in range(1, n)]
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
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValidationError(f"indices must lie in 1..{n}, got ({i}, {j})")
    value = 0
    if i < j:
        value += table.value(i, j)
    if j < i:
        value -= table.value(j, i)
    if i == n - 1 and j == 1:
        value += refined_count(n, (n,))
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
        table = build_table(n, 2)
    cases = entry_cases(extend_matrix(table), lambda i, j: entry_closed_form(n, i, j, table))
    return VerificationReport.from_cases("ilse", f"n={n}, all {n * n} index pairs", cases)


def z_value(n: int, p: int, i: int) -> int:
    """Shift-subset sums of the order n-1 counting function, missing column i.

    Sums the counting function over all p-element subsets of the first n - 2
    positions of the row (1, ..., n) with i removed, each chosen position
    shifted up by one; 0 when i = 0 by convention.  Read from build_table(n, 2).
    """
    p = as_size(p, "subset size", 0, n - 2)
    i = as_size(i, "column index", 0, n)
    return _z_row(n, i, build_table(n, 2))[p]


def _z_row(n: int, i: int, table: RefinedTable) -> list[int]:
    """z(n, p, i) for p in 0..n-2, each row above a shifted row read as its table entry.

    A row t above base + s leaves out a pair of 1..n and interlaces when
    t_(k-1) <= base_k + s_k <= t_k for every k, a floor and a cap on each
    shift alone.  Around t, t_(-1) = 0 and t_(n-2) = base_(n-2), which keeps
    the last entry unshifted.  So t weighs binom(free, p - forced).
    """
    row = [0] * (n - 1)
    if i == 0:
        return row
    base = [v for v in range(1, n + 1) if v != i]
    for pair, count in table.entries.items():
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
    return _binomial_transform(n, j, _z_row(n, i, build_table(n, 2)))


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
    """The shift-subset route, read from the depth-2 table, reproduces every extended entry."""
    matrix = _array(n, matrix)
    table = build_table(n, 2)
    total_prev = refined_count(n, (n,))
    # every transform at column index i reads the same shift-subset sums; count them once
    z = [_z_row(n, i, table) for i in range(n)]

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
    system: LinearSystem

    @property
    def unique(self) -> bool:
        return self.solution is not None


def solve_sufficiency(n: int, budget: Budget = DEFAULT_BUDGET) -> SufficiencyResult:
    """Solve the system exactly, up to order table_max_n, and report rank and uniqueness."""
    n = as_size(n, "order", 3)
    if n > budget.table_max_n:
        raise BudgetError(
            f"sufficiency solve at n={n} exceeds the budget cap {budget.table_max_n}"
        )
    system = sufficiency_system(n)
    result = solve_integer_system(system.matrix, system.rhs)
    if not result.consistent:
        raise SingularSystemError(
            f"the assembled equations at n={n} are inconsistent; this is a bug"
        )
    solution = None
    if result.unique:
        flat = []
        for value in result.solution:
            if value.denominator != 1:
                raise NonIntegralError(f"solved entry {value} is not an integer")
            flat.append(value.numerator)
        solution = ExtendedMatrix(n, tuple(tuple(flat[k:k + n]) for k in range(0, n * n, n)))
    return SufficiencyResult(result.rank, n * n, solution, system)


_EXCLUDED_OFFSETS = ((-1, 1), (0, 1), (0, 2))


def _excluded_pairs(n: int) -> set[tuple[int, int]]:
    return {(n + di, j) for di, j in _EXCLUDED_OFFSETS}


def explicit_formula(n: int, i: int, j: int) -> int:
    """Closed-form extended entry at (i, j); the three excluded pairs raise.

    The inner sum over k is kept as one unreduced integer fraction: every
    harmonic number it reads is an integer over L = lcm(1..3n), and each term
    enters with its own denominator.  The prefactor is applied once, and one
    exact division at the end either gives the entry or raises
    NonIntegralError rather than rounding.
    """
    n = as_size(n, "order", 3)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValidationError(f"indices must lie in 1..{n}, got ({i}, {j})")
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


def _formula_entry(n: int, i: int, j: int, scale: int, h: list[int]) -> int:
    """explicit_formula at a valid, non-excluded (i, j), given _harmonic_table(n)."""
    num, den = 0, 1
    for k in range(min(0, j - i), max(i - 1, j - 2) + 1):
        pole = k - j + 3 - n
        x = binom(3 * k - 3 * j + 4, k) * binom(2 * j + i - 2 * k - 5, i - k - 1)
        if j - i <= k <= j - 2:
            # sign * factor / pole * (bracket / L + 1 / pole)
            bracket = (
                3 * h[3 * j - 2 * k - 5] - 3 * h[3 * j - 3 * k - 5]
                + 2 * h[2 * j + i - 2 * k - 5] - 2 * h[2 * j - k - 4]
                + h[k - j + i] - h[j - k - 2]
            )
            x *= binom(i - 2, k - j + i) * (i - 1) * (bracket * pole + scale)
            if (j + k) % 2 == 0:
                x = -x
            x_den = pole * pole * scale
        else:
            x_den = binom(k - j + i, i - 1) * pole
        y = (
            binom(3 * k - 3 * j + 4, k + i - j)
            * binom(3 * j - 2 * k - 5, j - k - 1)
            * (j - k - 1)
        )
        if 0 <= k <= i - 1:
            # sign * factor / pole * bracket / L
            y *= binom(i - 1, k) * (h[3 * j - 2 * k - 5] - h[2 * j - k - 4] - h[k] + h[i - k - 1])
            if (i + k) % 2 == 0:
                y = -y
            y_den = pole * scale
        else:
            y_den = binom(k, i) * pole * i
        num = num * x_den * y_den + (x * y_den - y * x_den) * den
        den *= x_den * y_den
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


def _coefficient_array(n: int, d: int, budget: Budget) -> dict[tuple[int, ...], int]:
    if d == 2:
        return _entries(extend_matrix(build_table(n, 2, budget)))
    indices = itertools.product(range(1, n + 1), repeat=d)
    return dict(zip(indices, drefined_F(n, d, budget).coeffs))


def verify_conjecture3(
    n: int, d: int = 3, budget: Budget = DEFAULT_BUDGET
) -> VerificationReport:
    """The depth-d reflection equations hold for the expansion coefficients."""
    d = as_size(d, "depth", 2)
    checked = f"n={n}, d={d}, all {n ** d} index tuples"
    cases = _reflection_cases(n, d, _coefficient_array(n, d, budget))
    return VerificationReport.from_cases("conj3", checked, cases)


def verify_conjecture4(
    n: int, d: int = 3, budget: Budget = DEFAULT_BUDGET
) -> VerificationReport:
    """Expansion coefficients equal the refined counts on increasing index tuples."""
    # first: gn_poly rejects an n or d on which math.comb would raise ValueError
    expansion = drefined_F(n, d, budget)
    checked = f"n={n}, d={d}, all {math.comb(n, d)} increasing tuples"
    cases = (
        (combo, expansion.coefficient(combo), refined_count(n, combo, budget))
        for combo in itertools.combinations(range(1, n + 1), d)
    )
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
