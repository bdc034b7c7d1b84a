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

keyed_reflection_cases reads the array to reflect from a dict keyed by index
tuples and looks its image up in a second such dict, as
asmref.extension._reflection_cases did before it read row-major values and
found the reversed index through one position permutation.  The tests require
the same cases from the row-major reader on random arrays of every depth.

apply_axis maps the fibers of one axis, building each fiber index by index
from its stride, as asmref.polynomials did before apply_axes mapped every
axis in one call by extended slices.  keyed_reflection_cases applies it axis
by axis, so the reflection oracle shares no fiber code with the program, and
the tests require apply_axes to equal it on random tensors and random maps.

fiber_apply_axes calls a map once per length-k fiber of each axis, reading
and writing the fiber as one extended slice, as asmref.polynomials.apply_axes
did before it handed each map the k slabs of its axis and moved the mapped
axis to the end.  fiber_differences, fiber_expansion and
fiber_reflection_cases run the forward differences of PolyMulti.interpolate,
the back-substitution of expand_in_binomial_basis and the reflection of
asmref.extension._reflection_cases through it, fiber by fiber and with W's
zero weights included.  The tests require the same coefficients, the same
expansion and the same cases from the slab passes on gn grids, the sample
grids gn_grid writes out as gn_poly builds them.

newton_interpolant_value interpolates in Fractions by divided differences on
any distinct nodes, axis by axis, as asmref.polynomials did before it took
integer forward differences on runs of consecutive integers.  The tests
interpolate counts taken with alpha_count_dfs on the sample rows of
alpha_polynomial and gn_poly and require the same values from
PolyMulti.evaluate.

fischer_coefficients builds the counting polynomial with no sample at all,
by Fischer's operator formula ("The number of monotone triangles with
prescribed bottom row", Adv. Appl. Math. 2006): the product over p < q of
(id + E_p D_q) applied to prod (k_j - k_i)/(j - i).  It differences the
product with apply_axis and applies the operators to the coefficients.  The
tests require the origins and the coefficients of alpha_polynomial.

expansion_value sums a binomial-basis expansion over its basis products in
Fractions, axis by axis, as BinomBasisExpansion.evaluate did before
PolyMulti became the one evaluator.  The tests require it to give the
values of the polynomial that was expanded.

column_sweep carries every state of every row through all n cells, with the
running row sum as bit 0 of one dict of states under cell, as
asmref.triangles did before it split the states by that sum and carried each
row only to the subsets that contain column 1.  The tests require the same
count for every subset from the pruned sweep, each read through _sweep_count.

dict_column_sweep keeps the states of each row in two dicts, h0 and h1, and
moves them through one cell at a time with dict_cell, as asmref.triangles
did before its sweep held the states in blocks of lists and added whole
slices of them at once.  dict_row_transfer walks a grid of candidate entries
the same way, as triangles._row_transfer did before it held each level's
states in the sweep's blocks.  The tests require the same counts from
_column_sweep at every order up to 16, and from _row_transfer on every gn
grid up to order 8 and on random grids under both arms of the low/high
split.

fiber_transfer counts the rows of one prefix with each candidate last entry
by its own row transfer, as asmref.triangles did before it counted a whole
grid of candidate entries in one prefix-shared walk.  It reads the columns
with cell, the single-dict rule; the tests require the same counts from
alpha_count_grid on every sample row of the polynomials' grids.

alpha_identity_reports evaluates the counting polynomial once per shifted
point, in Fractions with a per-point memo, as asmref.polynomials did before it
evaluated the shifts of each identity as one stencil.  The tests require the
same reports, witnesses included, from verify_alpha_identities.
gn_reflection_reports does the same for the specialization gn_poly(n, d):
one evaluate call per point of its reflection and six-term exchange, on the
Fractions of _draw_point, as asmref.polynomials did before the suites drew
their points as integer numerators and denominators and ran compiled
stencils on them.  The tests require the same reports from
verify_gn_reflection.

fraction_explicit_formula sums the entry formula of conj2 term by term in
Fractions, each harmonic number a Fraction of its own, as
asmref.extension did before it summed over one integer denominator.
coefficient_extension sums c_coeff times the count over every pair, as
extend_matrix did before it summed c_coeff's kernel by one Pascal recurrence
and two Pascal shifts, in O(n^2).
The tests require the same values and the same exceptions from
explicit_formula, and the same ExtendedMatrix from extend_matrix, on real
and on random tables.

product_formula_entry sums both halves of conj2's k-sum at every k from
min(0, j - i) to max(i - 1, j - 2), zero terms included, and keeps the sum
over the product of all the term denominators, as
asmref.extension._formula_entry did before each half ran over its own
nonzero range and the sum was kept over the running lcm.  The tests require
the same entries, and the same NonIntegralError text on a harmonic table that
no longer holds L * H(m).

triangular_system_witnesses sums a rectangle, a column or a row of the
extended array inside every check of the triangular system, as
verify_triangular_system did before it read them from suffix sums built once
per order.  The tests require the same witnesses, in the same order, on real
arrays and on corrupted ones.

shifted_row_z sums a count over the rows above every shifted row of a
shift-subset sum, one subset and one interlacing row at a time, as z_value
did with alpha_count before it read the depth-2 table as one weighted sum.
The tests require the same sums from the weighted sum, on real counts and on
random tables.

falling_factorial_binom multiplies out n(n-1)...(n-k+1) and divides by k!,
as asmref.combinat.binom did before it read math.comb.  The tests require the
same values from binom, negative upper arguments included.

fraction_total_asm_count and fraction_refined_asm_row multiply out the product
formulas, prod over j < n of (3j+1)!/(n+j)! and the refined count's n-1 such
factors times C(n+k-2, k-1) (2n-k-1)!/(n-k)!, in Fractions, as
asmref.combinat did before the refined count read the total and both divided
exactly in ints.  The tests require the same totals and the same rows.

krylov_solution solves the conj1 system through its two involutions: it
solves the n boundary forms for the array's first column u and builds the
array from u through the Krylov matrix K of the system and adjugate(K), the
fraction-free Gauss-Jordan inverse, as asmref.extension did before its
route became a rank certificate and a row check of the counted array.  The
tests require the same array from solve_sufficiency and from the sparse
solve of all n^2 unknowns, and the determinant that the certificate's proof
gives the boundary forms, from adjugate.

stencil_oracle evaluates a PolyMulti at integer shifts of a point as
PolyMulti.evaluate_shifts did before it reduced each axis in one pass over
the shifts: on each axis it builds the basis vectors of the set of distinct
steps first, then reduces the set of distinct suffixes, and it contracts
every partial, the last fiber included, by k strided list comprehensions.
Its input checks are the ones of that method.  The tests require the same
numerators, the same scale and the same error messages from evaluate_shifts.

list_entries_digest hashes a table document's entries after rebuilding each
index tuple as a list, as TableDocument.digest did before it encoded the
entries as they are.  The tests require the same hex digest from digest, so
a cache file signed by either form loads as a hit under the other.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import operator
import random
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from asmref import triangles
from asmref.combinat import as_int, binom, binom_at, harmonic, refined_asm_count, total_asm_count
from asmref.errors import ExcludedIndexError, NonIntegralError, ValidationError
from asmref.extension import ExtendedMatrix, LinearSystem, c_coeff, reflection_weights
from asmref.linalg import solve_integer_system
from asmref.polynomials import BinomBasisExpansion, PolyMulti, _draw_point
from asmref.reports import VerificationReport, Witness
from asmref.triangles import RefinedTable, _interlacing_rows

# The DFS memo.  Counting rows are translation invariant, so keys are
# normalized to start at zero.
_alpha_memo: dict[tuple[int, ...], int] = {}


def fraction_total_asm_count(n: int) -> Fraction:
    """prod over j < n of (3j+1)!/(n+j)!, in Fractions."""
    value = Fraction(1)
    for j in range(n):
        value *= Fraction(math.factorial(3 * j + 1), math.factorial(n + j))
    return value


def fraction_refined_asm_row(n: int) -> list[Fraction]:
    """The refined counts A(n, 1..n) by the product formula, in Fractions."""
    common = Fraction(1)
    for j in range(n - 1):
        common *= Fraction(math.factorial(3 * j + 1), math.factorial(n + j))
    return [
        common * binom(n + k - 2, k - 1)
        * Fraction(math.factorial(2 * n - k - 1), math.factorial(n - k))
        for k in range(1, n + 1)
    ]


def falling_factorial_binom(n: int, k: int) -> int:
    """n(n-1)...(n-k+1) / k! for k >= 0, and 0 for k < 0."""
    if k < 0:
        return 0
    num = 1
    for r in range(k):
        num *= n - r
    # a product of k consecutive integers is divisible by k!
    return num // math.factorial(k)


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


def cell(states: dict[int, int], bit: int) -> dict[int, int]:
    """One six-vertex cell between the line sums at bit 0 and at the given bit.

    A 0 keeps the state; a +1 needs both sums at 0 and a -1 both at 1, and
    either flips both bits.
    """
    flip = (1 << bit) | 1
    after = dict(states)
    for state, ways in states.items():
        if not (state ^ (state >> bit)) & 1:
            key = state ^ flip
            after[key] = after.get(key, 0) + ways
    return after


def column_sweep(n: int) -> dict[int, int]:
    """alpha_count of every subset of {1..n}: every row carried through every cell.

    A state holds the partial column sums as bits 1..n and the running row
    sum as bit 0; a row is complete when that sum is 1.
    """
    counts = {0: 1}
    states = {0: 1}
    for _ in range(n):
        for j in range(1, n + 1):
            states = cell(states, j)
        states = {state ^ 1: ways for state, ways in states.items() if state & 1}
        counts.update(states)
    return counts


def dict_column_sweep(n: int) -> dict[int, int]:
    """alpha_count of the empty set and of every subset of {1..n} that contains column 1.

    Each row starts from the previous one as h0 and from its translates, with
    column 1 added, as h1, and visits one dict entry at a time through
    dict_cell, looked up on this module at each call.
    """
    counts = {0: 1, 2: 1}
    row = {2: 1}
    for _ in range(1, n):
        h1 = {
            (state << t) | 2: ways
            for state, ways in row.items()
            for t in range(1, n + 2 - state.bit_length())
        }
        for j in range(2, n + 1):
            dict_cell(row, h1, j)
        row = h1
        counts.update(row)
    return counts


def dict_row_transfer(grid: tuple[tuple[int, ...], ...]) -> list[int]:
    """alpha_count of every row of a grid of candidate entries, from one dict walk.

    The depth-first walk of triangles._row_transfer over the columns, with
    each level's states in two dicts, h0 and h1, that visit one entry at a
    time through dict_cell, looked up on this module at each call.  A
    column's h1 starts empty; the rows with their entry at a candidate go on
    from h1, and the rows with it further right from h0.
    """
    n = len(grid)
    done = (1 << (n + 1)) - 2
    candidates = [set(level) for level in grid]
    counts: list[int] = []

    def walk(i: int, start: int, h0: dict[int, int]) -> None:
        for c in range(start, grid[i][-1] + 1):
            h1: dict[int, int] = {}
            for bit in range(1, n + 1):
                dict_cell(h0, h1, bit)
            if c in candidates[i]:
                if i == n - 1:
                    counts.append(h1.get(done, 0))
                else:
                    walk(i + 1, c + 1, h1)

    walk(0, grid[0][0], {0: 1})
    return counts


def dict_cell(h0: dict[int, int], h1: dict[int, int], bit: int) -> None:
    """One six-vertex cell between the running sum h and the line sum at bit, in place.

    h0 and h1 hold the states with h at 0 and at 1, keyed by the line sums.
    A +1 moves a state x of h0 without the bit up to x + bit in h1, a -1
    moves x + bit down to x, and a 0 keeps a state, so x and x + bit both
    end with the sum of their ways and every other state is kept.

    The pairs are found from h0 alone, so h0 must hold x whenever h1 holds
    x + bit.  The row transfer starts a line from every subset of one size.
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


def fiber_transfer(prefix: tuple[int, ...], lasts: Sequence[int]) -> list[int]:
    """alpha_count(prefix + (last,)) for each last, from one six-vertex transfer.

    The n x W matrix of the row's triangles is added one column at a time.
    Column c ends with its sum at 1 if c is an entry of the prefix and at 0
    otherwise, and the count of a row ending at c is the weight of the
    all-ones state at the end of column c.
    """
    if not prefix:
        return [1] * len(lasts)
    n = len(prefix) + 1
    done = (1 << (n + 1)) - 1
    entries = set(prefix)
    wanted = set(lasts)
    found = {}
    states = {0: 1}
    for c in range(prefix[0], max(lasts) + 1):
        for i in range(1, n + 1):
            states = cell(states, i)
        if c in wanted:
            found[c] = states.get(done, 0)
        end = 1 if c in entries else 0
        states = {state & ~1: ways for state, ways in states.items() if state & 1 == end}
    return [found[c] for c in lasts]


def newton_value(nodes: Sequence[int], values: Sequence, x) -> Fraction:
    """The interpolant of values on distinct nodes at x: divided differences, then Horner."""
    coeffs = [Fraction(v) for v in values]
    for j in range(1, len(coeffs)):
        for i in range(len(coeffs) - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (nodes[i] - nodes[i - j])
    acc = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        acc = acc * (x - nodes[i]) + coeffs[i]
    return acc


def newton_interpolant_value(
    point: Sequence,
    nodes_at: Callable[[tuple], Sequence[int]],
    sample: Callable[[tuple], int],
    prefix: tuple = (),
) -> Fraction:
    """The interpolant of sample at point, one axis after another from the first.

    The axis after prefix is interpolated on nodes_at(prefix), where prefix
    holds the nodes taken on the axes before it, so a node list may depend on
    the nodes before it.  sample(nodes) is the value at a full tuple of nodes.
    """
    if len(prefix) == len(point):
        return Fraction(sample(prefix))
    nodes = tuple(nodes_at(prefix))
    values = [newton_interpolant_value(point, nodes_at, sample, prefix + (x,)) for x in nodes]
    return newton_value(nodes, values, Fraction(point[len(prefix)]))


def expansion_value(expansion: BinomBasisExpansion, point: Sequence) -> Fraction:
    """The value at a rational point: the basis products summed axis by axis."""
    n = expansion.n
    cur = list(expansion.coeffs)
    for axis in range(expansion.d - 1, -1, -1):
        x = point[axis]
        basis = [binom_at(x + j + axis - 1, j - 1) for j in range(1, n + 1)]
        cur = [sum(cur[s + t] * basis[t] for t in range(n)) for s in range(0, len(cur), n)]
    return cur[0]


def coefficient_extension(table: RefinedTable) -> ExtendedMatrix:
    """The extended array of a depth-2 table: c_coeff times the count, summed over every pair."""
    n = table.n
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    rows = tuple(
        tuple(
            table.value(i, j) if i < j
            else sum(c_coeff(i, j, p, q) * table.value(p, q) for p, q in pairs)
            for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )
    return ExtendedMatrix(n, rows)


def shifted_row_z(n: int, p: int, i: int, count: Callable[[tuple[int, ...]], int]) -> int:
    """z(n, p, i) with count(t) for each row t above each shifted row, summed one by one."""
    if i == 0:
        return 0
    base = [v for v in range(1, n + 1) if v != i]
    total = 0
    for subset in itertools.combinations(range(n - 2), p):
        shifted = list(base)
        for pos in subset:
            shifted[pos] += 1
        total += sum(count(above) for above in _interlacing_rows(tuple(shifted)))
    return total


def _formula_x_term(n: int, i: int, j: int, k: int) -> Fraction:
    pole = k - j + 3 - n
    if j - i <= k <= j - 2:
        bracket = (
            3 * harmonic(3 * j - 2 * k - 5)
            - 3 * harmonic(3 * j - 3 * k - 5)
            + 2 * harmonic(2 * j + i - 2 * k - 5)
            - 2 * harmonic(2 * j - k - 4)
            + harmonic(k - j + i)
            - harmonic(j - k - 2)
            + Fraction(1, pole)
        )
        sign = 1 if (j + k + 1) % 2 == 0 else -1
        factor = (
            binom(3 * k - 3 * j + 4, k)
            * binom(2 * j + i - 2 * k - 5, i - k - 1)
            * binom(i - 2, k - j + i)
            * (i - 1)
        )
        return Fraction(sign, pole) * factor * bracket
    numerator = binom(3 * k - 3 * j + 4, k) * binom(2 * j + i - 2 * k - 5, i - k - 1)
    return Fraction(numerator, binom(k - j + i, i - 1) * pole)


def _formula_y_term(n: int, i: int, j: int, k: int) -> Fraction:
    pole = k - j + 3 - n
    if 0 <= k <= i - 1:
        bracket = (
            harmonic(3 * j - 2 * k - 5)
            - harmonic(2 * j - k - 4)
            - harmonic(k)
            + harmonic(i - k - 1)
        )
        sign = 1 if (i + k + 1) % 2 == 0 else -1
        factor = (
            binom(3 * k - 3 * j + 4, k + i - j)
            * binom(3 * j - 2 * k - 5, j - k - 1)
            * binom(i - 1, k)
            * (j - k - 1)
        )
        return Fraction(sign, pole) * factor * bracket
    numerator = (
        binom(3 * k - 3 * j + 4, k + i - j)
        * binom(3 * j - 2 * k - 5, j - k - 1)
        * (j - k - 1)
    )
    return Fraction(numerator, binom(k, i) * pole * i)


def fraction_explicit_formula(n: int, i: int, j: int) -> int:
    """explicit_formula with every term, harmonic number and prefactor a Fraction."""
    if n < 3:
        raise ValidationError(f"order must be at least 3, got {n}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValidationError(f"indices must lie in 1..{n}, got ({i}, {j})")
    if (i, j) in {(n - 1, 1), (n, 1), (n, 2)}:
        raise ExcludedIndexError(f"({i}, {j}) is an excluded pair at n={n}")
    prefactor = Fraction(
        total_asm_count(n - 1), math.factorial(3 * n - 5) * math.factorial(n - 2)
    )
    prefactor *= Fraction(
        math.factorial(2 * n - 2 - i)
        * math.factorial(2 * n - 2 - j)
        * math.factorial(n + i - 3)
        * math.factorial(n + j - 3),
        math.factorial(i - 1)
        * math.factorial(j - 1)
        * math.factorial(n - i)
        * math.factorial(n - j),
    )
    quadratic = (
        2 + 2 * i + i * i - 3 * j - i * j + j * j - 2 * n - 2 * i * n + j * n + n * n
    )
    inner = Fraction(0)
    for k in range(min(0, j - i), max(i - 1, j - 2) + 1):
        inner += _formula_x_term(n, i, j, k) - _formula_y_term(n, i, j, k)
    value = prefactor * (n + j - i - 1 + quadratic * inner)
    if value.denominator != 1:
        raise NonIntegralError(f"formula value at n={n}, ({i},{j}) is {value}")
    return value.numerator


def product_formula_entry(n: int, i: int, j: int, scale: int, h: list[int]) -> int:
    """_formula_entry as it summed every k of both halves over the product of the denominators."""
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


def triangular_system_witnesses(matrix: ExtendedMatrix) -> list[Witness]:
    """The witnesses of the triangular system, each sum of entries taken inside its check."""
    n = matrix.n
    f = matrix.entry
    witnesses = []

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            lhs = f(i, j) + sum(
                f(p, q) for p in range(i + 1, n + 1) for q in range(j, n + 1)
            )
            rhs = -f(j, i) - sum(
                f(q, p) for p in range(i, n + 1) for q in range(j + 1, n + 1)
            )
            if lhs != rhs:
                witnesses.append(Witness(("full", i, j), lhs, rhs))

    if f(n, n) != 0:
        witnesses.append(Witness(("corner", n, n), f(n, n), 0))
    for i in range(1, n):
        total = sum(f(k, i) for k in range(i, n + 1)) + sum(
            f(i + 1, k) for k in range(i + 2, n + 1)
        )
        if total != 0:
            witnesses.append(Witness(("diagonal", i), total, 0))
    for i in range(1, n + 1):
        for j in range(1, i):
            total = (
                sum(f(k, j) for k in range(i, n + 1))
                - f(i, j + 1)
                + f(j, i)
                + sum(f(j + 1, k) for k in range(i + 1, n + 1))
            )
            if total != 0:
                witnesses.append(Witness(("below", i, j), total, 0))

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


def apply_axis(flat: list, k: int, num_vars: int, axis: int, fn: Callable) -> list:
    """Apply fn to every length-k fiber along the given axis of a row-major tensor."""
    stride = k ** (num_vars - axis - 1)
    block = stride * k
    out = list(flat)
    for start in range(0, len(flat), block):
        for off in range(stride):
            base = start + off
            fiber = [out[base + t * stride] for t in range(k)]
            for t, v in enumerate(fn(fiber)):
                out[base + t * stride] = v
    return out


def gn_grid(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The sample grid of gn_poly(n, d): the staircase 1..n-d, then a block of n columns per variable."""
    return tuple((v,) for v in range(1, n - d + 1)) + tuple(
        tuple(range(n - d + 1 + r * n, n - d + 1 + (r + 1) * n)) for r in range(d)
    )


def fiber_apply_axes(flat: Sequence, k: int, fns: Sequence[Callable]) -> list:
    """Apply fns[r] to every length-k fiber along axis r of a row-major tensor, r = 0, 1, ..."""
    out = list(flat)
    block = len(out)
    for fn in fns:
        stride = block // k
        for start in range(0, len(out), block):
            for base in range(start, start + stride):
                out[base : start + block : stride] = fn(out[base : start + block : stride])
        block = stride
    return out


def fiber_differences(values: Sequence[int]) -> list[int]:
    """D^m f(a), m < k, of samples at a..a+k-1: the coefficients in binom(x - a, m)."""
    heads = []
    row = values
    while row:
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return heads


def fiber_expansion(poly: PolyMulti) -> list[int]:
    """The shifted binomial-basis coefficients of poly, by back-substitution fiber by fiber."""
    n = poly.degree_bound + 1

    def back_substitution(shift: int) -> Callable[[list[int]], list[int]]:
        weights = [[binom(m + shift, m - k) for m in range(k + 1, n)] for k in range(n)]

        def solve(fiber: list[int]) -> list[int]:
            for k in range(n - 2, -1, -1):
                fiber[k] -= sum(map(operator.mul, fiber[k + 1 :], weights[k]))
            return fiber

        return solve

    fns = [back_substitution(axis + origin) for axis, origin in enumerate(poly.origins)]
    return fiber_apply_axes(poly.coeffs, n, fns)


def fiber_reflection_cases(n: int, d: int, values: Sequence[int]) -> list[tuple]:
    """Row-major cases (i, E(i), its reflection), W applied fiber by fiber on every axis."""
    weights = reflection_weights(n, d)
    image = fiber_apply_axes(values, n, [lambda fiber: [
        sum(map(operator.mul, row, fiber)) for row in weights
    ]] * d)
    indices = list(itertools.product(range(1, n + 1), repeat=d))
    image_at = dict(zip(indices, image))
    sign = (-1) ** (n * d)
    return [(index, lhs, sign * image_at[index[::-1]]) for index, lhs in zip(indices, values)]


def fischer_coefficients(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Origins and coefficients of the counting polynomial by Fischer's operator formula.

    alpha(n; k) is the product over p < q of (id + E_p D_q), with E the unit
    shift and D the forward difference, applied to V(k) = prod over i < j of
    (k_j - k_i)/(j - i).  V is sampled on the grid of origins r*n and
    differenced axis by axis.  In the basis binom(k_r - r*n, m_r), D_q lowers
    m_q by one, so each factor maps c[m] to c[m] + c[m + e_q] + c[m + e_p + e_q],
    with zeros past degree n - 1.
    """
    origins = tuple(r * n for r in range(n))
    pairs = list(itertools.combinations(range(n), 2))
    denominator = math.prod(j - i for i, j in pairs)
    coeffs = []
    for k in itertools.product(*(range(a, a + n) for a in origins)):
        value, rest = divmod(math.prod(k[j] - k[i] for i, j in pairs), denominator)
        assert rest == 0
        coeffs.append(value)

    def differences(fiber: list) -> list:
        return [sum((-1) ** (m - t) * math.comb(m, t) * fiber[t] for t in range(m + 1)) for m in range(n)]

    for axis in range(n):
        coeffs = apply_axis(coeffs, n, n, axis, differences)
    strides = [n ** (n - 1 - r) for r in range(n)]
    indices = list(itertools.product(range(n), repeat=n))
    for p, q in pairs:
        c = coeffs
        coeffs = [
            c[pos]
            + (c[pos + strides[q]] if m[q] < n - 1 else 0)
            + (c[pos + strides[p] + strides[q]] if m[p] < n - 1 and m[q] < n - 1 else 0)
            for pos, m in enumerate(indices)
        ]
    return origins, tuple(coeffs)


def keyed_reflection_cases(
    n: int, d: int, values: Mapping[tuple[int, ...], int]
) -> Iterator[tuple]:
    """Row-major cases (i, E(i), its reflection), E and its image keyed by index tuples."""
    weights = reflection_weights(n, d)
    indices = list(itertools.product(range(1, n + 1), repeat=d))
    image = flat = [values[index] for index in indices]
    for axis in range(d):
        image = apply_axis(image, n, d, axis, lambda fiber: [
            sum(a * b for a, b in zip(row, fiber)) for row in weights
        ])
    image_at = dict(zip(indices, image))
    sign = (-1) ** (n * d)
    return ((index, lhs, sign * image_at[index[::-1]]) for index, lhs in zip(indices, flat))


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


def adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
    """det A and the adjugate Q of a square integer matrix, A·Q = det A·I, or (0, None).

    Fraction-free Gauss-Jordan on [A | I]: at each column the first row with
    a nonzero there is swapped up as the pivot row, and every other row r
    becomes (p*r - f*pivot_row) / q, with p the pivot, f the row's entry in
    the column and q the previous pivot.  Each entry is then a minor of
    [A | I], so the division is exact, and at the end the left block is the
    last pivot times I.  That pivot is det A up to the sign of the swaps, and
    the right block, with that sign, is Q.
    """
    n = len(rows)
    work = [[int(v) for v in row] + [int(i == j) for j in range(n)]
            for i, row in enumerate(rows)]
    if any(len(row) != 2 * n for row in work):
        raise ValueError("matrix must be square")
    sign, previous = 1, 1
    for c in range(n):
        chosen = next((i for i in range(c, n) if work[i][c]), None)
        if chosen is None:
            return 0, None
        if chosen != c:
            work[c], work[chosen] = work[chosen], work[c]
            sign = -sign
        pivot_row = work[c]
        p = pivot_row[c]
        for i in range(n):
            if i != c:
                f = work[i][c]
                work[i] = [(p * a - f * b) // previous for a, b in zip(work[i], pivot_row)]
        previous = p
    return sign * previous, [[sign * v for v in row[n:]] for row in work]


def krylov_solution(n: int) -> tuple[Fraction, ...]:
    """The row-major solution of the conj1 system, solved for its first column, in ints.

    Write E for the array, W for reflection_weights(n, 2) and J for the
    reversal.  The reflection rows say E = W.E^T.W^T, the mirror and
    exceptional rows say J.E^T.J = E + F, where F is -t1 at (n - 1, 1), t1 at
    (n, 2) and 0 elsewhere, with t1 = total_asm_count(n - 1).  Together
    E = M.E.M^T + C with M = W.J and C = M.F.M^T, and as W^2 = I, M has the
    inverse J.W, so E.B = M.E + C.B with B = W^T.J.  The columns of the
    Krylov matrix K = [w, Bw, ..., B^(n-1)w], w = e_1, are then sent to
    v_0 = u = E.w and v_(k+1) = M.v_k + C.B^(k+1).w, so E = V.K^-1.  The last
    column gives n - 1 forms in u, since M^T.e_n = (-1)^n e_1 makes
    E.e_n = (-1)^n M.u + C.e_n, and E(n - 1, 1) = u_(n-1) = t2, with
    t2 = total_asm_count(n - 2), is the nth.  The forms are solved for u;
    with L the lcm of u's denominators and Q the adjugate of K,
    E = (L.V).Q / (L.det K).
    """

    def times(matrix: Iterable[Sequence[int]], vector: Sequence[int]) -> list[int]:
        return [sum(a * b for a, b in zip(row, vector)) for row in matrix]

    weights = reflection_weights(n, 2)
    cells = range(n)
    m = [row[::-1] for row in weights]
    b = [[weights[n - 1 - j][i] for j in cells] for i in cells]
    krylov = [[int(i == 0) for i in cells]]
    for _ in range(n - 1):
        krylov.append(times(b, krylov[-1]))
    det, adj = adjugate([list(row) for row in zip(*krylov)])
    assert det, f"the Krylov matrix of order {n} is singular"
    t1, t2 = total_asm_count(n - 1), total_asm_count(n - 2)
    c = [[t1 * (m[i][n - 1] * m[j][1] - m[i][n - 2] * m[j][0]) for j in cells] for i in cells]
    sign = (-1) ** n
    forms = [[sign * v for v in m[i - 1]] for i in range(1, n)]
    rhs = [refined_asm_count(n - 1, i) - c[i - 1][n - 1] for i in range(1, n)]
    forms.append([int(k == n - 2) for k in cells])
    rhs.append(t2)
    u = solve_integer_system(forms, rhs).solution
    common = math.lcm(*(v.denominator for v in u))
    columns = [[v.numerator * (common // v.denominator) for v in u]]
    for k in range(1, n):
        shifted = zip(times(m, columns[-1]), times(c, krylov[k]))
        columns.append([x + common * y for x, y in shifted])
    adj_columns = list(zip(*adj))
    scale = common * det
    return tuple(Fraction(v, scale) for row in zip(*columns) for v in times(adj_columns, row))


def _shift(point: tuple, positions: Sequence[int], amount: int = 1) -> tuple:
    out = list(point)
    for pos in positions:
        out[pos] += amount
    return tuple(out)


def alpha_identity_reports(
    poly: PolyMulti, n: int, seed: int, num_points: int
) -> tuple[VerificationReport, ...]:
    """verify_alpha_identities on poly, one memoized evaluation per shifted point."""
    cache: dict[tuple, Fraction] = {}

    def ev(point: tuple) -> Fraction:
        value = cache.get(point)
        if value is None:
            value = poly.evaluate(point)
            cache[point] = value
        return value

    rng = random.Random(seed)
    bound = 3 * n
    reports = []
    witnesses: list[Witness] = []

    def check(label: tuple, pt: tuple, lhs, rhs):
        if lhs != rhs:
            witnesses.append(Witness(label + pt, lhs, rhs))

    def finish(name: str, detail: str = ""):
        checked = f"n={n}, {num_points} rational points (seed {seed})" + detail
        reports.append(VerificationReport.from_witnesses(name, checked, witnesses))
        witnesses.clear()

    for _ in range(num_points):
        pt = _draw_point(rng, n, bound)
        (t,) = _draw_point(rng, 1, bound)
        check((), pt, ev(pt), poly.evaluate(tuple(x + t for x in pt)))
    finish("translation")

    for _ in range(num_points):
        pt = _draw_point(rng, n, bound)
        check((), pt, ev(pt), ev(tuple(-x for x in reversed(pt))))
    finish("reversal")

    sign = 1 if n % 2 == 1 else -1
    for _ in range(num_points):
        pt = _draw_point(rng, n, bound)
        check((), pt, ev(pt[1:] + (pt[0] - n,)), sign * ev(pt))
    finish("rotation")

    for _ in range(num_points):
        pt = _draw_point(rng, n, bound)
        for i in range(n - 1):
            a, b = pt[i], pt[i + 1]

            def at(u, v):
                return ev(pt[:i] + (u, v) + pt[i + 2 :])

            lhs = at(a, b) + at(a + 1, b + 1) - at(a, b + 1)
            rhs = -at(b, a) - at(b + 1, a + 1) + at(b, a + 1)
            check((f"positions {i + 1},{i + 2}",), pt, lhs, rhs)
    finish("six-term", f", all {max(n - 1, 0)} neighbour pairs")

    positions = range(n)
    for _ in range(num_points):
        pt = _draw_point(rng, n, bound)
        for q in range(1, n):
            total = Fraction(0)
            for subset in itertools.combinations(positions, q):
                for t_size in range(q + 1):
                    term_sign = 1 if (q - t_size) % 2 == 0 else -1
                    for chosen in itertools.combinations(subset, t_size):
                        total += term_sign * ev(_shift(pt, chosen))
            check((f"q={q}",), pt, total, 0)
    finish("symmetric-difference-annihilation", f", q=1..{n - 1}")

    for _ in range(num_points):
        pt = _draw_point(rng, n, bound)
        for r in range(n):
            others = [pos for pos in positions if pos != r]
            for z in range(4):
                lhs = ev(_shift(pt, (r,), z))
                rhs = Fraction(0)
                for p in range(z + 1):
                    coeff = binom(-n, z - p)
                    if coeff == 0:
                        continue
                    for subset in itertools.combinations(others, p):
                        rhs += coeff * ev(_shift(pt, subset))
                rhs *= 1 if z % 2 == 0 else -1
                check((f"variable {r + 1}, power {z}",), pt, lhs, rhs)
    finish("shift-expansion", ", powers 0..3, every variable")

    return tuple(reports)


def gn_reflection_reports(
    poly: PolyMulti, n: int, d: int, seed: int, num_points: int
) -> tuple[VerificationReport, ...]:
    """verify_gn_reflection on poly, one single evaluation per point."""
    rng = random.Random(seed)
    checked = f"n={n}, d={d}, {num_points} rational points (seed {seed})"
    ev = poly.evaluate
    sign = 1 if ((n - 1) * d) % 2 == 0 else -1
    witnesses = []
    for _ in range(num_points):
        pt = _draw_point(rng, d, 3 * n)
        lhs, rhs = ev(pt), sign * ev(tuple(-2 * n - x for x in reversed(pt)))
        if lhs != rhs:
            witnesses.append(Witness(pt, lhs, rhs))
    reports = [VerificationReport.from_witnesses("gn-reflection", checked, witnesses)]
    if d == 2:
        witnesses = []
        for _ in range(num_points):
            # variable 2 shifts the entry one column past variable 1's
            x, y = _draw_point(rng, 2, 3 * n)
            lhs = ev((x, y)) + ev((x + 1, y + 1)) - ev((x, y + 1))
            rhs = -ev((y + 1, x - 1)) - ev((y + 2, x)) + ev((y + 1, x))
            if lhs != rhs:
                witnesses.append(Witness((x, y), lhs, rhs))
        reports.append(VerificationReport.from_witnesses("gn-six-term", checked, witnesses))
    return tuple(reports)


def stencil_oracle(poly: PolyMulti, point: Sequence, shifts: Iterable[Sequence[int]]):
    """(numerators at point + s for every shift s, their common scale), by sets per axis."""
    if len(point) != poly.num_vars:
        raise ValidationError(f"point must have {poly.num_vars} coordinates, got {len(point)}")
    for x in point:
        if not isinstance(x, numbers.Rational):
            raise ValidationError(f"coordinates must be rational, got {x!r}")
    shifts = [tuple(s) for s in shifts]
    for pos, s in enumerate(shifts):
        if len(s) != poly.num_vars:
            raise ValidationError(f"shifts must be {poly.num_vars} integers, got {s!r}")
        shifts[pos] = tuple(as_int(v, "shifts") for v in s)
    k = poly.degree_bound + 1
    partial = {(): poly.coeffs}
    scale = 1
    for axis in range(poly.num_vars - 1, -1, -1):
        p, q = point[axis].numerator, point[axis].denominator
        origin = poly.origins[axis]
        top = math.factorial(k - 1) * q ** (k - 1)
        basis = {}
        for step in {s[axis] for s in shifts}:
            vector = basis[step] = [top]
            for i in range(k - 1):
                vector.append(vector[i] * (p + (step - origin - i) * q) // ((i + 1) * q))
        reduced = {}
        for head in {s[axis:] for s in shifts}:
            flat, vector = partial[head[1:]], basis[head[0]]
            acc = [vector[0] * c for c in flat[::k]]
            for i, b in enumerate(vector[1:], 1):
                acc = [a + b * c for a, c in zip(acc, flat[i::k])]
            reduced[head] = acc
        partial = reduced
        scale *= top
    return [partial[s][0] for s in shifts], scale


def list_entries_digest(entries: Iterable[tuple[Sequence[int], str]]) -> str:
    """sha256 of the JSON text of the entries, each index tuple rebuilt as a list."""
    text = json.dumps([[list(indices), value] for indices, value in entries])
    return hashlib.sha256(text.encode()).hexdigest()
