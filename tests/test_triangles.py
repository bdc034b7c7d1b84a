"""Matrices, triangles, the bijection between them, and the refined counts.

The oracle here is an independent brute-force enumerator: it generates all
candidate triangles over a bounded alphabet with itertools and filters by
the defining inequalities, with no shared code with the package internals.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asmref
from asmref import triangles
from asmref.combinat import refined_asm_count, total_asm_count
from asmref.config import Budget
from asmref.errors import BudgetError, ValidationError
from asmref.triangles import (
    Asm,
    MonotoneTriangle,
    RefinedTable,
    alpha_count,
    alpha_count_grid,
    asm_to_mt,
    build_table,
    complete_monotone_triangles,
    enumerate_asms,
    mt_to_asm,
    refined_count,
)

import oracles
from oracles import (
    alpha_count_dfs,
    column_sweep,
    dict_column_sweep,
    dict_row_transfer,
    fiber_transfer,
    gn_grid,
)
from reference_tables import REFINED_TRIANGLE, TOTALS


def brute_triangle_count(bottom: tuple[int, ...]) -> int:
    """Count triangles over the given weakly increasing bottom row by filtering.

    Rows above the bottom are strictly increasing; consecutive rows
    (upper of length r, lower of length r+1) interlace weakly:
    lower[j] <= upper[j] <= lower[j+1].
    """
    n = len(bottom)
    if n == 0:
        return 1
    lo, hi = bottom[0], bottom[-1]
    values = range(lo, hi + 1)

    def extend(lower: tuple[int, ...]) -> list[tuple[int, ...]]:
        r = len(lower) - 1
        rows = []
        for cand in itertools.combinations(values, r):
            if all(lower[j] <= cand[j] <= lower[j + 1] for j in range(r)):
                rows.append(cand)
        return rows

    count = 0
    stack = [(bottom,)]
    while stack:
        partial = stack.pop()
        top = partial[-1]
        if len(top) == 1:
            count += 1
            continue
        for row in extend(top):
            stack.append(partial + (row,))
    return count


FIG_ASM_ROWS = (
    (0, 0, 1, 0, 0),
    (0, 1, -1, 0, 1),
    (1, -1, 0, 1, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
)

FIG_TRIANGLE_ROWS = (
    (3,),
    (2, 5),
    (1, 4, 5),
    (1, 2, 4, 5),
    (1, 2, 3, 4, 5),
)


def test_worked_example_pair():
    a = Asm(FIG_ASM_ROWS)
    t = MonotoneTriangle(FIG_TRIANGLE_ROWS)
    assert asm_to_mt(a) == t
    assert mt_to_asm(t) == a


def test_identity_matrix_maps_to_staircase():
    n = 5
    rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    t = asm_to_mt(Asm(rows))
    assert t.rows == tuple(tuple(range(1, i + 1)) for i in range(1, n + 1))


def test_asm_validation_rejects_bad_matrices():
    with pytest.raises(ValidationError):
        Asm(((1, 0), (1, 0)))  # column sums wrong
    with pytest.raises(ValidationError):
        Asm(((2, -1), (-1, 2)))  # entries outside {-1, 0, 1}
    with pytest.raises(ValidationError):
        Asm(((0, 1), (1, 0), (0, 0)))  # not square
    with pytest.raises(ValidationError):
        Asm(((-1, 1), (1, -1)))  # partial sums go negative


def test_triangle_validation():
    with pytest.raises(ValidationError):
        MonotoneTriangle(((1,), (1, 1)))  # row not strictly increasing
    with pytest.raises(ValidationError):
        MonotoneTriangle(((3,), (1, 2)))  # interlacing broken: 2 < 3
    with pytest.raises(ValidationError):
        MonotoneTriangle(((1,), (1, 2, 3)))  # row lengths must step by one
    assert MonotoneTriangle(((2,), (1, 3))).is_complete is False
    assert MonotoneTriangle(((1,), (1, 2))).is_complete


@pytest.mark.parametrize(
    "entries, message",
    [
        ((), "matrix must be nonempty"),
        (((1, 0),), "matrix must be square"),
        (((0, 1), (1, 0), (0, 0)), "matrix must be square"),
        (((1, 0), (0, 1, 0)), "matrix must be square"),
        (((2, -1), (-1, 2)), "entries must be -1, 0 or 1, got 2"),
        (((0, 1), (1, Fraction(1, 2))), "entries must be -1, 0 or 1, got 1/2"),
        (((0, 1), (1, 0.5)), "entries must be -1, 0 or 1, got 0.5"),
        (((0, 1), (1, None)), "entries must be -1, 0 or 1, got None"),
        (((-1, 1), (1, -1)), "row 1: partial sums must stay in {0, 1}"),
        (((1, 0), (1, 1)), "row 2: partial sums must stay in {0, 1}"),
        (((1, 0), (1, 0)), "column 1: partial sums must stay in {0, 1}"),
        (((0, 1), (0, 1)), "column 1: entries must sum to 1"),
        (((0, 1, 0), (0, 1, 0), (1, -1, 1)), "column 2: partial sums must stay in {0, 1}"),
        (((0, 0), (1, 0)), "row 1: entries must sum to 1"),
        (((1, 0, 0), (0, 1, 0), (0, 0, 0)), "row 3: entries must sum to 1"),
        # the first failure in row-major order wins, rows before columns
        (((1, 1), (2, 0)), "row 1: partial sums must stay in {0, 1}"),
        (((0, 1), (2, 0)), "entries must be -1, 0 or 1, got 2"),
        (((1, 0), (1, -1)), "row 2: entries must sum to 1"),
    ],
)
def test_asm_validation_messages(entries, message):
    with pytest.raises(ValidationError) as info:
        Asm(entries)
    assert str(info.value) == message


def test_asm_validation_accepts_entries_equal_to_ints():
    for one in (True, 1.0, Fraction(1)):
        assert Asm(((0, one), (one, 0))).entries == ((0, 1), (1, 0))
    assert Asm(((0, 1, 0), (1, -1.0, 1), (0, 1, False))).n == 3


@pytest.mark.parametrize(
    "rows, message",
    [
        ((), "triangle must be nonempty"),
        (((1, 2),), "row 1 must have 1 entries, got 2"),
        (((1,), (1, 2, 3)), "row 2 must have 2 entries, got 3"),
        (((1,), (1, 1)), "row 2 must be strictly increasing: (1, 1)"),
        (((2,), (1, 3), (1, 3, 2)), "row 3 must be strictly increasing: (1, 3, 2)"),
        (((3,), (1, 2)), "rows (3,) over (1, 2) violate the interlacing condition"),
        (((1,), (2, 3)), "rows (1,) over (2, 3) violate the interlacing condition"),
        (
            ((2,), (1, 3), (2, 3, 4)),
            "rows (1, 3) over (2, 3, 4) violate the interlacing condition",
        ),
        # every row's length and order are checked before any interlacing
        (((5,), (1, 2), (1, 2)), "row 3 must have 3 entries, got 2"),
        (((5,), (1, 2), (1, 1, 2)), "row 3 must be strictly increasing: (1, 1, 2)"),
        (((1,), (2.5, 2)), "row 2 must be strictly increasing: (2.5, 2)"),
    ],
)
def test_triangle_validation_messages(rows, message):
    with pytest.raises(ValidationError) as info:
        MonotoneTriangle(rows)
    assert str(info.value) == message


def test_triangle_validation_accepts_entries_equal_to_ints():
    for one in (True, 1.0, Fraction(1)):
        assert MonotoneTriangle(((one,), (one, 2))).rows == ((1,), (1, 2))
    assert MonotoneTriangle(((Fraction(3, 2),), (1.0, 2))).is_complete


def test_enumerate_counts_match_totals():
    for n in range(1, 6):
        asms = enumerate_asms(n)
        assert len(asms) == TOTALS[n]
        assert len(set(asms)) == len(asms)
        assert list(asms) == sorted(asms, key=lambda a: a.entries)


def test_round_trip_all_small_orders():
    for n in range(1, 5):
        for a in enumerate_asms(n):
            assert mt_to_asm(asm_to_mt(a)) == a
        triangles = complete_monotone_triangles(n)
        assert len(triangles) == TOTALS[n]
        for t in triangles:
            assert asm_to_mt(mt_to_asm(t)) == t


def test_bijection_image_is_all_complete_triangles():
    for n in range(1, 5):
        image = {asm_to_mt(a) for a in enumerate_asms(n)}
        assert image == set(complete_monotone_triangles(n))


def test_alpha_against_brute_force():
    cases = [
        (1,), (1, 2), (1, 3), (2, 2), (1, 2, 3), (1, 1, 1), (1, 1, 2),
        (1, 2, 2), (1, 3, 5), (2, 2, 4), (1, 2, 3, 4), (1, 1, 3, 3),
        (1, 2, 4, 7), (2, 4, 4, 6), (1, 2, 3, 4, 5), (1, 3, 3, 5, 7),
    ]
    for bottom in cases:
        assert alpha_count(bottom) == brute_triangle_count(bottom)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=4))
def test_alpha_against_brute_force_random(raw):
    bottom = tuple(sorted(raw))
    assert alpha_count(bottom) == brute_triangle_count(bottom)


@given(
    st.lists(st.integers(min_value=-4, max_value=8), min_size=1, max_size=4),
    st.integers(min_value=-6, max_value=6),
)
def test_alpha_translation_invariance(raw, t):
    bottom = tuple(sorted(raw))
    shifted = tuple(v + t for v in bottom)
    assert alpha_count(bottom) == alpha_count(shifted)


def test_alpha_rejects_decreasing_row():
    with pytest.raises(ValidationError):
        alpha_count((3, 1, 2))


def test_alpha_empty_row():
    assert alpha_count(()) == 1


@pytest.mark.parametrize(
    "count",
    [
        lambda: alpha_count((1.5, 2)),
        lambda: alpha_count((1, 2, 2.5)),
        lambda: alpha_count(("1", "3")),
        lambda: alpha_count((1, 2.0)),
        lambda: refined_count(5, (2.5,)),
        lambda: refined_count(5, ("2",)),
        lambda: alpha_count_grid([[1.5], [2.2, 3]]),
        lambda: alpha_count_grid([[1], [Fraction(5, 2)]]),
    ],
    ids=[
        "alpha-float", "alpha-tied-float", "alpha-str", "alpha-integral-float",
        "refined-float", "refined-str", "grid-float", "grid-fraction",
    ],
)
def test_counts_reject_entries_that_are_not_integers(count):
    # a float or string is never truncated to the count at a nearby integer
    with pytest.raises(ValidationError):
        count()


def test_counts_accept_integral_rationals_and_bools():
    assert alpha_count((Fraction(1), Fraction(6, 2))) == alpha_count((1, 3)) == 3
    assert alpha_count((True, 2, 2)) == alpha_count((1, 2, 2))
    assert refined_count(5, (Fraction(4, 2),)) == refined_count(5, (2,)) == 105
    assert alpha_count_grid([[Fraction(1)], [2, Fraction(3)]]) == alpha_count_grid([[1], [2, 3]])


def bottom_up_unit_columns(a: Asm, d: int) -> tuple[int, ...] | None:
    """Fresh-1 columns of the last d rows, read bottom-up.

    Returns None unless each of those rows is a plain unit row (no -1) and
    the columns increase going up, the configuration the depth-d refined
    numbers count.
    """
    n = a.n
    key = []
    for r in range(1, d + 1):
        row = a.entries[n - r]
        if any(v == -1 for v in row):
            return None
        key.append(row.index(1) + 1)
    if any(x >= y for x, y in zip(key, key[1:])):
        return None
    return tuple(key)


def test_refined_count_against_enumeration():
    deep = Budget(table_max_n=5)
    for n in range(1, 5):
        asms = enumerate_asms(n)
        for d in range(1, n + 1):
            observed: dict[tuple[int, ...], int] = {}
            for a in asms:
                key = bottom_up_unit_columns(a, d)
                if key is not None:
                    observed[key] = observed.get(key, 0) + 1
            table = build_table(n, d, deep)
            for indices in itertools.combinations(range(1, n + 1), d):
                expected = observed.get(indices, 0)
                assert table.value(*indices) == expected
                assert refined_count(n, indices) == expected
            assert all(v >= 0 for v in table.entries.values())
        # depth 1 equals the top-row statistic as well, by symmetry
        first_row: dict[int, int] = {}
        for a in asms:
            k = a.entries[0].index(1) + 1
            first_row[k] = first_row.get(k, 0) + 1
        for k in range(1, n + 1):
            assert refined_count(n, (k,)) == first_row[k]


def test_refined_full_depth_is_one():
    for n in range(1, 7):
        assert refined_count(n, tuple(range(1, n + 1))) == 1


def test_refined_table_row_matches_published_triangle():
    for n, row in REFINED_TRIANGLE.items():
        computed = tuple(refined_count(n, (k,)) for k in range(1, n + 1))
        assert computed == row


def test_refined_count_validation():
    with pytest.raises(ValidationError):
        refined_count(4, (0,))
    with pytest.raises(ValidationError):
        refined_count(4, (2, 2))
    with pytest.raises(ValidationError):
        refined_count(4, (3, 2))


def test_refined_table_validation():
    table = build_table(3, 1)
    assert table.value(2) == 3
    with pytest.raises(ValidationError):
        RefinedTable(3, 1, {(1,): 2})  # incomplete
    with pytest.raises(ValidationError):
        table.value(9)


@pytest.mark.parametrize(
    "n, d, entries, message",
    [
        (5.0, 2, build_table(5, 2).entries, "order must be an integer, got 5.0"),
        (0, 1, {}, "order must be positive, got 0"),
    ],
    ids=["float", "zero"],
)
def test_refined_table_checks_its_order_before_its_depth(n, d, entries, message):
    with pytest.raises(ValidationError) as excinfo:
        RefinedTable(n, d, entries)
    assert str(excinfo.value) == message


def test_budget_limits_enforced():
    tight = Budget(enumeration_max_n=3, table_max_n=3)
    with pytest.raises(BudgetError):
        enumerate_asms(4, tight)
    with pytest.raises(BudgetError):
        complete_monotone_triangles(4, tight)
    with pytest.raises(BudgetError):
        build_table(4, 2, tight)
    assert len(enumerate_asms(3, tight)) == 7


def test_refined_count_budget_raises_before_counting(fail_if_counting):
    asmref.clear_caches()
    fail_if_counting()
    tight = Budget(table_max_n=5)
    for indices in ((1,), (2, 6), (1, 2, 3)):
        with pytest.raises(BudgetError):
            refined_count(6, indices, tight)
        with pytest.raises(BudgetError):
            build_table(6, len(indices), tight)
    with pytest.raises(BudgetError):
        refined_count(22, (1,))
    assert not triangles._sweep_memo


def mask(subset) -> int:
    return sum(1 << j for j in subset)


def every_subset(counts: dict[int, int], n: int) -> dict[int, int]:
    """The count of every subset of {1..n}, each read from a sweep through _sweep_count."""
    return {m: triangles._sweep_count(counts, m) for m in range(0, 2 << n, 2)}


def test_sweep_matches_dfs_on_every_staircase_subset():
    for n in range(1, 10):
        asmref.clear_caches()
        counts = triangles._staircase_counts(n)
        # the empty set and the subsets that contain column 1
        assert len(counts) == 2 ** (n - 1) + 1
        assert all(m & 2 for m in counts if m)
        for size in range(n + 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                assert triangles._sweep_count(counts, mask(subset)) == alpha_count_dfs(subset)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=13).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(min_value=1, max_value=n)))
    )
)
def test_sweep_matches_dfs_on_random_subsets(case):
    n, subset = case
    counts = triangles._staircase_counts(n)
    assert triangles._sweep_count(counts, mask(subset)) == alpha_count_dfs(sorted(subset))


def test_pruned_sweep_equals_the_unpruned_sweep():
    for n in range(1, 14):
        assert every_subset(triangles._column_sweep(n), n) == column_sweep(n)


def test_block_sweep_equals_the_dict_sweep(monkeypatch):
    # map stops at its shortest input and a plain slice takes a list of any
    # length, so a pair of unequal slices would shift a block without an error;
    # a translate missing from the counts of the row before raises a KeyError;
    # the split rule runs to order 16, and both of its arms to order 12: every
    # column low, and the first half low
    real = triangles._Blocks
    lengths = []

    def checked_map(fn, *iterables):
        if len(iterables) > 1:
            assert len({len(seq) for seq in iterables}) == 1
            lengths.append(len(iterables[0]))
        return map(fn, *iterables)

    monkeypatch.setattr(triangles, "map", checked_map, raising=False)
    for n in range(1, 17):
        assert triangles._column_sweep(n) == dict_column_sweep(n)
    for arm in (lambda width: width, lambda width: (width + 1) // 2):
        for n in range(1, 13):
            low = arm(n - 1)  # the sweep's states are over columns 2..n
            monkeypatch.setattr(triangles, "_Blocks", lambda columns: real(columns, low))
            assert triangles._column_sweep(n) == dict_column_sweep(n), (n, low)
    # at order 16 the low cells' row slices reach C(7, 3) = 35 entries, the
    # high cells' strided slices C(8, 4) = 70
    assert max(lengths) == 70 and 35 in lengths


def test_sweep_counts_are_invariant_under_reflection():
    # column c maps to 17 - c: a symmetry the translation prune does not use
    n = 16
    counts = every_subset(triangles._column_sweep(n), n)
    assert len(counts) == 2**n
    for subset, count in counts.items():
        reflected = sum(1 << (n + 1 - c) for c in range(1, n + 1) if subset >> c & 1)
        assert count == counts[reflected]


def test_tables_of_every_depth_match_dfs_of_complements():
    for n in range(1, 9):
        asmref.clear_caches()
        for d in range(1, n + 1):
            table = build_table(n, d)
            for combo, value in table.entries.items():
                rest = [v for v in range(1, n + 1) if v not in combo]
                assert value == alpha_count_dfs(rest)


def random_strict_rows(count: int, seed: int):
    """Seeded strictly increasing rows of n <= 6 entries and width <= 2n + 3."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        start = rng.randint(-5, 5)
        values = rng.sample(range(2 * n + 3), n)
        yield tuple(start + v for v in sorted(values))


def test_cell_finds_every_pair_from_h0(monkeypatch):
    # dict_cell reads the pairs off h0, so the dict walk must keep x in h0 for each x + bit in h1
    real = oracles.dict_cell
    bits = []

    def checked(h0, h1, bit):
        mask = 1 << bit
        assert all(state ^ mask in h0 for state in h1 if state & mask)
        bits.append(bit)
        real(h0, h1, bit)

    monkeypatch.setattr(oracles, "dict_cell", checked)
    grid = ((0, 1), (2, 4, 5), (6, 9), (10, 11, 14), (16, 17))
    assert dict_row_transfer(grid) == [alpha_count_dfs(row) for row in itertools.product(*grid)]
    for row in random_strict_rows(30, seed=11):
        assert dict_row_transfer(tuple((v,) for v in row)) == [alpha_count_dfs(row)]
    assert set(bits) == set(range(1, 7))


def random_grids(count: int, seed: int):
    """Seeded grids of n <= 8 levels and at most 300 rows.

    A level is a single candidate, a few spread out with gaps, or a wide run,
    and the levels leave gaps of up to 3 columns between them.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        sizes = [rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(n)]
        while math.prod(sizes) > 300:
            sizes[sizes.index(max(sizes))] //= 2
        grid, lo = [], rng.randint(-3, 3)
        for size in sizes:
            spread = size + rng.choice((0, 0, 1, 3))
            level = sorted(rng.sample(range(lo, lo + spread), size))
            grid.append(tuple(level))
            lo = level[-1] + 1 + rng.randint(0, 3)
        yield tuple(grid)


def test_block_walk_equals_the_dict_walk(monkeypatch):
    # every gn grid up to order 8 of at most 4096 rows, and random grids, under
    # the split rule and under both of its arms, for any number of rows: every
    # column low, and the first half low; the shorter of two paired slices
    # would shift a block without an error, so map checks their lengths
    real = triangles._Blocks
    lengths = []

    def checked_map(fn, *iterables):
        if len(iterables) > 1:
            assert len({len(seq) for seq in iterables}) == 1
            lengths.append(len(iterables[0]))
        return map(fn, *iterables)

    monkeypatch.setattr(triangles, "map", checked_map, raising=False)
    grids = [gn_grid(n, d) for n in range(1, 9) for d in range(1, n + 1) if n**d <= 4096]
    grids += random_grids(300, seed=45)
    assert {len(grid) for grid in grids} == set(range(1, 9))
    arms = (None, lambda width: width, lambda width: (width + 1) // 2)
    for grid in grids:
        expected = dict_row_transfer(grid)
        for arm in arms:
            low = arm and arm(len(grid))
            monkeypatch.setattr(triangles, "_Blocks", lambda columns: real(columns, low))
            assert triangles._row_transfer(grid) == expected, (grid, low)
    # the split arm at 8 rows adds row slices of C(4, 2) = 6 states
    assert max(lengths) == 6
    # the rule keeps up to 8 rows all low, and halves 9
    assert len(real(range(1, 9)).highs) == 1
    halves = real(range(1, 10))
    assert (len(halves.lows), len(halves.highs)) == (6, 5)


def test_transfer_matches_dfs_and_brute_force_on_random_strict_rows():
    for row in random_strict_rows(150, seed=2009):
        transfer = alpha_count_grid([(v,) for v in row])[0]
        assert alpha_count(row) == transfer == alpha_count_dfs(row)
        if len(row) <= 4:
            assert transfer == brute_triangle_count(row)


def test_fiber_matches_counts_of_each_row():
    # a prefix of singleton levels and one level of candidate last entries
    cases = [
        ((), (-2, 3, 7)),
        ((0,), (1, 2, 9)),
        ((1, 2, 3), (4, 5, 6, 9)),
        ((0, 2, 3, 7), (8, 10, 12)),
        ((-3, 0, 1, 4, 6), (7, 11, 15)),
    ]
    for prefix, lasts in cases:
        counts = alpha_count_grid([(v,) for v in prefix] + [lasts])
        assert counts == [alpha_count_dfs(prefix + (last,)) for last in lasts]
        assert counts == [alpha_count(prefix + (last,)) for last in lasts]
        assert counts == fiber_transfer(prefix, lasts)
    # one level: every candidate is the bottom of the one triangle of one entry
    assert alpha_count_grid([(3, 5, 7)]) == [1, 1, 1]
    assert alpha_count_grid([(0,)]) == [1]
    for row in random_strict_rows(40, seed=1996):
        if len(row) > 1:
            lasts = range(row[-1], row[-1] + 6)
            assert alpha_count_grid([(v,) for v in row[:-1]] + [lasts]) == [
                alpha_count_dfs(row[:-1] + (last,)) for last in lasts
            ]


def test_fiber_rejects_rows_that_are_not_strict():
    for levels in (
        [],  # no entry
        [(1,), ()],  # an empty level
        [(1,), (5, 4)],  # an unsorted level
        [(1,), (4, 4)],  # a repeated candidate
        [(1,), (1,), (4,)],  # a row with a tie
        [(1, 4), (4, 6)],  # levels that overlap
        [(1, 5), (3, 6)],
    ):
        with pytest.raises(ValidationError):
            alpha_count_grid(levels)


def random_grids(count: int, seed: int):
    """Seeded grids of 1..4 levels of 1..3 candidates, with gaps and singletons."""
    rng = random.Random(seed)
    for _ in range(count):
        levels = []
        start = rng.randint(-5, 5)
        for _ in range(rng.randint(1, 4)):
            candidates = sorted(rng.sample(range(start, start + 9), rng.randint(1, 3)))
            levels.append(tuple(candidates))
            start = candidates[-1] + rng.randint(1, 3)
        yield levels


def test_grid_matches_dfs_on_random_grids():
    grids = list(random_grids(120, seed=1983))
    # singleton levels, a level that is not a run, and 4 levels of several candidates
    grids += [[(0,), (1, 9)], [(1, 9), (10, 11)], [(0, 2), (3, 5, 6), (7, 8, 11), (12, 13)]]
    assert any(len(levels) == 4 and all(len(l) > 1 for l in levels) for levels in grids)
    for levels in grids:
        assert alpha_count_grid(levels) == [
            alpha_count_dfs(row) for row in itertools.product(*levels)
        ]


def test_grid_matches_the_per_fiber_transfer_on_the_sample_grids():
    # the block grid of alpha_polynomial(4) and the grid of gn_poly(7, 3): the
    # staircase 1..4, then a block of 7 columns for each variable
    alpha = [range(i * 4, i * 4 + 4) for i in range(4)]
    gn = [(v,) for v in range(1, 5)] + [range(5 + r * 7, 12 + r * 7) for r in range(3)]
    for levels in (alpha, gn):
        expected = [
            count
            for prefix in itertools.product(*levels[:-1])
            for count in fiber_transfer(prefix, levels[-1])
        ]
        assert alpha_count_grid(levels) == expected


def tied_rows():
    """Every weakly increasing row with a tie: n <= 6 entries in 0..n+1, 7 in 0..5."""
    shapes = [(n, n + 1) for n in range(2, 7)] + [(7, 5)]
    for n, top in shapes:
        for row in itertools.combinations_with_replacement(range(top + 1), n):
            if any(a == b for a, b in zip(row, row[1:])):
                yield row


def test_tied_rows_match_dfs():
    asmref.clear_caches()
    rows = list(tied_rows())
    assert len(rows) == 3061
    for row in rows:
        assert alpha_count(row) == alpha_count_dfs(row)
    # a shifted tied row sums the same counts
    assert alpha_count((-3, -3, 0, 4)) == alpha_count_dfs((0, 0, 3, 7))
    # wider seeded rows, up to 8 entries in -3..9
    rng = random.Random(2006)
    for _ in range(300):
        row = sorted(rng.choices(range(-3, 10), k=rng.randint(2, 8)))
        assert alpha_count(row) == alpha_count_dfs(row)


def test_tied_row_budget_raises_before_counting(fail_if_counting):
    asmref.clear_caches()
    fail_if_counting()
    for row in ((0, 0, 40, 80, 120, 160, 200), (0, 0, 10**9), tuple(range(16)) + (16, 16)):
        with pytest.raises(BudgetError, match="tied row of width"):
            alpha_count(row)
    assert not triangles._sweep_memo


def test_transfer_counts_a_wide_row():
    assert alpha_count((0, 40, 80, 120, 160, 200)) == 1554815612822925439671100
    # and a wide level: the row (0, c) has c + 1 triangles
    assert alpha_count_grid([(0,), range(1, 5001)]) == list(range(2, 5002))


def test_transfer_budget_raises_before_counting(fail_if_counting):
    # the cap is the cost of the order-3 sweep: 3 * 3 * 2**3 = 72 cell updates;
    # the walk over (0, 17) takes 1 column with no entry placed and 17 with
    # one, 1 * 2 + 17 * 2 * 2 = 70 updates
    tight = Budget(table_max_n=3)
    assert alpha_count((0, 17), tight) == 18
    # a tied row is capped by its width like a table
    assert alpha_count((0, 0, 2), tight) == alpha_count_dfs((0, 0, 2))
    asmref.clear_caches()
    fail_if_counting()
    with pytest.raises(BudgetError):
        alpha_count((0, 0, 9), tight)
    with pytest.raises(BudgetError):
        alpha_count((0, 18), tight)  # 2 + 18 * 2 * 2 = 74
    with pytest.raises(BudgetError):
        alpha_count_grid([(0,), (1, 18)], tight)
    with pytest.raises(BudgetError, match=" 2 entries up to column 1000000000 "):
        alpha_count((0, 10**9))
    with pytest.raises(BudgetError):
        alpha_count(range(20))


def test_a_budget_refusal_names_a_huge_column_by_its_bit_length(fail_if_counting):
    # 10**5000 has 5001 digits, past str()'s default limit of 4300
    fail_if_counting()
    started = time.perf_counter()
    with pytest.raises(BudgetError) as excinfo:
        alpha_count((1, 10**5000))
    assert time.perf_counter() - started < 0.1
    assert str(excinfo.value) == (
        "row transfer over a grid of 1 rows of 2 entries up to column <16610-bit integer>"
        " exceeds the budget of an order-16 sweep"
    )


def _refused_quickly(call) -> str:
    """The ValidationError text of call(), which must come within 0.1 s."""
    started = time.perf_counter()
    with pytest.raises(ValidationError) as excinfo:
        call()
    assert time.perf_counter() - started < 0.1
    return str(excinfo.value)


def test_a_decreasing_row_names_a_huge_entry_by_its_bit_length(fail_if_counting):
    fail_if_counting()
    assert _refused_quickly(lambda: alpha_count((10**5000, 1))) == (
        "bottom row must be weakly increasing: (<16610-bit integer>, 1)"
    )
    assert _refused_quickly(lambda: alpha_count((3, 1))) == (
        "bottom row must be weakly increasing: (3, 1)"
    )


def test_a_decreasing_level_names_a_huge_entry_by_its_bit_length(fail_if_counting):
    fail_if_counting()
    assert _refused_quickly(lambda: alpha_count_grid([(3, 10**5000, 2)])) == (
        "levels must be nonempty and strictly increasing: (3, <16610-bit integer>, 2)"
    )
    assert _refused_quickly(lambda: alpha_count_grid([(3, 2)])) == (
        "levels must be nonempty and strictly increasing: (3, 2)"
    )


def test_an_overlapping_level_names_a_huge_entry_by_its_bit_length(fail_if_counting):
    fail_if_counting()
    assert _refused_quickly(lambda: alpha_count_grid([(10**5000,), (1,)])) == (
        "level (1,) overlaps the level (<16610-bit integer>,) before it"
    )
    assert _refused_quickly(lambda: alpha_count_grid([(3,), (1, 2)])) == (
        "level (1, 2) overlaps the level (3,) before it"
    )


def test_grid_budget_bounds_the_whole_walk(fail_if_counting):
    # under the order-3 cap of 72 cell updates each row below is narrow
    # enough (width 9); the walk over (0, 1) then (8,) takes 2 columns with
    # no entry placed and 8 + 7 with one, 2 * 2 + 15 * 2 * 2 = 64 updates
    tight = Budget(table_max_n=3)
    assert alpha_count_grid([(0, 1), (8,)], tight) == [9, 8]
    fail_if_counting()
    # adding the candidate 2 makes it 3 * 2 + 21 * 2 * 2 = 90
    with pytest.raises(BudgetError, match="grid of 3 rows"):
        alpha_count_grid([(0, 1, 2), (8,)], tight)
    # the walks over the order-7 block grid and the 8 x 8 one would cost
    # about 5.3 and 144 order-16 sweeps
    for k in (7, 8):
        with pytest.raises(BudgetError, match=f"grid of {k ** k} rows"):
            alpha_count_grid([range(i * k, i * k + k) for i in range(k)])


def test_clear_caches_empties_both_kernels_memos(fail_if_counting):
    asmref.clear_caches()
    alpha_count((1, 1, 4, 9))  # a tied row of width 9 fills the order-9 sweep
    assert list(triangles._sweep_memo) == [9]
    # a higher order's sweep answers every lower order without a new sweep
    fail_if_counting()
    assert build_table(5, 1).entries == {(k,): refined_asm_count(5, k) for k in range(1, 6)}
    asmref.clear_caches()
    assert not triangles._sweep_memo


def test_a_higher_sweep_replaces_a_lower_one(fail_if_counting):
    asmref.clear_caches()
    build_table(6, 1)
    alpha_count((1, 1, 4, 9))  # the order-9 sweep
    assert list(triangles._sweep_memo) == [9]
    fail_if_counting()
    assert build_table(6, 1).entries == {(k,): refined_asm_count(6, k) for k in range(1, 7)}


def test_refined_row_matches_product_formula():
    for n in range(1, 15):
        for k in range(1, n + 1):
            assert refined_count(n, (k,)) == refined_asm_count(n, k)
        assert sum(refined_count(n, (k,)) for k in range(1, n + 1)) == total_asm_count(n)
