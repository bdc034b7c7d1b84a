"""The counting polynomial, its specializations, and the basis expansion.

Oracle: a hand-derived closed form for the order-3 counting polynomial,
checked symbolically against brute-force counts on integer rows and then
used to pin rational evaluations, including points where the integer count
and the polynomial disagree in meaning (weakly increasing vs arbitrary).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asmref.cli as cli
import asmref.triangles as triangles
from asmref import polynomials
from asmref.combinat import binom
from asmref.config import DEFAULT_SEED, Budget
from asmref.errors import BudgetError, ValidationError
from asmref.linalg import invert_matrix
from asmref.polynomials import (
    BinomBasisExpansion,
    PolyMulti,
    alpha_eval,
    alpha_polynomial,
    expand_in_binomial_basis,
    gn_poly,
    sample_rational_points,
    verify_alpha_identities,
    verify_gn_reflection,
)
from asmref.reports import Witness
from asmref import triangles
from asmref.triangles import alpha_count

from oracles import (
    alpha_count_dfs,
    alpha_identity_reports,
    expansion_value,
    newton_interpolant_value,
)
from reference_tables import EXTENDED_MATRICES


def newton_degrees(poly: PolyMulti) -> tuple[int, ...]:
    """Per-variable degree as witnessed by the nonzero binomial-basis coefficients."""
    k = poly.degree_bound + 1
    degrees = []
    for axis in range(poly.num_vars):
        stride = k ** (poly.num_vars - axis - 1)
        top = -1
        for pos, c in enumerate(poly.coeffs):
            if c != 0:
                idx = (pos // stride) % k
                if idx > top:
                    top = idx
        degrees.append(top)
    return tuple(degrees)


def alpha3_closed_form(x, y, z) -> Fraction:
    """Order-3 counting polynomial, derived by summing the two-row counts.

    Summing (b - a + 1) over interlacing middle rows a <= y <= b with
    x <= a, b <= z, a < b, minus the correction for the a = b boundary,
    collapses to the expression below.
    """
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    term1 = (y - x) * ((z + 1) * (z + 2) - y * (y + 1)) / 2
    term2 = (z - y + 1) * (y * (y - 1) - x * (x - 1)) / 2
    term3 = (z - y + 1) * (z - y + 2) / 2
    return term1 - term2 + term3 - 1


def test_closed_form_matches_counts_on_integer_rows():
    for x in range(0, 5):
        for y in range(x, 5):
            for z in range(y, 5):
                assert alpha3_closed_form(x, y, z) == alpha_count((x, y, z))


def test_alpha_eval_matches_closed_form_on_rational_points():
    rng = random.Random(7)
    for _ in range(40):
        pt = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(3))
        assert alpha_eval(3, pt) == alpha3_closed_form(*pt)


def test_alpha_eval_decreasing_integer_point():
    # the polynomial extends past the weakly increasing region; at the
    # reversed staircase it is negative, not a count
    assert alpha_eval(3, (3, 2, 1)) == -1
    assert alpha3_closed_form(3, 2, 1) == -1


def test_alpha_eval_known_values():
    assert alpha_eval(3, (1, 2, 3)) == 7
    assert alpha_eval(3, (1, 1, 2)) == 2
    assert alpha_eval(3, (1, 1, 1)) == 0
    assert alpha_eval(3, (1, 4, 5)) == 23
    assert alpha_eval(1, (Fraction(22, 7),)) == 1
    assert alpha_eval(2, (Fraction(1, 2), Fraction(7, 2))) == 4


def test_alpha_eval_agrees_with_counts_outside_sample_grid():
    # the interpolation grid for order n stops at n*n - 1; extrapolated
    # integer evaluations must still be counts
    for n in range(1, 5):
        rows = [
            tuple(range(50, 50 + n)),
            tuple(2 * i + 40 for i in range(n)),
            tuple([30] * n),
        ]
        for row in rows:
            assert alpha_eval(n, row) == alpha_count_dfs(row)


def test_alpha_eval_builds_no_polynomial(monkeypatch):
    gn_poly(4, 4)  # the polynomial alpha_eval reads, built once
    point = (Fraction(1, 2), 2, 3, 7)
    expected = alpha_polynomial(4).evaluate(point)
    built = []
    real = PolyMulti.__post_init__
    monkeypatch.setattr(PolyMulti, "__post_init__", lambda self: built.append(self) or real(self))
    assert alpha_eval(4, (1, 2, 3, 4)) == 42
    assert alpha_eval(4, point) == expected
    assert built == []


@pytest.mark.parametrize(
    "n, point, message",
    [
        (0, (), "order must be positive, got 0"),
        (3, (1, 2), "point must have 3 coordinates, got 2"),
        (3, ("a", 1, 2), "coordinates must be rational, got 'a'"),
    ],
)
def test_alpha_eval_checks_its_order_and_point(n, point, message):
    with pytest.raises(ValidationError) as excinfo:
        alpha_eval(n, point)
    assert str(excinfo.value) == message


def test_alpha_polynomial_degree_bound():
    for n in range(1, 5):
        degrees = newton_degrees(alpha_polynomial(n))
        assert len(degrees) == n
        assert all(deg <= n - 1 for deg in degrees)
    # degree n-1 is attained in each variable for n >= 2
    assert newton_degrees(alpha_polynomial(3)) == (2, 2, 2)


@pytest.mark.parametrize("n", range(1, 6))
def test_alpha_polynomial_is_the_specialization_of_every_entry(n):
    origins = tuple(r * n for r in range(n))
    assert alpha_polynomial(n) == dataclasses.replace(gn_poly(n, n), origins=origins)


def test_alpha_polynomial_reads_the_specialization_cache(fail_if_counting):
    polynomials.clear_caches()
    poly = gn_poly(4, 4)
    fail_if_counting()
    assert alpha_polynomial(4).coeffs == poly.coeffs


def test_alpha_polynomial_budget(fail_if_counting):
    cached = alpha_polynomial(3)
    fail_if_counting()
    # the walk over the order-7 block grid would cost about 5.3 order-16 sweeps
    with pytest.raises(BudgetError, match="grid of 823543 rows"):
        alpha_polynomial(7)
    # the order-3 walk takes 441 cell updates, over the 256 of an order-4
    # sweep: the budget holds before the cache is read
    with pytest.raises(BudgetError, match="order-4 sweep"):
        alpha_polynomial(3, Budget(table_max_n=4))
    assert alpha_polynomial(3, Budget(table_max_n=5)) == cached
    with pytest.raises(ValidationError):
        alpha_polynomial(0)


def test_interpolate_reproduces_samples():
    nodes = ((0, 1, 2), (-1, 0, 1))
    values = [Fraction(x * x + 3 * y) for x, y in itertools.product(*nodes)]
    poly = PolyMulti.interpolate(nodes, values)
    for x, y in itertools.product(range(-3, 4), repeat=2):
        assert poly.evaluate((x, y)) == x * x + 3 * y


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=-8, max_value=8), min_size=4, max_size=4),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
)
def test_interpolate_exact_for_low_degree(coeffs, origin, px, py):
    a, b, c, d = coeffs

    def f(x, y):
        return a + b * x + c * y + d * x * y

    nodes = ((origin, origin + 1),) * 2
    poly = PolyMulti.interpolate(nodes, [f(x, y) for x, y in itertools.product(*nodes)])
    assert poly.origins == (origin, origin)
    assert poly.evaluate((px, py)) == f(px, py)
    assert poly.evaluate((Fraction(1, 2), Fraction(-3, 2))) == f(
        Fraction(1, 2), Fraction(-3, 2)
    )


def _off_grid_samples(d: int) -> dict[tuple[int, ...], int]:
    # integer samples on the run 3, 4, 5 of every axis: off the grid 0..n-1
    # of the expansion, with a degree bound 2 below n - 1 for n = 4, 5
    rng = random.Random(d)
    return {pt: rng.randint(-20, 20) for pt in itertools.product((3, 4, 5), repeat=d)}


def _off_grid_polynomial(d: int) -> PolyMulti:
    return PolyMulti.interpolate(((3, 4, 5),) * d, list(_off_grid_samples(d).values()))


def _gn_row(n: int, d: int, shifts: tuple[int, ...]) -> tuple[int, ...]:
    # the staircase 1..n with entry n - d + r shifted by shifts[r - 1]
    return tuple(range(1, n - d + 1)) + tuple(n - d + r + 1 + x for r, x in enumerate(shifts))


ORACLE_CASES = [
    *(("alpha", n) for n in range(1, 5)),
    ("gn", 5, 1),
    ("gn", 6, 2),
    ("gn", 5, 3),
    *(("off-grid", d) for d in (1, 2, 3)),
]


def oracle_case(case: tuple):
    """The polynomial of a case and its Fraction Newton interpolant on the same samples.

    The interpolant counts the sample rows of alpha_polynomial and gn_poly with
    alpha_count_dfs: the block grid, and for gn_poly the n shifts of each
    variable from the shift of the variable before it.
    """
    kind, *args = case
    if kind == "alpha":
        (n,) = args
        poly = alpha_polynomial(n)

        def nodes_at(prefix):
            return range(len(prefix) * n, len(prefix) * n + n)

        sample = alpha_count_dfs
    elif kind == "gn":
        n, d = args
        poly = gn_poly(n, d)

        def nodes_at(prefix):
            first = prefix[-1] if prefix else 0
            return range(first, first + n)

        def sample(shifts):
            return alpha_count_dfs(_gn_row(n, d, shifts))
    else:
        (d,) = args
        poly = _off_grid_polynomial(d)

        def nodes_at(prefix):
            return (3, 4, 5)

        sample = _off_grid_samples(d).__getitem__
    return poly, lambda point: newton_interpolant_value(point, nodes_at, sample)


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda case: "-".join(map(str, case)))
def test_evaluate_matches_fraction_newton_horner(case):
    poly, oracle = oracle_case(case)
    m = poly.num_vars
    nodes = [range(a, a + poly.degree_bound + 1) for a in poly.origins]
    rng = random.Random(2024 + m)
    points = [
        tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(m))
        for _ in range(30)
    ]
    # integer points, in the int and in the Fraction type
    points += [tuple(rng.randint(-12, 12) for _ in range(m)) for _ in range(10)]
    points += [tuple(Fraction(rng.randint(-12, 12)) for _ in range(m)) for _ in range(5)]
    # points on the nodes, where a Horner difference vanishes, in every
    # coordinate or only in some, with denominators up to 7 elsewhere
    points += [tuple(ns[t % len(ns)] for ns in nodes) for t in range(3)]
    for q in range(1, 8):
        points.append(tuple(
            Fraction(ns[rng.randrange(len(ns))]) if rng.random() < 0.5
            else Fraction(rng.randint(-30, 30), q)
            for ns in nodes
        ))
    for point in points:
        value = poly.evaluate(point)
        assert isinstance(value, Fraction)
        assert value == oracle(point)


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda case: "-".join(map(str, case)))
def test_evaluate_shifts_equals_evaluate_at_every_shifted_point(case):
    poly, oracle = oracle_case(case)
    m = poly.num_vars
    k = poly.degree_bound + 1
    rng = random.Random(4049 + m)
    for _ in range(6):
        point = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(m))
        # negative shifts, a repeated shift, the zero shift and the unit-cube corners
        shifts = [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(7)]
        shifts += [shifts[0], (0,) * m, *itertools.product((0, 1), repeat=m)]
        numerators, scale = poly.evaluate_shifts(point, shifts)
        assert len(numerators) == len(shifts)
        assert all(isinstance(v, int) for v in numerators)
        assert scale == math.prod(
            math.factorial(k - 1) * x.denominator ** (k - 1) for x in point
        )
        for shift, numerator in zip(shifts, numerators):
            shifted = tuple(x + s for x, s in zip(point, shift))
            assert Fraction(numerator, scale) == oracle(shifted)
        assert poly.evaluate_shifts(point, []) == ([], scale)


@pytest.mark.parametrize("bad", [(1,), (1, 2, 3), (Fraction(1, 2), 0), (0.0, 1)], ids=repr)
def test_evaluate_shifts_rejects_non_integer_shifts(bad):
    with pytest.raises(ValidationError):
        gn_poly(3, 2).evaluate_shifts((Fraction(1, 2), 3), [(0, 0), bad])


def test_coefficients_have_tensor_shape_and_one_origin_per_axis():
    origins = {
        "alpha": lambda n: tuple(range(0, n * n, n)),
        "gn": lambda n, d: tuple(r * (n - 1) for r in range(d)),
        "off-grid": lambda d: (3,) * d,
    }
    for case in ORACLE_CASES:
        poly, _ = oracle_case(case)
        assert len(poly.coeffs) == (poly.degree_bound + 1) ** poly.num_vars
        assert all(isinstance(c, int) for c in poly.coeffs)
        assert poly.origins == origins[case[0]](*case[1:])
    with pytest.raises(ValidationError):
        PolyMulti(1, 1, (0,), (1, 2, 3))
    with pytest.raises(ValidationError):
        PolyMulti(2, 1, (0,), (1, 2, 3, 4))


@pytest.mark.parametrize("bad", [0.1, 1.0, complex(1, 0), "1", None], ids=repr)
def test_evaluation_rejects_non_rational_coordinates(bad):
    with pytest.raises(ValidationError):
        alpha_eval(3, (bad, 1, 2))
    with pytest.raises(ValidationError):
        gn_poly(3, 2).evaluate((Fraction(1, 2), bad))


def test_interpolate_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        PolyMulti.interpolate(((0, 0),), [Fraction(1), Fraction(2)])
    with pytest.raises(ValidationError):
        PolyMulti.interpolate(((0, 1),), [Fraction(1)])


@pytest.mark.parametrize("nodes", [(3, 5, 9), (5, 4, 3), (3, 3, 4)], ids=repr)
def test_interpolate_rejects_nodes_off_an_ascending_run(nodes):
    with pytest.raises(ValidationError):
        PolyMulti.interpolate([nodes], [1, 2, 3])
    with pytest.raises(ValidationError):
        PolyMulti.interpolate([(0, 1, 2), nodes], [1] * 9)


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5], ids=repr)
def test_interpolate_rejects_non_integer_samples(bad):
    with pytest.raises(ValidationError):
        PolyMulti.interpolate([(0, 1)], [1, bad])
    # a Fraction equal to an integer is a sample like the int
    assert PolyMulti.interpolate([(0, 1)], [1, Fraction(2)]) == PolyMulti.interpolate(
        [(0, 1)], [1, 2]
    )


def test_gn_poly_matches_counts_at_integer_shifts():
    # variable r perturbs staircase entry n-d+r; integer shift vectors that
    # keep the row weakly increasing must give genuine counts, on the grid
    # 0..n-1 and off it
    for n, d in ((3, 1), (4, 1), (3, 2), (4, 2), (3, 3), (4, 3), (5, 3)):
        poly = gn_poly(n, d)
        for shift in itertools.product(range(-2, n + 3), repeat=d):
            row = list(range(1, n + 1))
            for r, z in enumerate(shift):
                row[n - d + r] += z
            if any(a > b for a, b in zip(row, row[1:])):
                continue
            assert poly.evaluate(shift) == alpha_count_dfs(tuple(row))


def test_sampling_counts_only_strict_rows_by_transfer(monkeypatch):
    # every sample row of alpha_polynomial and gn_poly is strictly increasing,
    # so the column sweep never runs; one transfer counts the whole grid
    real = triangles._row_transfer
    grids = []

    def transfer(grid):
        grids.append(grid)
        return real(grid)

    def sweep(n):
        raise AssertionError(f"the column sweep of order {n} ran")

    polynomials.clear_caches()
    triangles.clear_caches()
    monkeypatch.setattr(triangles, "_row_transfer", transfer)
    monkeypatch.setattr(triangles, "_column_sweep", sweep)
    alpha_polynomial(4)
    # the block grid, one column to the right of the origins i * 4
    assert grids == [tuple(tuple(range(i * 4 + 1, i * 4 + 5)) for i in range(4))]
    for n, d in ((5, 1), (5, 2), (4, 3), (3, 3), (7, 3)):
        grids.clear()
        gn_poly(n, d)
        assert len(grids) == 1
        # the staircase 1..n-d, then a block of n columns for each variable
        assert grids[0][: n - d] == tuple((v,) for v in range(1, n - d + 1))
        assert grids[0][n - d :] == tuple(
            tuple(range(n - d + 1 + r * n, n - d + 1 + (r + 1) * n)) for r in range(d)
        )
    # a one-entry row is counted by the same transfer
    grids.clear()
    gn_poly(1, 1)
    assert grids == [((1,),)]
    polynomials.clear_caches()


def test_gn_poly_relates_to_full_polynomial():
    # specialization pins the first n-d variables at the staircase
    n, d = 4, 2
    poly = gn_poly(n, d)
    rng = random.Random(11)
    for _ in range(15):
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        y = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        full = alpha_eval(n, (1, 2, 3 + x, 4 + y))
        assert poly.evaluate((x, y)) == full


def test_gn_poly_budget_and_validation(fail_if_counting):
    cached = gn_poly(3, 3)
    fail_if_counting()
    # the first order past the default budget at each depth, and depth 7
    for n, d in ((16, 1), (15, 2), (15, 3), (14, 4), (10, 5), (8, 6), (7, 7)):
        with pytest.raises(BudgetError, match="order-16 sweep"):
            gn_poly(n, d)
    # gn_poly(3, 3) samples the grid of alpha_polynomial(3), shifted by one
    with pytest.raises(BudgetError, match="order-4 sweep"):
        gn_poly(3, 3, Budget(table_max_n=4))
    assert gn_poly(3, 3, Budget(table_max_n=5)) is cached
    with pytest.raises(ValidationError):
        gn_poly(2, 3)
    with pytest.raises(ValidationError):
        gn_poly(3, 0)


def test_expansion_coefficients_match_extended_arrays():
    for n in (3, 4, 5):
        expansion = expand_in_binomial_basis(gn_poly(n, 2))
        expected = EXTENDED_MATRICES[n]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert expansion.coefficient((i, j)) == expected[i - 1][j - 1]
        assert len(expansion.coeffs) == n * n
        assert all(isinstance(c, int) for c in expansion.coeffs)


def test_expansion_reconstructs_polynomial():
    for n, d in ((3, 1), (3, 2), (4, 2)):
        poly = gn_poly(n, d)
        expansion = expand_in_binomial_basis(poly)
        rng = random.Random(5)
        for _ in range(12):
            pt = tuple(
                Fraction(rng.randint(-25, 25), rng.randint(1, 6)) for _ in range(d)
            )
            assert expansion_value(expansion, pt) == poly.evaluate(pt)


def gauss_jordan_expansion(poly: PolyMulti, n: int, d: int) -> tuple[Fraction, ...]:
    """The expansion by inverting the basis matrix of each axis on 0..n-1."""
    inverses = [
        invert_matrix([[binom(x + m + axis, m) for m in range(n)] for x in range(n)])
        for axis in range(d)
    ]
    grid = list(itertools.product(range(n), repeat=d))
    values = [poly.evaluate(pt) for pt in grid]
    return tuple(
        sum(
            value * math.prod(inv[m][x] for inv, m, x in zip(inverses, index, pt))
            for pt, value in zip(grid, values)
        )
        for index in grid
    )


@pytest.mark.parametrize(
    "d, n",
    [(1, n) for n in range(1, 13)] + [(2, n) for n in range(2, 11)] + [(3, n) for n in range(3, 8)],
)
def test_expansion_matches_gauss_jordan_oracle(d, n):
    # depths 1, 2 and 3 up to orders 12, 10 and 7; the oracle inverts n x n
    # matrices over Fraction, and the pins below cover the higher orders
    poly = gn_poly(n, d)
    expansion = expand_in_binomial_basis(poly)
    assert expansion.coeffs == gauss_jordan_expansion(poly, n, d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_off_grid_expansion_matches_gauss_jordan_oracle(d):
    # origin 3 is off the grid 0..n-1; the weights of each axis take it in
    poly = _off_grid_polynomial(d)
    expansion = expand_in_binomial_basis(poly)
    assert expansion.coeffs == gauss_jordan_expansion(poly, 3, d)


def test_expansion_flags_non_integral_coefficients():
    # an integer polynomial has integer coefficients in the basis, so
    # (x + 1)/2 = 0 * binom(x, 0) + 1/2 * binom(x + 1, 1) cannot be an expansion
    for bad in (Fraction(1, 2), Fraction(1), 0.5):
        with pytest.raises(ValidationError):
            BinomBasisExpansion(2, 1, (0, bad))
    assert expansion_value(BinomBasisExpansion(2, 1, (0, 1)), (Fraction(2),)) == 3


def test_expansion_coefficient_index_validation():
    expansion = expand_in_binomial_basis(gn_poly(3, 2))
    with pytest.raises(ValidationError):
        expansion.coefficient((0, 1))
    with pytest.raises(ValidationError):
        expansion.coefficient((1, 4))
    with pytest.raises(ValidationError):
        expansion.coefficient((1,))


def test_sample_rational_points_deterministic():
    pts1 = sample_rational_points(3, 20, 9, 123)
    pts2 = sample_rational_points(3, 20, 9, 123)
    pts3 = sample_rational_points(3, 20, 9, 124)
    assert pts1 == pts2
    assert pts1 != pts3
    assert len(pts1) == 20
    for pt in pts1:
        assert len(pt) == 3
        for value in pt:
            assert isinstance(value, Fraction)
            assert 1 <= value.denominator <= 7
            assert abs(value) <= 9 * 7


def test_verify_alpha_identities_names_and_passes():
    reports = verify_alpha_identities(3, num_points=6)
    names = [r.claim for r in reports]
    assert names == [
        "translation",
        "reversal",
        "rotation",
        "six-term",
        "symmetric-difference-annihilation",
        "shift-expansion",
    ]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("seed", (1729, 5))
@pytest.mark.parametrize("n", range(1, 6))
def test_identity_stencils_match_the_per_point_oracle(n, seed):
    reports = verify_alpha_identities(n, seed=seed)
    assert all(r.passed for r in reports)
    assert reports == alpha_identity_reports(alpha_polynomial(n), n, seed, 20)


@pytest.mark.parametrize("n", (3, 4))
def test_identity_stencils_match_the_oracle_on_a_corrupted_polynomial(n, monkeypatch):
    poly = gn_poly(n, n)
    coeffs = list(poly.coeffs)
    coeffs[len(coeffs) // 2] += 1
    monkeypatch.setitem(
        polynomials._gn_poly_cache, (n, n), dataclasses.replace(poly, coeffs=tuple(coeffs))
    )
    corrupted = alpha_polynomial(n)
    assert corrupted.coeffs == tuple(coeffs)
    reports = verify_alpha_identities(n)
    assert not any(r.passed for r in reports)
    assert reports == alpha_identity_reports(corrupted, n, DEFAULT_SEED, 20)


def test_verify_alpha_identities_budget(fail_if_counting):
    fail_if_counting()
    with pytest.raises(BudgetError):
        verify_alpha_identities(7)
    with pytest.raises(ValidationError):
        verify_alpha_identities(0)


def test_verify_gn_reflection_passes():
    reports = verify_gn_reflection(3, 1, num_points=8)
    assert [r.claim for r in reports] == ["gn-reflection"]
    reports = verify_gn_reflection(3, 2, num_points=8)
    assert [r.claim for r in reports] == ["gn-reflection", "gn-six-term"]
    assert all(r.passed for r in reports)


def _first_coordinate(num_vars: int) -> PolyMulti:
    # p(x_1, ..., x_m) = x_1 is neither translation invariant nor reflection symmetric
    grid = list(itertools.product((0, 1), repeat=num_vars))
    return PolyMulti.interpolate([(0, 1)] * num_vars, [pt[0] for pt in grid])


def test_violated_identity_yields_failing_report(monkeypatch):
    monkeypatch.setattr(polynomials, "alpha_polynomial", lambda n, budget: _first_coordinate(n))
    reports = verify_alpha_identities(2, num_points=5, seed=11)
    assert [r.claim for r in reports][:3] == ["translation", "reversal", "rotation"]
    translation = reports[0]
    assert not translation.passed
    assert translation.checked == "n=2, 5 rational points (seed 11)"
    # every point is listed whose translation amount t is nonzero
    rng = random.Random(11)
    expected = []
    for _ in range(5):
        point = polynomials._draw_point(rng, 2, 6)
        (t,) = polynomials._draw_point(rng, 1, 6)
        if t != 0:
            expected.append((point, point[0], point[0] + t))
    assert expected
    assert [(w.indices, w.lhs, w.rhs) for w in translation.witnesses] == expected
    # witnesses of a parametrised identity name the failing case before the point
    six_term = reports[3]
    assert six_term.claim == "six-term" and not six_term.passed
    assert {w.indices[0] for w in six_term.witnesses} == {"positions 1,2"}


def test_failed_identity_lists_every_witness_in_json(monkeypatch, capsys):
    monkeypatch.setattr(polynomials, "alpha_polynomial", lambda n, budget: _first_coordinate(n))
    code = cli.main(["verify", "alpha-identities", "--n", "2", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert data["passed"] is False
    translation = data["reports"][0]
    assert translation["claim"] == "translation"
    assert len(translation["witnesses"]) > 1
    for witness in translation["witnesses"]:
        assert Fraction(witness["lhs"]) == Fraction(witness["indices"][0])


def test_violated_specialization_identity_yields_failing_report(monkeypatch):
    monkeypatch.setattr(polynomials, "gn_poly", lambda n, d, budget: _first_coordinate(d))
    reflection, six_term = verify_gn_reflection(3, 2, num_points=4)
    assert (reflection.claim, six_term.claim) == ("gn-reflection", "gn-six-term")
    assert not reflection.passed
    for witness in reflection.witnesses:
        x, y = witness.indices
        assert (witness.lhs, witness.rhs) == (x, -6 - y)


def test_specialization_six_term_witnesses_match_single_evaluations(monkeypatch):
    poly = gn_poly(4, 2)
    coeffs = list(poly.coeffs)
    coeffs[7] += 1
    corrupted = dataclasses.replace(poly, coeffs=tuple(coeffs))
    monkeypatch.setitem(polynomials._gn_poly_cache, (4, 2), corrupted)
    _, six_term = verify_gn_reflection(4, 2)
    rng = random.Random(DEFAULT_SEED)
    for _ in range(20):  # the points of the reflection check
        polynomials._draw_point(rng, 2, 12)
    ev = corrupted.evaluate
    expected = []
    for _ in range(20):
        x, y = polynomials._draw_point(rng, 2, 12)
        lhs = ev((x, y)) + ev((x + 1, y + 1)) - ev((x, y + 1))
        rhs = -ev((y + 1, x - 1)) - ev((y + 2, x)) + ev((y + 1, x))
        if lhs != rhs:
            expected.append(Witness((x, y), lhs, rhs))
    assert expected
    assert six_term.witnesses == tuple(expected)


def test_reflection_of_specialization_at_integer_points():
    # the reflected argument of the one-variable specialization lands on
    # integers where both sides are counts with opposite orientation
    n = 4
    poly = gn_poly(n, 1)
    sign = 1 if (n - 1) % 2 == 0 else -1
    for x in range(0, 4):
        assert poly.evaluate((x,)) == sign * poly.evaluate((-2 * n - x,))


# sha256 pins of the exact polynomials, recorded before alpha_polynomial and
# gn_poly sampled one block grid through one row transfer; the specializations
# past orders 12, 10 and 7 at depths 1, 2 and 3, and those of depth 4 and
# more, were recorded from that grid under raised per-depth order caps.
# gn_poly's origins and coefficients depend on its sample grid, so it is
# pinned by its values.
#: n -> sha256 of repr(alpha_polynomial(n).coeffs)
ALPHA_COEFF_PINS = {
    1: "28cb03b06c288e88c6a880eeba293bf9c9bb9fa586128586459a486a511f832f",
    2: "50896e2d8f49ef52ddff4a9f5c9c4693eaa1fb813df64a51d12b9556d2b6b058",
    3: "b15964315826fe43c589e84bd240d6302bc13f5c02b28bbec0fb0e31f90d1d8c",
    4: "487dcb260bcc2e44841e46c51926ad022a2d2824089f1f5ac644847565ce7dde",
    5: "79308a47b80c12c0dcb30e1bf3d0434b1e9bc1bb949c3a4406a4682e3304f0af",
}
#: (n, d) -> sha256 of repr of the binomial-basis expansion coefficients of gn_poly(n, d)
EXPANSION_PINS = {
    (1, 1): "28cb03b06c288e88c6a880eeba293bf9c9bb9fa586128586459a486a511f832f",
    (2, 1): "d02b5ba5c34b34dbcc44c971bd1e9ee12da04d573f9a8354930f910325e10149",
    (3, 1): "35990e4e99eb8e2eac6c9b4f1eccaf5a981ae646699d39de735dd74020f4d61e",
    (4, 1): "0a7c1dfb250ad7da9980caaea6711c780fc166be14c517226c6fe6a5c4747869",
    (5, 1): "3d45f26c9687dbdd0f9de89c944f1767094f860108e38536fde2077600541d8f",
    (6, 1): "50ba3c35872be4dc33ffcfb34bebecd70956a637bc30b34228d565e7587a146d",
    (7, 1): "893c22782a5ee15b19e588872c29f7c5b80d24c0f5cb80452f4712b15962ff24",
    (8, 1): "888cf6e7ce1820333fe38f2cf6d648e914bb912ea69032294453b28c5399a6bb",
    (9, 1): "911143a20dc7584d2461960b7fd1d2f833e00df6e5b3fe1212570c81bd87466d",
    (10, 1): "275be660ac73f17cc36d8caca5732b36afb2cc137866a6f256dc0b01d8f4ecf4",
    (11, 1): "42943dc6b24f7248a476cf265374f638d552418fcc85d38f5698fc72baab966c",
    (12, 1): "b1533039e052ac74f4f339350ab19257592cd306e2b8137512224fc4251ab2ca",
    (2, 2): "8d5de95de92413ea2859013cf7e95c336f3da3e8cc6568650b14b7146e12a462",
    (3, 2): "c3356dec0af67365f9931e10143904afcfd68a730815e67de756774ef6a6b57c",
    (4, 2): "e7a6e1881040f1b78d35fee1db5a9107e4f81d05ba4dc0bd93728eebf3b4c96f",
    (5, 2): "1565b3c04d45984bde99777bdfd6a6ecc943ebd4c6a8822d9155905f046c4226",
    (6, 2): "143150bc718a2bd0a67d0a505cc31a9b5eb4073a1579ab73cdfbf5624a43eeaa",
    (7, 2): "020e4cb1010e167a886b6814c32eeb9e3d8c3338ef7bf9b6e99057e44b3cf883",
    (8, 2): "00df743b82a18f3d4b34c0b765308c76ed7f29e87c135144829ed64262f97a0a",
    (9, 2): "6d84fefd614eb2ffd8acb7e2e3ad44caeb39eb37b8216b7bb578a119e956438c",
    (10, 2): "616474cd409ab18d3e57bc80e9073b208e2a45835d05238610462a95d6c3c553",
    (3, 3): "faba7074b47f35aabf1581b412bec83805ce2fea9aec7b010508390af77158c9",
    (4, 3): "4fd24d40c2e2423783f69b94d0c080b4c0acb251e39242d0e58712d1dd2537f0",
    (5, 3): "ca82892557f28b54a9c08be93258c0e3b7d19f3b3e783129bbdaf0c5af3c522a",
    (6, 3): "0f6e6ee70d91aad592070ecc01df0197b3a1f094bc243b4dea495cb1f3fe60cd",
    (7, 3): "34dc21191d05758a60b54315d42e5eb9a76887c26f5a71acc6b8e15769102deb",
    (13, 1): "9bda71b55cb7caac74fdb9d9f95e8a2a1fe0475feefec83f2bf0fa5107b4ed49",
    (14, 1): "bd87bb71f2b674c3b8c461f495c0c849e19ad0ee84ad5be3fdf522d595ad0ce5",
    (15, 1): "7a8ef475657a94df7f1a887d19a0141bf0196269407e9bd04d1812a09323507a",
    (11, 2): "88f346109a354306727f120949c0276352deb4a73504ee54ce57bf460cf38a71",
    (12, 2): "39f6d07eddf78dc8045b11962a57de9a7ac73c49db2bb7f2313f148d3f3ceb2a",
    (13, 2): "44cfee501e3841cb9fc7b2f2c7083efeca2462c076fea36ad9cef417962e8e05",
    (14, 2): "fb80459897982a7c3f7926efd8131eab2b517f877df7533acaf971fa6a5b6cc6",
    (8, 3): "b77fc1507b310cd4c833b81345dc94668195d95e936887c6a82435f3b337918c",
    (9, 3): "a1cf7881bebca9cda162d36d3af94be827505441e2e0367ccbf9eeee219f6660",
    (10, 3): "c9b12366fafa0e068e9c60a91877b6428a167cb0bdffaa1d63d129c37d34e6ce",
    (11, 3): "363be45790b1ea6522a3fc392febad0d23646ffc3a6ef70b298f56b8ef55edab",
    (12, 3): "4e059c8897b258288a9f5776a10a2e04c9dcac4b20419edc9c44df2978304326",
    (13, 3): "d5755d3e8509c5a7c5058b4572bc932ec6be238b25b20d4d8104a5c9b7fab1d7",
    (14, 3): "4c0200e5708ba4771e7d39c4faa77c0c6ed6953ded616f59a5b4b4f386be46f7",
    (4, 4): "9a5ed99d298f643f5533418dfc46edcd8d1c4620c3c605ba674f685ae39b0e6a",
    (5, 4): "9d1051c95c85668602e38ce4b72cafc3705e82ba4afc8270a4fffaa32810ae88",
    (6, 4): "13268c2d943b3db3d54bef61b7fbcd51c76c83073cd2a5d4615aacd37c7088fc",
    (7, 4): "0d6b56df2d03bc1af751925290ad4f73be8f042f7d3c9823673d91a920ac32ee",
    (8, 4): "31f2eb6c16a336ff22994ae79ed567d1b0de1d1c422ab2271fa39ea0fb21996c",
    (9, 4): "bbb8fa809a4449b9697acade119368da412959fc987cfdcc10952947881d6da1",
    (10, 4): "cadbae35886075a581933aec324457eda0c38edcae30b0ea559598b6cdae527f",
    (11, 4): "7bd1b867733737a35bb539e2584456d34c737a8c4cda986309f7834a45204bd1",
    (12, 4): "1974c76625b7013bfbb5ee7c7731f583e5c01574c0f7804c7474338c82b42699",
    (13, 4): "b9acfdd637443f37b046725ddf95a2c5f2277e7607038d9323889d6245cd415d",
    (5, 5): "6b428f3551bae9723426704ff613c79b8fa05dc3835a68d7bc3dc60c6a6d6b8c",
    (6, 5): "1e40aaa6dba1796f7713105c0b111227aefed2c9772419a26f9493d4f6c57c47",
    (7, 5): "a387ec502be48249bad22fd122e84aa52ae3842f135e95cda61900213fc7f926",
    (8, 5): "49cd79aafedf99fd7694bda74eab3e91380f1d7d599a04847873ed51de5cfef6",
    (9, 5): "d253733fa54f27640a5b0647577b171ff7a367f88c0ead74e0c751d57882ba66",
    (6, 6): "f0a9c1eeac68691351484051b37a0e357e5cf78d9464f039146acda314bc46ec",
    (7, 6): "16ce2a6cbade3b5eacf4d13931423d8845d9b539ff7bd6ff7efcd6d0fa74f3d6",
}
#: (n, d) -> sha256 of repr of gn_poly(n, d) at the points pin_points(n, d)
GN_VALUE_PINS = {
    (1, 1): "09a72da01e0a1aa21f629a4e0b70afffb5e66edf7e0916d862815ad66801d2a1",
    (2, 1): "2af78cdbc18951250a78b2dd181c2085db44631e3cff64403a54224b4a8a5295",
    (3, 1): "6b3e690b21abc1f21649ceabf8339e9de61cf848fd5466458c79fd3473a01ae7",
    (4, 1): "99235897eb5a05c11d4d7e733f52e050d47763ae732802c88f4ae3425c420d03",
    (5, 1): "a54882ce2594c28634473d2d9e5accd26c7c586d6dc1dbb32a51f653f097d034",
    (6, 1): "ede1f7a8578fbf4c49b3351613559ca416d5df28974f78beac60b5ecd5621376",
    (7, 1): "6cb0c970f460eb4e172234eef629d04e69b436c272e5c5c836c55e997f4309cc",
    (8, 1): "ec825ce9294b5f1cf4ad559552f81b7646a5338baa8d13cdf463023ec7ca7657",
    (9, 1): "4d94f9304aaadef7f306199b607d06612ee12ba27128417a5e532127c45a9d93",
    (10, 1): "8e27f6b17ad66dc5815f98370b98c3f45cee049d05025af994e1a05233e4c54e",
    (11, 1): "a60001ac032a19709c71e6150942b8202fb62ca1a1a4cb77f1963def8c4bb343",
    (12, 1): "34c168be0a74fe87a5e9bfb5de2b22e2176dce5f1420d628e6bdb7d778308bb1",
    (2, 2): "82b596bf09385f3c61a0c90ab95b0fff46f89f3a2f6aaeee64b14331f93f2927",
    (3, 2): "20d3c1e21959d81eec80799ed26a20de64a843c788f3bcaf61994356e4901c5d",
    (4, 2): "f11cc39c84ad67ea8e72263f37f1c05af7fc7047c3f8c8c9cacffbcd0520b6cc",
    (5, 2): "6cb7707ef371db2af3d747ffd4f749ad6eca9a66429e6b6f58dfdf0df915fb57",
    (6, 2): "3a0ddfa6fa0a23306439d238249db4827d5e5c7ba115e9a6185304061bde9511",
    (7, 2): "85260094ff377334e61f82d819b92ced0f3a584f0d17a18f3842a98a6413ea29",
    (8, 2): "68fd7fc4e358b0341b6cb1565feda737e0bed852b1fb6c0427272608420e92a7",
    (9, 2): "1b3539d58c2536f257eccaa884df9eca7db43a05c38168bbceffeb73b5903b56",
    (10, 2): "2f392b50992f68ed7f8bdf32c0b331068bbf2cef77b763c3505f5bfd5289d41c",
    (3, 3): "a1a790ca0d455adb97dd4c45a829632b91917cadf9292d8ebaa306b06fc0a8f3",
    (4, 3): "ad5b8c0d36e5eb27e464176457a41f119b5fff4161e48772be1e313127b85729",
    (5, 3): "66f05e475797dc9a782608430ac6a549e71cd73a10e160d96eb29da6f85410eb",
    (6, 3): "e09f882ca313c3f80ef4a5caba95afd5b4bb0ab6150d0ad295c9460444f6ca96",
    (7, 3): "2a4181d44832abae1ec8a073008cba12c4f3fc0f2c5409b23d34df42956de829",
    (13, 1): "690f5b546522cf4f5c5e97338e25972a7803d58eae1c91e787109be3bd64678e",
    (14, 1): "a4db0d501344d3476facebed7ada64fe7a603cac98b4624d92fb077483a4937a",
    (15, 1): "61707f7922f6f25ce0f67020d13c49bd711ba9d5741066b3d9686321a231ac25",
    (11, 2): "32915ec1a551faa2baae89e445f08e1362c537e564f1088a8b4208e689ad6603",
    (12, 2): "b4a5cfc3fee385454eae62b521de7fabdb204d7febd4c32be22f5a37b07f8080",
    (13, 2): "4ebf9363f2992fd6d8f9be23ff490a183f50da365fce35acbf022c9a3fd3ada6",
    (14, 2): "ce1df13338ccd565aab4878822d2e32042796d6f0189e7b5277ede0e0712ed89",
    (8, 3): "42df6e3dbc6833b70df61acbfd7115fc459393ae19b5398ccc9a3ac403398f2e",
    (9, 3): "e32d2c2b05925db823a592caa52600c026a655921f6c7ee02259a6e540806938",
    (10, 3): "aed6b6e058757e81a07b93f55b710f0332079ae67e12f552cc6a43d0cd9a2abf",
    (11, 3): "b4392e4cefe19b0e22e16ddf802d0377cadd1b4e91ac4064df54554457d57aa4",
    (12, 3): "ad666a01bab8810a1e114cd4468e655612b0e7f472325c0dcc77b5cdb02f67ed",
    (13, 3): "e2d40633fddb726ec2d7397f49f590d2a112697faf519a8fe5aecc27290504ee",
    (14, 3): "fbeee99cb5fff3c2ff683a8a74d210d25ec846bcdb6edd894f7d7d3e825606ee",
    (4, 4): "26a9ff0ed87150c15d458b56e9dec967a316e871ccbdc88557bb179048c14b9b",
    (5, 4): "e267af199292de9d34903a5f3a79e2879e5fada1356cac442dc14ee772cd9841",
    (6, 4): "1a1a40a635abf9aa9c17e44ca0767f2d49a8ca2640c9984cda37e98dd3797856",
    (7, 4): "719dc0026e424d9288247d6b77d9737a209f0d209a307a3e411bcd578f38ea53",
    (8, 4): "123cbc951ba73e3bdf0b2de7a14db8a8a08ba4137174dd1949af7917ac7e4434",
    (9, 4): "e4b1385f33e6ce0993b384db2082d890003878ba0547a361359d5b6b86941379",
    (10, 4): "995ca77bd2e74b2769e49b3beb5e6a823173696082c12ec10b2c8b1c6667efa2",
    (11, 4): "a3caffc996177c4f7b6dab3ef8f8047f6213c8c2d90a455b3f9d64114b1cf8e7",
    (12, 4): "d28258cb0d73c9438d1613e8e0b895830a74d289ba84f033cadac3ee6f112354",
    (13, 4): "8a34a482e8ae97009523739d48867df57c755281a3564276a0c015cf3a1169e8",
    (5, 5): "29a91093d0df9375a201fda8dd1f0dbbbcff956ee8c02ec9a2809e5b2bb786db",
    (6, 5): "13e816bdf683e83dff9348955474fb604e9388afd0873ea2ca8b9b5ab7d4f071",
    (7, 5): "a2a0ae34ba2278f29042b62c6129a13ea238da9ddd583f3b72c777a2377237ec",
    (8, 5): "769c621d4462d584358d5e789d71f9aad1090fd28e195638ded22dc08d941632",
    (9, 5): "0cccc60c21d816fea33e65553ee05197cd5d7827582687f70af7be109cffcd84",
    (6, 6): "001866ed574f2e49d1b31e67133183d19f53d94d66226235d8a3631f9a5711dd",
    (7, 6): "4585f4e43c8de8a810079f069dde7df7ec1832b653769fbb15b34e28981c8df9",
}


def pin_digest(values) -> str:
    return hashlib.sha256(repr(tuple(values)).encode()).hexdigest()


def pin_points(n: int, d: int) -> list[tuple[Fraction, ...]]:
    rng = random.Random(1000 * n + d)
    return [
        tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(d))
        for _ in range(8)
    ]


@pytest.mark.parametrize("n", sorted(ALPHA_COEFF_PINS))
def test_alpha_polynomial_coefficients_are_pinned(n):
    assert pin_digest(alpha_polynomial(n).coeffs) == ALPHA_COEFF_PINS[n]


@pytest.mark.parametrize("n, d", sorted(EXPANSION_PINS))
def test_specialization_expansion_and_values_are_pinned(n, d):
    poly = gn_poly(n, d)
    assert pin_digest(expand_in_binomial_basis(poly).coeffs) == EXPANSION_PINS[n, d]
    assert pin_digest(poly.evaluate(pt) for pt in pin_points(n, d)) == GN_VALUE_PINS[n, d]


def test_pins_cover_every_specialization_of_the_default_budget(fail_if_counting):
    # gn_poly(n, d) samples rows of width at least n, so the width check
    # rejects every order above table_max_n
    fail_if_counting()
    cases = set()
    for n in range(1, Budget().table_max_n + 1):
        for d in range(1, n + 1):
            try:
                gn_poly(n, d)
            except BudgetError:
                continue
            except AssertionError:  # admitted, and counting started
                pass
            cases.add((n, d))
    assert max(n for n, d in cases) == 15
    assert set(EXPANSION_PINS) == set(GN_VALUE_PINS) == cases


@pytest.mark.parametrize("num_points", [0, -1])
@pytest.mark.parametrize(
    "suite",
    [
        lambda num_points: verify_alpha_identities(2, num_points=num_points),
        lambda num_points: verify_gn_reflection(2, 2, num_points=num_points),
    ],
    ids=["alpha-identities", "gn-reflection"],
)
def test_identity_suites_refuse_to_check_no_points(suite, num_points):
    # a check at no point would pass every identity
    with pytest.raises(ValidationError) as excinfo:
        suite(num_points)
    assert str(excinfo.value) == f"number of points must be positive, got {num_points}"


def test_a_polynomial_has_a_nonnegative_degree_bound():
    with pytest.raises(ValidationError, match="^degree bound must be nonnegative, got -1$"):
        PolyMulti(1, -1, (0,), ())
    assert PolyMulti(1, 0, (0,), (7,)).evaluate((Fraction(1, 2),)) == 7
