"""Binomial conventions, harmonic numbers, and the product formulas."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asmref.combinat import (
    as_int,
    as_size,
    binom,
    binom_at,
    binom_plus,
    harmonic,
    refined_asm_count,
    total_asm_count,
)
from asmref.errors import NonIntegralError, ValidationError
from asmref.extension import ExtendedMatrix, extend_matrix, verify_conjecture2, verify_conjecture3
from asmref.linalg import solve_integer_system
from asmref.polynomials import PolyMulti, gn_poly
from asmref.triangles import RefinedTable, build_table, refined_count

from oracles import falling_factorial_binom
from reference_tables import REFINED_TRIANGLE, TOTALS

ints = st.integers(min_value=-40, max_value=40)
small_nonneg = st.integers(min_value=0, max_value=40)


def test_binom_nonneg_matches_math_comb():
    for n in range(0, 12):
        for k in range(0, 14):
            assert binom(n, k) == math.comb(n, k)


def test_binom_negative_upper_argument():
    # falling-factorial convention: C(-1, k) = (-1)^k
    for k in range(0, 8):
        assert binom(-1, k) == (-1) ** k
    assert binom(-3, 2) == 6
    assert binom(-2, 3) == -4


def test_binom_matches_the_falling_factorial_oracle():
    for n in range(-60, 61):
        for k in range(-3, 62):
            assert binom(n, k) == falling_factorial_binom(n, k)


def test_binom_negative_lower_argument_is_zero():
    assert binom(5, -1) == 0
    assert binom(-5, -2) == 0
    assert binom(0, -1) == 0


def test_binom_plus_zero_for_negative_upper():
    assert binom_plus(-1, 0) == 0
    assert binom_plus(-2, 3) == 0
    assert binom_plus(3, 1) == 3
    assert binom_plus(3, -1) == 0
    for n in range(0, 9):
        for k in range(-2, 11):
            assert binom_plus(n, k) == binom(n, k)


@given(ints, st.integers(min_value=-3, max_value=14))
def test_binom_pascal(n, k):
    assert binom(n, k) == binom(n - 1, k) + binom(n - 1, k - 1)


@given(ints, st.integers(min_value=0, max_value=14))
def test_binom_sign_reflection(n, k):
    assert binom(n, k) == (-1) ** k * binom(k - n - 1, k)


@given(small_nonneg, small_nonneg, st.integers(min_value=0, max_value=20))
def test_binom_chu_vandermonde(m, n, k):
    lhs = binom(m + n, k)
    rhs = sum(binom(m, j) * binom(n, k - j) for j in range(0, k + 1))
    assert lhs == rhs


def test_binom_at_rational_upper():
    assert binom_at(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom_at(Fraction(5, 2), 0) == 1
    assert binom_at(Fraction(5, 2), -1) == 0
    for n in range(-6, 7):
        for k in range(0, 6):
            assert binom_at(Fraction(n), k) == binom(n, k)


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(-3) == 0
    assert harmonic(1) == 1
    assert harmonic(4) == Fraction(25, 12)


def test_harmonic_of_a_large_order_from_a_cold_cache():
    # 3000 is past the default recursion limit of 1000
    harmonic.cache_clear()
    assert harmonic(3000) == sum((Fraction(1, d) for d in range(1, 3001)), Fraction(0))
    harmonic.cache_clear()
    assert [harmonic(m) for m in (0, -1, -3000)] == [0, 0, 0]


@given(st.integers(min_value=1, max_value=60))
def test_harmonic_difference(m):
    assert harmonic(m) - harmonic(m - 1) == Fraction(1, m)


def test_total_asm_count_published_values():
    for n, expected in enumerate(TOTALS):
        assert total_asm_count(n) == expected


def test_refined_asm_count_published_triangle():
    for n, row in REFINED_TRIANGLE.items():
        assert tuple(refined_asm_count(n, k) for k in range(1, n + 1)) == row


def test_refined_row_sums_to_total():
    for n in range(1, 16):
        assert sum(refined_asm_count(n, k) for k in range(1, n + 1)) == total_asm_count(n)


def test_refined_row_symmetry():
    for n in range(1, 16):
        for k in range(1, n + 1):
            assert refined_asm_count(n, k) == refined_asm_count(n, n + 1 - k)


def test_refined_first_column_shifts_totals():
    for n in range(1, 14):
        assert refined_asm_count(n, 1) == total_asm_count(n - 1)


def test_refined_neighbour_ratio():
    # A(n,k+1)/A(n,k) = (n-k)(n+k-1) / (k(2n-k-1)) for 1 <= k < n
    for n in range(2, 12):
        for k in range(1, n):
            lhs = refined_asm_count(n, k + 1) * k * (2 * n - k - 1)
            rhs = refined_asm_count(n, k) * (n - k) * (n + k - 1)
            assert lhs == rhs


def test_refined_count_out_of_range():
    with pytest.raises(ValueError):
        refined_asm_count(4, 0)
    with pytest.raises(ValueError):
        refined_asm_count(4, 5)
    with pytest.raises(ValueError):
        total_asm_count(-1)


def test_nonintegral_error_is_value_error():
    assert issubclass(NonIntegralError, Exception)


@pytest.mark.parametrize(
    "make",
    [
        lambda: solve_integer_system([[1.5]], [3]),
        lambda: solve_integer_system([[2]], [3.7]),
        lambda: solve_integer_system([[Fraction(1, 2)]], [1]),
        lambda: PolyMulti.interpolate([[0.5, 1.5, 2.5]], [1, 2, 4]),
        lambda: PolyMulti.interpolate([["0", "1", "2"]], [1, 2, 4]),
        lambda: PolyMulti(1, 1, (0,), (0.5, 1)),
        lambda: PolyMulti(1, 1, (Fraction(1, 2),), (1, 2)),
        lambda: RefinedTable(3, 2, {(1, 2): 1.5, (1, 3): 1, (2, 3): 1}),
        lambda: ExtendedMatrix(1, ((0.5,),)),
    ],
    ids=[
        "solve-float-entry", "solve-float-rhs", "solve-fraction-entry",
        "interpolate-float-nodes", "interpolate-str-nodes", "poly-float-coefficient",
        "poly-fraction-origin", "table-float-count", "matrix-float-entry",
    ],
)
def test_integer_data_from_a_caller_is_checked_by_as_int(make):
    # a float, a string or a non-integral rational is never truncated or used as it is
    with pytest.raises(ValidationError, match="must be integers, got "):
        make()


def test_integer_data_may_be_an_integral_rational():
    assert as_int(Fraction(6, 3)) == 2 and type(as_int(Fraction(6, 3))) is int
    assert solve_integer_system([[Fraction(2)]], [4]).solution == (2,)
    poly = gn_poly(3, 2)
    point = (Fraction(1, 2), 3)
    assert poly.evaluate_shifts(point, [(Fraction(1), 0)]) == poly.evaluate_shifts(point, [(1, 0)])
    table = RefinedTable(3, 2, {(1, 2): Fraction(2), (1, 3): 3, (2, 3): 2})
    assert extend_matrix(table) == extend_matrix(RefinedTable(3, 2, {(1, 2): 2, (1, 3): 3, (2, 3): 2}))


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, "order", 3), "order must be at least 3, got 2"),
        ((-1, "depth"), "depth must be positive, got -1"),
        ((-1, "order", 0), "order must be nonnegative, got -1"),
        ((0, "depth", 1, 1), "depth must lie in 1..1, got 0"),
        ((5, "column index", 0, 4), "column index must lie in 0..4, got 5"),
        ((2.0, "depth"), "depth must be an integer, got 2.0"),
        ((Fraction(5, 2), "order"), "order must be an integer, got Fraction(5, 2)"),
        (("3", "order"), "order must be an integer, got '3'"),
    ],
    ids=repr,
)
def test_as_size_states_the_range_it_refuses(args, message):
    with pytest.raises(ValidationError) as excinfo:
        as_size(*args)
    assert str(excinfo.value) == message


def test_as_size_returns_the_int():
    assert as_size(3, "order", 3) == 3
    assert as_size(0, "subset size", 0, 0) == 0
    size = as_size(Fraction(8, 2), "order")
    assert size == 4 and type(size) is int


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify_conjecture2(2), "order must be at least 3, got 2"),
        (lambda: gn_poly(4, -1), "depth must be positive, got -1"),
        (lambda: gn_poly(-1, 3), "depth 3 exceeds the order -1"),
        (lambda: build_table(0, 1), "order must be positive, got 0"),
        (lambda: build_table(1, 0), "depth must lie in 1..1, got 0"),
        (lambda: refined_count(5.0, (2,)), "order must be an integer, got 5.0"),
        (lambda: build_table(5, 2.0), "depth must be an integer, got 2.0"),
        (lambda: gn_poly(4, 2.0), "depth must be an integer, got 2.0"),
        (lambda: total_asm_count(5.0), "order must be an integer, got 5.0"),
        (lambda: verify_conjecture3(4, 3.0), "depth must be an integer, got 3.0"),
    ],
    ids=[
        "conj2-order", "gn-depth", "gn-depth-over-order", "table-order", "table-depth",
        "refined-float-order", "table-float-depth", "gn-float-depth", "total-float-order",
        "conj3-float-depth",
    ],
)
def test_sizes_from_a_caller_pass_as_size(call, message):
    with pytest.raises(ValidationError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_a_cached_product_formula_does_not_take_a_float_order():
    # a Fraction equal to 5 is the order 5; the float 5.0 hashes alike but is refused
    assert total_asm_count(Fraction(5)) == 429
    assert refined_asm_count(Fraction(5), 2) == 105
    with pytest.raises(ValidationError):
        total_asm_count(5.0)
    with pytest.raises(ValidationError):
        refined_asm_count(5.0, 2)
