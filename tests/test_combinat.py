"""Binomial conventions, harmonic numbers, and the product formulas."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asmref.combinat import (
    _exact_quotient,
    as_int,
    as_size,
    binom,
    binom_at,
    binom_plus,
    harmonic,
    int_text,
    ints_text,
    refined_asm_count,
    total_asm_count,
)
from asmref.errors import NonIntegralError, ValidationError
from asmref.extension import (
    ExtendedMatrix,
    c_coeff,
    entry_closed_form,
    explicit_formula,
    extend_matrix,
    extended_matrix,
    verify_conjecture2,
    verify_conjecture3,
)
from asmref.linalg import solve_integer_system
from asmref.polynomials import BinomBasisExpansion, PolyMulti, expand_in_binomial_basis, gn_poly
from asmref.triangles import (
    Asm, MonotoneTriangle, RefinedTable, build_table, mt_to_asm, refined_count,
)

from oracles import falling_factorial_binom, fraction_refined_asm_row, fraction_total_asm_count
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


def test_the_ratio_formulas_match_the_fraction_products():
    total_asm_count.cache_clear()
    refined_asm_count.cache_clear()
    for n in range(151):
        assert total_asm_count(n) == fraction_total_asm_count(n)
    for n in range(1, 61):
        assert [refined_asm_count(n, k) for k in range(1, n + 1)] == fraction_refined_asm_row(n)


def test_an_inexact_quotient_names_the_reduced_non_integer():
    assert _exact_quotient(-12, 4, "x") == -3
    with pytest.raises(NonIntegralError) as excinfo:
        _exact_quotient(6, 4, "refined count at n=3, k=2")
    assert str(excinfo.value) == "refined count at n=3, k=2 evaluated to the non-integer 3/2"


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
    numerators, scale = poly.evaluate_shifts(point, [(Fraction(1), 0)])
    assert (numerators, scale) == poly.evaluate_shifts(point, [(1, 0)])
    assert all(type(v) is int for v in numerators)
    table = RefinedTable(3, 2, {(1, 2): Fraction(2), (1, 3): 3, (2, 3): 2})
    assert all(type(v) is int for v in table.entries.values())
    assert extend_matrix(table) == extend_matrix(RefinedTable(3, 2, {(1, 2): 2, (1, 3): 3, (2, 3): 2}))
    matrix = ExtendedMatrix(2, ((Fraction(2), 1), (0, Fraction(-4, 2))))
    assert matrix.rows == ((2, 1), (0, -2))
    assert all(type(v) is int for row in matrix.rows for v in row)
    linear = PolyMulti(1, 1, (Fraction(0),), (Fraction(3), Fraction(2)))
    assert all(type(v) is int for v in linear.origins + linear.coeffs)
    numerators, scale = linear.evaluate_shifts((Fraction(1, 2),), [(0,), (1,)])
    assert (numerators, scale) == ([8, 12], 2)
    assert all(type(v) is int for v in numerators)


def test_integer_data_is_not_copied():
    rows = ((1, 2), (3, 4))
    assert ExtendedMatrix(2, rows).rows is rows
    coeffs = (3, 2)
    assert PolyMulti(1, 1, (0,), coeffs).coeffs is coeffs
    entries = {(1,): 1, (2,): 1}
    assert RefinedTable(2, 1, entries).entries is entries


@pytest.mark.parametrize(
    "at",
    [
        lambda v: extended_matrix(5).entry(v, 2),
        lambda v: expand_in_binomial_basis(gn_poly(3, 2)).coefficient((v, 1)),
        lambda v: explicit_formula(5, v, 3),
        lambda v: entry_closed_form(5, v, 3, build_table(5, 2)),
        lambda v: c_coeff(v, 1, 2, 3),
    ],
    ids=["matrix-entry", "expansion-coefficient", "explicit-formula", "closed-form", "c-coeff"],
)
def test_an_index_passes_as_int_before_its_range_check(at):
    with pytest.raises(ValidationError, match="indices must be integers, got 1.5"):
        at(1.5)
    value = at(Fraction(2))
    assert value == at(2) and type(value) is int


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


def test_as_size_names_a_huge_size_by_its_bit_length():
    started = time.perf_counter()
    for args, message in [
        ((10**5000, "depth", 1, 3), "depth must lie in 1..3, got <16610-bit integer>"),
        ((-(10**5000), "order"), "order must be positive, got <16610-bit integer>"),
        ((2**8192 - 1, "depth", 1, 3), f"depth must lie in 1..3, got {2**8192 - 1}"),
    ]:
        with pytest.raises(ValidationError) as excinfo:
            as_size(*args)
        assert str(excinfo.value) == message
    assert time.perf_counter() - started < 0.1


HUGE = 10**5000  # 5001 digits, past str()'s default limit of 4300
HUGE_TEXT = "<16610-bit integer>"

#: (call, message) of each library check that names a caller's int
HUGE_MESSAGES = [
    (lambda: Asm(((HUGE,),)), f"entries must be -1, 0 or 1, got {HUGE_TEXT}"),
    (
        lambda: MonotoneTriangle(((1,), (HUGE, 1))),
        f"row 2 must be strictly increasing: ({HUGE_TEXT}, 1)",
    ),
    (
        lambda: MonotoneTriangle(((HUGE,), (1, 2))),
        f"rows ({HUGE_TEXT},) over (1, 2) violate the interlacing condition",
    ),
    (
        lambda: mt_to_asm(MonotoneTriangle(((HUGE,),))),
        f"triangle is not complete: bottom row ({HUGE_TEXT},) is not 1..1",
    ),
    (
        lambda: refined_count(5, (HUGE,)),
        f"indices must be strictly increasing in 1..5: ({HUGE_TEXT},)",
    ),
    (
        lambda: RefinedTable(2, 1, {(1,): -HUGE, (2,): 1}),
        f"count at (1,) is negative: {HUGE_TEXT}",
    ),
    (lambda: build_table(3, 1).value(HUGE), f"no entry at ({HUGE_TEXT},)"),
    (
        lambda: PolyMulti.interpolate([(HUGE, 1)], [1, 2]),
        f"need 2 ascending consecutive nodes, got ({HUGE_TEXT}, 1)",
    ),
    (
        lambda: PolyMulti(1, 1, (0,), (1, 2)).evaluate_shifts((1,), [(HUGE, 1)]),
        f"shifts must be 1 integers, got ({HUGE_TEXT}, 1)",
    ),
    (
        lambda: BinomBasisExpansion(2, 2, (1, 2, 3, 4)).coefficient((HUGE, 1)),
        f"indices must lie in 1..2: ({HUGE_TEXT}, 1)",
    ),
    (
        lambda: extended_matrix(4).entry(HUGE, 1),
        f"indices must lie in 1..4, got ({HUGE_TEXT}, 1)",
    ),
]


@pytest.mark.parametrize("call, message", HUGE_MESSAGES, ids=[m for _, m in HUGE_MESSAGES])
def test_a_message_names_a_huge_int_by_its_bit_length(call, message):
    build_table(3, 1), extended_matrix(4)  # warm their memos, so the clock sees the refusal
    started = time.perf_counter()
    with pytest.raises(ValidationError) as excinfo:
        call()
    assert time.perf_counter() - started < 0.1
    assert str(excinfo.value) == message


@pytest.mark.parametrize("values", [
    (), (3,), (1, -2, 3), [], [4], [1, 2], (True, Fraction(1, 2), "x", 2.5, None),
    ((1, 2), [3]), range(3, 0, -1), (2**64, -5),
], ids=repr)
def test_ints_text_is_str_for_values_that_fit(values):
    assert ints_text(values) == str(values)


def test_int_text_is_str_for_values_that_fit():
    for value in (0, -7, 2**8192 - 1, -(2**8192) + 1, True, Fraction(3, 4), "3", 2.5):
        assert int_text(value) == str(value)
    assert ints_text((2**8192 - 1, 5)) == str((2**8192 - 1, 5))
    assert int_text(2**8192) == "<8193-bit integer>"
    assert ints_text([-(2**8192), "a"]) == "[<8193-bit integer>, 'a']"


def test_as_size_returns_the_int():
    assert as_size(3, "order", 3) == 3
    assert as_size(0, "subset size", 0, 0) == 0
    size = as_size(Fraction(8, 2), "order")
    assert size == 4 and type(size) is int


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify_conjecture2(2), "order must be at least 3, got 2"),
        (lambda: gn_poly(4, -1), "depth must lie in 1..4, got -1"),
        (lambda: gn_poly(-1, 3), "order must be positive, got -1"),
        (lambda: build_table(0, 1), "order must be positive, got 0"),
        (lambda: build_table(1, 0), "depth must lie in 1..1, got 0"),
        (lambda: refined_count(5.0, (2,)), "order must be an integer, got 5.0"),
        (lambda: build_table(5, 2.0), "depth must be an integer, got 2.0"),
        (lambda: gn_poly(4, 2.0), "depth must be an integer, got 2.0"),
        (lambda: total_asm_count(5.0), "order must be an integer, got 5.0"),
        (lambda: verify_conjecture3(4, 3.0), "depth must be an integer, got 3.0"),
        # 4**(10**6) would be a 602,060-digit int: refused before it is made
        (lambda: verify_conjecture3(4, 10**6), "depth must lie in 1..4, got 1000000"),
        (lambda: BinomBasisExpansion(-1, 2, (1,)), "order must be positive, got -1"),
        (lambda: BinomBasisExpansion(2.0, 1, (1, 2)), "order must be an integer, got 2.0"),
        (lambda: BinomBasisExpansion(3, 0, (5,)), "depth must be positive, got 0"),
    ],
    ids=[
        "conj2-order", "gn-depth", "gn-depth-over-order", "table-order", "table-depth",
        "refined-float-order", "table-float-depth", "gn-float-depth", "total-float-order",
        "conj3-float-depth", "conj3-depth-past-order", "expansion-order", "expansion-float-order",
        "expansion-depth",
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
