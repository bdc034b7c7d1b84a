"""The counting polynomial, its specializations, and the basis expansion.

Oracle: a hand-derived closed form for the order-3 counting polynomial,
checked symbolically against brute-force counts on integer rows and then
used to pin rational evaluations, including points where the integer count
and the polynomial disagree in meaning (weakly increasing vs arbitrary).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asmref.cli as cli
from asmref import polynomials
from asmref.combinat import binom
from asmref.config import DEFAULT_SEED, Budget
from asmref.errors import BudgetError, NonIntegralError, ValidationError
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

from oracles import alpha_count_dfs, alpha_identity_reports, newton_interpolant_value
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


def is_integral(expansion: BinomBasisExpansion) -> bool:
    return all(c.denominator == 1 for c in expansion.coeffs)


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


def test_alpha_polynomial_degree_bound():
    for n in range(1, 5):
        degrees = newton_degrees(alpha_polynomial(n))
        assert len(degrees) == n
        assert all(deg <= n - 1 for deg in degrees)
    # degree n-1 is attained in each variable for n >= 2
    assert newton_degrees(alpha_polynomial(3)) == (2, 2, 2)


def test_alpha_polynomial_budget():
    with pytest.raises(BudgetError):
        alpha_polynomial(7, Budget(alpha_poly_max_n=6))
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
        "gn": lambda n, d: (0,) * d,
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
    expansion = expand_in_binomial_basis(gn_poly(3, 2), 3, 2)
    with pytest.raises(ValidationError):
        expansion.evaluate((bad, 1))


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
    # so the column sweep never runs; one transfer serves each last-axis fiber
    real = triangles._row_transfer
    fibers = []

    def transfer(prefix, lasts):
        fibers.append(len(lasts))
        return real(prefix, lasts)

    def sweep(n):
        raise AssertionError(f"the column sweep of order {n} ran")

    polynomials.clear_caches()
    triangles.clear_caches()
    monkeypatch.setattr(triangles, "_row_transfer", transfer)
    monkeypatch.setattr(triangles, "_column_sweep", sweep)
    alpha_polynomial(4)
    assert fibers == [4] * 4**3
    for n, d in ((1, 1), (5, 1), (5, 2), (4, 3), (3, 3)):
        fibers.clear()
        gn_poly(n, d)
        assert fibers == [n] * n ** (d - 1)
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


def test_gn_poly_budget_and_validation():
    with pytest.raises(BudgetError):
        gn_poly(11, 2)
    with pytest.raises(BudgetError):
        gn_poly(3, 3, Budget(gn_poly_max_n={1: 12, 2: 10}))
    with pytest.raises(ValidationError):
        gn_poly(2, 3)
    with pytest.raises(ValidationError):
        gn_poly(3, 0)


def test_expansion_coefficients_match_extended_arrays():
    for n in (3, 4, 5):
        expansion = expand_in_binomial_basis(gn_poly(n, 2), n, 2)
        expected = EXTENDED_MATRICES[n]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert expansion.coefficient((i, j)) == expected[i - 1][j - 1]
        assert is_integral(expansion)
        grid = expansion.integer_grid()
        assert len(grid) == n * n


def test_expansion_reconstructs_polynomial():
    for n, d in ((3, 1), (3, 2), (4, 2)):
        poly = gn_poly(n, d)
        expansion = expand_in_binomial_basis(poly, n, d)
        rng = random.Random(5)
        for _ in range(12):
            pt = tuple(
                Fraction(rng.randint(-25, 25), rng.randint(1, 6)) for _ in range(d)
            )
            assert expansion.evaluate(pt) == poly.evaluate(pt)


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
    [(d, n) for d, cap in Budget().gn_poly_max_n.items() for n in range(d, cap + 1)],
)
def test_expansion_matches_gauss_jordan_oracle(d, n):
    # every specialization the default budget allows
    poly = gn_poly(n, d)
    expansion = expand_in_binomial_basis(poly, n, d)
    assert expansion.coeffs == gauss_jordan_expansion(poly, n, d)


@pytest.mark.parametrize("d", [1, 2])
def test_off_grid_expansion_matches_gauss_jordan_oracle(d):
    # origin 3 is off the grid 0..n-1 and the degree bound 2 is below n - 1
    # for n = 4, 5, so the polynomial is re-interpolated before the expansion
    poly = _off_grid_polynomial(d)
    for n in (3, 4, 5):
        expansion = expand_in_binomial_basis(poly, n, d)
        assert expansion.coeffs == gauss_jordan_expansion(poly, n, d)


def test_expansion_flags_non_integral_coefficients():
    # (x + 1)/2 is 0 * binom(x, 0) + 1/2 * binom(x + 1, 1)
    expansion = BinomBasisExpansion(2, 1, (Fraction(0), Fraction(1, 2)))
    assert expansion.evaluate((Fraction(2),)) == Fraction(3, 2)
    assert not is_integral(expansion)
    with pytest.raises(NonIntegralError):
        expansion.integer_grid()


def test_expansion_coefficient_index_validation():
    expansion = expand_in_binomial_basis(gn_poly(3, 2), 3, 2)
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
    poly = alpha_polynomial(n)
    coeffs = list(poly.coeffs)
    coeffs[len(coeffs) // 2] += 1
    corrupted = dataclasses.replace(poly, coeffs=tuple(coeffs))
    monkeypatch.setitem(polynomials._alpha_poly_cache, n, corrupted)
    reports = verify_alpha_identities(n)
    assert not any(r.passed for r in reports)
    assert reports == alpha_identity_reports(corrupted, n, DEFAULT_SEED, 20)


def test_verify_alpha_identities_budget():
    with pytest.raises(BudgetError):
        verify_alpha_identities(6)


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
