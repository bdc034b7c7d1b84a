"""The extension coefficients, the extended arrays, and the verifiers."""

from __future__ import annotations

import itertools
import random

import pytest

from asmref import extension
from asmref.combinat import refined_asm_count, total_asm_count
from asmref.config import DEFAULT_BUDGET, Budget
from asmref.errors import BudgetError, ExcludedIndexError, NonIntegralError, ValidationError
from asmref.extension import (
    ExtendedMatrix,
    c_coeff,
    drefined_F,
    entry_cases,
    explicit_formula,
    extend_matrix,
    entry_closed_form,
    solve_sufficiency,
    sufficiency_system,
    verify_conjecture2,
    verify_conjecture3,
    verify_conjecture4,
    verify_ilse,
    verify_special_values,
    verify_theorem1,
    verify_theorem2,
    verify_triangular_system,
    verify_zw_chain,
    w_value,
    z_value,
)
from asmref.reports import VerificationReport, Witness
from asmref.triangles import RefinedTable, alpha_count, build_table, refined_count

from oracles import (
    alpha_count_dfs,
    coefficient_extension,
    conjecture3_witnesses,
    dense_sufficiency_system,
    fraction_explicit_formula,
    shifted_row_z,
    theorem1_witnesses,
    triangular_system_witnesses,
)
from reference_tables import EXTENDED_MATRICES


def matrix_for(n: int) -> ExtendedMatrix:
    return extend_matrix(build_table(n, 2))


def random_table(n: int, rng: random.Random) -> RefinedTable:
    pairs = itertools.combinations(range(1, n + 1), 2)
    return RefinedTable(n, 2, {pair: rng.randrange(0, 10 ** 6) for pair in pairs})


def test_c_coeff_hand_values():
    assert c_coeff(2, 1, 1, 2) == -1
    assert c_coeff(2, 1, 2, 3) == 1
    assert c_coeff(2, 1, 1, 3) == 1
    # vanishes whenever p < j
    assert c_coeff(1, 3, 2, 4) == 0
    assert c_coeff(5, 4, 1, 2) == 0


def test_extend_matrix_reproduces_published_arrays():
    for n, expected in EXTENDED_MATRICES.items():
        matrix = matrix_for(n)
        assert matrix.rows == expected


def test_extend_matrix_matches_sum_over_all_pairs():
    # the coefficient table and the summed range give c_coeff's double sum
    for n in range(2, 15):
        table = build_table(n, 2)
        assert extend_matrix(table) == coefficient_extension(table), n


def test_extend_matrix_matches_sum_over_all_pairs_on_random_tables():
    # any table passes the triangular system, so the algebra itself must match
    rng = random.Random(16)
    for n in range(2, 10):
        for _ in range(3):
            table = random_table(n, rng)
            assert extend_matrix(table) == coefficient_extension(table), n


def test_extended_upper_part_is_plain_table():
    for n in (3, 4, 5):
        table = build_table(n, 2)
        matrix = extend_matrix(table)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert matrix.entry(i, j) == table.value(i, j)


def test_extend_matrix_rejects_wrong_depth():
    with pytest.raises(ValidationError):
        extend_matrix(build_table(4, 1))


def test_extended_matrix_entry_bounds():
    matrix = matrix_for(3)
    assert matrix.entry(3, 1) == -2
    with pytest.raises(ValidationError):
        matrix.entry(0, 1)
    with pytest.raises(ValidationError):
        matrix.entry(1, 4)


def test_extended_matrix_validation():
    with pytest.raises(ValidationError):
        ExtendedMatrix(2, ((1, 2),))
    with pytest.raises(ValidationError):
        ExtendedMatrix(2, ((1, 2), (3,)))


def test_theorem1_holds():
    for n in range(3, 8):
        report = verify_theorem1(matrix_for(n))
        assert report.passed, report.witnesses


def test_theorem1_detects_corruption():
    n = 4
    rows = [list(row) for row in matrix_for(n).rows]
    rows[1][1] += 1
    report = verify_theorem1(ExtendedMatrix(n, tuple(tuple(r) for r in rows)))
    assert not report.passed
    assert report.witnesses


def perturbed(values: dict, rng: random.Random) -> dict:
    """values with a few entries moved by small nonzero amounts."""
    out = dict(values)
    for key in rng.sample(sorted(out), 3):
        out[key] += rng.choice([-2, -1, 1, 2])
    return out


def as_matrix(n: int, values: dict) -> ExtendedMatrix:
    cells = range(1, n + 1)
    return ExtendedMatrix(n, tuple(tuple(values[i, j] for j in cells) for i in cells))


def test_theorem1_witnesses_match_the_double_sum_oracle():
    rng = random.Random(9)
    for n in range(3, 13):
        matrix = matrix_for(n)
        values = {(i, j): matrix.entry(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
        arrays = [matrix] + [as_matrix(n, perturbed(values, rng)) for _ in range(5)]
        for array in arrays:
            report = verify_theorem1(array)
            assert list(report.witnesses) == theorem1_witnesses(array)
        assert not report.passed


@pytest.mark.parametrize("d, orders", [(2, range(3, 9)), (3, (4, 5)), (4, (5, 6)), (5, (5,))])
def test_conjecture3_witnesses_match_the_shift_loop_oracle(d, orders, monkeypatch):
    rng = random.Random(d)
    real = extension._coefficient_array
    for n in orders:
        coeffs = real(n, d, Budget())
        for array in [coeffs] + [perturbed(coeffs, rng) for _ in range(5)]:
            monkeypatch.setattr(extension, "_coefficient_array", lambda n, d, budget: array)
            report = verify_conjecture3(n, d)
            assert list(report.witnesses) == conjecture3_witnesses(array, n, d)
        assert not report.passed


def test_entry_witnesses_skip_pairs_and_record_non_integral_values():
    matrix = matrix_for(3)

    def value(i, j):
        if (i, j) == (1, 2):
            raise NonIntegralError("half")
        return matrix.entry(i, j) + (i == 3)

    cases = entry_cases(matrix, value, skip={(3, 2)})
    report = VerificationReport.from_cases("entries", "n=3", cases)
    assert report.witnesses == (
        Witness((1, 2), "half", 1),
        Witness((3, 1), -1, -2),
        Witness((3, 3), 1, 0),
    )


def test_theorem2_holds_and_is_sharp():
    for n in range(3, 8):
        matrix = matrix_for(n)
        report = verify_theorem2(
            matrix, total_asm_count(n - 1), total_asm_count(n - 2)
        )
        assert report.passed, report.witnesses
        # the two exceptional cells really do break the mirror symmetry
        assert matrix.entry(n - 1, 1) != matrix.entry(n, 2)
        assert matrix.entry(n - 1, 1) == total_asm_count(n - 2)
        assert matrix.entry(n, 2) == total_asm_count(n - 2) - total_asm_count(n - 1)


def test_theorem2_rejects_wrong_exceptional_values():
    n = 4
    report = verify_theorem2(matrix_for(n), total_asm_count(n - 1), 999)
    assert not report.passed


def test_theorem2_reports_an_exceptional_entry_equal_to_its_mirror():
    n = 5
    values = {(i, j): matrix_for(n).entry(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
    values[n, 2] = values[n - 1, 1]
    mirrored = values[n - 1, 1]
    report = verify_theorem2(as_matrix(n, values), total_asm_count(n - 1), total_asm_count(n - 2))
    assert report.witnesses == (
        Witness((n - 1, 1), mirrored, f"!= mirror {mirrored}"),
        Witness((n, 2), mirrored, total_asm_count(n - 2) - total_asm_count(n - 1)),
        Witness((n, 2), mirrored, f"!= mirror {mirrored}"),
    )


def test_special_values_hold():
    for n in range(3, 8):
        report = verify_special_values(matrix_for(n))
        assert report.passed, report.witnesses


def test_special_values_name_each_corner_once():
    # the bottom-row partial sums already cover both bottom corners
    values = {(i, j): matrix_for(5).entry(i, j) for i in range(1, 6) for j in range(1, 6)}
    for witness in (Witness((5, 1), -41, -42), Witness((5, 5), 1, 0)):
        raised = dict(values)
        raised[witness.indices] += 1
        report = verify_special_values(as_matrix(5, raised))
        assert report.witnesses == (witness,)


def test_special_values_explicit():
    for n in (3, 4, 5, 6):
        matrix = matrix_for(n)
        assert matrix.entry(n, 1) == -total_asm_count(n - 1)
        assert matrix.entry(n, n) == 0
        for j in range(1, n + 1):
            expected = -sum(refined_asm_count(n - 1, r) for r in range(j, n))
            assert matrix.entry(n, j) == expected
        alternating = sum(
            (-1) ** (i + 1) * matrix.entry(i, i + 1) for i in range(1, n)
        )
        assert matrix.entry(1, 1) == alternating


def test_closed_representation_hand_values():
    table = build_table(3, 2)
    assert entry_closed_form(3, 2, 1, table) == 1
    assert entry_closed_form(3, 3, 1, table) == -2
    assert entry_closed_form(3, 1, 3, table) == 1


def test_ilse_representation_matches_matrix():
    for n in range(3, 7):
        assert verify_ilse(n).passed


def test_z_values():
    assert z_value(3, 1, 1) == 1
    assert z_value(3, 0, 2) == alpha_count((1, 3))
    assert z_value(4, 0, 0) == 0
    with pytest.raises(ValidationError):
        z_value(3, 2, 1)
    with pytest.raises(ValidationError):
        z_value(3, 1, 5)


def test_w_values():
    assert w_value(3, 1, 3) == 1
    with pytest.raises(ValidationError):
        w_value(3, 1, 0)
    with pytest.raises(ValidationError):
        w_value(3, 7, 2)


def test_zw_chain_matches_matrix():
    for n in range(3, 13):
        assert verify_zw_chain(n).passed


def test_z_row_matches_the_shifted_row_oracle():
    for n in range(3, 12):
        table = build_table(n, 2)
        for i in range(n + 1):
            expected = [shifted_row_z(n, p, i, alpha_count_dfs) for p in range(n - 1)]
            assert extension._z_row(n, i, table) == expected, (n, i)


def test_z_row_matches_the_shifted_row_oracle_on_random_tables():
    # a row above a shifted row leaves out one pair, and counts as its entry
    rng = random.Random(17)
    for n in range(3, 10):
        for _ in range(3):
            table = random_table(n, rng)

            def count(above):
                return table.value(*(v for v in range(1, n + 1) if v not in above))

            for i in range(n + 1):
                expected = [shifted_row_z(n, p, i, count) for p in range(n - 1)]
                assert extension._z_row(n, i, table) == expected, (n, i)


def test_zw_chain_rejects_a_random_table(monkeypatch):
    # extend_matrix and the shift-subset sums read the same random table, and
    # they disagree: zw-chain checks the counts, not only the algebra
    rng = random.Random(17)
    for n, failures in ((5, 13), (6, 19), (8, 34)):
        table = random_table(n, rng)
        monkeypatch.setattr(extension, "build_table", lambda n, d: table)
        report = verify_zw_chain(n)
        assert not report.passed
        assert len(report.witnesses) == failures, n


def test_zw_chain_at_the_edge_orders():
    assert [z_value(2, 0, i) for i in range(3)] == [0, 1, 1]
    assert [w_value(2, i, j) for i in range(3) for j in range(1, 4)] == [0, 0, 0, 0, 1, 0, 0, 1, 0]
    assert verify_zw_chain(2).passed
    with pytest.raises(ValidationError):
        verify_zw_chain(1)
    with pytest.raises(BudgetError):
        z_value(17, 3, 4)


def test_sufficiency_system_shape():
    n = 4
    system = sufficiency_system(n)
    assert len(system.matrix) == len(system.rhs)
    assert len(system.labels) == n * n
    assert all(len(row) == n * n for row in system.matrix)
    # reflection rows for all pairs, symmetry rows minus exclusions and
    # self-mirror pairs, two exceptional cells, n-1 boundary values
    assert len(system.matrix) > n * n


def test_sufficiency_system_matches_the_dense_oracle():
    for n in range(3, 15):
        assert sufficiency_system(n) == dense_sufficiency_system(n)


def test_solve_sufficiency_unique_and_correct():
    for n in (3, 4, 5):
        result = solve_sufficiency(n)
        assert result.rank == result.num_unknowns == n * n
        assert result.unique
        assert result.solution == matrix_for(n)


def test_solve_sufficiency_budget():
    with pytest.raises(BudgetError):
        solve_sufficiency(4, Budget(table_max_n=3))


def test_explicit_formula_hand_values():
    assert explicit_formula(3, 1, 1) == 0
    assert explicit_formula(4, 3, 2) == 1
    assert explicit_formula(5, 1, 2) == 7


def _outcome(formula, *args):
    try:
        return formula(*args)
    except (ExcludedIndexError, ValidationError) as exc:
        return type(exc), str(exc)


def test_explicit_formula_matches_the_fraction_oracle():
    # values, and the errors on excluded pairs and on out-of-range input
    for n in range(2, 15):
        cells = range(0, n + 2)
        for i, j in itertools.product(cells, cells):
            expected = _outcome(fraction_explicit_formula, n, i, j)
            assert _outcome(explicit_formula, n, i, j) == expected, (n, i, j)


def test_shared_harmonic_table_gives_both_formulas():
    # verify_conjecture2 reads every entry of an order from one harmonic table
    for n in range(3, 13):
        constants = extension._harmonic_table(n)
        excluded = {(n - 1, 1), (n, 1), (n, 2)}
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            if (i, j) in excluded:
                continue
            value = extension._formula_entry(n, i, j, *constants)
            assert value == explicit_formula(n, i, j) == fraction_explicit_formula(n, i, j), (n, i, j)


def test_explicit_formula_excluded_pairs():
    for n in (3, 4, 5):
        for i, j in ((n - 1, 1), (n, 1), (n, 2)):
            with pytest.raises(ExcludedIndexError):
                explicit_formula(n, i, j)


def test_explicit_formula_matches_matrix_everywhere_else():
    for n in (3, 4, 5):
        matrix = matrix_for(n)
        excluded = {(n - 1, 1), (n, 1), (n, 2)}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if (i, j) in excluded:
                    continue
                assert explicit_formula(n, i, j) == matrix.entry(i, j), (n, i, j)


def test_conjecture2_verifier():
    for n in range(3, 8):
        assert verify_conjecture2(n).passed


def test_conjecture2_verifier_rejects_orders_below_3():
    # the formula is stated for n >= 3; an order-2 array must not pass vacuously
    with pytest.raises(ValidationError, match="^order must be at least 3, got 2$"):
        verify_conjecture2(2)


def test_drefined_coefficients_match_counts():
    for n in (4, 5):
        expansion = drefined_F(n, 3)
        for indices in itertools.combinations(range(1, n + 1), 3):
            assert expansion.coefficient(indices) == refined_count(n, indices)


def test_conjecture3_and_4():
    for n in (4, 5):
        assert verify_conjecture3(n, 3).passed
        assert verify_conjecture4(n, 3).passed


def test_conjecture4_counts_under_its_budget(monkeypatch):
    budget = Budget(table_max_n=10)
    received = []
    real = extension.refined_count

    def count(n, idx, budget=DEFAULT_BUDGET):
        received.append(budget)
        return real(n, idx, budget)

    monkeypatch.setattr(extension, "refined_count", count)
    assert verify_conjecture4(4, 3, budget).passed
    assert received == [budget] * 4


def test_conjecture3_depth2_is_theorem1():
    # at depth 2 the d-index reflection must agree with the established
    # transposed double-sum relation, so both verifiers pass together
    for n in (3, 4, 5):
        assert verify_conjecture3(n, 2).passed
        assert verify_theorem1(matrix_for(n)).passed


def test_conjecture3_budget():
    # depth 3 is held by the row-transfer bound on the specialization's grid
    with pytest.raises(BudgetError):
        verify_conjecture3(15, 3)
    # the walk over the grid of gn_poly(5, 3) costs more than an order-7 sweep
    with pytest.raises(BudgetError, match="order-7 sweep"):
        verify_conjecture3(5, 3, Budget(table_max_n=7))
    assert verify_conjecture3(5, 3, Budget(table_max_n=8)).passed


def test_triangular_system():
    for n in range(3, 7):
        report = verify_triangular_system(n)
        assert report.passed, report.witnesses


def test_triangular_system_from_suffix_sums_matches_the_loop_oracle():
    # every sum of entries read from suffix sums gives the witnesses of the
    # sums taken inside each check, in the same order, passing or not
    rng = random.Random(2009)
    for n in range(3, 17):
        matrix = extend_matrix(build_table(n, 2))
        report = verify_triangular_system(n, matrix)
        assert report.passed
        assert list(report.witnesses) == triangular_system_witnesses(matrix) == []
        for _ in range(3):
            rows = [list(row) for row in matrix.rows]
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(n), rng.randrange(n)
                rows[i][j] += rng.choice((-1, 1))
            corrupted = ExtendedMatrix(n, tuple(map(tuple, rows)))
            witnesses = triangular_system_witnesses(corrupted)
            assert witnesses
            assert verify_triangular_system(n, corrupted).witnesses == tuple(witnesses)


def test_triangular_system_passes_any_table():
    # the six-term equations follow from the extension alone, so a table of
    # random counts passes them while the reflection system rejects it
    rng = random.Random(3)
    for n in range(3, 9):
        pairs = itertools.combinations(range(1, n + 1), 2)
        table = RefinedTable(n, 2, {pair: rng.randrange(1, 1000) for pair in pairs})
        matrix = extend_matrix(table)
        assert verify_triangular_system(n, matrix).passed
        assert not verify_theorem1(matrix).passed


@pytest.mark.parametrize(
    "verify, n",
    [
        (verify_triangular_system, 3),
        (verify_conjecture2, 5),
        (verify_conjecture2, 3),
        (verify_zw_chain, 5),
        (verify_zw_chain, 3),
    ],
    ids=["triangular-system-3", "conj2-5", "conj2-3", "zw-chain-5", "zw-chain-3"],
)
def test_a_verifier_refuses_an_array_of_another_order(verify, n):
    # a correct order-4 array is no evidence about order n: not a FAIL, not a raw error
    with pytest.raises(ValidationError) as excinfo:
        verify(n, matrix_for(4))
    assert str(excinfo.value) == f"an array of order {n} is required, got order 4"
    assert verify(4, matrix_for(4)).passed
    # the order is a size like any other, so a float is refused before it is compared
    with pytest.raises(ValidationError, match="^order must be an integer, got 4.0$"):
        verify(4.0, matrix_for(4))


def test_extended_matrix_checks_its_order():
    with pytest.raises(ValidationError, match="^order must be positive, got 0$"):
        ExtendedMatrix(0, ())
    with pytest.raises(ValidationError, match="^order must be an integer, got 1.0$"):
        ExtendedMatrix(1.0, ((1,),))
