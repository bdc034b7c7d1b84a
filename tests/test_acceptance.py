"""Acceptance gate: every shipped claim at full scale, one line per criterion.

Each test prints a single pass/fail line (visible with pytest -s or -rA) and
asserts both the mathematical outcome and its wall-clock limit.  Criteria are
numbered; the descriptions state exactly what was checked.  A last test runs
every claim of the registry at the lowest order of its default range, so a
newly registered claim is tested too.
"""

from __future__ import annotations

import itertools
import time

import pytest

import asmref.cli as cli
from asmref import (
    alpha_count,
    asm_to_mt,
    build_table,
    complete_monotone_triangles,
    drefined_F,
    enumerate_asms,
    expand_in_binomial_basis,
    extend_matrix,
    gn_poly,
    mt_to_asm,
    refined_asm_count,
    refined_count,
    solve_sufficiency,
    total_asm_count,
    verify_alpha_identities,
    verify_conjecture2,
    verify_conjecture3,
    verify_conjecture4,
    verify_gn_reflection,
    verify_ilse,
    verify_special_values,
    verify_theorem1,
    verify_theorem2,
    verify_triangular_system,
    verify_zw_chain,
)
from asmref.claims import CLAIMS

from reference_tables import EXTENDED_MATRICES, REFINED_TRIANGLE, TOTALS


def _finish(num: int, description: str, started: float, limit: float, ok: bool):
    elapsed = time.monotonic() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"criterion {num:02d} [{status}] {description} ({elapsed:.2f}s / {limit:.0f}s)")
    assert ok, f"criterion {num:02d} failed: {description}"
    assert elapsed < limit, f"criterion {num:02d} took {elapsed:.2f}s, limit {limit}s"


def test_criterion_01_reference_tables():
    started = time.monotonic()
    ok = True
    for n, row in REFINED_TRIANGLE.items():
        computed = tuple(refined_count(n, (k,)) for k in range(1, n + 1))
        ok = ok and computed == row
    for n, rows in EXTENDED_MATRICES.items():
        ok = ok and extend_matrix(build_table(n, 2)).rows == rows
    _finish(1, "published triangle (orders 1..7) and extended arrays (3..7)", started, 10, ok)


def test_criterion_02_product_formulas():
    started = time.monotonic()
    ok = True
    for n in range(1, 9):
        row = [refined_count(n, (k,)) for k in range(1, n + 1)]
        ok = ok and row == [refined_asm_count(n, k) for k in range(1, n + 1)]
        ok = ok and sum(row) == total_asm_count(n)
        ok = ok and alpha_count(range(1, n + 1)) == total_asm_count(n)
        ok = ok and total_asm_count(n) == TOTALS[n]
    _finish(2, "product formulas vs counted tables, orders 1..8", started, 10, ok)


def test_criterion_03_bijection():
    started = time.monotonic()
    ok = True
    for n in range(1, 6):
        asms = enumerate_asms(n)
        ok = ok and len(asms) == TOTALS[n]
        ok = ok and all(mt_to_asm(asm_to_mt(a)) == a for a in asms)
        image = {asm_to_mt(a) for a in asms}
        ok = ok and image == set(complete_monotone_triangles(n))
    _finish(3, "matrix/triangle bijection, all matrices of orders 1..5", started, 30, ok)


def test_criterion_04_theorem1():
    started = time.monotonic()
    ok = all(
        verify_theorem1(extend_matrix(build_table(n, 2))).passed
        for n in range(3, 13)
    )
    _finish(4, "double-sum transposition relation, orders 3..12", started, 120, ok)


def test_criterion_05_theorem2():
    started = time.monotonic()
    ok = all(
        verify_theorem2(
            extend_matrix(build_table(n, 2)),
            total_asm_count(n - 1),
            total_asm_count(n - 2),
        ).passed
        for n in range(3, 13)
    )
    _finish(5, "near-symmetry with two exceptional cells, orders 3..12", started, 120, ok)


def test_criterion_06_theorem4():
    started = time.monotonic()
    ok = True
    for n in range(3, 9):
        expansion = expand_in_binomial_basis(gn_poly(n, 2))
        matrix = extend_matrix(build_table(n, 2))
        ok = ok and all(
            expansion.coefficient((i, j)) == matrix.entry(i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        )
    _finish(6, "binomial-basis coefficients equal extended entries, orders 3..8", started, 120, ok)


def test_criterion_07_closed_representations():
    started = time.monotonic()
    ok = all(verify_ilse(n).passed for n in range(3, 9))
    ok = ok and all(verify_zw_chain(n).passed for n in range(3, 7))
    _finish(7, "closed representations (direct 3..8, shift-subset 3..6)", started, 120, ok)


def test_criterion_08_determining_system():
    started = time.monotonic()
    ok = True
    for n in range(3, 11):
        result = solve_sufficiency(n)
        ok = ok and result.unique
        ok = ok and result.solution == extend_matrix(build_table(n, 2))
    _finish(8, "linear system determines the array uniquely, orders 3..10", started, 300, ok)


def test_criterion_09_explicit_formula():
    started = time.monotonic()
    ok = all(verify_conjecture2(n).passed for n in range(3, 13))
    _finish(9, "explicit entry formula off the excluded cells, orders 3..12", started, 120, ok)


def test_criterion_10_triple_refinement():
    started = time.monotonic()
    ok = all(verify_conjecture3(n, 3).passed for n in range(4, 7))
    ok = ok and all(verify_conjecture4(n, 3).passed for n in range(4, 7))
    _finish(10, "depth-3 reflection and coefficient interpretation, orders 4..6", started, 600, ok)


def test_criterion_11_polynomial_identities():
    started = time.monotonic()
    ok = True
    for n in range(1, 6):
        reports = verify_alpha_identities(n, num_points=20)
        ok = ok and all(r.passed for r in reports)
    for n, d in ((4, 1), (5, 1), (4, 2), (5, 2)):
        ok = ok and all(r.passed for r in verify_gn_reflection(n, d, num_points=20))
    _finish(11, "polynomial identity suite at 20 seeded rational points, orders 1..5", started, 300, ok)


def test_criterion_12_structural_identities():
    started = time.monotonic()
    ok = True
    for n in range(3, 13):
        matrix = extend_matrix(build_table(n, 2))
        ok = ok and verify_special_values(matrix).passed
        ok = ok and verify_triangular_system(n, matrix).passed
    _finish(12, "boundary values and triangular-system identities, orders 3..12", started, 60, ok)


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_every_registered_claim_passes_at_its_lowest_order(name, monkeypatch, capsys):
    monkeypatch.delenv("ASMREF_CACHE", raising=False)
    lo = CLAIMS[name].orders[0]
    code = cli.main(["verify", name, "--n", str(lo)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.splitlines()[-1] == f"{name}: PASS ({lo}..{lo})"
