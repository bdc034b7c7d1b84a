"""The registry of checkable claims and the table provider they share.

Each claim checks one order n at a time and returns VerificationReports; a
mathematical failure is a failing report with its witnesses, never an
exception.  Registry entries call their verifiers through this module's
global names, looked up at call time, so a verifier replaced here (by a test
or a tracer) is the one that runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .combinat import as_size, refined_asm_count, total_asm_count
from .documents import TableCache, table_document
from .errors import NonIntegralError, ValidationError
from .extension import (
    ExtendedMatrix,
    drefined_F,
    entry_cases,
    extend_matrix,
    last_column,
    solve_sufficiency,
    verify_conjecture2,
    verify_conjecture3,
    verify_conjecture4,
    verify_ilse,
    verify_special_values,
    verify_theorem1,
    verify_theorem2,
    verify_triangular_system,
    verify_zw_chain,
)
from .polynomials import verify_alpha_identities, verify_gn_reflection
from .reports import VerificationReport
from .triangles import (
    RefinedTable,
    alpha_count,
    asm_to_mt,
    build_table,
    complete_monotone_triangles,
    mt_to_asm,
    refined_count,
)


def refined_table(n: int, d: int, cache: TableCache | None = None) -> RefinedTable:
    """The depth-d table of order n, read from the cache or built and stored there.

    The cache returns only files whose entries match their stored digest.  A
    cached table is also rejected when it is not a valid table (its keys are
    not the d-subsets of 1..n, or a count is negative) or when its cells with
    a product formula disagree with it: the d=1 row, and at d=2 the last
    column, whose entry (i, n) is refined_asm_count(n - 1, i).  A rejected
    table is rebuilt and overwritten.
    """
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
    table = build_table(n, d)
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
    """The extended square array of order n, from the cached depth-2 table."""
    return extend_matrix(refined_table(n, 2, cache))


def verify_bijection(n: int) -> VerificationReport:
    """Each listed triangle t round-trips: asm_to_mt(mt_to_asm(t)) is t.

    So the matrices map back onto the listed triangles, and as validated Asms,
    distinct and total_asm_count(n) in number, they are all the ASMs.
    """
    asms, cases = [], []
    for k, t in enumerate(complete_monotone_triangles(n), 1):
        a = mt_to_asm(t)
        asms.append(a)
        cases.append(((n, k), asm_to_mt(a).rows, t.rows))
    cases.append(((n,), len(asms), total_asm_count(n)))
    cases.append(((n,), len(set(asms)), len(asms)))
    return VerificationReport.from_cases(
        "bijection", f"n={n}, {len(asms)} matrices round-tripped", cases
    )


def verify_product_formulas(n: int) -> VerificationReport:
    """The counted singly refined row and total equal the product formulas."""
    n = as_size(n, "order")
    counted_row = [refined_count(n, (k,)) for k in range(1, n + 1)]
    total = total_asm_count(n)
    cases = [((n, k), count, refined_asm_count(n, k)) for k, count in enumerate(counted_row, 1)]
    cases.append(((n,), sum(counted_row), total))
    # the row transfer counts the staircase apart from the sweep behind the row
    cases.append(((n,), alpha_count(range(1, n + 1)), total))
    return VerificationReport.from_cases(
        "product-formulas", f"n={n}, row of {n} counts plus total", cases
    )


def verify_theorem4(n: int, cache: TableCache | None = None) -> VerificationReport:
    """Binomial-basis coefficients of the depth-2 specialization equal the array."""
    expansion = drefined_F(n, 2)
    cases = entry_cases(extended_matrix(n, cache), lambda i, j: expansion.coefficient((i, j)))
    return VerificationReport.from_cases("theorem4", f"n={n}, all {n * n} coefficients", cases)


def verify_conjecture1(n: int, cache: TableCache | None = None) -> VerificationReport:
    """The assembled system has full rank and its solution is the extended array."""
    checked = f"n={n}, rank of {n * n} unknowns plus solution comparison"
    try:
        result = solve_sufficiency(n)
    except NonIntegralError as exc:
        cases = [((n,), str(exc), "an integer")]
    else:
        if result.unique:
            cases = entry_cases(extended_matrix(n, cache), result.solution.entry)
        else:
            cases = [((n,), f"rank {result.rank}", result.num_unknowns)]
    return VerificationReport.from_cases("conj1", checked, cases)


@dataclass(frozen=True)
class Claim:
    """One claim: its default orders, its default depth and its check of one order.

    depth maps an order to the claim's default depth, the d that run takes
    when none is given; it is None when the claim takes no depth.
    """

    name: str
    orders: tuple[int, int]
    run: Callable[[int, int | None, int, TableCache | None], list[VerificationReport]]
    depth: Callable[[int], int] | None = None


CLAIMS: dict[str, Claim] = {
    claim.name: claim
    for claim in (
        Claim("theorem1", (3, 12), lambda n, d, seed, cache: [
            verify_theorem1(extended_matrix(n, cache))
        ]),
        Claim("theorem2", (3, 12), lambda n, d, seed, cache: [
            verify_theorem2(
                extended_matrix(n, cache), total_asm_count(n - 1), total_asm_count(n - 2)
            )
        ]),
        Claim("theorem4", (3, 8), lambda n, d, seed, cache: [verify_theorem4(n, cache)]),
        Claim("special-values", (3, 12), lambda n, d, seed, cache: [
            verify_special_values(extended_matrix(n, cache))
        ]),
        Claim("ilse", (3, 8), lambda n, d, seed, cache: [
            verify_ilse(n, refined_table(n, 2, cache))
        ]),
        Claim("zw-chain", (3, 6), lambda n, d, seed, cache: [
            verify_zw_chain(n, extended_matrix(n, cache))
        ]),
        Claim("conj1", (3, 10), lambda n, d, seed, cache: [verify_conjecture1(n, cache)]),
        Claim("conj2", (3, 12), lambda n, d, seed, cache: [
            verify_conjecture2(n, extended_matrix(n, cache))
        ]),
        Claim("conj3", (4, 6), lambda n, d, seed, cache: [verify_conjecture3(n, d)],
              depth=lambda n: 3),
        Claim("conj4", (4, 6), lambda n, d, seed, cache: [verify_conjecture4(n, d)],
              depth=lambda n: 3),
        Claim("alpha-identities", (1, 5), lambda n, d, seed, cache: list(
            verify_alpha_identities(n, seed=seed)
        )),
        Claim("gn-reflection", (1, 5), lambda n, d, seed, cache: list(
            verify_gn_reflection(n, d, seed=seed)
        ), depth=lambda n: min(n, 2)),
        Claim("triangular-system", (3, 12), lambda n, d, seed, cache: [
            verify_triangular_system(n, extended_matrix(n, cache))
        ]),
        Claim("bijection", (1, 5), lambda n, d, seed, cache: [verify_bijection(n)]),
        Claim("product-formulas", (1, 8), lambda n, d, seed, cache: [verify_product_formulas(n)]),
    )
}
