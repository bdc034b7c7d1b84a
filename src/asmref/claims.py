"""The registry of checkable claims.

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
from .documents import TableCache
from .extension import (
    drefined_F,
    entry_cases,
    extended_matrix,
    refined_table,
    verify_conjecture1,
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
    alpha_count,
    asm_to_mt,
    complete_monotone_triangles,
    mt_to_asm,
    refined_count,
)


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
    matrix = extended_matrix(n, cache)  # first, so the table cap holds before the walk
    expansion = drefined_F(n, 2)
    cases = entry_cases(matrix, lambda i, j: expansion.coefficient((i, j)))
    return VerificationReport.from_cases("theorem4", f"n={n}, all {n * n} coefficients", cases)


@dataclass(frozen=True)
class Claim:
    """One claim: its default orders, its default depth and its check of one order.

    depth is the claim's default depth, or None when the claim takes no depth.
    verify runs order n at d = min(n, depth) when no d is given, and at d = 1
    below order 1, where the order's own check refuses it.  run checks the
    claim's lowest order before it reads a table or an expansion.
    """

    name: str
    orders: tuple[int, int]
    run: Callable[[int, int | None, int, TableCache | None], list[VerificationReport]]
    depth: int | None = None


CLAIMS: dict[str, Claim] = {
    claim.name: claim
    for claim in (
        Claim("theorem1", (3, 12), lambda n, d, seed, cache: [
            verify_theorem1(extended_matrix(n, cache))
        ]),
        Claim("theorem2", (3, 12), lambda n, d, seed, cache: [verify_theorem2(
            extended_matrix(as_size(n, "order", 3), cache),
            total_asm_count(n - 1), total_asm_count(n - 2),
        )]),
        Claim("theorem4", (3, 8), lambda n, d, seed, cache: [verify_theorem4(n, cache)]),
        Claim("special-values", (3, 12), lambda n, d, seed, cache: [
            verify_special_values(extended_matrix(n, cache))
        ]),
        Claim("ilse", (3, 8), lambda n, d, seed, cache: [
            # the depth is not the caller's, so the order is checked first
            verify_ilse(n, refined_table(as_size(n, "order", 2), 2, cache))
        ]),
        Claim("zw-chain", (3, 6), lambda n, d, seed, cache: [
            verify_zw_chain(n, extended_matrix(n, cache))
        ]),
        Claim("conj1", (3, 10), lambda n, d, seed, cache: [verify_conjecture1(n, cache)]),
        Claim("conj2", (3, 12), lambda n, d, seed, cache: [
            verify_conjecture2(n, extended_matrix(as_size(n, "order", 3), cache))
        ]),
        Claim("conj3", (4, 6), lambda n, d, seed, cache: [
            verify_conjecture3(as_size(n, "order", 2), d)
        ], depth=3),
        Claim("conj4", (4, 6), lambda n, d, seed, cache: [verify_conjecture4(n, d, cache=cache)],
              depth=3),
        Claim("alpha-identities", (1, 5), lambda n, d, seed, cache: list(
            verify_alpha_identities(n, seed=seed)
        )),
        Claim("gn-reflection", (1, 5), lambda n, d, seed, cache: list(
            verify_gn_reflection(n, d, seed=seed)
        ), depth=2),
        Claim("triangular-system", (3, 12), lambda n, d, seed, cache: [
            verify_triangular_system(n, extended_matrix(n, cache))
        ]),
        Claim("bijection", (1, 5), lambda n, d, seed, cache: [verify_bijection(n)]),
        Claim("product-formulas", (1, 8), lambda n, d, seed, cache: [verify_product_formulas(n)]),
    )
}
