"""The kernel fault matrix: which claims catch a fault in each kernel.

Each fault is one named corruption of a kernel, installed as a monkeypatch.
Every claim then runs as `verify CLAIM --n max(lo, 4)..min(hi, 6)` over its
default orders lo..hi, from cold memos, and FAULTS records which claims exit
1 (a failed check) and which exit 2 (an error) under it; the others pass.
The table is data: a change of route that makes a claim compare a route
with itself shows as a changed row.  Every fault is caught by some claim.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import asmref
import asmref.claims as claims
import asmref.cli as cli
from asmref import extension, polynomials, triangles
from asmref.claims import CLAIMS
from asmref.documents import TableCache, table_document
from asmref.polynomials import BinomBasisExpansion
from asmref.triangles import RefinedTable


def sweep(monkeypatch, tmp_path):
    """The column sweep counts the subset {1, 3} one too large."""
    real = triangles._column_sweep

    def column_sweep(n):
        counts = real(n)
        counts[2 | 8] += 1
        return counts

    monkeypatch.setattr(triangles, "_column_sweep", column_sweep)


def transfer(monkeypatch, tmp_path):
    """The row transfer counts the first row of every grid of more than one row one too large."""
    real = triangles._row_transfer

    def row_transfer(grid):
        counts = real(grid)
        if len(counts) > 1:
            counts[0] += 1
        return counts

    monkeypatch.setattr(triangles, "_row_transfer", row_transfer)


def solve(monkeypatch, tmp_path):
    """The integer solve reports every rank one short, so conj1's certificate fails too."""
    real = extension.solve_integer_system

    def solve_integer_system(matrix, rhs):
        result = real(matrix, rhs)
        return replace(result, rank=result.rank - 1)

    monkeypatch.setattr(extension, "solve_integer_system", solve_integer_system)


def refined_formula(monkeypatch, tmp_path):
    """The product formula of the singly refined count at k = 2 is one too large."""
    real = extension.refined_asm_count
    for module in (extension, claims):
        monkeypatch.setattr(module, "refined_asm_count", lambda n, k: real(n, k) + (k == 2))


def total_formula(monkeypatch, tmp_path):
    """The product formula of the total count at order 3 is one too large."""
    real = extension.total_asm_count
    for module in (extension, claims):
        monkeypatch.setattr(module, "total_asm_count", lambda n: real(n) + (n == 3))


def extension_entry(monkeypatch, tmp_path):
    """extend_matrix has entry (n, 1) one too large."""
    real = extension.extend_matrix

    def extend_matrix(table):
        rows = [list(row) for row in real(table).rows]
        rows[-1][0] += 1
        return extension.ExtendedMatrix(table.n, tuple(map(tuple, rows)))

    monkeypatch.setattr(extension, "extend_matrix", extend_matrix)


def conj2_formula(monkeypatch, tmp_path):
    """conj2's formula entry (2, 3) is off by its harmonic scale."""
    real = extension._formula_entry

    def formula_entry(n, i, j, scale, h):
        return real(n, i, j, scale, h) + (scale if (i, j) == (2, 3) else 0)

    monkeypatch.setattr(extension, "_formula_entry", formula_entry)


def expansion(monkeypatch, tmp_path):
    """The binomial-basis expansion has coefficient 0 one too large."""
    real = extension.expand_in_binomial_basis

    def expand(poly):
        result = real(poly)
        coeffs = (result.coeffs[0] + 1,) + result.coeffs[1:]
        return BinomBasisExpansion(result.n, result.d, coeffs)

    monkeypatch.setattr(extension, "expand_in_binomial_basis", expand)


def tensor_pass(monkeypatch, tmp_path):
    """The axis-0 map of every tensor pass returns its first slab one too large, entry by entry."""
    real = polynomials.apply_axes

    def apply_axes(flat, k, fns):
        first = fns[0]

        def shifted(slabs):
            slabs = first(slabs)
            return [[v + 1 for v in slabs[0]]] + list(slabs[1:])

        return real(flat, k, [shifted] + list(fns[1:]))

    for module in (polynomials, extension):
        monkeypatch.setattr(module, "apply_axes", apply_axes)


def cached_table(monkeypatch, tmp_path):
    """The cached depth-2 tables of orders 4..6 have count (2, 3) one too large, re-signed."""
    cache = TableCache(tmp_path)
    for n in range(4, 7):
        entries = dict(extension.refined_table(n, 2).entries)
        entries[(2, 3)] += 1
        cache.store(table_document(RefinedTable(n, 2, entries)))
    return ["--cache-dir", str(tmp_path)]


#: fault -> (claims that exit 1, claims that exit 2); every other claim passes
FAULTS = {
    sweep: (
        {"conj1", "conj2", "conj4", "ilse", "special-values", "theorem1", "theorem2",
         "theorem4", "zw-chain"},
        set(),
    ),
    transfer: ({"alpha-identities", "conj3", "conj4", "gn-reflection", "theorem4"}, set()),
    solve: ({"conj1"}, set()),
    refined_formula: ({"conj1", "product-formulas", "special-values"}, set()),
    total_formula: ({"conj1", "conj2", "ilse", "theorem2", "zw-chain"}, set()),
    extension_entry: (
        {"conj1", "ilse", "special-values", "theorem1", "theorem4", "triangular-system",
         "zw-chain"},
        set(),
    ),
    conj2_formula: ({"conj2"}, set()),
    expansion: ({"conj3", "theorem4"}, set()),
    tensor_pass: (
        {"alpha-identities", "conj3", "conj4", "gn-reflection", "theorem1", "theorem4"},
        set(),
    ),
    cached_table: (
        {"conj1", "conj2", "ilse", "theorem1", "theorem2", "theorem4", "zw-chain"},
        set(),
    ),
}


def test_every_fault_is_caught_by_some_claim():
    for failing, erring in FAULTS.values():
        assert failing | erring
        assert not failing & erring
        assert failing | erring <= set(CLAIMS)


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.__name__)
def test_fault_matrix(fault, monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("ASMREF_CACHE", raising=False)
    extra = fault(monkeypatch, tmp_path) or []
    codes = {}
    try:
        for name, claim in CLAIMS.items():
            lo, hi = claim.orders
            asmref.clear_caches()
            codes[name] = cli.main(["verify", name, "--n", f"{max(lo, 4)}..{min(hi, 6)}"] + extra)
    finally:
        asmref.clear_caches()
    capsys.readouterr()
    failing, erring = FAULTS[fault]
    expected = {name: 1 if name in failing else 2 if name in erring else 0 for name in CLAIMS}
    assert codes == expected
