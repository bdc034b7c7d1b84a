"""Exact refined enumeration of alternating sign matrices.

Counts alternating sign matrices refined by the positions of the 1s in the
last row, extends the doubly refined table to all index pairs, and verifies
the linear and polynomial identities that govern these numbers, all in exact
integer and rational arithmetic.
"""

from . import errors
from .combinat import binom, binom_at, binom_plus, harmonic, refined_asm_count, total_asm_count
from .config import DEFAULT_BUDGET, DEFAULT_SEED, Budget
from .documents import (
    TOOL_VERSION as __version__,
    OeisReference,
    TableCache,
    TableDocument,
    document_from_entries,
    parse_b_file,
)
from .extension import (
    ExtendedMatrix,
    LinearSystem,
    SufficiencyResult,
    c_coeff,
    drefined_F,
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
from .polynomials import (
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
from .reports import VerificationReport, Witness
from .triangles import (
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


def clear_caches() -> None:
    """Drop the counting and interpolation memos: the column sweeps and the polynomials.

    The three lru_caches of asmref.combinat (harmonic, total_asm_count and
    refined_asm_count) are kept; no answer depends on them.  A timing of a
    cold layer must also call their cache_clear(), or run in a new process.
    """
    from . import polynomials, triangles

    triangles.clear_caches()
    polynomials.clear_caches()


__all__ = [
    "Asm",
    "BinomBasisExpansion",
    "Budget",
    "DEFAULT_BUDGET",
    "DEFAULT_SEED",
    "ExtendedMatrix",
    "LinearSystem",
    "MonotoneTriangle",
    "OeisReference",
    "PolyMulti",
    "RefinedTable",
    "SufficiencyResult",
    "TableCache",
    "TableDocument",
    "VerificationReport",
    "Witness",
    "alpha_count",
    "alpha_count_grid",
    "alpha_eval",
    "alpha_polynomial",
    "asm_to_mt",
    "binom",
    "binom_at",
    "binom_plus",
    "build_table",
    "c_coeff",
    "clear_caches",
    "complete_monotone_triangles",
    "document_from_entries",
    "drefined_F",
    "enumerate_asms",
    "errors",
    "expand_in_binomial_basis",
    "explicit_formula",
    "extend_matrix",
    "entry_closed_form",
    "gn_poly",
    "harmonic",
    "mt_to_asm",
    "parse_b_file",
    "refined_asm_count",
    "refined_count",
    "sample_rational_points",
    "solve_sufficiency",
    "sufficiency_system",
    "total_asm_count",
    "verify_alpha_identities",
    "verify_conjecture2",
    "verify_conjecture3",
    "verify_conjecture4",
    "verify_gn_reflection",
    "verify_ilse",
    "verify_special_values",
    "verify_theorem1",
    "verify_theorem2",
    "verify_triangular_system",
    "verify_zw_chain",
    "w_value",
    "z_value",
]
