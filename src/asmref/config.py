"""Size budgets and shared defaults.

Budgets are configuration rather than limits baked into the algorithms: every
guarded operation takes a Budget argument, so callers with more patience can
raise the caps without touching library code.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed for the reproducible rational sample points used by the identity checks.
DEFAULT_SEED = 1729


@dataclass(frozen=True)
class Budget:
    """Caps on the exhaustive computations: one cost bound and the enumeration cap.

    table_max_n caps the order of every refined table, cached or not, and
    count: every depth of an order reads one column sweep.  It also caps the
    width of a row with a tie, whose alpha_count sums lookups into the sweep
    of that width, and the order of conj1's linear system, whose solution
    is the table's array when a run-time certificate of its rank holds and
    that array satisfies every row; otherwise the sparse solve of all n^2
    unknowns runs.
    Every row transfer has one cost estimate, of its whole walk over a grid
    of n entries: the sum over i of its column steps with i entries placed
    times n * binom(n, i).  It must stay within
    table_max_n^2 * 2^table_max_n, the nominal cell updates of an unpruned
    sweep of the largest order: n cells on 2^n states in each of n rows.
    The sweep carries each row only to the subsets that contain column 1
    and makes about half that many; the bound keeps the unpruned figure, so
    the prune moved no admitted (n, d).  That bound is the one cap on the
    sample grids of gn_poly, and so of alpha_polynomial, which is
    gn_poly(n, n).  The estimate tracks time: at the default of 16, one
    bound's worth of block walk took 0.2-0.7 s on the gn grids (13, 4),
    (9, 5), (7, 6), (16, 3) and (19, 1..3), best of 3 (Python 3.11 on one
    core of a shared Xeon host).  At that
    default it admits alpha_polynomial up to order 6 and gn_poly at depths
    1..6 up to orders 19, 19, 19, 13, 9 and 7.

    enumeration_max_n caps the explicit lists of matrices and triangles,
    whose memory grows with the count itself rather than with a sweep.
    """

    enumeration_max_n: int = 6
    table_max_n: int = 16


DEFAULT_BUDGET = Budget()
