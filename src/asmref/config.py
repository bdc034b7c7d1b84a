"""Size budgets and shared defaults.

Budgets are configuration rather than limits baked into the algorithms: every
guarded operation takes a Budget argument, so callers with more patience can
raise the caps without touching library code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

#: Seed for the reproducible rational sample points used by the identity checks.
DEFAULT_SEED = 1729


def _default_gn_caps() -> Mapping[int, int]:
    return MappingProxyType({1: 12, 2: 10, 3: 7})


@dataclass(frozen=True)
class Budget:
    """Caps on the exhaustive computations, keyed by refinement depth where relevant.

    table_max_n caps the order of every refined table and count: all depths
    of an order are lookups into the same column sweep.  It also caps the
    width of a row with a tie, whose alpha_count sums lookups into the sweep
    of that width, and the row transfer behind alpha_count of a strictly
    increasing row at the cost of the largest sweep.
    """

    enumeration_max_n: int = 6
    table_max_n: int = 16
    alpha_poly_max_n: int = 6
    gn_poly_max_n: Mapping[int, int] = field(default_factory=_default_gn_caps)
    identity_max_n: int = 5
    sufficiency_max_n: int = 14


DEFAULT_BUDGET = Budget()
