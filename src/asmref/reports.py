"""Verification report structures shared by the checking operations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Witness:
    """A failing index tuple or point together with both sides of the equation."""

    indices: tuple
    lhs: object
    rhs: object

    def to_dict(self) -> dict:
        indices = [v if isinstance(v, (int, str)) else str(v) for v in self.indices]
        return {"indices": indices, "lhs": str(self.lhs), "rhs": str(self.rhs)}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one claim over one range."""

    claim: str
    checked: str
    passed: bool
    witnesses: tuple[Witness, ...] = ()

    def __post_init__(self):
        if not self.passed and not self.witnesses:
            raise ValueError("a failing report requires at least one witness")

    @classmethod
    def from_witnesses(
        cls, claim: str, checked: str, witnesses: Sequence[Witness]
    ) -> "VerificationReport":
        """The report that passes exactly when there is no witness."""
        return cls(claim, checked, not witnesses, tuple(witnesses))

    @classmethod
    def from_cases(
        cls, claim: str, checked: str, cases: Iterable[tuple[tuple, object, object]]
    ) -> "VerificationReport":
        """The report on a verifier's equations, stated as cases (indices, lhs, rhs).

        Its witnesses are the cases whose two sides differ, in their order.
        """
        return cls.from_witnesses(
            claim, checked, [Witness(*case) for case in cases if case[1] != case[2]]
        )

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "checked": self.checked,
            "passed": self.passed,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }
