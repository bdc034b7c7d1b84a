"""Exception types shared across the package."""

from __future__ import annotations


class AsmrefError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AsmrefError, ValueError):
    """A combinatorial object or an argument violates its invariants."""


class BudgetError(AsmrefError):
    """A computation was rejected because it exceeds the configured size budget."""


class SingularSystemError(AsmrefError):
    """An exact linear solve hit a singular or inconsistent system that should not be."""


class ExcludedIndexError(AsmrefError):
    """The closed-form entry formula was asked for one of its excluded index pairs."""


class NonIntegralError(AsmrefError):
    """A quantity that must be an integer came out with a nontrivial denominator."""


class BFileError(AsmrefError, ValueError):
    """A sequence b-file could not be parsed."""
