"""Exact binomial, harmonic, and product-formula arithmetic.

Everything here is exact: integers are Python ints, rationals are
fractions.Fraction. The binomial coefficient is the falling-factorial version
that stays defined for a negative upper argument.
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import NonIntegralError, ValidationError


def as_int(value, what: str = "entries") -> int:
    """value as an int: an int or a rational equal to one; else ValidationError names what."""
    try:
        return operator.index(value)
    except TypeError:
        if isinstance(value, numbers.Rational) and value.denominator == 1:
            return int(value)
        raise ValidationError(f"{what} must be integers, got {value!r}") from None


def binom(n: int, k: int) -> int:
    """n(n-1)...(n-k+1) / k! for k >= 0, and 0 for k < 0.

    For n < 0 that is (-1)^k * binom(k - n - 1, k), by negating every factor.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


def binom_plus(n: int, k: int) -> int:
    """binom(n, k) for n >= 0, and 0 for n < 0."""
    return binom(n, k) if n >= 0 else 0


def binom_at(x, k: int) -> Fraction:
    """The degree-k binomial polynomial x(x-1)...(x-k+1)/k! at a rational point."""
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for r in range(k):
        num *= Fraction(x) - r
    return num / math.factorial(k)


@lru_cache(maxsize=None)
def harmonic(m: int) -> Fraction:
    """Sum of 1/d for d = 1..m, and 0 for m < 1: one integer sum over lcm(1..m)."""
    denominator = math.lcm(*range(1, m + 1))
    return Fraction(sum(denominator // d for d in range(1, m + 1)), denominator)


def _integral(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise NonIntegralError(f"{what} evaluated to the non-integer {value}")
    return value.numerator


@lru_cache(maxsize=None)
def total_asm_count(n: int) -> int:
    """Number of alternating sign matrices of order n, by the product formula."""
    if n < 0:
        raise ValidationError(f"order must be nonnegative, got {n}")
    value = Fraction(1)
    for j in range(n):
        value *= Fraction(math.factorial(3 * j + 1), math.factorial(n + j))
    return _integral(value, f"total count at n={n}")


@lru_cache(maxsize=None)
def refined_asm_count(n: int, k: int) -> int:
    """Number of order-n ASMs whose first row has its 1 in column k (product formula)."""
    if n < 1:
        raise ValidationError(f"order must be positive, got {n}")
    if not 1 <= k <= n:
        raise ValidationError(f"column index must lie in 1..{n}, got {k}")
    value = Fraction(binom(n + k - 2, k - 1))
    value *= Fraction(math.factorial(2 * n - k - 1), math.factorial(n - k))
    for j in range(n - 1):
        value *= Fraction(math.factorial(3 * j + 1), math.factorial(n + j))
    return _integral(value, f"refined count at n={n}, k={k}")
