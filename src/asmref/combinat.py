"""Exact binomial, harmonic, and product-formula arithmetic.

Integers are Python ints and rationals Fractions; binom allows a negative n.
The ASM counts divide exactly in ints: A(m+1) = A(m) (3m+1)! m!/((2m)! (2m+1)!)
from A(0) = 1, and A(n, k) = A(n) C(n+k-2, k-1) C(2n-k-1, n-k)/C(3n-2, n-1).
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


def int_text(value) -> str:
    """str(value), but an int past 8192 bits, whose digits str() may refuse, by its bit length."""
    bits = value.bit_length() if isinstance(value, int) else 0
    return str(value) if bits <= 8192 else f"<{bits}-bit integer>"


def ints_text(values) -> str:
    """str(values), each int entry of a tuple or a list named by int_text and any other by repr."""
    if type(values) not in (tuple, list):
        return str(values)
    entries = ", ".join(int_text(v) if type(v) is int else repr(v) for v in values)
    if type(values) is list:
        return f"[{entries}]"
    return f"({entries},)" if len(values) == 1 else f"({entries})"


def as_size(value, what: str, low: int = 1, high: int | None = None) -> int:
    """value as an int in low..high, or at least low when high is None; else ValidationError."""
    try:
        size = as_int(value)
    except ValidationError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None
    if high is not None and not low <= size <= high:
        raise ValidationError(f"{what} must lie in {low}..{high}, got {int_text(size)}")
    if size < low:
        bound = {0: "nonnegative", 1: "positive"}.get(low, f"at least {low}")
        raise ValidationError(f"{what} must be {bound}, got {int_text(size)}")
    return size


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


def _exact_quotient(p: int, q: int, what: str) -> int:
    """p / q, which must be an int; else NonIntegralError names what and p/q in lowest terms."""
    quotient, remainder = divmod(p, q)
    if remainder:
        raise NonIntegralError(f"{what} evaluated to the non-integer {Fraction(p, q)}")
    return quotient


@lru_cache(maxsize=None, typed=True)
def total_asm_count(n: int) -> int:
    """Number of alternating sign matrices of order n, by the ratio of consecutive totals."""
    value = 1
    for m in range(as_size(n, "order", 0)):
        top = value * math.perm(3 * m + 1, m)  # (3m+1)!/(2m+1)!; perm(2m, m) is (2m)!/m!
        value = _exact_quotient(top, math.perm(2 * m, m), f"total count at n={m + 1}")
    return value


@lru_cache(maxsize=None, typed=True)
def refined_asm_count(n: int, k: int) -> int:
    """Number of order-n ASMs whose first row has its 1 in column k: the total times binomials."""
    n = as_size(n, "order")
    k = as_size(k, "column index", 1, n)
    share = total_asm_count(n) * math.comb(n + k - 2, k - 1) * math.comb(2 * n - k - 1, n - k)
    return _exact_quotient(share, math.comb(3 * n - 2, n - 1), f"refined count at n={n}, k={k}")
