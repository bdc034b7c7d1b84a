"""Exact polynomial machinery for the triangle-counting function.

The counting function of alpha_count extends to a polynomial of degree n - 1
in each bottom-row entry.  This module interpolates that polynomial from exact
counts, builds the specializations obtained by perturbing only the last few
entries of the staircase row, expands those specializations in a shifted
binomial product basis, and checks the operator and symmetry identities the
counting function is known to satisfy.

Every sample grid is a tensor product of runs of consecutive integers and
every sample is an integer count, so each polynomial takes integer values at
integer points.  Its coefficients in the basis prod binom(x_r - a_r, m_r),
with a_r the first node on axis r, are the integer forward differences of
the samples; that is the one polynomial representation.  It is evaluated at
rational points by contracting each axis with one integer vector of scaled
basis values.  The coefficients are packed once per polynomial into the
fixed-width signed slots of k big integers, so contracting an axis is k
big-integer products and k - 1 splits of the result, each exact because a
slot is two bits wider than a bound on every partial value; there are no
floats and no modular step, so every evaluation is exact.  The forward
differences, the change to the shifted binomial basis below and the
reflection of asmref.extension are each one k x k integer map on every axis;
apply_axes hands each map the k slabs of its axis, one list per index on
that axis, which it combines by whole-list maps, with no Python call per
fiber.  The identity checks evaluate the polynomial at integer shifts of a
point together, as one stencil that shares its partial reductions, and
compare two values at unrelated points by their cross-multiplied numerators;
each suite of identities is a table read by one report builder, and the
six-term exchange of neighbouring entries is stated once for both suites.
gn_poly is the one builder: a specialization samples a staircase prefix
followed by a block of n consecutive columns per variable and counts all of
its rows in one row transfer, and the counting polynomial is the
specialization of every entry, gn_poly(n, n), read at the entries.
The shifted binomial basis of the expansion is a unit-triangular change of
basis from the coefficients, whose shape gives the basis size and the number
of variables.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .combinat import as_int, as_size, binom, int_text
from .config import DEFAULT_BUDGET, DEFAULT_SEED, Budget
from .errors import ValidationError
from .reports import VerificationReport
from .triangles import alpha_count_grid, checked_grid


def _forward_differences(slabs: list[list[int]]) -> list[list[int]]:
    """D^m f(a), m < k, of the slabs at a..a+k-1: the coefficients in binom(x - a, m).

    Pass i leaves the i-th differences in slabs i.., from the last slab down.
    """
    k = len(slabs)
    for i in range(1, k):
        for j in range(k - 1, i - 1, -1):
            slabs[j] = list(map(operator.sub, slabs[j], slabs[j - 1]))
    return slabs


def apply_axes(flat: Sequence, k: int, fns: Sequence[Callable]) -> list:
    """Apply fns[r] along axis r of a row-major tensor of shape (k,) * len(fns), r = 0, 1, ...

    Every map takes the k slabs of its axis as a list of equal-length lists,
    slab j holding the entries at index j on that axis in row-major order of
    the other axes, and must return k new slabs of that length; it may
    replace the slabs of its list in place.  The slabs of the leading axis
    are contiguous slices.  Once mapped, that axis moves to the end by k
    extended-slice assignments, so the next axis leads, and after the last
    map every axis is back in place.  The input is not changed.
    """
    out = list(flat)
    for fn in fns:
        size = len(out) // k
        slabs = [out[j * size : (j + 1) * size] for j in range(k)]
        del out  # so that a map that replaces a slab frees its old entries
        slabs = fn(slabs)
        out = [None] * (k * size)
        for j, slab in enumerate(slabs):
            out[j::k] = slab
    return out


def _check_point(point: Sequence, num_vars: int) -> None:
    """Raise unless the point has num_vars coordinates, each an int or a Fraction."""
    if len(point) != num_vars:
        raise ValidationError(f"point must have {num_vars} coordinates, got {len(point)}")
    for x in point:  # the exact types first: the ABC check is the slow one
        if type(x) is not int and type(x) is not Fraction and not isinstance(x, numbers.Rational):
            raise ValidationError(f"coordinates must be rational, got {x!r}")


@dataclass(frozen=True)
class PolyMulti:
    """Dense multivariate polynomial with integer coefficients in a binomial basis.

    coeffs[m] is the coefficient of prod_r binom(x_r - origins[r], m_r) for the
    multi-index m, each m_r in 0..degree_bound.  coeffs is a row-major flat
    tuple of shape (degree_bound + 1,) ** num_vars, with the last variable
    fastest.  Integer coefficients in this basis are exactly the polynomials
    that take integer values at integer points.
    """

    num_vars: int
    degree_bound: int
    origins: tuple[int, ...]
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValidationError("polynomial needs at least one variable")
        if len(self.origins) != self.num_vars:
            raise ValidationError("one origin per variable is required")
        as_size(self.degree_bound, "degree bound", 0)
        size = (self.degree_bound + 1) ** self.num_vars
        if len(self.coeffs) != size:
            raise ValidationError(f"coefficient tensor must have size {size}")
        if not all(type(v) is int for v in itertools.chain(self.origins, self.coeffs)):
            object.__setattr__(self, "origins", tuple(map(as_int, self.origins)))
            object.__setattr__(self, "coeffs", tuple(map(as_int, self.coeffs)))

    @classmethod
    def interpolate(cls, nodes: Sequence[Sequence[int]], values: Sequence) -> "PolyMulti":
        """Interpolate integer samples on the grid of runs of consecutive integers.

        Every node list is an ascending run of one length k; a node or a sample
        may also be a rational equal to an int.  The coefficients are the forward
        differences, axis by axis, each taken on the axis's slabs in place.
        """
        node_tuples = tuple(tuple(as_int(v, "nodes") for v in ns) for ns in nodes)
        if not node_tuples:
            raise ValidationError("at least one variable is required")
        k = len(node_tuples[0])
        num_vars = len(node_tuples)
        for ns in node_tuples:
            if not ns or ns != tuple(range(ns[0], ns[0] + k)):
                raise ValidationError(f"need {k} ascending consecutive nodes, got {ns}")
        flat = values  # a list of ints needs no second list of the tensor's size
        if type(flat) is not list or not all(type(v) is int for v in flat):
            flat = [as_int(v, "samples") for v in values]
        if len(flat) != k**num_vars:
            raise ValidationError(
                f"value tensor must have size {k**num_vars}, got {len(flat)}"
            )
        flat = apply_axes(flat, k, [_forward_differences] * num_vars)
        return cls(num_vars, k - 1, tuple(ns[0] for ns in node_tuples), tuple(flat))

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point: the zero shift of evaluate_shifts."""
        numerators, scale = self.evaluate_shifts(point, [(0,) * self.num_vars])
        return Fraction(numerators[0], scale)

    def evaluate_shifts(
        self, point: Sequence, shifts: Iterable[Sequence[int]]
    ) -> tuple[list[int], int]:
        """Integer numerators of the values at point + s for every integer shift s.

        Returns the numerators in the order of shifts and their one common
        scale.  With x = p/q on an axis of origin a and top = (k-1)! * q^(k-1),
        every distinct step s of that axis gets one integer basis vector
        v = top * binom(z, i), i < k, z = x + s - a, built by
        binom(z, i+1) = binom(z, i) * (z - i)/(i + 1) on the integers q*z - i*q
        and (i + 1)*q; each division is exact, as entry i is
        (k-1)!/i! * q^(k-1-i) times an integer product.  Contracting every axis
        with its vector gives each value over the scale prod (k-1)! * q^(k-1).

        The contraction runs on the coefficients packed by _pack into W-bit
        signed slots of k big integers, the slabs of the last axis: the axis
        is contracted by one sum(map(operator.mul, v, slabs)), a value whose
        slots hold the partial reductions, and k - 1 balanced splits cut that
        value into the k slabs of the next axis.  Axes are reduced from the
        last to the first in one pass over the shifts each, and every distinct
        suffix of the shifts is reduced once: shifts that agree on the axes
        reduced so far share that partial reduction, so the 2^m corners of a
        unit cube cost about 2 * k^m / (1 - 2/k) slot products instead of
        2^m * k^m.  The first axis is left with k one-slot slabs, plain ints.
        A single point takes about 16 us at order 4, 74 us at order 5 and
        0.9 ms at order 6, a half to a quarter of the time of the Python
        multiply-adds this replaced (one process, 2-vCPU Xeon, Python 3.11).

        The splits are exact.  A partial value with axes a.. reduced is a sum
        of coefficients times one entry of each of their vectors, so it is at
        most max |c| * prod over those axes of sum_i |v_i| in absolute value,
        and every such sum is at least its entry top >= 1.  The values that
        sit in slots have at most the axes 1.. reduced, since the first axis
        is reduced last, on plain ints.  So every slot holds at most
        B = max |c| * prod over the axes 1.. of max over steps of
        sum_i |v_i|, and a width W >= B.bit_length() + 2 puts it below
        2^(W-2).  A slab of u slots is then below 2^(W-2) * (1 + 2^W + ... +
        2^(W*(u-1))) < 2^(W*u-1) in absolute value, so adding 2^(W*u-1) to
        each slab of a value makes every slab a field of W*u bits in
        0 .. 2^(W*u) - 1, read off with a mask and a shift and no borrow.
        """
        _check_point(point, self.num_vars)
        shifts = list(map(tuple, shifts))
        for pos, s in enumerate(shifts):
            if len(s) != self.num_vars:
                raise ValidationError(f"shifts must be {self.num_vars} integers, got {s!r}")
            if {*map(type, s)} != {int}:
                shifts[pos] = tuple(as_int(v, "shifts") for v in s)
        k = self.degree_bound + 1
        factorial = math.factorial(k - 1)
        # one basis vector per distinct step of each axis, and B / max |c|, the
        # bound on the partial values that fixes the slot width; the first axis
        # is reduced last, on plain ints, so its vectors take no part in it
        bases, scale, bound = [], 1, 1
        for axis, x in enumerate(point):
            q = x.denominator
            y0 = x.numerator - self.origins[axis] * q
            top = factorial * q ** (k - 1)
            basis, most = {}, 1
            for s in shifts:
                step = s[axis]
                if step not in basis:
                    # top * binom(z, i) for i < k: y = q * (z - i + 1), d = i * q
                    vector = basis[step] = [top]
                    value, y, d = top, y0 + step * q, q
                    for _ in range(1, k):
                        value = value * y // d
                        vector.append(value)
                        y -= q
                        d += q
                    if axis:
                        total = sum(map(abs, vector))
                        if total > most:
                            most = total
            bases.append(basis)
            bound *= most
            scale *= top
        packed = self._packed
        if packed is None or bound > packed[0]:
            packed = self._pack(bound)
        _, _, slabs, levels = packed
        # partial reductions keyed by the shift components of the axes reduced
        # so far, each held as the k slabs of the next axis to reduce
        partial = {(): slabs}
        for axis in range(self.num_vars - 1, -1, -1):
            basis, level, reduced = bases[axis], levels[axis], {}
            for s in shifts:
                head = s[axis:]
                if head not in reduced:
                    value = sum(map(operator.mul, basis[head[0]], partial[head[1:]]))
                    reduced[head] = _split(value, k, level) if axis else value
            partial = reduced
        return [partial[s] for s in shifts], scale

    #: (the largest bound that fits, W, slabs, levels) from _pack; not a
    #: field, so ==, hash, repr and dataclasses.replace ignore it
    _packed = None

    def _pack(self, bound: int) -> tuple:
        """Pack the coefficients in slots that hold partial values up to bound * max |c|.

        The tensor is laid out with its axes reversed, so that the first axis
        runs fastest, and each of its k slabs along the last axis becomes one
        int of W-bit signed slots, slot j holding the slab's j-th coefficient.
        W is B.bit_length() + 2, B = bound * max |c|, rounded up to a multiple
        of 64, so one packed form serves every point of about the same size,
        and a point that needs a wider slot repacks the polynomial wider,
        never narrower.  levels[a], a >= 1, holds for a value reduced down to
        axis a, which holds k slabs of u = k^(a-1) slots, the offset that adds
        half = 2^(W*u-1) to each slab, the slab's width W*u in bits, its mask
        and half; levels[0] is None, as the first axis is never split.
        """
        k, magnitude = self.degree_bound + 1, max(max(map(abs, self.coeffs)), 1)
        width = -(-((magnitude * bound).bit_length() + 2) // 64) * 64
        flat = _reversed_axes(self.coeffs, k)
        size = len(flat) // k
        slabs = [_pack_slots(flat[j * size : (j + 1) * size], width) for j in range(k)]
        levels = [None]
        for axis in range(1, self.num_vars):
            bits = width * k ** (axis - 1)
            half = 1 << (bits - 1)
            offset = int.from_bytes(half.to_bytes(bits // 8, "little") * k, "little")
            levels.append((offset, bits, (1 << bits) - 1, half))
        packed = ((1 << (width - 2)) - 1) // magnitude, width, slabs, levels
        object.__setattr__(self, "_packed", packed)
        return packed


def _reversed_axes(flat: Sequence[int], k: int) -> list[int]:
    """A row-major tensor of shape (k,) * d with its axes in reverse order."""
    if len(flat) <= k:
        return list(flat)
    out = []
    for j in range(k):
        out += _reversed_axes(flat[j::k], k)
    return out


def _pack_slots(values: Sequence[int], width: int) -> int:
    """sum_j values[j] * 2^(width * j), each |values[j]| < 2^(width - 1), width a multiple of 8."""
    nbytes, half = width // 8, 1 << (width - 1)
    data = b"".join([(v + half).to_bytes(nbytes, "little") for v in values])
    ones = half.to_bytes(nbytes, "little") * len(values)
    return int.from_bytes(data, "little") - int.from_bytes(ones, "little")


def _split(value: int, k: int, level: tuple[int, int, int, int]) -> list[int]:
    """The k signed fields of bits bits each of value, for a level (offset, bits, mask, half).

    value + offset holds every field plus half, so each is read off with no borrow.
    """
    offset, bits, mask, half = level
    value += offset
    fields = []
    for _ in range(k - 1):
        fields.append((value & mask) - half)
        value >>= bits
    fields.append(value - half)
    return fields


_gn_poly_cache: dict[tuple[int, int], PolyMulti] = {}


def alpha_polynomial(n: int, budget: Budget = DEFAULT_BUDGET) -> PolyMulti:
    """Interpolate the counting polynomial in all n bottom-row variables.

    This is gn_poly(n, n), the specialization that perturbs every entry,
    read at the entries themselves.  Its samples put entry r + 1 (r 0-based)
    on the block r*n + 1 .. r*n + n; the count is invariant under adding 1
    to every entry, so the same coefficients at origins r*n interpolate the
    block grid r*n .. r*n + n - 1.  A tight budget rejects the grid before
    the cache of gn_poly is read.
    """
    n = as_size(n, "order")
    return replace(gn_poly(n, n, budget), origins=tuple(r * n for r in range(n)))


def alpha_eval(n: int, point: Sequence, budget: Budget = DEFAULT_BUDGET) -> Fraction:
    """The counting polynomial of order n evaluated at an arbitrary rational point.

    gn_poly(n, n)'s origin on axis r is r below alpha_polynomial's: read it at x_r - r.
    """
    n = as_size(n, "order")
    _check_point(point, n)
    return gn_poly(n, n, budget).evaluate([x - r for r, x in enumerate(point)])


def gn_poly(n: int, d: int, budget: Budget = DEFAULT_BUDGET) -> PolyMulti:
    """The counting polynomial with only the last d staircase entries perturbed.

    Variable r (0-based) shifts entry n - d + r + 1 of the reference bottom
    row 1..n and is sampled on the block r*(n-1) .. r*(n-1) + n - 1.  So
    x_r <= x_(r+1), every sample row is strictly increasing, and entry
    n - d + r + 1 runs over its own block of n columns after the staircase
    1..n-d; at d = n that is the grid of alpha_polynomial.  All samples come
    from one row transfer over that grid and are interpolated once, at
    origins r*(n-1).  The budget of that transfer is checked before the cache
    is read.
    """
    n = as_size(n, "order")
    d = as_size(d, "depth", 1, n)
    staircase = [(v,) for v in range(1, n - d + 1)]
    blocks = [range(n - d + 1 + r * n, n - d + 1 + (r + 1) * n) for r in range(d)]
    grid = checked_grid(staircase + blocks, budget)
    key = (n, d)
    cached = _gn_poly_cache.get(key)
    if cached is not None:
        return cached

    nodes = [range(r * (n - 1), r * (n - 1) + n) for r in range(d)]
    poly = PolyMulti.interpolate(nodes, alpha_count_grid(grid, budget))
    _gn_poly_cache[key] = poly
    return poly


@dataclass(frozen=True)
class BinomBasisExpansion:
    """Coefficients of a d-variable polynomial in the shifted binomial basis.

    Basis element (j_1, ..., j_d), all 1-based in 1..n, is the product over
    axes r of binom(x_r + j_r + r - 2, j_r - 1); coeffs is row-major with the
    last index fastest.  The coefficients are ints: the basis is a
    unit-triangular integer change of basis from the binomial basis of an
    integer PolyMulti.
    """

    n: int
    d: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        as_size(self.n, "order")
        as_size(self.d, "depth")  # d may exceed n: more variables than basis elements per axis
        n, d, size = self.n, self.d, len(self.coeffs)
        # for n >= 2, n**d >= 2**d exceeds a size of fewer than d bits, so such a
        # d is refused without the power, which could fill memory; a count past
        # 8192 bits is named as a power, since str() may refuse its digits
        if n >= 2 and d > size.bit_length() or size != n**d:
            power = n < 2 or d * n.bit_length() <= 8192
            count = n**d if power else f"{int_text(n)}**{int_text(d)}"
            raise ValidationError(f"expected {count} coefficients")
        for pos, c in enumerate(self.coeffs):
            if not isinstance(c, int):
                raise ValidationError(f"coefficient {pos} is not an int: {c!r}")

    def coefficient(self, indices: Sequence[int]) -> int:
        if len(indices) != self.d:
            raise ValidationError(f"need {self.d} indices, got {len(indices)}")
        pos = 0
        for j in indices:
            j = as_int(j, "indices")
            if not 1 <= j <= self.n:
                raise ValidationError(f"indices must lie in 1..{self.n}: {tuple(indices)}")
            pos = pos * self.n + (j - 1)
        return self.coeffs[pos]


def expand_in_binomial_basis(poly: PolyMulti) -> BinomBasisExpansion:
    """Exact expansion of a polynomial in the shifted binomial basis.

    The basis has n = degree_bound + 1 elements on each of the d = num_vars
    axes.  A change of basis from the coefficients in binom(x - o, k),
    k = 0..n-1, axis by axis, where o is the axis origin.  By Vandermonde
    binom(x + m + a, m) = sum_k binom(m + a + o, m - k) * binom(x - o, k) on
    axis a (0-based).  The change of basis is unit upper triangular with
    integer entries, so the coefficients are unique integers and come out by
    back-substitution in ints, one slab at a time from the last, each as one
    chain of lazy maps.
    """
    n = poly.degree_bound + 1

    def back_substitution(shift: int) -> Callable[[list[list[int]]], list[list[int]]]:
        # weights[k] lists binom(m + shift, m - k) for m = k + 1 .. n - 1
        weights = [[binom(m + shift, m - k) for m in range(k + 1, n)] for k in range(n)]

        def solve(slabs: list[list[int]]) -> list[list[int]]:
            for k in range(n - 2, -1, -1):
                acc = slabs[k]
                for slab, w in zip(slabs[k + 1 :], weights[k]):
                    acc = map(operator.sub, acc, map(operator.mul, slab, itertools.repeat(w)))
                slabs[k] = list(acc)
            return slabs

        return solve

    fns = [back_substitution(axis + origin) for axis, origin in enumerate(poly.origins)]
    return BinomBasisExpansion(n, poly.num_vars, tuple(apply_axes(poly.coeffs, n, fns)))


def _draw_point(rng: random.Random, dim: int, bound: int) -> tuple[Fraction, ...]:
    coords = []
    for _ in range(dim):
        q = rng.randint(1, 7)
        p = rng.randint(-bound * q, bound * q)
        coords.append(Fraction(p, q))
    return tuple(coords)


def sample_rational_points(
    dim: int, count: int, bound: int, seed: int = DEFAULT_SEED
) -> list[tuple[Fraction, ...]]:
    """Reproducible rational sample points in [-bound, bound] with denominators <= 7."""
    rng = random.Random(seed)
    return [_draw_point(rng, dim, bound) for _ in range(count)]


def _unit_shift(n: int, positions: Sequence[int], amount: int = 1) -> tuple[int, ...]:
    return tuple(amount if pos in positions else 0 for pos in range(n))


def _reports(
    draw: Callable[[], tuple], num_points: int, checked: str, rows: Sequence[tuple]
) -> tuple[VerificationReport, ...]:
    """One report per row (name, detail, cases), each over num_points points of draw().

    cases(pt) yields (label, lhs, rhs, scale): both sides are integer
    numerators over one scale, of a stencil or of two values cross-multiplied
    by _versus, and they are the case at label + pt.  Equal numerators over
    one scale are equal values, so only unequal sides are divided by their
    scale.  The rows draw their points in turn.
    """
    return tuple(
        VerificationReport.from_cases(name, checked + detail, (
            (label + pt, lhs, rhs) if lhs == rhs
            else (label + pt, Fraction(lhs, scale), Fraction(rhs, scale))
            for pt in (draw() for _ in range(num_points))
            for label, lhs, rhs, scale in cases(pt)
        ))
        for name, detail, cases in rows
    )


def _versus(poly: PolyMulti, left: tuple, right: tuple, sign: int = 1) -> tuple:
    """The case poly(left) = sign * poly(right), cross-multiplied over both scales' product."""
    zero = [(0,) * poly.num_vars]
    (a,), r = poly.evaluate_shifts(left, zero)
    (b,), s = poly.evaluate_shifts(right, zero)
    return (), a * s, sign * b * r, r * s


#: The shifts of the six-term exchange on the two exchanged axes: 0, e_i + e_(i+1), e_(i+1).
_SIX_TERM = ((0, 0), (1, 1), (0, 1))


def _six_term(poly: PolyMulti, pt: tuple, i: int, offset: int, label: tuple) -> tuple:
    """The six-term exchange of the entries of variables i and i + 1 at pt.

    The stencil is taken at pt and at pt with the two entries exchanged.
    Variable i + 1's entry sits offset further along the row than variable
    i's, so the exchanged point is pt[i + 1] + offset, pt[i] - offset: the
    swapped coordinates, with the offset moved into the integer shifts.  Both
    points have the same denominators, so both stencils share one scale.
    """
    head, tail = (0,) * i, (0,) * (poly.num_vars - i - 2)
    left, scale = poly.evaluate_shifts(pt, [head + s + tail for s in _SIX_TERM])
    swapped = pt[:i] + (pt[i + 1], pt[i]) + pt[i + 2 :]
    moved = [head + (a + offset, b - offset) + tail for a, b in _SIX_TERM]
    right, _ = poly.evaluate_shifts(swapped, moved)
    return label, left[0] + left[1] - left[2], -right[0] - right[1] + right[2], scale


def verify_alpha_identities(
    n: int,
    *,
    seed: int = DEFAULT_SEED,
    num_points: int = 20,
    budget: Budget = DEFAULT_BUDGET,
) -> tuple[VerificationReport, ...]:
    """Check the symmetry and operator identities of the counting polynomial.

    Identities checked at exact random rational points: invariance under
    translation, the reverse-and-negate symmetry, the rotation relation, the
    six-term neighbour exchange, annihilation by the elementary symmetric
    polynomials in the difference operators, and the expansion of a repeated
    shift in one variable through shift subsets of the remaining variables.
    The last three evaluate the polynomial at integer shifts of a point, as
    one evaluate_shifts stencil, and sum the numerators in ints.

    Returns one report per identity.  A failing report lists every witness:
    the sample point, preceded for the six-term, annihilation and
    shift-expansion identities by the failing positions, q or variable and
    power.
    """
    num_points = as_size(num_points, "number of points")
    poly = alpha_polynomial(n, budget)
    rng = random.Random(seed)
    sign = 1 if n % 2 == 1 else -1
    corners = list(itertools.product((0, 1), repeat=n))
    repeated = {(r, z): _unit_shift(n, (r,), z) for r in range(n) for z in range(4)}
    shifts = corners + [s for (_, z), s in repeated.items() if z > 1]

    def translation(pt):
        (t,) = _draw_point(rng, 1, 3 * n)  # drawn after its point
        yield _versus(poly, pt, tuple(x + t for x in pt))

    def annihilation(pt):
        # e_q(D) = sum over corners T of the unit cube of
        # (-1)^(q - |T|) * binom(n - |T|, q - |T|) * E^T
        values, scale = poly.evaluate_shifts(pt, corners)
        by_size = [0] * (n + 1)
        for corner, value in zip(corners, values):
            by_size[sum(corner)] += value
        for q in range(1, n):
            terms = ((-1) ** (q - t) * binom(n - t, q - t) * by_size[t] for t in range(q + 1))
            yield (f"q={q}",), sum(terms), 0, scale

    def shift_expansion(pt):
        values, scale = poly.evaluate_shifts(pt, shifts)
        at = dict(zip(shifts, values))
        for r in range(n):
            # sums over the corners of the other variables, by size
            by_size = [0] * n
            for corner in corners:
                if corner[r] == 0:
                    by_size[sum(corner)] += at[corner]
            for z in range(4):
                rhs = sum(binom(-n, z - p) * total for p, total in enumerate(by_size[: z + 1]))
                yield (f"variable {r + 1}, power {z}",), at[repeated[r, z]], (-1) ** z * rhs, scale

    checked = f"n={n}, {num_points} rational points (seed {seed})"
    return _reports(lambda: _draw_point(rng, n, 3 * n), num_points, checked, [
        ("translation", "", translation),
        ("reversal", "", lambda pt: [_versus(poly, pt, tuple(-x for x in reversed(pt)))]),
        # moving the first variable to the end, shifted down by n
        ("rotation", "", lambda pt: [_versus(poly, pt[1:] + (pt[0] - n,), pt, sign)]),
        ("six-term", f", all {max(n - 1, 0)} neighbour pairs", lambda pt: (
            _six_term(poly, pt, i, 0, (f"positions {i + 1},{i + 2}",)) for i in range(n - 1)
        )),
        # the elementary symmetric polynomials in the difference operators annihilate
        ("symmetric-difference-annihilation", f", q=1..{n - 1}", annihilation),
        # a repeated shift in one variable expands over shift subsets of the others
        ("shift-expansion", ", powers 0..3, every variable", shift_expansion),
    ])


def verify_gn_reflection(
    n: int,
    d: int,
    *,
    seed: int = DEFAULT_SEED,
    num_points: int = 20,
    budget: Budget = DEFAULT_BUDGET,
) -> tuple[VerificationReport, ...]:
    """Check the reflection symmetry of the d-variable specialization.

    For d = 2 the six-term exchange identity of the specialization is checked
    as well; variable r shifts entry n - d + r + 1, so neighbouring entries
    sit one apart.  A failing report lists every witness point.
    """
    num_points = as_size(num_points, "number of points")
    poly = gn_poly(n, d, budget)
    sign = 1 if ((n - 1) * d) % 2 == 0 else -1
    rng = random.Random(seed)
    rows = [("gn-reflection", "", lambda pt: [
        _versus(poly, pt, tuple(-2 * n - x for x in reversed(pt)), sign)
    ])]
    if d == 2:
        rows.append(("gn-six-term", "", lambda pt: [_six_term(poly, pt, 0, 1, ())]))
    checked = f"n={n}, d={d}, {num_points} rational points (seed {seed})"
    return _reports(lambda: _draw_point(rng, d, 3 * n), num_points, checked, rows)


def clear_caches() -> None:
    """Drop the interpolated-polynomial cache."""
    _gn_poly_cache.clear()
