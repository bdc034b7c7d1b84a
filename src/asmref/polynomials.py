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
the samples; that is the one polynomial representation, a row-major tensor,
and every pass over it reads the slabs of its leading axis.  The forward
differences, the change to the shifted binomial basis below and the
reflection of asmref.extension are each one k x k integer map on every axis;
apply_axes hands each map the k slabs of its axis, one list per index on
that axis, which it combines by whole-list maps, with no Python call per
fiber.  A polynomial is evaluated at rational points by contracting each
axis, first to last, with one integer vector of scaled basis values.  Once
per polynomial the k slabs of the first axis are packed as they lie, each
into the fixed-width signed slots of one big integer, so contracting an axis
is k big-integer products and k - 1 splits of the result into the slabs of
the next axis, each exact because a slot is two bits wider than a bound on
every partial value; there are no floats and no modular step, so every
evaluation is exact.  One evaluator core, PolyMulti._evaluate, runs a
stencil plan, the integer shifts compiled by _compile into the distinct
steps of each axis and the distinct prefixes of each reduction level, at a
point given as integer numerators and denominators; evaluate and
evaluate_shifts check their input and call it.  The identity suites compile
their fixed stencils once per call, draw each point as integers, derive the
translated, reversed, rotated and reflected points in gcd-reduced ints, and
sum or cross-multiply the numerators in ints, so a case that holds builds no
Fraction; each suite is a table of identities read by one report builder,
and the six-term exchange of neighbouring entries is stated once for both
suites.
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

from .combinat import as_int, as_size, binom, int_text, ints_text
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
                raise ValidationError(f"need {k} ascending consecutive nodes, got {ints_text(ns)}")
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
        _check_point(point, self.num_vars)
        nums, dens = [x.numerator for x in point], [x.denominator for x in point]
        (numerator,), scale = self._evaluate(nums, dens, _zero_plan(self.num_vars))
        return Fraction(numerator, scale)

    def evaluate_shifts(
        self, point: Sequence, shifts: Iterable[Sequence[int]]
    ) -> tuple[list[int], int]:
        """Integer numerators of the values at point + s for every integer shift s.

        Returns the numerators in the order of shifts and their one common
        scale.  The point and the shifts are checked here, the shifts are
        compiled into a stencil plan by _compile, and _evaluate, the one
        evaluator, runs the plan at the point's numerators and denominators,
        which a rational keeps in lowest terms.  The identity suites compile
        their fixed stencils once per call and run _evaluate on points drawn
        as integers, which takes the suites at orders 1..4 from 22.1 to
        14.9 ms and gn-reflection at (n, min(n, 2)), n = 1..5, from 4.6 to
        3.1 ms (CPU time, best of 15 in one process, 2-vCPU Xeon, Python
        3.11); at the 16 corners of order 4 the check and the compile take
        about half of this method's time.
        """
        _check_point(point, self.num_vars)
        shifts, m = list(map(tuple, shifts)), self.num_vars
        for pos, s in enumerate(shifts):
            if len(s) != m:
                raise ValidationError(f"shifts must be {m} integers, got {ints_text(s)}")
            if {*map(type, s)} != {int}:
                shifts[pos] = tuple(as_int(v, "shifts") for v in s)
        nums, dens = [x.numerator for x in point], [x.denominator for x in point]
        return self._evaluate(nums, dens, _compile(shifts, m))

    def _evaluate(
        self, nums: Sequence[int], dens: Sequence[int], plan: tuple
    ) -> tuple[list[int], int]:
        """The numerators of a stencil plan at the point nums[r] / dens[r], and their scale.

        Every dens[r] is positive and in lowest terms with nums[r].  With
        x = p/q on an axis of origin a and top = (k-1)! * q^(k-1), every step
        s of that axis in the plan gets one integer basis vector
        v = top * binom(z, i), i < k, z = x + s - a, built by
        binom(z, i+1) = binom(z, i) * (z - i)/(i + 1) on the integers q*z - i*q
        and (i + 1)*q; each division is exact, as entry i is
        (k-1)!/i! * q^(k-1-i) times an integer product.  Contracting every axis
        with its vector gives each value over the scale prod (k-1)! * q^(k-1).

        The contraction runs on the coefficients packed by _pack into W-bit
        signed slots of k big integers, the row-major slabs of the first
        axis: the axis is contracted by one sum(map(operator.mul, v, slabs)),
        a value whose slots hold the partial reductions in row-major order of
        the remaining axes, and k - 1 balanced splits cut that value into the
        k slabs of the next axis.  Axes are reduced from the first to the
        last, and every distinct prefix of the shifts is reduced once, from
        its parent prefix as the plan lists them: shifts that agree on the
        axes reduced so far share that partial reduction, so the 2^m corners
        of a unit cube cost about 2 * k^m / (1 - 2/k) slot products instead
        of 2^m * k^m.  The last axis is left with k one-slot slabs, plain
        ints.  A single point takes about 17 us at order 4, 60 us at order 5
        and 0.9 ms at order 6, a half to a quarter of the time of the list
        contraction of tests/oracles.stencil_oracle (one process, 2-vCPU
        Xeon, Python 3.11).

        The splits are exact.  A partial value with axes 0..a reduced is a sum
        of coefficients times one entry of each of their vectors, so it is at
        most max |c| * prod over those axes of sum_i |v_i| in absolute value,
        and every such sum is at least its entry top >= 1.  The values that
        sit in slots have at most the axes 0..m-2 reduced, since the last axis
        is reduced on plain ints.  So every slot holds at most
        B = max |c| * prod over the axes 0..m-2 of max over steps of
        sum_i |v_i|, and a width W >= B.bit_length() + 2 puts it below
        2^(W-2).  A slab of u slots is then below 2^(W-2) * (1 + 2^W + ... +
        2^(W*(u-1))) < 2^(W*u-1) in absolute value, so adding 2^(W*u-1) to
        each slab of a value makes every slab a field of W*u bits in
        0 .. 2^(W*u) - 1, read off with a mask and a shift and no borrow.
        """
        steps, heads, order = plan
        k = self.degree_bound + 1
        factorial = math.factorial(k - 1)
        # one basis vector per step of each axis, and B / max |c|, the bound on
        # the partial values that fixes the slot width; the last axis is
        # reduced on plain ints, so its vectors take no part in it
        bases, scale, bound, last = [], 1, 1, self.num_vars - 1
        for axis, (p, q, origin) in enumerate(zip(nums, dens, self.origins)):
            y0 = p - origin * q
            top = factorial * q ** (k - 1)
            basis, most = [], 1
            for step in steps[axis]:
                # top * binom(z, i) for i < k: y = q * (z - i + 1), d = i * q
                vector = [top]
                value, y, d = top, y0 + step * q, q
                for _ in range(1, k):
                    value = value * y // d
                    vector.append(value)
                    y -= q
                    d += q
                basis.append(vector)
                if axis < last:
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
        # the partial reductions of one level's prefixes, each held as the k
        # slabs of the next axis to reduce
        partial = [slabs]
        for axis in range(self.num_vars):
            basis, level, reduced = bases[axis], levels[axis], []
            for j, parent in heads[axis]:
                value = sum(map(operator.mul, basis[j], partial[parent]))
                reduced.append(_split(value, k, level) if axis < last else value)
            partial = reduced
        return list(map(partial.__getitem__, order)), scale

    #: (the largest bound that fits, W, slabs, levels) from _pack; not a
    #: field, so ==, hash, repr and dataclasses.replace ignore it
    _packed = None

    def _pack(self, bound: int) -> tuple:
        """Pack the coefficients in slots that hold partial values up to bound * max |c|.

        Each of the k slabs of the first axis, the row-major slices that
        apply_axes hands out, becomes one int of W-bit signed slots, slot j
        holding the slab's j-th coefficient.  W is B.bit_length() + 2,
        B = bound * max |c|, rounded up to a multiple of 64, so one packed
        form serves every point of about the same size, and a point that
        needs a wider slot repacks the polynomial wider, never narrower.
        levels[a], a < m - 1, holds for a value with axes 0..a reduced, which
        holds k slabs of u = k^(m-2-a) slots, the offset that adds
        half = 2^(W*u-1) to each slab, the slab's width W*u in bits, its mask
        and half; levels[m - 1] is None, as the last axis is never split.
        """
        k, magnitude = self.degree_bound + 1, max(max(map(abs, self.coeffs)), 1)
        width = -(-((magnitude * bound).bit_length() + 2) // 64) * 64
        size = len(self.coeffs) // k
        slabs = [_pack_slots(self.coeffs[j * size : (j + 1) * size], width) for j in range(k)]
        levels = [None]
        for exponent in range(self.num_vars - 1):
            bits = width * k**exponent
            half = 1 << (bits - 1)
            offset = int.from_bytes(half.to_bytes(bits // 8, "little") * k, "little")
            levels.insert(0, (offset, bits, (1 << bits) - 1, half))
        packed = ((1 << (width - 2)) - 1) // magnitude, width, slabs, levels
        object.__setattr__(self, "_packed", packed)
        return packed


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


def _compile(shifts: Sequence[tuple[int, ...]], num_vars: int) -> tuple:
    """The stencil plan (steps, heads, order) of integer shifts, for PolyMulti._evaluate.

    steps[a] lists the distinct steps of axis a.  heads[a] lists the distinct
    prefixes s[:a+1] of the shifts, each as the position of its step in
    steps[a] and of its parent s[:a] in heads[a-1] (the one empty prefix
    when a is the first axis).  order[i] is the position of shift i in
    heads[num_vars - 1].
    """
    steps, heads, parents = [None] * num_vars, [None] * num_vars, {(): 0}
    for axis in range(num_vars):
        where, level, heads[axis] = {}, {}, []
        for s in shifts:
            head = s[: axis + 1]
            if head not in level:
                level[head] = len(level)
                heads[axis].append((where.setdefault(head[-1], len(where)), parents[head[:-1]]))
        steps[axis], parents = list(where), level
    return steps, heads, list(map(parents.__getitem__, shifts))


def _zero_plan(num_vars: int) -> tuple:
    """_compile([(0,) * num_vars], num_vars), built directly."""
    return [(0,)] * num_vars, [((0, 0),)] * num_vars, (0,)


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
        pos, n = 0, self.n
        for j in indices:
            j = as_int(j, "indices")
            if not 1 <= j <= n:
                raise ValidationError(f"indices must lie in 1..{n}: {ints_text(tuple(indices))}")
            pos = pos * n + (j - 1)
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


def _draw_ints(rng: random.Random, dim: int, bound: int) -> tuple[list[int], list[int]]:
    """The numerators and denominators, in lowest terms, of _draw_point's coordinates.

    randint(a, b) is randrange(a, b + 1), so both read the same draws.
    """
    randrange, nums, dens = rng.randrange, [], []
    for _ in range(dim):
        q = randrange(1, 8)
        p = randrange(-bound * q, bound * q + 1)
        g = math.gcd(p, q)
        nums.append(p // g)
        dens.append(q // g)
    return nums, dens


def _draw_point(rng: random.Random, dim: int, bound: int) -> tuple[Fraction, ...]:
    return tuple(map(Fraction, *_draw_ints(rng, dim, bound)))


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

    draw() gives a point as its lists of integer numerators and denominators,
    and cases(pt) yields (label, lhs, rhs, scale): both sides are integer
    numerators over one scale, of a stencil or of two values cross-multiplied
    by _versus, and they are the case at label + the point.  Equal numerators
    over one scale are equal values, so a case that holds builds no
    Fraction: only a failing case's point, label and sides are built, as
    Fractions, and handed to from_cases.  The rows draw their points in turn.
    """
    return tuple(
        VerificationReport.from_cases(name, checked + detail, (
            (label + tuple(map(Fraction, *pt)), Fraction(lhs, scale), Fraction(rhs, scale))
            for pt in (draw() for _ in range(num_points))
            for label, lhs, rhs, scale in cases(pt)
            if lhs != rhs
        ))
        for name, detail, cases in rows
    )


def _versus(poly: PolyMulti, zero: tuple, left: tuple, right: tuple, sign: int = 1) -> tuple:
    """The case poly(left) = sign * poly(right), cross-multiplied over both scales' product.

    zero is the plan of the zero shift, and left and right are integer points.
    """
    (a,), r = poly._evaluate(*left, zero)
    (b,), s = poly._evaluate(*right, zero)
    return (), a * s, sign * b * r, r * s


def _reduced(nums: list[int], dens: list[int]) -> tuple[list[int], list[int]]:
    """The fractions nums[r] / dens[r], dens[r] > 0, in lowest terms."""
    common = list(map(math.gcd, nums, dens))
    return list(map(operator.floordiv, nums, common)), list(map(operator.floordiv, dens, common))


def _swapped(values: list, i: int) -> list:
    return values[:i] + [values[i + 1], values[i]] + values[i + 2 :]


#: The shifts of the six-term exchange on the two exchanged axes: 0, e_i + e_(i+1), e_(i+1).
_SIX_TERM = ((0, 0), (1, 1), (0, 1))


def _six_term(poly: PolyMulti, i: int, offset: int, label: tuple) -> Callable[[tuple], tuple]:
    """The case of the six-term exchange of the entries of variables i and i + 1, at a point.

    The stencil is taken at the point and at the point with the two entries
    exchanged; both stencils are compiled once here.  Variable i + 1's entry
    sits offset further along the row than variable i's, so the exchanged
    point of pt is pt[i + 1] + offset, pt[i] - offset: the swapped
    coordinates, with the offset moved into the integer shifts.  Both points
    have the same denominators, so both stencils share one scale.
    """
    m = poly.num_vars
    head, tail = (0,) * i, (0,) * (m - i - 2)
    left = _compile([head + s + tail for s in _SIX_TERM], m)
    right = _compile([head + (a + offset, b - offset) + tail for a, b in _SIX_TERM], m)

    def case(pt: tuple) -> tuple:
        nums, dens = pt
        u, scale = poly._evaluate(nums, dens, left)
        v, _ = poly._evaluate(_swapped(nums, i), _swapped(dens, i), right)
        return label, u[0] + u[1] - u[2], -v[0] - v[1] + v[2], scale

    return case


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
    one stencil compiled once per call, and sum the numerators in ints.

    Returns one report per identity.  A failing report lists every witness:
    the sample point, preceded for the six-term, annihilation and
    shift-expansion identities by the failing positions, q or variable and
    power.
    """
    num_points = as_size(num_points, "number of points")
    poly = alpha_polynomial(n, budget)
    rng = random.Random(seed)
    sign = 1 if n % 2 == 1 else -1
    bound, zero = 3 * n, _zero_plan(n)
    corners = list(itertools.product((0, 1), repeat=n))
    sizes = list(map(sum, corners))
    corner_plan = _compile(corners, n)
    # e_q(D) = sum over corners T of the unit cube of
    # (-1)^(q - |T|) * binom(n - |T|, q - |T|) * E^T
    annihilators = [
        ((f"q={q}",), [(-1) ** (q - t) * binom(n - t, q - t) for t in range(q + 1)])
        for q in range(1, n)
    ]
    repeated = {(r, z): _unit_shift(n, (r,), z) for r in range(n) for z in range(4)}
    shifts = corners + [s for (_, z), s in repeated.items() if z > 1]
    expansion_plan = _compile(shifts, n)
    index = {s: j for j, s in enumerate(shifts)}
    # for each variable r, the (size, position) of every corner free of r,
    # and per power z its label, the position of z * e_r and its weights
    expansions = [(
        [(size, j) for j, (size, corner) in enumerate(zip(sizes, corners)) if corner[r] == 0],
        [
            ((f"variable {r + 1}, power {z}",), index[repeated[r, z]],
             [(-1) ** z * binom(-n, z - p) for p in range(z + 1)])
            for z in range(4)
        ],
    ) for r in range(n)]
    pairs = [_six_term(poly, i, 0, (f"positions {i + 1},{i + 2}",)) for i in range(n - 1)]

    def translation(pt):
        (tp,), (tq,) = _draw_ints(rng, 1, bound)  # drawn after its point
        nums, dens = pt
        moved = _reduced([p * tq + tp * q for p, q in zip(nums, dens)], [q * tq for q in dens])
        yield _versus(poly, zero, pt, moved)

    def reversal(pt):
        nums, dens = pt
        return [_versus(poly, zero, pt, ([-p for p in reversed(nums)], dens[::-1]))]

    def rotation(pt):
        # moving the first variable to the end, shifted down by n
        nums, dens = pt
        rotated = nums[1:] + [nums[0] - n * dens[0]], dens[1:] + dens[:1]
        return [_versus(poly, zero, rotated, pt, sign)]

    def annihilation(pt):
        values, scale = poly._evaluate(*pt, corner_plan)
        by_size = [0] * (n + 1)
        for size, value in zip(sizes, values):
            by_size[size] += value
        for label, weights in annihilators:
            yield label, sum(map(operator.mul, weights, by_size)), 0, scale

    def shift_expansion(pt):
        values, scale = poly._evaluate(*pt, expansion_plan)
        for free, powers in expansions:
            # sums over the corners of the other variables, by size
            by_size = [0] * n
            for size, j in free:
                by_size[size] += values[j]
            for label, j, weights in powers:
                yield label, values[j], sum(map(operator.mul, weights, by_size)), scale

    checked = f"n={n}, {num_points} rational points (seed {seed})"
    return _reports(lambda: _draw_ints(rng, n, bound), num_points, checked, [
        ("translation", "", translation),
        ("reversal", "", reversal),
        ("rotation", "", rotation),
        ("six-term", f", all {max(n - 1, 0)} neighbour pairs",
         lambda pt: [pair(pt) for pair in pairs]),
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
    rng, zero = random.Random(seed), _zero_plan(d)

    def reflection(pt):
        nums, dens = pt
        reflected = [-2 * n * q - p for p, q in zip(reversed(nums), reversed(dens))]
        return [_versus(poly, zero, pt, (reflected, dens[::-1]), sign)]

    rows = [("gn-reflection", "", reflection)]
    if d == 2:
        pair = _six_term(poly, 0, 1, ())
        rows.append(("gn-six-term", "", lambda pt: [pair(pt)]))
    checked = f"n={n}, d={d}, {num_points} rational points (seed {seed})"
    return _reports(lambda: _draw_ints(rng, d, 3 * n), num_points, checked, rows)


def clear_caches() -> None:
    """Drop the interpolated-polynomial cache."""
    _gn_poly_cache.clear()
