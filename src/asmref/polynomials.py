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
rational points by integer Horner, so every evaluation is exact.  The
identity checks evaluate it at integer shifts of a point together, as one
stencil that shares its partial reductions; each suite of identities is a
table read by one report builder, and the six-term exchange of neighbouring
entries is stated once for both suites.  gn_poly is the one builder: a
specialization samples a staircase prefix followed by a block of n
consecutive columns per variable and counts all of its rows in one row
transfer, and the counting polynomial is the specialization of every entry,
gn_poly(n, n), read at the entries.  The shifted binomial basis of the
expansion is a unit-triangular change of basis from the coefficients, whose
shape gives the basis size and the number of variables.
"""

from __future__ import annotations

import itertools
import math
import numbers
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .combinat import as_int, as_size, binom
from .config import DEFAULT_BUDGET, DEFAULT_SEED, Budget
from .errors import ValidationError
from .reports import VerificationReport
from .triangles import alpha_count_grid, checked_grid


def _forward_differences(values: Sequence[int]) -> list[int]:
    """D^m f(a), m < k, of samples at a..a+k-1: the coefficients in binom(x - a, m)."""
    heads = []
    row = values
    while row:
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return heads


def apply_axis(flat: list, k: int, num_vars: int, axis: int, fn: Callable) -> list:
    """Apply fn to every length-k fiber along the given axis of a row-major tensor."""
    stride = k ** (num_vars - axis - 1)
    block = stride * k
    out = list(flat)
    for start in range(0, len(flat), block):
        for off in range(stride):
            base = start + off
            fiber = [out[base + t * stride] for t in range(k)]
            for t, v in enumerate(fn(fiber)):
                out[base + t * stride] = v
    return out


def _check_point(point: Sequence, num_vars: int) -> None:
    """Raise unless the point has num_vars coordinates, each an int or a Fraction."""
    if len(point) != num_vars:
        raise ValidationError(f"point must have {num_vars} coordinates, got {len(point)}")
    for x in point:
        if not isinstance(x, numbers.Rational):
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
        for v in itertools.chain(self.origins, self.coeffs):
            as_int(v)

    @classmethod
    def interpolate(cls, nodes: Sequence[Sequence[int]], values: Sequence) -> "PolyMulti":
        """Interpolate integer samples on the grid of runs of consecutive integers.

        Every node list is an ascending run of one length k; a node or a sample
        may also be a rational equal to an int.  The coefficients are the forward
        differences, axis by axis.
        """
        node_tuples = tuple(tuple(as_int(v, "nodes") for v in ns) for ns in nodes)
        if not node_tuples:
            raise ValidationError("at least one variable is required")
        k = len(node_tuples[0])
        num_vars = len(node_tuples)
        for ns in node_tuples:
            if not ns or ns != tuple(range(ns[0], ns[0] + k)):
                raise ValidationError(f"need {k} ascending consecutive nodes, got {ns}")
        flat = [as_int(v, "samples") for v in values]
        if len(flat) != k**num_vars:
            raise ValidationError(
                f"value tensor must have size {k**num_vars}, got {len(flat)}"
            )
        for axis in range(num_vars):
            flat = apply_axis(flat, k, num_vars, axis, _forward_differences)
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
        scale.  With x = p/q on an axis of origin a, (k-1)! * q^(k-1) times
        the sum of c_i * binom(x + s - a, i) over i < k is the integer Horner
        sum acc*(p + (s - a - i)*q) + c_i*((k-1)!/i!)*q^(k-1-i), so an integer
        shift changes only the differences and every value shares the scale
        prod (k-1)! * q^(k-1).  Axes are reduced from the last to the first,
        and shifts that agree on the axes reduced so far share that partial
        reduction: the 2^m corners of a unit cube cost about
        2 * k^m / (1 - 2/k) multiply-adds instead of 2^m * k^m.
        """
        _check_point(point, self.num_vars)
        shifts = [tuple(s) for s in shifts]
        for s in shifts:
            if len(s) != self.num_vars:
                raise ValidationError(f"shifts must be {self.num_vars} integers, got {s!r}")
            for v in s:
                as_int(v, "shifts")
        k = self.degree_bound + 1
        falling = [math.prod(range(i + 1, k)) for i in range(k)]  # (k-1)!/i!
        # partial reductions keyed by the shift components of the axes reduced so far
        partial = {(): self.coeffs}
        scale = 1
        for axis in range(self.num_vars - 1, -1, -1):
            p, q = point[axis].numerator, point[axis].denominator
            origin = self.origins[axis]
            weights = [f * q ** (k - 1 - i) for i, f in enumerate(falling)]
            steps: dict[tuple, dict[int, None]] = {}
            for s in shifts:
                steps.setdefault(s[axis + 1 :], {})[s[axis]] = None
            reduced = {}
            for tail, axis_steps in steps.items():
                flat = partial[tail]
                # column i holds c_i * (k-1)!/i! * q^(k-1-i) of every fiber along this axis
                columns = [
                    [c * w for c in flat[i::k]] if w != 1 else flat[i::k]
                    for i, w in enumerate(weights)
                ]
                for step in axis_steps:
                    acc = columns[-1]
                    for i in range(k - 2, -1, -1):
                        diff = p + (step - origin - i) * q
                        acc = [a * diff + c for a, c in zip(acc, columns[i])]
                    reduced[(step,) + tail] = acc
            partial = reduced
            scale *= weights[0]
        return [partial[s][0] for s in shifts], scale


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
    d, n = as_size(d, "depth"), as_int(n, "order")
    if d > n:
        raise ValidationError(f"depth {d} exceeds the order {n}")
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
        if len(self.coeffs) != self.n**self.d:
            raise ValidationError(f"expected {self.n ** self.d} coefficients")
        for pos, c in enumerate(self.coeffs):
            if not isinstance(c, int):
                raise ValidationError(f"coefficient {pos} is not an int: {c!r}")

    def coefficient(self, indices: Sequence[int]) -> int:
        if len(indices) != self.d:
            raise ValidationError(f"need {self.d} indices, got {len(indices)}")
        pos = 0
        for j in indices:
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
    back-substitution in ints.
    """
    n, d = poly.degree_bound + 1, poly.num_vars

    def back_substitute(fiber: list[int], weights: list[list[int]]) -> list[int]:
        for k in range(n - 2, -1, -1):
            fiber[k] -= sum(c * w for c, w in zip(fiber[k + 1 :], weights[k]))
        return fiber

    coeffs = list(poly.coeffs)
    for axis, origin in enumerate(poly.origins):
        # weights[k] lists binom(m + axis + origin, m - k) for m = k + 1 .. n - 1
        shift = axis + origin
        weights = [[binom(m + shift, m - k) for m in range(k + 1, n)] for k in range(n)]
        coeffs = apply_axis(
            coeffs, n, d, axis, lambda fiber, w=weights: back_substitute(fiber, w)
        )
    return BinomBasisExpansion(n, d, tuple(coeffs))


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

    cases(pt) yields (label, lhs, rhs, scale): both sides are values, or the
    numerators of a stencil over its scale, and they are the case at
    label + pt.  Equal numerators over one scale are equal values, so only
    unequal sides are divided by their scale.  The rows draw their points in
    turn.
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
    ev = poly.evaluate
    rng = random.Random(seed)
    sign = 1 if n % 2 == 1 else -1
    corners = list(itertools.product((0, 1), repeat=n))
    repeated = {(r, z): _unit_shift(n, (r,), z) for r in range(n) for z in range(4)}
    shifts = corners + [s for (_, z), s in repeated.items() if z > 1]

    def translation(pt):
        (t,) = _draw_point(rng, 1, 3 * n)  # drawn after its point
        yield (), ev(pt), ev(tuple(x + t for x in pt)), 1

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
        ("reversal", "", lambda pt: [((), ev(pt), ev(tuple(-x for x in reversed(pt))), 1)]),
        # moving the first variable to the end, shifted down by n
        ("rotation", "", lambda pt: [((), ev(pt[1:] + (pt[0] - n,)), sign * ev(pt), 1)]),
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
    ev = poly.evaluate
    sign = 1 if ((n - 1) * d) % 2 == 0 else -1
    rng = random.Random(seed)
    rows = [("gn-reflection", "", lambda pt: [
        ((), ev(pt), sign * ev(tuple(-2 * n - x for x in reversed(pt))), 1)
    ])]
    if d == 2:
        rows.append(("gn-six-term", "", lambda pt: [_six_term(poly, pt, 0, 1, ())]))
    checked = f"n={n}, d={d}, {num_points} rational points (seed {seed})"
    return _reports(lambda: _draw_point(rng, d, 3 * n), num_points, checked, rows)


def clear_caches() -> None:
    """Drop the interpolated-polynomial cache."""
    _gn_poly_cache.clear()
