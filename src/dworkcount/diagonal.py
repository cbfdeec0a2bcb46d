"""Point counts for deformed diagonal hypersurfaces via Gauss sums.

The family is x_1**d + ... + x_n**d = d * lam * x**h in P^(n-1), with
sum(h) = d and gcd(d, h_1, ..., h_n) = 1, over F_q with q = 1 mod d.
The count decomposes over character-exponent vectors w in (Z/d)^n with
sum(w) = 0, grouped into classes [w] modulo shifts by h.  Each class
contributes a diagonal (Weil) term plus a full-cycle Gauss-sum average;
the total is an integer, recovered with an explicit rounding check.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDegreeError,
    BadLambdaError,
    BadParamsError,
    BadWeightError,
)
from .field import FqElem, FqField


@dataclass(frozen=True)
class DiagonalParams:
    """Validated parameters (field, degree, weights, deformation)."""

    field: FqField
    d: int
    h: tuple[int, ...]
    lam: FqElem

    def __post_init__(self):
        field, d, h = self.field, self.d, self.h
        if d < 1 or field.q1 % d != 0:
            raise BadDegreeError(f"degree {d} does not divide q-1 = {field.q1}")
        if any(hi < 0 for hi in h) or sum(h) != d:
            raise BadParamsError("weights must be nonnegative and sum to d")
        if math.gcd(d, *h) != 1:
            raise BadParamsError("gcd(d, h_1, ..., h_n) must be 1")
        if self.lam.field is not field:
            raise BadParamsError("lambda lives in a different field")
        if self.lam.is_zero:
            raise BadLambdaError("the Gauss-sum route needs lambda != 0")
        # singular fibres satisfy lam**d * prod(h_i**h_i) = 1
        c = field.one
        for hi in h:
            if hi:
                c = c * field.elem(hi) ** hi
        if not c.is_zero and self.lam**d == c.inverse():
            raise BadLambdaError("lambda**d = 1/prod(h_i**h_i) is singular")

    @property
    def n(self) -> int:
        return len(self.h)

    @property
    def t(self) -> int:
        return self.field.q1 // self.d


def weil_point_count(field: FqField, d: int, n: int, w: tuple[int, ...]) -> complex:
    """The diagonal-hypersurface term N_q(0, w) for one exponent vector w.

    Equals (q**(n-1) - 1)/(q - 1) when w = 0, a product of Gauss sums over q
    when every w_i is nonzero mod d, and 0 otherwise.
    """
    if field.q1 % d != 0:
        raise BadDegreeError(f"degree {d} does not divide q-1 = {field.q1}")
    if len(w) != n:
        raise BadWeightError("w has the wrong length")
    if any(not 0 <= wi < d for wi in w):
        raise BadWeightError("each w_i must lie in range(d)")
    if sum(w) % d != 0:
        raise BadWeightError("sum(w) must be 0 mod d")
    return _weil_term(field, field.gauss_table[:: field.q1 // d], w)


def _weil_term(field: FqField, g, w: tuple[int, ...]) -> complex:
    """weil_point_count for a valid w, given g[i] = g(omega**(i (q-1)/d))."""
    if not any(w):
        return complex((field.q ** (len(w) - 1) - 1) // (field.q - 1))
    if not all(w):
        return 0j
    return math.prod((g[wi] for wi in w), start=1 + 0j) / field.q


def _weight_vectors(d: int, n: int):
    """All w in (Z/d)^n with sum(w) = 0 mod d."""
    for head in itertools.product(range(d), repeat=n - 1):
        yield head + ((-sum(head)) % d,)


def class_members(d: int, h: tuple[int, ...], w: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The shift class of w: all w + m*h mod d, each member exactly once."""
    seen = []
    for m in range(d):
        v = tuple((wi + m * hi) % d for wi, hi in zip(w, h))
        if v not in seen:
            seen.append(v)
    return seen


@functools.lru_cache(maxsize=None)
def _shift_classes(
    d: int, n: int, h: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """Every shift class as (canonical representative, members), sorted by
    representative.  Depends on (d, n, h) only, so it is built once.

    Weight vectors arrive in lexicographic order, so the first vector seen
    from a class is its minimum; members are listed from that minimum.
    """
    seen: set[tuple[int, ...]] = set()
    classes = []
    for w in _weight_vectors(d, n):
        if w not in seen:
            members = tuple(class_members(d, h, w))
            seen.update(members)
            classes.append((w, members))
    return tuple(classes)


@functools.lru_cache(maxsize=None)
def _weil_table(d: int, n: int, h: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each shift class, in class order, the members whose Weil term is
    non-zero (every coordinate non-zero, or the zero vector), in member
    order.  Depends on (d, n, h) only, so it is built once."""
    classes = _shift_classes(d, n, h)
    return tuple(tuple(v for v in members if all(v) or not any(v)) for _, members in classes)


@dataclass(frozen=True)
class OrbitClass:
    """One orbit of shift classes under coordinate permutations.

    rep is the lexicographically smallest sorted member over the whole
    orbit; size is the number of shift classes the orbit contains; classes
    lists their canonical representatives.
    """

    rep: tuple[int, ...]
    size: int
    classes: tuple[tuple[int, ...], ...]


def enumerate_orbit_classes(d: int, n: int, h: tuple[int, ...]) -> list[OrbitClass]:
    """Partition the shift classes into coordinate-permutation orbits.

    Requires a constant weight vector (the symmetric family), since
    permutations act on classes only when they fix h.
    """
    if len(set(h)) != 1:
        raise BadParamsError("permutation orbits need a constant weight vector")
    orbits: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for rep, members in _shift_classes(d, n, h):
        key = min(tuple(sorted(v)) for v in members)
        orbits.setdefault(key, []).append(rep)
    return [
        OrbitClass(rep=key, size=len(members), classes=tuple(sorted(members)))
        for key, members in sorted(orbits.items())
    ]


class _ClassPlan:
    """The lambda-independent parts of the Koblitz sum for one (field, d, h).

    Holds the Gauss rows g(omega**(w t + h_i j)) for every (w, h_i), the
    denominator row g(omega**(d j)), and, once koblitz_total asks for them,
    each shift class's summed Weil terms: d * len(set(h)) + 1 rows of q - 1
    values.  The per-class numerators are rebuilt for every fibre, never
    stored: one row per shift class (1296 for the sextic) would cost far
    more memory than the rows above.
    """

    def __init__(self, field: FqField, d: int, h: tuple[int, ...]):
        q1, t = field.q1, field.q1 // d
        g = field.gauss_table
        self.d, self.h = d, h
        self.reps = [rep for rep, _ in _shift_classes(d, len(h), h)]
        self.j = np.arange(q1, dtype=np.int64)
        self.rows = {(wi, hi): g[(wi * t + hi * self.j) % q1] for wi in range(d) for hi in set(h)}
        self.den = g[(d * self.j) % q1]
        self._weil_sums: list[complex] | None = None

    def weil_sums(self, field: FqField) -> list[complex]:
        """Summed Weil terms of each class, in class and member order."""
        if self._weil_sums is None:
            g = list(field.gauss_table[:: field.q1 // self.d])
            self._weil_sums = []
            for members in _weil_table(self.d, len(self.h), self.h):
                total = 0j
                for v in members:
                    total += _weil_term(field, g, v)
                self._weil_sums.append(total)
        return self._weil_sums

    def twist(self, params: "DiagonalParams") -> np.ndarray:
        """omega**(d j)(d lam) for every j: the factor that carries lambda."""
        field = params.field
        dlam = field.elem(self.d) * params.lam
        return field.unit_roots[(self.d * self.j * dlam.exp) % field.q1]

    def ratios(self, ws) -> Iterator[np.ndarray]:
        """prod_i g(omega**(w_i t + h_i j)) / g(omega**(d j)) over j for each
        weight vector in ws, in order: the lambda-free part of its average.

        Each numerator is the left-to-right product of its Gauss rows,
        starting from ones; the factors a vector shares as a prefix with
        the one before are reused, which leaves every product unchanged.
        """
        q1 = len(self.j)
        partial = [np.ones(q1, dtype=np.complex128)]
        prev: tuple[int, ...] = ()
        for w in ws:
            k = 0
            while k < len(prev) and w[k] == prev[k]:
                k += 1
            del partial[k + 1 :]
            for wi, hi in zip(w[k:], self.h[k:]):
                partial.append(partial[-1] * self.rows[wi % self.d, hi])
            prev = w
            yield partial[-1] / self.den

    def gauss_averages(self, ws, tw: np.ndarray) -> Iterator[complex]:
        """The Gauss average of each weight vector in ws, in order."""
        q1 = len(self.j)
        for ratio in self.ratios(ws):
            yield complex(np.add.reduce(ratio * tw) / q1)


def _class_plan(field: FqField, d: int, h: tuple[int, ...]) -> _ClassPlan:
    return field.plan(("koblitz", d, h), lambda: _ClassPlan(field, d, h))


def _weil_sum(field: FqField, d: int, members) -> complex:
    total = 0j
    for v in members:
        total += weil_point_count(field, d, len(v), v)
    return total


def class_gauss_average(params: DiagonalParams, w: tuple[int, ...]) -> complex:
    """The twisted Gauss-sum average attached to the class of w:

        (q-1)**(-1) * sum_j [prod_i g(omega**(w_i t + h_i j)) / g(omega**(d j))]
                      * omega**(d j)(d lam)

    The product is only meaningful as a whole; any member of the class gives
    the same value, since shifting w by h reindexes j.
    """
    plan = _class_plan(params.field, params.d, params.h)
    return next(plan.gauss_averages([w], plan.twist(params)))


def class_contribution(params: DiagonalParams, w: tuple[int, ...]) -> complex:
    """Diagonal terms of every member of [w] plus the class Gauss average."""
    members = class_members(params.d, params.h, w)
    return _weil_sum(params.field, params.d, members) + class_gauss_average(params, w)


def class_gauss_average_by_dlog(
    field: FqField, d: int, h: tuple[int, ...], w: tuple[int, ...]
) -> np.ndarray:
    """class_gauss_average for every lam != 0: entry e is the average at
    lam = g**e.  The twist omega**(d j)(d lam) makes the average entry
    d * dlog(d lam) of one inverse DFT of the lambda-free ratio row; the
    singular fibre is included, since the formula itself does not exclude it."""
    if d < 1 or field.q1 % d != 0:
        raise BadDegreeError(f"degree {d} does not divide q-1 = {field.q1}")
    averages = np.fft.ifft(next(_class_plan(field, d, h).ratios([w])))
    dlam = int(field.elem(d).exp) + np.arange(field.q1)
    return averages[(d * dlam) % field.q1]


def class_contribution_by_dlog(
    field: FqField, d: int, h: tuple[int, ...], w: tuple[int, ...]
) -> np.ndarray:
    """class_contribution for every lam != 0, indexed by dlog lam."""
    weil = _weil_sum(field, d, class_members(d, h, w))
    return weil + class_gauss_average_by_dlog(field, d, h, w)


def koblitz_total(params: DiagonalParams) -> complex:
    """The projective point count of the deformed diagonal hypersurface,
    summed class by class, before integer rounding."""
    plan = _class_plan(params.field, params.d, params.h)
    averages = plan.gauss_averages(plan.reps, plan.twist(params))
    total = 0j
    for weil, average in zip(plan.weil_sums(params.field), averages):
        total += weil + average
    return total

