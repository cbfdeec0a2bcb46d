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
from dataclasses import dataclass

import numpy as np

from .characters import at_fibres
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


def main_term(q: int, n: int) -> int:
    """(q**(n-1) - 1)/(q - 1), the Weil term of w = 0 and the exact integer
    part every route adds to its float remainder."""
    return (q ** (n - 1) - 1) // (q - 1)


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
        return complex(main_term(field.q, len(w)))
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


@functools.lru_cache(maxsize=None)
def enumerate_orbit_classes(d: int, n: int, h: tuple[int, ...]) -> tuple[OrbitClass, ...]:
    """Partition the shift classes into coordinate-permutation orbits.

    Requires a constant weight vector (the symmetric family), since
    permutations act on classes only when they fix h.  Depends on (d, n, h)
    only, so it is built once.
    """
    if len(set(h)) != 1:
        raise BadParamsError("permutation orbits need a constant weight vector")
    orbits: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for rep, members in _shift_classes(d, n, h):
        key = min(tuple(sorted(v)) for v in members)
        orbits.setdefault(key, []).append(rep)
    return tuple(
        OrbitClass(rep=key, size=len(members), classes=tuple(sorted(members)))
        for key, members in sorted(orbits.items())
    )


@functools.lru_cache(maxsize=None)
def _koblitz_terms(
    d: int, n: int, h: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], int, tuple[tuple[int, ...], ...]], ...]:
    """The shift classes grouped by equal contribution, as (representative,
    weight, the members of the representative's class with every coordinate
    non-zero).  For constant h a group is a permutation orbit, weighted by
    its size: permuting w permutes the factors of both its Weil terms and
    its Gauss-ratio row.  Otherwise every class is its own group.  Depends
    on (d, n, h) only, so it is built once."""
    if len(set(h)) == 1:
        groups = [(o.rep, o.size) for o in enumerate_orbit_classes(d, n, h)]
    else:
        groups = [(rep, 1) for rep, _ in _shift_classes(d, n, h)]
    return tuple(
        (rep, weight, tuple(v for v in class_members(d, h, rep) if all(v)))
        for rep, weight in groups
    )


def _gauss_ratio(field: FqField, d: int, h: tuple[int, ...], w) -> np.ndarray:
    """prod_i g(omega**(w_i t - h_i j)) / g(omega**(-d j)) over j = 0..q-2:
    the lambda-free row of the Gauss average of the class of w, indexed by
    -j so that at_fibres reads it at x = (d lam)**(-d)."""
    q1, t = field.q1, field.q1 // d
    j = -np.arange(q1, dtype=np.int64)
    rows = (field.gauss_table[(wi * t + hi * j) % q1] for wi, hi in zip(w, h))
    numerator = math.prod(rows, start=np.ones(q1, dtype=np.complex128))
    return numerator / field.gauss_table[(d * j) % q1]


def _weil_sum(field: FqField, d: int, members) -> complex:
    return sum((weil_point_count(field, d, len(v), v) for v in members), 0j)


def class_gauss_average(params: DiagonalParams, w: tuple[int, ...]) -> complex:
    """The twisted Gauss-sum average attached to the class of w:

        (q-1)**(-1) * sum_j [prod_i g(omega**(w_i t - h_i j)) / g(omega**(-d j))]
                      * omega**(-d j)(d lam)

    The product is only meaningful as a whole; any member of the class gives
    the same value, since shifting w by h reindexes j.
    """
    field, d = params.field, params.d
    ratio = _gauss_ratio(field, d, params.h, w)
    dlam = field.elem(d) * params.lam
    twist = field.unit_roots[(-d * np.arange(field.q1) * dlam.exp) % field.q1]
    return complex(ratio @ twist / field.q1)


def class_contribution(params: DiagonalParams, w: tuple[int, ...]) -> complex:
    """Diagonal terms of every member of [w] plus the class Gauss average."""
    members = class_members(params.d, params.h, w)
    return _weil_sum(params.field, params.d, members) + class_gauss_average(params, w)


def class_gauss_average_by_dlog(
    field: FqField, d: int, h: tuple[int, ...], w: tuple[int, ...]
) -> np.ndarray:
    """class_gauss_average for every lam != 0: entry e is the average at
    lam = g**e, the lambda-free ratio row read at x = (d lam)**(-d).  The
    singular fibre is included, since the formula itself does not exclude
    it."""
    if d < 1 or field.q1 % d != 0:
        raise BadDegreeError(f"degree {d} does not divide q-1 = {field.q1}")
    return at_fibres(field, d, _gauss_ratio(field, d, h, w), -d * field.elem(d).exp)


def class_contribution_by_dlog(
    field: FqField, d: int, h: tuple[int, ...], w: tuple[int, ...]
) -> np.ndarray:
    """class_contribution for every lam != 0, indexed by dlog lam."""
    weil = _weil_sum(field, d, class_members(d, h, w))
    return weil + class_gauss_average_by_dlog(field, d, h, w)


def koblitz_remainder_by_dlog(field: FqField, d: int, h: tuple[int, ...]) -> np.ndarray:
    """The class-by-class count minus its main term, for every lam != 0:
    entry e is the value at lam = g**e, the singular fibre included.

    Per group of equal classes (_koblitz_terms), the non-zero Weil terms
    are lambda-free, and the Gauss averages of all classes are the weighted
    sum of their ratio rows, read once by at_fibres.  Built once per field
    and (d, h).
    """
    if d < 1 or field.q1 % d != 0:
        raise BadDegreeError(f"degree {d} does not divide q-1 = {field.q1}")

    def build():
        g = field.gauss_table[:: field.q1 // d]
        weil = 0j
        ratios = np.zeros(field.q1, dtype=np.complex128)
        for rep, weight, members in _koblitz_terms(d, len(h), h):
            weil += weight * sum(_weil_term(field, g, v) for v in members)
            ratios += weight * _gauss_ratio(field, d, h, rep)
        return weil + at_fibres(field, d, ratios, -d * field.elem(d).exp)

    return field.plan(("koblitz", d, h), build)
