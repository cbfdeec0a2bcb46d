"""Finite-field hypergeometric functions in two normalizations.

The binomial normalization takes n+1 upper and n lower characters: for one
lower parameter it is an explicit average over the field, and for two or
more it is a character sum of normalized Jacobi sums.  The Gauss-sum
normalization takes equal-length parameter lists and divides shifted Gauss
sums by unshifted ones.  reduce_params cancels matching upper/lower
parameters, and mccarthy_to_greene converts a value of the second kind with
trivial leading lower parameter into the first normalization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .characters import (
    MultChar,
    char_at_minus_one,
    norm_jacobi,
    norm_jacobi_exps,
)
from .errors import BadParamsError, MixedFieldsError, PreconditionError
from .field import FqElem, FqField


def _check_one_field(chars, x: FqElem) -> None:
    field = chars[0].field
    if any(c.field is not field for c in chars) or x.field is not field:
        raise MixedFieldsError("parameters live on different fields")


@dataclass(frozen=True)
class GreeneParams:
    """Upper characters A_0..A_n, lower characters B_1..B_n, argument x."""

    upper: tuple[MultChar, ...]
    lower: tuple[MultChar, ...]
    x: FqElem

    def __post_init__(self):
        if len(self.upper) < 2 or len(self.lower) != len(self.upper) - 1:
            raise BadParamsError("need n+1 upper and n lower parameters, n >= 1")
        _check_one_field(self.upper + self.lower, self.x)

    @property
    def field(self) -> FqField:
        return self.upper[0].field

    @property
    def n(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class McCarthyParams:
    """Equal-length upper/lower character lists and argument x."""

    upper: tuple[MultChar, ...]
    lower: tuple[MultChar, ...]
    x: FqElem

    def __post_init__(self):
        if not self.upper or len(self.upper) != len(self.lower):
            raise BadParamsError("upper and lower lists must have equal positive length")
        _check_one_field(self.upper + self.lower, self.x)

    @property
    def field(self) -> FqField:
        return self.upper[0].field

    @property
    def m(self) -> int:
        return len(self.upper)


def greene_F_chi_sum(params: GreeneParams) -> complex:
    """The character-sum expression

        q/(q-1) * sum_chi (A_0 chi; chi) prod_i (A_i chi; B_i chi) chi(x),

    which is the defining branch for n >= 2 (and agrees with the n = 1
    average as an identity).
    """
    if params.x.is_zero:
        return 0j
    field = params.field
    q1 = field.q1
    xexp = params.x.exp
    a0 = params.upper[0].k
    pairs = [(a.k, b.k) for a, b in zip(params.upper[1:], params.lower)]
    total = 0j
    for j in range(q1):
        term = norm_jacobi_exps(field, a0 + j, j)
        for ka, kb in pairs:
            term *= norm_jacobi_exps(field, ka + j, kb + j)
        total += term * field.unit_roots[(j * xexp) % q1]
    return field.q / q1 * total


def _greene_2f1_average(params: GreeneParams) -> complex:
    """The one-lower-parameter form

        eps(x) * (A_1 B_1)(-1)/q * sum_y A_1(y) (conj(A_1) B_1)(1-y) conj(A_0)(1-xy).
    """
    x = params.x
    if x.is_zero:
        return 0j
    field = params.field
    a0, a1 = params.upper
    b1 = params.lower[0]
    v1 = a1.value_vector()
    v2 = (a1.conj() * b1).value_vector()[field.one_minus_table]
    ids = np.arange(field.q, dtype=np.int64)
    xy = np.zeros(field.q, dtype=np.int64)
    xy[1:] = field.exp_table[(field.dlog_table[ids[1:]] + x.exp) % field.q1]
    v3 = a0.conj().value_vector()[field.one_minus_table[xy]]
    sign = char_at_minus_one(field, a1.k + b1.k)
    return sign / field.q * complex(v1 @ (v2 * v3))


def greene_F(params: GreeneParams) -> complex:
    """The binomial-normalized hypergeometric value: the explicit average
    for n = 1 and the character sum for n >= 2 (two distinct definitions)."""
    if params.n == 1:
        return _greene_2f1_average(params)
    return greene_F_chi_sum(params)


def mccarthy_F(params: McCarthyParams) -> complex:
    """The Gauss-sum-normalized value

        -1/(q-1) * sum_chi prod_i [g(A_i chi)/g(A_i)][g(conj(B_i chi))/g(conj(B_i))]
                   * chi(-1)**m * chi(x).
    """
    if params.x.is_zero:
        return 0j
    field = params.field
    q1 = field.q1
    g = field.gauss_table
    j = np.arange(q1, dtype=np.int64)
    acc = np.ones(q1, dtype=np.complex128)
    for a in params.upper:
        acc = acc * g[(a.k + j) % q1] / g[a.k]
    for b in params.lower:
        acc = acc * g[(-b.k - j) % q1] / g[(-b.k) % q1]
    minus_one = int(field.dlog_table[field.neg_table[1]])
    twist = (params.m * minus_one + params.x.exp) % q1
    return complex(-(acc @ field.unit_roots[(j * twist) % q1]) / q1)


def reduce_params(params: McCarthyParams) -> McCarthyParams:
    """Cancel the maximal common multiset between upper and lower lists."""
    common = Counter(a.k for a in params.upper) & Counter(b.k for b in params.lower)
    if not common:
        return params
    upper = _drop(params.upper, +common)
    lower = _drop(params.lower, +common)
    if not upper:
        raise BadParamsError("reduction cancelled every parameter")
    return McCarthyParams(tuple(upper), tuple(lower), params.x)


def _drop(chars, budget: Counter) -> list[MultChar]:
    out = []
    for c in chars:
        if budget[c.k] > 0:
            budget[c.k] -= 1
        else:
            out.append(c)
    return out


def mccarthy_to_greene(params: McCarthyParams) -> complex:
    """The Gauss-sum-normalized value computed through the binomial
    normalization: with lower list (eps, B_1, ..., B_{m-1}), leading upper
    parameter nontrivial and A_i != B_i, the value equals

        prod_i (A_i; B_i)**(-1) * F(A_0, ..., A_{m-1}; B_1, ..., B_{m-1}; x);

    for m = 1 it is the closed form eps(x) * conj(A_0)(1 - x).
    """
    if not params.lower[0].is_trivial:
        raise PreconditionError("leading lower parameter must be trivial")
    a0 = params.upper[0]
    if a0.is_trivial:
        raise PreconditionError("leading upper parameter must be nontrivial")
    if params.m == 1:
        if params.x.is_zero:
            return 0j
        return a0.conj()(params.field.one - params.x)
    coeff = 1 + 0j
    for a, b in zip(params.upper[1:], params.lower[1:]):
        if a == b:
            raise PreconditionError("paired upper and lower parameters must differ")
        coeff *= norm_jacobi(a, b)
    value = greene_F(GreeneParams(params.upper, params.lower[1:], params.x))
    return value / coeff
