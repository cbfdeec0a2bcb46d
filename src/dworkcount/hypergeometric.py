"""Finite-field hypergeometric functions in two normalizations.

The binomial normalization takes n+1 upper and n lower characters: for one
lower parameter it is an explicit average over the field, and for two or
more it is a character sum of normalized Jacobi sums.  The Gauss-sum
normalization takes equal-length parameter lists and divides shifted Gauss
sums by unshifted ones.  reduce_params cancels matching upper/lower
parameters, and mccarthy_to_greene converts a value of the second kind with
trivial leading lower parameter into the first normalization.  The by_dlog
forms give a value at every nonzero argument as one inverse DFT of a
lambda-free spectrum; Jacobi rows of powers of omega**((q-1)/d) are slices
of jacobi_base, and Gauss-sum factors slices of one doubled Gauss table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .characters import (
    MultChar,
    char_at_minus_one,
    jacobi_rows,
    norm_jacobi,
)
from .errors import BadParamsError, MixedFieldsError, PreconditionError
from .field import FqElem, FqField


def _one_field(chars) -> FqField:
    field = chars[0].field
    if any(c.field is not field for c in chars):
        raise MixedFieldsError("parameters live on different fields")
    return field


def _check_greene(upper, lower) -> FqField:
    if len(upper) < 2 or len(lower) != len(upper) - 1:
        raise BadParamsError("need n+1 upper and n lower parameters, n >= 1")
    return _one_field(tuple(upper) + tuple(lower))


def _check_mccarthy(upper, lower) -> FqField:
    if not upper or len(upper) != len(lower):
        raise BadParamsError("upper and lower lists must have equal positive length")
    return _one_field(tuple(upper) + tuple(lower))


@dataclass(frozen=True)
class GreeneParams:
    """Upper characters A_0..A_n, lower characters B_1..B_n, argument x."""

    upper: tuple[MultChar, ...]
    lower: tuple[MultChar, ...]
    x: FqElem

    def __post_init__(self):
        if _check_greene(self.upper, self.lower) is not self.x.field:
            raise MixedFieldsError("parameters live on different fields")

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
        if _check_mccarthy(self.upper, self.lower) is not self.x.field:
            raise MixedFieldsError("parameters live on different fields")

    @property
    def field(self) -> FqField:
        return self.upper[0].field

    @property
    def m(self) -> int:
        return len(self.upper)


def jacobi_base(field: FqField, d: int) -> np.ndarray:
    """B[k, j] = (omega**(k t + j); omega**j) for k < d, t = (q-1)/d, once per
    field and d, doubled along j so that (omega**(a t + j); omega**(b t + j))
    = B[a - b, b t + j] is a zero-copy slice.  One jacobi_rows call per row
    bounds the build's memory by one row's, about 75 MB at q near 2**20."""

    def build():
        base = np.empty((d, 2, field.q1), dtype=np.complex128)
        for k in range(d):
            base[k] = jacobi_rows(field, [k * (field.q1 // d)], [0])
        return base.reshape(d, 2 * field.q1)

    return field.plan(("jacobi-base", d), build)


def _greene_chi_rows(field: FqField, upper, lower, base=None):
    """Row i, entry j is (A_i omega**j; B_i omega**j) for j = 0..q-2, with
    B_0 = eps: the product over rows is the lambda-free coefficient vector
    of the character sum.  The rows come from one jacobi_rows call, or as
    slices of base = jacobi_base(field, d) when every character is a power
    of omega**((q-1)/d)."""
    ka, kb = [a.k for a in upper], [0] + [b.k for b in lower]
    if base is None:
        return jacobi_rows(field, ka, kb)
    t = field.q1 // len(base)
    return [base[(a - b) // t % len(base), b : b + field.q1] for a, b in zip(ka, kb)]


def _chi_sum(field: FqField, rows: np.ndarray, x: FqElem) -> complex:
    """q/(q-1) * sum_j prod_i rows[i, j] * omega**j(x), for x != 0."""
    chi_x = field.unit_roots[(np.arange(field.q1) * x.exp) % field.q1]
    return complex(field.q / field.q1 * (np.prod(rows, axis=0) @ chi_x))


def greene_F_chi_sum(params: GreeneParams) -> complex:
    """The character-sum expression

        q/(q-1) * sum_chi (A_0 chi; chi) prod_i (A_i chi; B_i chi) chi(x),

    which is the defining branch for n >= 2 (and agrees with the n = 1
    average as an identity).
    """
    if params.x.is_zero:
        return 0j
    rows = _greene_chi_rows(params.field, params.upper, params.lower)
    return _chi_sum(params.field, rows, params.x)


def _greene_2f1_factors(field: FqField, upper, lower):
    """The lambda-free parts of the n = 1 average: the sign (A_1 B_1)(-1),
    and over element ids y, A_1(y) * (conj(A_1) B_1)(1-y) and conj(A_0)(1-y)."""
    a0, a1 = upper
    b1 = lower[0]
    v1 = a1.value_vector()
    v2 = (a1.conj() * b1).value_vector()[field.one_minus_table]
    v3 = a0.conj().value_vector()[field.one_minus_table]
    return char_at_minus_one(field, a1.k + b1.k), v1, v2, v3


def _greene_2f1_average(params: GreeneParams) -> complex:
    """The one-lower-parameter form

        eps(x) * (A_1 B_1)(-1)/q * sum_y A_1(y) (conj(A_1) B_1)(1-y) conj(A_0)(1-xy).
    """
    x = params.x
    if x.is_zero:
        return 0j
    field = params.field
    sign, v1, v2, v3 = _greene_2f1_factors(field, params.upper, params.lower)
    ids = np.arange(field.q, dtype=np.int64)
    xy = np.zeros(field.q, dtype=np.int64)
    xy[1:] = field.exp_table[(field.dlog_table[ids[1:]] + x.exp) % field.q1]
    return sign / field.q * complex(v1 @ (v2 * v3[xy]))


def greene_F(params: GreeneParams) -> complex:
    """The binomial-normalized hypergeometric value: the explicit average
    for n = 1 and the character sum for n >= 2 (two distinct definitions)."""
    if params.n == 1:
        return _greene_2f1_average(params)
    return greene_F_chi_sum(params)


def _mccarthy_coefficients(field: FqField, upper, lower) -> np.ndarray:
    """prod_i [g(A_i omega**j)/g(A_i)][g(conj(B_i omega**j))/g(conj(B_i))] for
    j = 0..q-2, with A_i = omega**upper[i] and B_i = omega**lower[i]: the
    lambda-free coefficients of the Gauss-sum normalization.  Each factor is
    a slice of the Gauss table doubled once per field, read backwards for
    the lower parameters, and the g(A_i), g(conj(B_i)) divide once."""
    q1 = field.q1
    g = field.plan(("gauss-doubled",), lambda: np.concatenate((field.gauss_table,) * 2))
    acc, norm = np.ones(q1, dtype=np.complex128), 1 + 0j
    # g[::-1][s + j] = g(omega**(-1 - s - j)): s = b - 1 gives conj(B omega**j)
    for s, table in [(a % q1, g) for a in upper] + [((b - 1) % q1, g[::-1]) for b in lower]:
        acc *= table[s : s + q1]
        norm *= table[s]
    return acc / norm


def _mccarthy_spectrum(field: FqField, upper, lower) -> np.ndarray:
    """The coefficients times chi(-1)**m over chi = omega**j: the row c with
    mccarthy_F(x) = -1/(q-1) * sum_j c[j] * omega**j(x)."""
    j = np.arange(field.q1, dtype=np.int64)
    minus_one = int(field.dlog_table[field.neg_table[1]])
    twist = field.unit_roots[(j * len(upper) * minus_one) % field.q1]
    return _mccarthy_coefficients(field, upper, lower) * twist


def _mccarthy_value(field: FqField, upper, lower, x_exp: int) -> complex:
    """mccarthy_F at x = g**x_exp for the exponent lists upper and lower."""
    q1 = field.q1
    acc = _mccarthy_coefficients(field, upper, lower)
    j = np.arange(q1, dtype=np.int64)
    minus_one = int(field.dlog_table[field.neg_table[1]])
    twist = (len(upper) * minus_one + x_exp) % q1
    return complex(-(acc @ field.unit_roots[(j * twist) % q1]) / q1)


def mccarthy_F(params: McCarthyParams) -> complex:
    """The Gauss-sum-normalized value

        -1/(q-1) * sum_chi prod_i [g(A_i chi)/g(A_i)][g(conj(B_i chi))/g(conj(B_i))]
                   * chi(-1)**m * chi(x).
    """
    if params.x.is_zero:
        return 0j
    upper = [a.k for a in params.upper]
    return _mccarthy_value(params.field, upper, [b.k for b in params.lower], params.x.exp)


# -- every nonzero argument at once ----------------------------------------
#
# Each value above is sum_j c[j] * omega**j(x) with c free of x, so one
# inverse DFT of c gives the value at every x != 0, indexed by dlog x.


def _mccarthy_vector(field: FqField, upper, lower) -> np.ndarray:
    """_mccarthy_value at every x != 0: entry u is the value at x = g**u."""
    return -np.fft.ifft(_mccarthy_spectrum(field, upper, lower))


def mccarthy_F_by_dlog(upper, lower) -> np.ndarray:
    """mccarthy_F(upper; lower; x) for every x != 0: entry u is the value at
    x = g**u."""
    field = _check_mccarthy(upper, lower)
    return _mccarthy_vector(field, [a.k for a in upper], [b.k for b in lower])


def _greene_spectrum(field: FqField, upper, lower, base=None) -> np.ndarray:
    """The lambda-free row s with greene_F(x) = ifft(s)[dlog x] for every
    x != 0.  For n >= 2 it is q times the product of the character-sum rows
    (_greene_chi_rows, with base); for n = 1 the average over y is a
    correlation over the cyclic group of dlogs, sum_a f(a) h(a+u) with
    f = A_1(y) (conj(A_1) B_1)(1-y) and h = conj(A_0)(1-z)."""
    if len(lower) >= 2:
        rows = _greene_chi_rows(field, upper, lower, base)
        acc = field.q * rows[0]
        for row in rows[1:]:
            acc *= row
        return acc
    sign, v1, v2, v3 = _greene_2f1_factors(field, upper, lower)
    f = (v1 * v2)[field.exp_table]
    # sum_a f(a) h(a+u) is the convolution of f(-a) with h
    spectra = np.fft.fft([np.roll(f[::-1], 1), v3[field.exp_table]], axis=1)
    return sign / field.q * spectra[0] * spectra[1]


def greene_F_by_dlog(upper, lower) -> np.ndarray:
    """greene_F(upper; lower; x) for every x != 0: entry u is the value at
    x = g**u, the character sum for n >= 2 and the average for n = 1."""
    return np.fft.ifft(_greene_spectrum(_check_greene(upper, lower), upper, lower))


def _cancel_common(upper, lower, key=lambda v: v) -> list[list]:
    """Drop the maximal common multiset of upper and lower, compared by key,
    keeping the order of what is left."""
    common = Counter(map(key, upper)) & Counter(map(key, lower))
    kept = []
    for values in (upper, lower):
        budget = +common
        kept.append([])
        for v in values:
            if budget[key(v)] > 0:
                budget[key(v)] -= 1
            else:
                kept[-1].append(v)
    return kept


def reduce_params(params: McCarthyParams) -> McCarthyParams:
    """Cancel the maximal common multiset between upper and lower lists."""
    upper, lower = _cancel_common(params.upper, params.lower, key=lambda c: c.k)
    if not upper:
        raise BadParamsError("reduction cancelled every parameter")
    return McCarthyParams(tuple(upper), tuple(lower), params.x)


def mccarthy_to_greene(params: McCarthyParams) -> complex:
    """The Gauss-sum-normalized value computed through the binomial
    normalization: with lower list (eps, B_1, ..., B_{m-1}), leading upper
    parameter nontrivial and A_i != B_i, the value equals

        prod_i (A_i; B_i)**(-1) * F(A_0, ..., A_{m-1}; B_1, ..., B_{m-1}; x);

    for m = 1 it is the closed form eps(x) * conj(A_0)(1 - x).  For m >= 3
    one set of Jacobi rows gives both the character sum and, in its j = 0
    column, the normalizations (A_i; B_i).
    """
    if not params.lower[0].is_trivial:
        raise PreconditionError("leading lower parameter must be trivial")
    a0 = params.upper[0]
    if a0.is_trivial:
        raise PreconditionError("leading upper parameter must be nontrivial")
    upper, lower = params.upper[1:], params.lower[1:]
    if any(a == b for a, b in zip(upper, lower)):
        raise PreconditionError("paired upper and lower parameters must differ")
    field, x = params.field, params.x
    if x.is_zero:
        return 0j
    if params.m == 1:
        return a0.conj()(field.one - x)
    if params.m == 2:
        value = _greene_2f1_average(GreeneParams(params.upper, lower, x))
        return complex(value / norm_jacobi(upper[0], lower[0]))
    rows = _greene_chi_rows(field, params.upper, lower)
    return complex(_chi_sum(field, rows, x) / np.prod(rows[1:, 0]))
