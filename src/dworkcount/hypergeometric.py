"""Finite-field hypergeometric functions in two normalizations.

The binomial normalization takes n+1 upper and n lower characters: for one
lower parameter it is an explicit average over the field, and for two or
more it is a character sum of normalized Jacobi sums.  The Gauss-sum
normalization takes equal-length parameter lists and divides shifted Gauss
sums by unshifted ones.  reduce_params cancels matching upper/lower
parameters, and mccarthy_to_greene converts a value of the second kind with
trivial leading lower parameter into the first normalization.  Each value
is written once, for a block of parameter rows of one length with one
argument per row; mccarthy_F, greene_F and mccarthy_to_greene are one-row
views of those blocks.  The by_dlog forms give a value at every nonzero
argument as one inverse DFT of a lambda-free spectrum; Jacobi rows of
powers of omega**((q-1)/d) are slices of jacobi_base, and Gauss-sum factors
windows of one doubled Gauss table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .characters import MultChar, jacobi_rows
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


def _char_table(field: FqField, k, ids) -> np.ndarray:
    """omega**k at element ids, zero at id 0, with k and ids broadcast."""
    values = field.unit_roots[(k * field.dlog_table[ids]) % field.q1]
    values *= ids != 0
    return values


def _at_x(field: FqField, c: np.ndarray, x_ids) -> np.ndarray:
    """sum_j c[r, j] * omega**j(x_r) for each row r: zero where x_r = 0."""
    return (c * _char_table(field, np.arange(field.q1), np.asarray(x_ids)[:, None])).sum(axis=1)


def _chi_sums(field: FqField, rows: np.ndarray, x_ids) -> np.ndarray:
    """q/(q-1) * sum_j prod_i rows[r, i, j] * omega**j(x_r) for each r."""
    return field.q / field.q1 * _at_x(field, rows.prod(axis=1), x_ids)


def greene_F_chi_sum(params: GreeneParams) -> complex:
    """The character-sum expression

        q/(q-1) * sum_chi (A_0 chi; chi) prod_i (A_i chi; B_i chi) chi(x),

    which is the defining branch for n >= 2 (and agrees with the n = 1
    average as an identity).
    """
    field = params.field
    rows = _greene_chi_rows(field, params.upper, params.lower)
    return complex(_chi_sums(field, rows[None], [params.x.id])[0])


def _greene_2f1_factors(field: FqField, a0, a1, b1):
    """The lambda-free parts of the n = 1 average for exponents a_0, a_1, b_1,
    each an integer or an (R, 1) column: the sign (A_1 B_1)(-1), and over
    element ids y, A_1(y) * (conj(A_1) B_1)(1-y) and conj(A_0)(1-y)."""
    dlog, one_minus = field.dlog_table, field.one_minus_table
    sign = field.unit_roots[(a1 + b1) * dlog[field.neg_table[1]] % field.q1]
    v12 = field.unit_roots[(a1 * dlog + (b1 - a1) * dlog[one_minus]) % field.q1]
    v12[..., :2] = 0  # y = 0 and y = 1 are ids 0 and 1
    return sign, v12, _char_table(field, -a0, one_minus)


def _greene_2f1_values(field: FqField, ka, kb, x_ids) -> np.ndarray:
    """The one-lower-parameter form, one value per exponent row ka = (a_0,
    a_1), kb = (b_1) and argument id x_ids[r]:

        eps(x) * (A_1 B_1)(-1)/q * sum_y A_1(y) (conj(A_1) B_1)(1-y) conj(A_0)(1-xy).
    """
    ka, x, y = np.asarray(ka), np.asarray(x_ids)[:, None], np.arange(field.q)
    sign, v12, v3 = _greene_2f1_factors(field, ka[:, :1], ka[:, 1:], np.asarray(kb))
    xy = field.exp_table[(field.dlog_table[x] + field.dlog_table[y]) % field.q1]
    xy[:, 0] = 0  # y = 0
    values = sign[:, 0] / field.q * (v12 * np.take_along_axis(v3, xy, axis=1)).sum(axis=1)
    return np.where(x[:, 0] == 0, 0, values)


def greene_F(params: GreeneParams) -> complex:
    """The binomial-normalized hypergeometric value: the explicit average
    for n = 1 and the character sum for n >= 2 (two distinct definitions)."""
    if params.n == 1:
        ka, kb = [[a.k for a in params.upper]], [[params.lower[0].k]]
        return complex(_greene_2f1_values(params.field, ka, kb, [params.x.id])[0])
    return greene_F_chi_sum(params)


def _mccarthy_coefficients(field: FqField, upper, lower) -> np.ndarray:
    """Row r, entry j is prod_i [g(A_i omega**j)/g(A_i)][g(conj(B_i omega**j))/g(conj(B_i))]
    for j = 0..q-2, with A_i = omega**upper[r, i] and B_i = omega**lower[r, i]
    for exponents in [0, q-1): the lambda-free coefficients of the Gauss-sum
    normalization.  Each factor is a window of the Gauss table doubled once
    per field, read backwards for the lower parameters; column j = 0 is the
    product of the g(A_i), g(conj(B_i)) that divide."""

    def windows():
        g = np.concatenate((field.gauss_table,) * 2 + (field.gauss_table[:1],))
        return [np.lib.stride_tricks.sliding_window_view(t, field.q1) for t in (g, g[::-1])]

    # g[2(q-1) - s] = g(omega**-s), so rev[b][j] = g(omega**(-b - j))
    win, rev = field.plan(("gauss-windows",), windows)
    acc = win[np.asarray(upper).T].prod(axis=0)
    acc *= rev[np.asarray(lower).T].prod(axis=0)
    return acc / acc[:, :1]


def _mccarthy_spectrum(field: FqField, upper, lower) -> np.ndarray:
    """The coefficients times chi(-1)**m over chi = omega**j: row r is the c
    with mccarthy_F(x) = -1/(q-1) * sum_j c[j] * omega**j(x) for row r's
    parameters, all rows of one length m.  As dlog(-1) is 0 or (q-1)/2, the
    twist is 1 or (-1)**j."""
    c = _mccarthy_coefficients(field, upper, lower)
    if np.shape(upper)[1] * field.dlog_table[field.neg_table[1]] % field.q1:
        np.negative(c[:, 1::2], out=c[:, 1::2])
    return c


def _mccarthy_values(field: FqField, upper, lower, x_ids) -> np.ndarray:
    """mccarthy_F for each row of the exponent arrays upper and lower (R, m)
    at the element id x_ids[r]: zero at x = 0."""
    return -_at_x(field, _mccarthy_spectrum(field, upper, lower), x_ids) / field.q1


def mccarthy_F(params: McCarthyParams) -> complex:
    """The Gauss-sum-normalized value

        -1/(q-1) * sum_chi prod_i [g(A_i chi)/g(A_i)][g(conj(B_i chi))/g(conj(B_i))]
                   * chi(-1)**m * chi(x).
    """
    upper, lower = [[a.k for a in params.upper]], [[b.k for b in params.lower]]
    return complex(_mccarthy_values(params.field, upper, lower, [params.x.id])[0])


# -- every nonzero argument at once ----------------------------------------
#
# Each value above is sum_j c[j] * omega**j(x) with c free of x, so one
# inverse DFT of c gives the value at every x != 0, indexed by dlog x.


def _mccarthy_vector(field: FqField, upper, lower) -> np.ndarray:
    """_mccarthy_values at every x != 0, one row per parameter row: entry
    [r, u] is the value at x = g**u."""
    return -np.fft.ifft(_mccarthy_spectrum(field, upper, lower), axis=1)


def mccarthy_F_by_dlog(upper, lower) -> np.ndarray:
    """mccarthy_F(upper; lower; x) for every x != 0: entry u is the value at
    x = g**u."""
    field = _check_mccarthy(upper, lower)
    return _mccarthy_vector(field, [[a.k for a in upper]], [[b.k for b in lower]])[0]


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
    sign, v12, v3 = _greene_2f1_factors(field, upper[0].k, upper[1].k, lower[0].k)
    f = v12[field.exp_table]
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
    ka, kb = [[a.k for a in params.upper]], [[b.k for b in lower]]
    return complex(_bridge_values(params.field, ka, kb, [params.x.id])[0])


def _bridge_values(field: FqField, ka, kb, x_ids) -> np.ndarray:
    """mccarthy_to_greene for rows of one length m, its preconditions
    assumed: upper exponents ka (R, m), the lower ones after the trivial
    leading parameter kb (R, m - 1), argument ids x_ids (R,)."""
    ka, kb, x = np.asarray(ka), np.asarray(kb), np.asarray(x_ids)
    m = ka.shape[1]
    if m == 1:
        return np.where(x == 0, 0, _char_table(field, -ka[:, 0], field.one_minus_table[x]))
    if m == 2:
        return _greene_2f1_values(field, ka, kb, x) / jacobi_rows(field, ka[:, 1], kb[:, 0])[:, 0]
    rows = jacobi_rows(field, ka.ravel(), np.pad(kb, ((0, 0), (1, 0))).ravel())
    rows = rows.reshape(len(ka), m, field.q1)
    return _chi_sums(field, rows, x) / rows[:, 1:, 0].prod(axis=1)
