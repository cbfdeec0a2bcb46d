"""Multiplicative characters, Gauss sums, Jacobi sums and integer rounding.

Characters of F_q* are powers of the distinguished generator character
omega, defined by omega(g) = exp(2*pi*i/(q-1)) for the field's primitive
element g.  Every character is extended by chi(0) = 0, including the
trivial one, so sums over the whole field need no exclusions.

Values are carried as complex doubles.  Quantities that must be integers
are recovered with round_to_int, which enforces a residual tolerance
instead of rounding silently.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadParamsError, MixedFieldsError, RoundingFailure
from .field import FqElem, FqField


class MultChar:
    """The character omega**k on F_q*, extended by zero at 0."""

    __slots__ = ("field", "k")

    def __init__(self, field: FqField, k: int):
        self.field = field
        self.k = k % field.q1

    @property
    def is_trivial(self) -> bool:
        return self.k == 0

    @property
    def order(self) -> int:
        q1 = self.field.q1
        return q1 // math.gcd(self.k, q1) if self.k else 1

    def __call__(self, x: FqElem) -> complex:
        if x.field is not self.field:
            raise MixedFieldsError("element evaluated under a foreign character")
        if x.exp is None:
            return 0j
        return complex(self.field.unit_roots[(self.k * x.exp) % self.field.q1])

    def conj(self) -> "MultChar":
        return MultChar(self.field, -self.k)

    def __mul__(self, other: "MultChar") -> "MultChar":
        if other.field is not self.field:
            raise MixedFieldsError("characters on different fields")
        return MultChar(self.field, self.k + other.k)

    def __pow__(self, n: int) -> "MultChar":
        return MultChar(self.field, self.k * n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultChar)
            and other.field is self.field
            and other.k == self.k
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.k))

    def __repr__(self) -> str:
        return f"MultChar(q={self.field.q}, k={self.k})"


def trivial_char(field: FqField) -> MultChar:
    return MultChar(field, 0)


def omega(field: FqField) -> MultChar:
    """The generator character: omega(g) = exp(2*pi*i/(q-1))."""
    return MultChar(field, 1)


def char_vector(field: FqField, k: int) -> np.ndarray:
    """omega**k over all element ids (zero at id 0)."""
    v = np.zeros(field.q, dtype=np.complex128)
    v[field.exp_table] = field.unit_roots[(k * np.arange(field.q1, dtype=np.int64)) % field.q1]
    return v


def at_fibres(field: FqField, d: int, spectrum: np.ndarray, offset: int = 0) -> np.ndarray:
    """A lambda-free spectrum read at every fibre: entry e is

        (q-1)**(-1) * sum_j spectrum[j] * zeta**(j (offset - d e)),

    zeta = exp(2 pi i/(q-1)), that is sum_j spectrum[j] omega**j(x) / (q-1)
    at x = g**offset / lam**d for lam = g**e; with offset 0, at the
    hypergeometric argument x = 1/lam**d.  One inverse DFT of length q-1."""
    return np.fft.ifft(spectrum)[(offset - d * np.arange(field.q1)) % field.q1]


def jacobi(chars) -> complex:
    """J(chi_1, ..., chi_n): the character sum over x_1 + ... + x_n = 1.

    Two characters are summed directly.  Longer tuples are folded with
    additive-group convolutions of the character value vectors, which
    realizes exactly the defining sum.
    """
    chars = list(chars)
    if len(chars) < 2:
        raise BadParamsError("a Jacobi sum needs at least two characters")
    field = chars[0].field
    if any(c.field is not field for c in chars[1:]):
        raise MixedFieldsError("Jacobi sum with characters on different fields")
    if len(chars) == 2:
        v1 = char_vector(field, chars[0].k)
        v2 = char_vector(field, chars[1].k)
        return complex(v1 @ v2[field.one_minus_table])
    shape = (field.p,) * field.e
    acc = np.fft.fftn(char_vector(field, chars[0].k).reshape(shape))
    for c in chars[1:]:
        acc = acc * np.fft.fftn(char_vector(field, c.k).reshape(shape))
    conv = np.fft.ifftn(acc)
    # element id 1 has digits (1, 0, ..., 0); axis 0 of the reshaped grid
    # is the highest digit, so the id-1 cell sits at index (0, ..., 0, 1)
    return complex(conv[(0,) * (field.e - 1) + (1,)])


def norm_jacobi(a: MultChar, b: MultChar) -> complex:
    """The binomial-style normalized Jacobi sum (a; b) = b(-1)/q * J(a, conj(b))."""
    if b.field is not a.field:
        raise MixedFieldsError("characters on different fields")
    return norm_jacobi_exps(a.field, a.k, b.k)


def norm_jacobi_exps(field: FqField, ka: int, kb: int) -> complex:
    """(omega**ka; omega**kb): entry (0, 0) of jacobi_rows."""
    return complex(jacobi_rows(field, [ka], [kb])[0, 0])


def jacobi_rows(field: FqField, ka, kb) -> np.ndarray:
    """Normalized Jacobi sums along every character shift: row r, entry j is

        (omega**(ka[r]+j); omega**(kb[r]+j))
            = omega**(kb[r]+j)(-1)/q * J(omega**(ka[r]+j), omega**(-kb[r]-j)).

    Over x != 0, 1 with u = dlog x and v = dlog(1-x), the summand of J is
    zeta**(ka u - kb v) * zeta**(j (u - v)) with zeta = exp(2 pi i/(q-1)), so
    each row is one inverse DFT of the first factor placed at u - v mod q-1.
    As x -> x/(1-x) maps F_q minus {0, 1} one-to-one onto F_q* minus {-1},
    u - v takes each value d once, except dlog(-1): u and v laid out by d
    give the placed factor for all rows in one gather, and one batched FFT.
    """
    q1 = field.q1
    ka = np.asarray(ka, dtype=np.int64)[:, None] % q1
    kb = np.asarray(kb, dtype=np.int64)[:, None] % q1
    minus_one = field.dlog_table[field.neg_table[1]]
    # x != 0, 1 are the ids from 2 on
    du, dv = field.dlog_table[2:], field.dlog_table[field.one_minus_table[2:]]
    (u, v), d = np.zeros((2, q1), dtype=np.int64), (du - dv) % q1
    u[d], v[d] = du, dv
    phase = ka * u
    phase -= kb * v
    phase %= q1
    rows = field.unit_roots[phase]
    rows[:, minus_one] = 0
    rows = np.fft.ifft(rows, axis=1, out=rows)
    # the sign omega**(kb + j)(-1) as a column times a row, in place
    rows *= (q1 / field.q) * field.unit_roots[(kb * minus_one) % q1]
    rows *= field.unit_roots[(np.arange(q1) * minus_one) % q1]
    return rows


def char_at_minus_one(field: FqField, k: int) -> complex:
    """omega**k(-1), needed constantly in sign bookkeeping."""
    m = field.dlog_table[field.neg_table[1]]
    return complex(field.unit_roots[(k * int(m)) % field.q1])


def round_to_int(value: complex, tol: float = 1e-3) -> tuple[int, float]:
    """Nearest integer and the residual; unless residual <= tol, an error."""
    n = int(round(value.real))
    residual = abs(value - n)
    if not residual <= tol:
        raise RoundingFailure(f"value {complex(value)} is {residual:.3g} away from an integer")
    return n, residual

