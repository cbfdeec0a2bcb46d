"""Multiplicative characters, Gauss sums, Jacobi sums, and identity checks.

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

from .errors import (
    BadLambdaError,
    BadModulusError,
    BadParamsError,
    MixedFieldsError,
    RoundingFailure,
)
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

    def value_vector(self) -> np.ndarray:
        """chi(x) for every element id x, as a complex array of length q."""
        return char_vector(self.field, self.k)


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
    each row is one inverse DFT of the histogram of the first factor over
    u - v mod q-1.  All rows share one bincount and one batched FFT.
    """
    q1 = field.q1
    ka = np.asarray(ka, dtype=np.int64)[:, None] % q1
    kb = np.asarray(kb, dtype=np.int64)[:, None] % q1
    u = field.dlog_table[2:]
    v = field.dlog_table[field.one_minus_table[2:]]
    weights = field.unit_roots[(ka * u - kb * v) % q1].ravel()
    bins = (np.arange(len(ka))[:, None] * q1 + (u - v) % q1).ravel()
    size = len(ka) * q1
    hist = np.bincount(bins, weights.real, size) + 1j * np.bincount(bins, weights.imag, size)
    j = np.arange(q1)
    sign = field.unit_roots[((kb + j) * field.dlog_table[field.neg_table[1]]) % q1]
    return sign * (q1 / field.q) * np.fft.ifft(hist.reshape(-1, q1), axis=1)


def char_at_minus_one(field: FqField, k: int) -> complex:
    """omega**k(-1), needed constantly in sign bookkeeping."""
    m = field.dlog_table[field.neg_table[1]]
    return complex(field.unit_roots[(k * int(m)) % field.q1])


def round_to_int(value: complex, tol: float = 1e-3) -> tuple[int, float]:
    """Nearest integer and the residual; residuals above tol are an error."""
    n = int(round(value.real))
    residual = abs(value - n)
    if residual > tol:
        raise RoundingFailure(f"value {complex(value)} is {residual:.3g} away from an integer")
    return n, residual


# -- identity checks -------------------------------------------------------


def check_hasse_davenport(m: int, psi: MultChar) -> float:
    """Residual of the Hasse-Davenport product relation for the order-m
    character chi = omega**((q-1)/m):

        prod_{i<m} g(chi**i psi) = -g(psi**m) psi**(-m)(m) prod_{i<m} g(chi**i)
    """
    field = psi.field
    if m <= 0 or field.q1 % m != 0:
        raise BadModulusError(f"q = {field.q} does not satisfy q = 1 mod {m}")
    q1 = field.q1
    ck = q1 // m
    g = field.gauss_table
    lhs = 1.0 + 0j
    rprod = 1.0 + 0j
    for i in range(m):
        lhs *= g[(i * ck + psi.k) % q1]
        rprod *= g[(i * ck) % q1]
    m_elem = field.elem(m)
    psi_pow = MultChar(field, -m * psi.k)
    rhs = -g[(m * psi.k) % q1] * psi_pow(m_elem) * rprod
    return abs(lhs - rhs)


def check_sextic_gauss_product(field: FqField, j: int) -> float:
    """Residual of the sextic product formula

        g(omega**(6j)) = prod_{i<6} g(omega**(i t + j))
                         / (omega**(-6j)(6) * prod_{1<=i<6} g(omega**(i t)))

    with t = (q-1)/6.
    """
    if field.q1 % 6 != 0:
        raise BadModulusError(f"q = {field.q} does not satisfy q = 1 mod 6")
    q1 = field.q1
    t = q1 // 6
    g = field.gauss_table
    num = 1.0 + 0j
    for i in range(6):
        num *= g[(i * t + j) % q1]
    den = MultChar(field, -6 * j)(field.elem(6))
    for i in range(1, 6):
        den *= g[(i * t) % q1]
    lhs = complex(g[(6 * j) % q1])
    return abs(lhs - num / den)


def check_twisted_gauss_convolution(a: int, b: int, lam: FqElem) -> float:
    """Residual of the full-cycle Gauss-sum convolution with a sextic twist:

        sum_j g(omega**(j+a)) g(omega**(-j+b)) omega**j(-1) omega**(6j)(lam)
            = (q-1) g(omega**(a+b)) omega**b(-1) omega**(-(a+b))(1 - lam**6)

    for a, b multiples of t = (q-1)/6 and lam off the singular locus.
    """
    field = lam.field
    if field.q1 % 6 != 0:
        raise BadModulusError(f"q = {field.q} does not satisfy q = 1 mod 6")
    q1 = field.q1
    t = q1 // 6
    if a % t or b % t:
        raise BadParamsError("a and b must be multiples of t = (q-1)/6")
    if lam.is_zero:
        raise BadLambdaError("lambda must be nonzero")
    lam6 = lam**6
    if lam6 == field.one:
        raise BadLambdaError("lambda**6 = 1 is singular")
    g = field.gauss_table
    j = np.arange(q1, dtype=np.int64)
    dl_m1 = int(field.dlog_table[field.neg_table[1]])
    dl_lam = lam.exp
    terms = (
        g[(j + a) % q1]
        * g[(-j + b) % q1]
        * field.unit_roots[(j * dl_m1) % q1]
        * field.unit_roots[(6 * j * dl_lam) % q1]
    )
    lhs = complex(terms.sum())
    one_minus = field.one - lam6
    rhs = q1 * g[(a + b) % q1] * char_at_minus_one(field, b) * MultChar(field, -(a + b))(one_minus)
    return abs(lhs - rhs)
