"""Finite fields with precomputed index tables.

A field F_q (q = p**e, q <= 2**20) is built once and is immutable afterwards.
Nonzero elements are carried in index form: the exponent of a fixed primitive
element g, so that evaluating a multiplicative character is a single table
lookup.  Construction is deterministic: the modulus polynomial is the
lexicographically smallest monic irreducible of degree e over F_p (coefficient
vectors compared constant term first), and g is the first primitive element in
coefficient-vector order.  Building the same (p, e) twice yields identical
tables, so results never depend on run-to-run state.

Elements are also exposed as integer ids in range(q): the element with
coefficients (c_0, ..., c_{e-1}) in the power basis has id = sum(c_i * p**i).
For e = 1 the id is just the residue.  Addition acts digit-wise on ids;
multiplication goes through the exp/dlog tables.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    FieldTooLargeError,
    MixedFieldsError,
    NonPrimeError,
    ZeroArgumentError,
)

MAX_FIELD_SIZE = 1 << 20


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _poly_mul_mod(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    """Product of two coefficient tuples modulo a monic modulus, over F_p."""
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    e = len(modulus) - 1
    for i in range(len(res) - 1, e - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(e):
                res[i - e + j] = (res[i - e + j] - c * modulus[j]) % p
    res = res[:e] if len(res) >= e else res + [0] * (e - len(res))
    return tuple(res)


def _poly_divides(d: tuple, f: list, p: int) -> bool:
    """True when the monic polynomial d divides f over F_p."""
    r = list(f)
    dd = len(d) - 1
    while len(r) - 1 >= dd:
        c = r[-1]
        if c:
            for j in range(dd + 1):
                r[len(r) - 1 - dd + j] = (r[len(r) - 1 - dd + j] - c * d[j]) % p
        r.pop()
    return not any(r)


class FqElem:
    """A field element in index form: zero, or g**exp for the field's g."""

    __slots__ = ("field", "exp")

    def __init__(self, field: "FqField", exp: int | None):
        self.field = field
        self.exp = None if exp is None else exp % field.q1 if field.q1 else 0

    @property
    def is_zero(self) -> bool:
        return self.exp is None

    @property
    def id(self) -> int:
        return 0 if self.exp is None else int(self.field.exp_table[self.exp])

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.id_to_coeffs(self.id)

    def _check(self, other: "FqElem") -> None:
        if not isinstance(other, FqElem):
            raise TypeError(f"cannot combine FqElem with {type(other).__name__}")
        if other.field is not self.field:
            raise MixedFieldsError("elements belong to different fields")

    def __mul__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        if self.exp is None or other.exp is None:
            return FqElem(self.field, None)
        return FqElem(self.field, self.exp + other.exp)

    def __truediv__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "FqElem":
        if self.exp is None:
            if n > 0:
                return self
            if n == 0:
                return self.field.one
            raise ZeroArgumentError("zero has no negative power")
        return FqElem(self.field, self.exp * (n % self.field.q1))

    def inverse(self) -> "FqElem":
        if self.exp is None:
            raise ZeroArgumentError("zero is not invertible")
        return FqElem(self.field, -self.exp)

    def __neg__(self) -> "FqElem":
        return self.field.from_id(int(self.field.neg_table[self.id]))

    def __add__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return self.field.from_id(self.field.add_ids(self.id, other.id))

    def __sub__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return self + (-other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqElem)
            and other.field is self.field
            and other.exp == self.exp
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.exp))

    def __repr__(self) -> str:
        if self.field.e == 1:
            return f"F{self.field.q}({self.id})"
        return f"F{self.field.q}{self.coeffs}"


class FqField:
    """F_q with exp/dlog, trace, negation, 1-x, and Gauss-sum tables."""

    def __init__(self, p: int, e: int = 1, *, alt_generator: bool = False):
        if e < 1:
            raise ValueError("extension degree must be positive")
        if not _is_prime(p):
            raise NonPrimeError(f"{p} is not prime")
        q = p**e
        if q > MAX_FIELD_SIZE:
            raise FieldTooLargeError(f"q = {q} exceeds cap {MAX_FIELD_SIZE}")
        self.p = p
        self.e = e
        self.q = q
        self.q1 = q - 1
        self.alt_generator = alt_generator
        self._pows = [p**i for i in range(e + 1)]
        self.modulus = self._find_modulus()
        self.generator_id = self._find_generator(1 if alt_generator else 0)
        self._build_mul_tables()
        self._build_add_tables()
        self._build_trace()
        self._build_analytic()
        self._plans: dict[tuple, object] = {}

    # -- construction -------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        p, e = self.p, self.e
        if e == 1:
            return (0, 1)
        divisors = [
            tail + (1,)
            for k in range(1, e // 2 + 1)
            for tail in itertools.product(range(p), repeat=k)
        ]
        for coeffs in itertools.product(range(p), repeat=e):
            if coeffs[0] == 0:
                continue  # constant term 0 means x divides
            f = list(coeffs) + [1]
            if not any(_poly_divides(d, f, p) for d in divisors):
                return tuple(f)
        raise AssertionError("no irreducible polynomial found")

    def _poly_pow(self, base: tuple, n: int) -> tuple:
        r = tuple([1] + [0] * (self.e - 1))
        b = base
        while n:
            if n & 1:
                r = _poly_mul_mod(r, b, self.modulus, self.p)
            b = _poly_mul_mod(b, b, self.modulus, self.p)
            n >>= 1
        return r

    def _find_generator(self, skip: int) -> int:
        q1 = self.q1
        one = tuple([1] + [0] * (self.e - 1))
        checks = [q1 // r for r in _prime_factors(q1)] if q1 > 1 else []
        found = 0
        for digits in itertools.product(range(self.p), repeat=self.e):
            if not any(digits):
                continue
            if all(self._poly_pow(digits, n) != one for n in checks):
                if found == skip:
                    return sum(c * self._pows[i] for i, c in enumerate(digits))
                found += 1
        raise AssertionError("not enough primitive elements")

    def _mul_matrix(self, c: tuple) -> np.ndarray:
        """Matrix M with M[:, j] = coefficients of c * x**j, for fixed c."""
        cols = [c]
        for _ in range(self.e - 1):
            shifted = _poly_mul_mod(cols[-1], (0, 1), self.modulus, self.p)
            cols.append(shifted)
        return np.array(cols, dtype=np.int64).T

    def _ids_to_digit_matrix(self, ids: np.ndarray) -> np.ndarray:
        out = np.empty((self.e, len(ids)), dtype=np.int64)
        rest = ids.astype(np.int64)
        for i in range(self.e):
            out[i] = rest % self.p
            rest = rest // self.p
        return out

    def _digit_matrix_to_ids(self, digits: np.ndarray) -> np.ndarray:
        out = np.zeros(digits.shape[-1], dtype=np.int64)
        for i in range(self.e - 1, -1, -1):
            out = out * self.p + digits[i]
        return out

    def _build_mul_tables(self) -> None:
        q, q1 = self.q, self.q1
        exp = np.empty(max(q1, 1), dtype=np.int64)
        exp[0] = 1
        if q1 >= 2:
            exp[1] = self.generator_id
        gen = self.id_to_coeffs(self.generator_id)
        k = 1
        while k < q1:
            # exp[k : k+span] = g**k * exp[0 : span], as one linear map
            span = min(k, q1 - k)
            gk = _poly_mul_mod(self.id_to_coeffs(int(exp[k - 1])), gen, self.modulus, self.p)
            if self.e == 1:
                exp[k : k + span] = (gk[0] * exp[:span]) % self.p
            else:
                digits = self._ids_to_digit_matrix(exp[:span])
                prod = (self._mul_matrix(gk) @ digits) % self.p
                exp[k : k + span] = self._digit_matrix_to_ids(prod)
            k *= 2
        self.exp_table = exp[:q1] if q1 else np.array([], dtype=np.int64)
        dlog = np.full(q, -1, dtype=np.int64)
        dlog[self.exp_table] = np.arange(q1, dtype=np.int64)
        self.dlog_table = dlog

    def _build_add_tables(self) -> None:
        ids = np.arange(self.q, dtype=np.int64)
        digits = self._ids_to_digit_matrix(ids)
        self.neg_table = self._digit_matrix_to_ids((-digits) % self.p)
        one_minus = (-digits) % self.p
        one_minus[0] = (one_minus[0] + 1) % self.p
        self.one_minus_table = self._digit_matrix_to_ids(one_minus)

    def _build_trace(self) -> None:
        p, e, q, q1 = self.p, self.e, self.q, self.q1
        tr = np.zeros(q, dtype=np.int64)
        if q1 > 0:
            m = np.arange(q1, dtype=np.int64)
            acc = np.zeros((e, q1), dtype=np.int64)
            for i in range(e):
                idx = (m * pow(p, i, q1)) % q1
                acc = (acc + self._ids_to_digit_matrix(self.exp_table[idx])) % p
            if e > 1 and np.any(acc[1:]):
                raise AssertionError("trace left the prime subfield")
            tr[self.exp_table] = acc[0]
        self.trace_table = tr

    def _build_analytic(self) -> None:
        q1, p = self.q1, self.p
        self.unit_roots = np.exp(2j * np.pi * np.arange(q1) / q1)
        self.psi_table = np.exp(2j * np.pi * self.trace_table / p)
        # g(omega**k) for all k at once: the sum over x != 0 of
        # omega**k(x) psi(x) is a length-(q-1) inverse DFT of psi(g**m).
        a = self.psi_table[self.exp_table]
        self.gauss_table = q1 * np.fft.ifft(a)

    def plan(self, key: tuple, build):
        """The lambda-independent plan stored under key, made by build() on
        first use.  Plans live on the field and are freed with it."""
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = build()
        return plan

    # -- element constructors ----------------------------------------

    def id_to_coeffs(self, i: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.e):
            out.append(i % self.p)
            i //= self.p
        return tuple(out)

    def from_id(self, i: int) -> FqElem:
        if not 0 <= i < self.q:
            raise ValueError(f"element id {i} out of range for q={self.q}")
        if i == 0:
            return FqElem(self, None)
        return FqElem(self, int(self.dlog_table[i]))

    def from_coeffs(self, coeffs) -> FqElem:
        cs = list(coeffs)
        if len(cs) > self.e:
            raise ValueError("too many coefficients")
        cs += [0] * (self.e - len(cs))
        return self.from_id(sum((c % self.p) * self._pows[i] for i, c in enumerate(cs)))

    def elem(self, a: int) -> FqElem:
        """The image of the integer a under Z -> F_q."""
        return self.from_id(a % self.p)

    @property
    def zero(self) -> FqElem:
        return FqElem(self, None)

    @property
    def one(self) -> FqElem:
        return FqElem(self, 0)

    @property
    def gen(self) -> FqElem:
        return FqElem(self, 1 if self.q1 > 1 else 0)

    def elements(self):
        return (self.from_id(i) for i in range(self.q))

    def units(self):
        return (FqElem(self, m) for m in range(self.q1))

    # -- arithmetic on integer ids ------------------------------------

    def add_ids(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        out, mult = 0, 1
        for _ in range(self.e):
            out += ((a % self.p + b % self.p) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return out

    def add_id_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise field addition of id arrays (shapes must broadcast)."""
        if self.e == 1:
            return (a + b) % self.p
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        out = np.zeros(shape, dtype=np.int64)
        ra = np.asarray(a, dtype=np.int64)
        rb = np.asarray(b, dtype=np.int64)
        mult = 1
        for _ in range(self.e):
            out += ((ra % self.p + rb % self.p) % self.p) * mult
            ra, rb = ra // self.p, rb // self.p
            mult *= self.p
        return out

    # -- queries -------------------------------------------------------

    def trace(self, x: FqElem) -> int:
        if x.field is not self:
            raise MixedFieldsError("element from another field")
        return int(self.trace_table[x.id])

    def __repr__(self) -> str:
        if self.e == 1:
            return f"FqField({self.p})"
        return f"FqField({self.p}, {self.e})"
