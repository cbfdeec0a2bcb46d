"""Point counts for Dwork hypersurfaces x_1**d + ... + x_d**d = d*lam*x_1*...*x_d.

Two independent routes.  The closed forms express the count through a fixed
list of binomial-normalized hypergeometric values with Jacobi-sum
coefficients (four terms for degree 4, six for degree 5, fifteen for degree
6).  The kernel route instead sums gamma(s) * F(s) over the 6**4 classes of
the exponent-matrix kernel, where F(s) is a reduced Gauss-sum-normalized
hypergeometric value; a preflight report asserts the structural conditions
the route needs (divisibility, Smith normal form, vanishing of the two
auxiliary terms) instead of assuming them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .characters import (
    MultChar,
    char_at_minus_one,
    jacobi,
    norm_jacobi,
    round_to_int,
    trivial_char,
)
from .diagonal import DiagonalParams
from .errors import (
    BadDegreeError,
    BadLambdaError,
    BadModulusError,
    BadWeightError,
    MixedFieldsError,
    PreconditionError,
)
from .field import FqElem, FqField
from .hypergeometric import GreeneParams, McCarthyParams, greene_F, mccarthy_F, reduce_params


@dataclass(frozen=True)
class DworkParams:
    """Validated parameters (field, degree, deformation) for the smooth family."""

    field: FqField
    degree: int
    lam: FqElem

    def __post_init__(self):
        if self.degree not in (4, 5, 6):
            raise BadDegreeError(f"closed forms cover degrees 4, 5, 6, not {self.degree}")
        if self.field.q1 % self.degree != 0:
            raise BadModulusError(f"q = {self.field.q} is not 1 mod {self.degree}")
        if self.lam.field is not self.field:
            raise MixedFieldsError("lambda lives in a different field")
        if self.lam.is_zero:
            raise BadLambdaError("the closed forms need lambda != 0")
        if self.lam**self.degree == self.field.one:
            raise BadLambdaError(f"lambda**{self.degree} = 1 is singular")

    @property
    def t(self) -> int:
        return self.field.q1 // self.degree

    def diagonal(self) -> DiagonalParams:
        """The same hypersurface as a deformed diagonal family."""
        return DiagonalParams(self.field, self.degree, (1,) * self.degree, self.lam)


def _greene(field: FqField, upper, lower, x: FqElem) -> complex:
    return greene_F(GreeneParams(tuple(upper), tuple(lower), x))


def dwork4_greene_total(params: DworkParams) -> complex:
    """Four-term closed form for degree 4, before rounding."""
    if params.degree != 4:
        raise BadDegreeError("degree-4 form")
    field, q, t = params.field, params.field.q, params.t
    eps = trivial_char(field)
    w4, w2, w4b = (MultChar(field, i * t) for i in (1, 2, 3))
    x = (params.lam**4).inverse()
    total = (q**3 - 1) // (q - 1) + 0j
    total += 12 * q * char_at_minus_one(field, t) * w2(field.one - params.lam**4)
    total += q**2 * _greene(field, (w4, w2, w4b), (eps, eps), x)
    total += 3 * q**2 * norm_jacobi(w4b, w4) * _greene(field, (w4b, w4), (w2,), x)
    return total


def dwork4_greene_count(params: DworkParams, *, tol: float = 1e-3) -> int:
    value, _ = round_to_int(dwork4_greene_total(params), tol)
    return value


def dwork5_greene_total(params: DworkParams) -> complex:
    """Six-term closed form for degree 5, before rounding."""
    if params.degree != 5:
        raise BadDegreeError("degree-5 form")
    field, q, t = params.field, params.field.q, params.t
    eps = trivial_char(field)
    w1, w2, w3, w4 = (MultChar(field, i * t) for i in (1, 2, 3, 4))
    x = (params.lam**5).inverse()
    total = (q**4 - 1) // (q - 1) + 0j
    total += q**3 * _greene(field, (w1, w2, w3, w4), (eps, eps, eps), x)
    total += 20 * q**2 * _greene(field, (w2, w3), (eps,), x)
    total += 20 * q**2 * _greene(field, (w1, w4), (eps,), x)
    total += 30 * q**2 * _greene(field, (w1, w3), (w4,), x)
    total += 30 * q**2 * _greene(field, (w1, w2), (w3,), x)
    return total


def dwork5_greene_count(params: DworkParams, *, tol: float = 1e-3) -> int:
    value, _ = round_to_int(dwork5_greene_total(params), tol)
    return value


def sextic_jacobi_sums(field: FqField) -> tuple[complex, ...]:
    """The five lambda-independent Jacobi sums of the degree-6 closed form,
    computed once per field: J(w6, w3, w2), J(w2, conj w3, conj w6),
    J(w6, w6, conj w3), J(w3, w3, w3) and J(w6, w6)."""

    def build():
        t = field.q1 // 6
        w6, w3, w2 = MultChar(field, t), MultChar(field, 2 * t), MultChar(field, 3 * t)
        w3b, w6b = w3.conj(), w6.conj()
        return (
            jacobi((w6, w3, w2)),
            jacobi((w2, w3b, w6b)),
            jacobi((w6, w6, w3b)),
            jacobi((w3, w3, w3)),
            jacobi((w6, w6)),
        )

    return field.plan(("sextic-jacobi",), build)


def dwork6_greene_total(params: DworkParams) -> complex:
    """Fifteen-term closed form for degree 6, before rounding."""
    if params.degree != 6:
        raise BadDegreeError("degree-6 form")
    field, q, t = params.field, params.field.q, params.t
    eps = trivial_char(field)
    w6, w3, w2 = MultChar(field, t), MultChar(field, 2 * t), MultChar(field, 3 * t)
    w3b, w6b = w3.conj(), w6.conj()
    x = (params.lam**6).inverse()
    s6 = char_at_minus_one(field, t)
    j632, j236, j663b, j333, j66 = sextic_jacobi_sums(field)
    total = (q**5 - 1) // (q - 1) + 0j
    total += 360 * q**2 * w2(field.one - params.lam**6)
    total += q**4 * _greene(field, (w6, w3, w2, w3b, w6b), (eps,) * 4, x)
    total += 30 * q**3 * s6 * _greene(field, (w3, w2, w3b), (eps, eps), x)
    total += 30 * q**3 * _greene(field, (w6, w2, w6b), (eps, eps), x)
    total += -15 * q**3 * s6 * j236 * _greene(field, (w6, w6b, w3b, w3), (eps, eps, w2), x)
    total += -20 * q**3 * s6 * j632 * _greene(field, (w6, w2, w3b, w6b), (eps, w3, w3), x)
    total += 60 * q**2 * s6 * j663b * j236 * _greene(field, (w6, w3b, w2), (eps, w6b), x)
    total += 60 * q**2 * j333 * j236 * _greene(field, (w3, w6b, w2), (eps, w6), x)
    total += 90 * q**3 * _greene(field, (w2, w3b, w6b), (w6, w3), x)
    total += -30 * q**2 * j66 * j632 * _greene(field, (w6, w2, w6b), (w3, w3b), x)
    total += -120 * q**2 * j632 * _greene(field, (w6, w3), (eps,), x)
    total += -120 * q**2 * j236 * _greene(field, (w3b, w6b), (eps,), x)
    total += -180 * q**2 * j632 * _greene(field, (w3, w3b), (w2,), x)
    total += -180 * q**2 * j632 * _greene(field, (w3, w6b), (w3b,), x)
    return total


def dwork6_greene_count(params: DworkParams, *, tol: float = 1e-3) -> int:
    value, _ = round_to_int(dwork6_greene_total(params), tol)
    return value


def greene_count(params: DworkParams, *, tol: float = 1e-3) -> int:
    """Dispatch to the closed form matching params.degree."""
    totals = {4: dwork4_greene_total, 5: dwork5_greene_total, 6: dwork6_greene_total}
    value, _ = round_to_int(totals[params.degree](params), tol)
    return value


def smith_normal_form(mat) -> tuple[int, ...]:
    """Elementary divisors of an integer matrix by row/column reduction.

    Returns the full divisor chain d_1 | d_2 | ... with zeros for rank
    deficiency placed last.
    """
    a = [[int(v) for v in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    n = min(rows, cols)
    out: list[int] = []
    k = 0
    while k < n:
        piv = None
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        a[k], a[i] = a[i], a[k]
        for row in a:
            row[k], row[j] = row[j], row[k]
        p = a[k][k]
        dirty = False
        for i in range(k + 1, rows):
            m = a[i][k] // p
            if m:
                for j2 in range(k, cols):
                    a[i][j2] -= m * a[k][j2]
            if a[i][k]:
                dirty = True
        for j2 in range(k + 1, cols):
            m = a[k][j2] // p
            if m:
                for i2 in range(k, rows):
                    a[i2][j2] -= m * a[i2][k]
            if a[k][j2]:
                dirty = True
        if dirty:
            continue
        off = next(
            ((i, j2) for i in range(k + 1, rows) for j2 in range(k + 1, cols) if a[i][j2] % p),
            None,
        )
        if off is not None:
            for j2 in range(k, cols):
                a[k][j2] += a[off[0]][j2]
            continue
        out.append(abs(p))
        k += 1
    return tuple(out) + (0,) * (n - len(out))


def kernel_matrix(degree: int) -> np.ndarray:
    """The diagonal-monomial exponent matrix shifted by the deformation row:
    degree on the diagonal minus ones everywhere."""
    return degree * np.eye(degree, dtype=np.int64) - np.ones((degree, degree), dtype=np.int64)


@dataclass(frozen=True)
class KernelElement:
    """Canonical class representative: exponents s_i in {0, ..., q-2}, each a
    multiple of (q-1)/6, first coordinate 0, sum a multiple of q-1."""

    s: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.s)


def enumerate_kernel(field: FqField, degree: int = 6) -> list[KernelElement]:
    """All 6**4 canonical kernel-class representatives."""
    if degree != 6:
        raise BadDegreeError("the kernel route covers degree 6 only")
    if field.q1 % 6 != 0:
        raise BadModulusError(f"q = {field.q} is not 1 mod 6")
    t = field.q1 // 6
    out = []
    for w in itertools.product(range(6), repeat=5):
        if sum(w) % 6 == 0:
            out.append(KernelElement((0,) + tuple(t * wi for wi in w)))
    return out


def gamma_s(field: FqField, elem: KernelElement) -> complex:
    """The coefficient -prod_i g(omega**(-s_i))."""
    g = field.gauss_table
    prod = -1 + 0j
    for si in elem.s:
        prod *= g[(-si) % field.q1]
    return prod


def miyatani_F_s(field: FqField, elem: KernelElement, lam: FqElem) -> complex:
    """The reduced Gauss-sum-normalized value attached to one kernel class:

        q**(delta - 1) * Red-F~(omega**(|s|/6) * (eps, w6, ..., w6**5);
                                 omega**s_1, ..., omega**s_6; 1/lam**6)

    with delta = 1 exactly when |s| = 0 mod q-1 (evaluated, not assumed).
    """
    if lam.field is not field:
        raise MixedFieldsError("lambda lives in a different field")
    if lam.is_zero:
        raise BadLambdaError("the kernel route needs lambda != 0")
    q1 = field.q1
    t = q1 // 6
    if any(si % t for si in elem.s) or elem.total % 6:
        raise BadWeightError("kernel exponents must be multiples of (q-1)/6 with sum 0 mod 6")
    base = elem.total // 6
    upper = tuple(MultChar(field, base + i * t) for i in range(6))
    lower = tuple(MultChar(field, si) for si in elem.s)
    x = (lam**6).inverse()
    delta = 1 if elem.total % q1 == 0 else 0
    reduced = reduce_params(McCarthyParams(upper, lower, x))
    return field.q ** (delta - 1) * mccarthy_F(reduced)


@dataclass(frozen=True)
class MiyataniPreflight:
    """Structural conditions for the kernel route, all asserted at runtime."""

    q: int
    modulus_ok: bool
    divisor_chain: tuple[int, ...]
    kernel_size: int
    kernel_size_ok: bool
    coords_ok: bool
    subset_divisors_ok: bool
    u_vanishes: bool
    d_vanishes: bool

    @property
    def ok(self) -> bool:
        return (
            self.modulus_ok
            and self.kernel_size_ok
            and self.coords_ok
            and self.subset_divisors_ok
            and self.u_vanishes
            and self.d_vanishes
        )


def miyatani_preflight(field: FqField) -> MiyataniPreflight:
    """Check every condition the degree-6 kernel route relies on."""
    q1 = field.q1
    modulus_ok = q1 % 6 == 0
    chain = smith_normal_form(kernel_matrix(6))
    expected = 1
    for d in chain:
        if d:
            expected *= d
    if modulus_ok:
        kernel = enumerate_kernel(field)
        t = q1 // 6
        coords_ok = all(
            all(si % t == 0 for si in e.s) and e.total % 6 == 0 and e.total % q1 == 0
            for e in kernel
        )
        size = len(kernel)
    else:
        coords_ok = False
        size = 0
    # exponent matrix of the six diagonal monomials, no shift
    a = (6 * np.eye(6, dtype=np.int64)).tolist()
    subset_ok = True
    u_ok = True
    d_count = 0
    for k in (3, 4, 5, 6):
        for cols in itertools.combinations(range(6), k):
            support = [
                i for i in range(6) if all(a[i][j] == 0 for j in range(6) if j not in cols)
            ]
            sigma = len(support)
            stacked = [[a[j][i] for i in support] for j in cols] + [[1] * sigma]
            subset_ok &= all(d == 0 or q1 % d == 0 for d in smith_normal_form(stacked))
            if k <= 5:
                # a subset contributes only via tuples with exactly 6 - 2i
                # nontrivial components, i = 0, ..., k - sigma; impossible
                # whenever that count exceeds the tuple length sigma
                u_ok &= all(6 - 2 * i > sigma for i in range(k - sigma + 1))
            if k == 3 and all(
                any(a[i][j] >= 1 for j in range(6) if j not in cols) for i in range(6)
            ):
                d_count += 1
    return MiyataniPreflight(
        q=field.q,
        modulus_ok=modulus_ok,
        divisor_chain=chain,
        kernel_size=size,
        kernel_size_ok=size == expected == 6**4,
        coords_ok=coords_ok,
        subset_divisors_ok=subset_ok,
        u_vanishes=u_ok,
        d_vanishes=d_count == 0,
    )


def _miyatani_plan(field: FqField) -> tuple[MiyataniPreflight, list[KernelElement]]:
    """The preflight report and, when it passes, the kernel: both depend on
    q only, so each field builds them once."""

    def build():
        report = miyatani_preflight(field)
        return report, enumerate_kernel(field) if report.ok else []

    return field.plan(("miyatani",), build)


def miyatani_dwork6_total(params: DworkParams) -> complex:
    """Kernel-route count: (q**5 - 1)/(q - 1) minus the sum of gamma(s) F(s)
    over all 6**4 kernel classes, before rounding."""
    if params.degree != 6:
        raise BadDegreeError("the kernel route covers degree 6 only")
    field = params.field
    report, kernel = _miyatani_plan(field)
    if not report.ok:
        raise PreconditionError(f"kernel-route preconditions failed: {report}")
    cache: dict[tuple[int, ...], complex] = {}
    total = 0j
    for elem in kernel:
        key = tuple(sorted(elem.s))
        val = cache.get(key)
        if val is None:
            val = gamma_s(field, elem) * miyatani_F_s(field, elem, params.lam)
            cache[key] = val
        total += val
    return (field.q**5 - 1) // (field.q - 1) - total


def miyatani_dwork6_count(params: DworkParams, *, tol: float = 1e-3) -> int:
    value, _ = round_to_int(miyatani_dwork6_total(params), tol)
    return value
