"""Point counts for Dwork hypersurfaces x_1**d + ... + x_d**d = d*lam*x_1*...*x_d.

Two independent routes.  The closed forms express the count through a fixed
list of binomial-normalized hypergeometric values with Jacobi-sum
coefficients (four terms for degree 4, six for degree 5, fifteen for degree
6), each written once as rows of CLOSED_FORMS: greene_total evaluates them
and the identity suite checks the degree-6 rows orbit by orbit.  The kernel
route instead sums gamma(s) * F(s) over the 6**4 classes of the
exponent-matrix kernel, where F(s) is a reduced Gauss-sum-normalized
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
)
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


# Each closed form is (q**(d-1) - 1)/(q - 1) plus one term per row, added in
# row order.  A row is (orbit label, coefficient, q-power, indices into
# closed_form_constants, upper exponents, lower exponents), exponents in units
# of t = (q-1)/d; the row's term is coefficient * q**power times each indexed
# constant times F(upper; lower; 1/lam**d).  Rows without exponents carry the
# quadratic character w2(1 - lam**d) in place of F.  The label is the
# permutation orbit of shift classes whose contributions the term sums; the
# coefficient is a multiple of the orbit size.
CLOSED_FORMS = {
    4: (
        ((0, 0, 1, 3), 12, 1, (0,), None, None),
        ((0, 0, 0, 0), 1, 2, (), (1, 2, 3), (0, 0)),
        ((0, 0, 2, 2), 3, 2, (1,), (3, 1), (2,)),
    ),
    5: (
        ((0, 0, 0, 0, 0), 1, 3, (), (1, 2, 3, 4), (0, 0, 0)),
        ((0, 0, 0, 1, 4), 20, 2, (), (2, 3), (0,)),
        ((0, 0, 0, 2, 3), 20, 2, (), (1, 4), (0,)),
        ((0, 0, 1, 1, 3), 30, 2, (), (1, 3), (4,)),
        ((0, 0, 1, 2, 2), 30, 2, (), (1, 2), (3,)),
    ),
    6: (
        ((0, 0, 1, 2, 4, 5), 360, 2, (), None, None),
        ((0, 0, 0, 0, 0, 0), 1, 4, (), (1, 2, 3, 4, 5), (0, 0, 0, 0)),
        ((0, 0, 0, 0, 1, 5), 30, 3, (0,), (2, 3, 4), (0, 0)),
        ((0, 0, 0, 0, 2, 4), 30, 3, (), (1, 3, 5), (0, 0)),
        ((0, 0, 0, 0, 3, 3), -15, 3, (0, 2), (1, 5, 4, 2), (0, 0, 3)),
        ((0, 0, 0, 2, 2, 2), -20, 3, (0, 1), (1, 3, 4, 5), (0, 2, 2)),
        ((0, 0, 0, 1, 1, 4), 60, 2, (0, 3, 2), (1, 4, 3), (0, 5)),
        ((0, 0, 0, 2, 5, 5), 60, 2, (4, 2), (2, 5, 3), (0, 1)),
        ((0, 0, 1, 1, 2, 2), 90, 3, (), (3, 4, 5), (1, 2)),
        ((0, 0, 2, 2, 4, 4), -30, 2, (5, 1), (1, 3, 5), (2, 4)),
        ((0, 0, 0, 1, 2, 3), -120, 2, (1,), (1, 2), (0,)),
        ((0, 0, 0, 3, 4, 5), -120, 2, (2,), (4, 5), (0,)),
        ((0, 0, 1, 3, 3, 5), -180, 2, (1,), (2, 4), (3,)),
        ((0, 0, 1, 3, 4, 4), -180, 2, (1,), (2, 5), (4,)),
    ),
}


@dataclass(frozen=True)
class DworkParams:
    """Validated parameters (field, degree, deformation) for the smooth family."""

    field: FqField
    degree: int
    lam: FqElem

    def __post_init__(self):
        if self.degree not in CLOSED_FORMS:
            degrees = ", ".join(map(str, CLOSED_FORMS))
            raise BadDegreeError(f"closed forms cover degrees {degrees}, not {self.degree}")
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


def closed_form_constants(field: FqField, d: int) -> tuple[complex, ...]:
    """The lambda-free constants the rows of CLOSED_FORMS[d] index, computed
    once per field.  Degree 6: w6(-1), J(w6, w3, w2), J(w2, conj w3, conj w6),
    J(w6, w6, conj w3), J(w3, w3, w3), J(w6, w6).  Degree 4: w4(-1) and
    (conj w4; w4).  Degree 5: none."""

    def build():
        t = field.q1 // d
        w = [MultChar(field, i * t) for i in range(d)]
        if d == 6:
            return (
                char_at_minus_one(field, t),
                jacobi((w[1], w[2], w[3])),
                jacobi((w[3], w[4], w[5])),
                jacobi((w[1], w[1], w[4])),
                jacobi((w[2], w[2], w[2])),
                jacobi((w[1], w[1])),
            )
        if d == 4:
            return char_at_minus_one(field, t), norm_jacobi(w[3], w[1])
        return ()

    return field.plan(("closed-form", d), build)


def closed_form_term(params: DworkParams, row, coef: int) -> complex:
    """One row of CLOSED_FORMS[params.degree], with coef in place of the
    row's coefficient, multiplied left to right: coef * q**power, then each
    constant, then the hypergeometric value."""
    field, d, t = params.field, params.degree, params.t
    _, _, power, consts, upper, lower = row
    constants = closed_form_constants(field, d)
    value = coef * field.q**power
    for i in consts:
        value = value * constants[i]
    if upper is None:
        return value * MultChar(field, field.q1 // 2)(field.one - params.lam**d)
    up = tuple(MultChar(field, k * t) for k in upper)
    lo = tuple(MultChar(field, k * t) for k in lower)
    return value * greene_F(GreeneParams(up, lo, (params.lam**d).inverse()))


def greene_total(params: DworkParams) -> complex:
    """The closed form for params.degree, before rounding."""
    q, d = params.field.q, params.degree
    total = (q ** (d - 1) - 1) // (q - 1) + 0j
    for row in CLOSED_FORMS[d]:
        total += closed_form_term(params, row, row[1])
    return total


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

