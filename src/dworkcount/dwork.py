"""Point counts for Dwork hypersurfaces x_1**d + ... + x_d**d = d*lam*x_1*...*x_d.

Two independent routes.  The closed forms express the count through a fixed
list of binomial-normalized hypergeometric values with Jacobi-sum
coefficients (four terms for degree 4, six for degree 5, fifteen for degree
6), each written once as rows of CLOSED_FORMS: greene_remainder_by_dlog
evaluates them at every lam with one inverse DFT, every Jacobi sum read from
one base table per field, and the identity suite checks the degree-6 rows
orbit by orbit.  The kernel route instead sums gamma(s) * F(s) over the 6**4
classes of the exponent-matrix kernel, where F(s) is a reduced
Gauss-sum-normalized hypergeometric value; a preflight report asserts the
structural conditions the route needs (divisibility, Smith normal form,
vanishing of the two auxiliary terms) instead of assuming them.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .characters import MultChar, at_fibres, char_at_minus_one, char_vector
from .errors import (
    BadDegreeError,
    BadLambdaError,
    BadModulusError,
    BadWeightError,
    MixedFieldsError,
    PreconditionError,
)
from .field import FqElem, FqField
from .hypergeometric import (
    GreeneParams,
    _cancel_common,
    _gauss_windows,
    _greene_chi_spectrum,
    _mccarthy_values,
    _mccarthy_vector,
    greene_F,
    jacobi_base,
)


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


def closed_form_constants(field: FqField, d: int) -> tuple[complex, ...]:
    """The lambda-free constants the rows of CLOSED_FORMS[d] index, computed
    once per field.  Degree 6: w6(-1), J(w6, w3, w2), J(w2, conj w3, conj w6),
    J(w6, w6, conj w3), J(w3, w3, w3), J(w6, w6).  Degree 4: w4(-1) and
    (conj w4; w4).  Degree 5: none.  Each triple is J(a, b) J(ab, c), as ab
    is nontrivial in all four, with J(ab, c) = -c(-1) exactly as abc is
    trivial; each pair J(a, c) = q c(-1) (a; conj c) reads jacobi_base, the
    rows of the hypergeometric values, so that their errors cancel."""

    def build():
        t, base = field.q1 // d, jacobi_base(field, d)

        def pair(a, c):  # J(omega**(a t), omega**(c t))
            minus_one = char_at_minus_one(field, c * t)
            return field.q * minus_one * complex(base[(a + c) % d, -c * t % field.q1])

        if d == 6:
            # J(a, b, c) = J(a, b) J(ab, c) = -c(-1) J(a, b)
            triples = ((1, 2, 3), (3, 4, 5), (1, 1, 4), (2, 2, 2))
            js = [-char_at_minus_one(field, c * t) * pair(a, b) for a, b, c in triples]
            return (char_at_minus_one(field, t), *js, pair(1, 1))
        if d == 4:
            return char_at_minus_one(field, t), complex(base[2, t])
        return ()

    return field.plan(("closed-form", d), build)


def _closed_form_row(field: FqField, d: int, row, coef: int):
    """coef * q**power times each indexed constant, left to right, and the
    row's upper and lower characters (None for a w2(1 - lam**d) row)."""
    if field.q1 % d != 0:
        raise BadModulusError(f"q = {field.q} is not 1 mod {d}")
    t = field.q1 // d
    _, _, power, consts, upper, lower = row
    constants = closed_form_constants(field, d)
    value = coef * field.q**power
    for i in consts:
        value = value * constants[i]
    if upper is None:
        return value, None, None
    up = tuple(MultChar(field, k * t) for k in upper)
    lo = tuple(MultChar(field, k * t) for k in lower)
    return value, up, lo


def closed_form_term(field: FqField, d: int, lam: FqElem, row, coef: int) -> complex:
    """One row of CLOSED_FORMS[d] at lam != 0, with coef in place of the
    row's coefficient, multiplied left to right: coef * q**power, then each
    constant, then the hypergeometric value."""
    value, up, lo = _closed_form_row(field, d, row, coef)
    if up is None:
        return value * MultChar(field, field.q1 // 2)(field.one - lam**d)
    return value * greene_F(GreeneParams(up, lo, (lam**d).inverse()))


def closed_form_term_by_dlog(field: FqField, d: int, row, coef: int) -> np.ndarray:
    """closed_form_term for every lam != 0: entry e is the term at lam = g**e,
    the sextic-power locus lam**d = 1 included."""
    return _closed_forms_by_dlog(field, d, [(row, coef)])


def _closed_forms_by_dlog(field: FqField, d: int, terms) -> np.ndarray:
    """The sum of closed_form_term over (row, coef) in terms, for every
    lam != 0: the rows' spectra, products of slices of jacobi_base(field, d),
    are summed in place and read once by at_fibres."""
    total, spectra = np.zeros((2, field.q1), dtype=np.complex128)
    for row, coef in terms:
        value, up, lo = _closed_form_row(field, d, row, coef)
        if up is None:
            lam_d = field.exp_table[d * np.arange(field.q1) % field.q1]
            total += value * char_vector(field, field.q1 // 2)[field.one_minus_table[lam_d]]
        else:
            spectra += value * _greene_chi_spectrum(field, up, lo, jacobi_base(field, d))
    return total + at_fibres(field, d, spectra)


def greene_remainder_by_dlog(field: FqField, d: int) -> np.ndarray:
    """The closed form for degree d minus its main term, for every lam != 0:
    entry e is the sum of the rows' terms at lam = g**e, the locus
    lam**d = 1 included.  Built once per field."""
    if d not in CLOSED_FORMS:
        degrees = ", ".join(map(str, CLOSED_FORMS))
        raise BadDegreeError(f"closed forms cover degrees {degrees}, not {d}")

    def build():
        return _closed_forms_by_dlog(field, d, [(row, row[1]) for row in CLOSED_FORMS[d]])

    return field.plan(("greene", d), build)


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


def _reduced_exponents(w) -> list[list[int]]:
    """The upper exponents |w|/6 + i mod 6 and the lower exponents w of F(s)
    for the kernel class s = t*w, common multiset cancelled, in units of t."""
    if len(w) != 6 or any(wi not in range(6) for wi in w) or sum(w) % 6:
        raise BadWeightError("a kernel class is six exponents in range(6) with sum 0 mod 6")
    return _cancel_common([(sum(w) // 6 + i) % 6 for i in range(6)], list(w))


@functools.lru_cache(maxsize=None)
def _kernel_table() -> tuple[tuple, tuple[int, ...], tuple]:
    """The 6**4 kernel classes w (s = t*w, w_1 = 0) in lexicographic order,
    each class's index into the distinct sorted keys, and per key its first
    class and the reduced exponents of F(s), all in units of t."""
    classes = tuple((0,) + w for w in itertools.product(range(6), repeat=5) if sum(w) % 6 == 0)
    first: dict[tuple[int, ...], int] = {}
    index = tuple(first.setdefault(tuple(sorted(w)), len(first)) for w in classes)
    reps = (classes[index.index(i)] for i in range(len(first)))
    return classes, index, tuple((w, _reduced_exponents(w)) for w in reps)


def gamma_s(field: FqField, w):
    """The coefficient -prod_i g(omega**(-t*w_i)) of the kernel class s = t*w,
    for one class w or for each row of an array of classes."""
    t = field.q1 // 6
    return -field.gauss_table[(-t * np.asarray(w)) % field.q1].prod(axis=-1)


def _absolute(field: FqField, exponents) -> np.ndarray:
    """The upper and lower exponent lists in units of t = (q-1)/6 as one-row
    blocks of exponents of omega, shape (2, 1, m)."""
    if field.q1 % 6:
        raise BadModulusError(f"q = {field.q} is not 1 mod 6")
    return field.q1 // 6 * np.array(exponents)[:, None]


def miyatani_F_s(field: FqField, w, lam: FqElem) -> complex:
    """The reduced Gauss-sum-normalized value of the kernel class s = t*w:

        q**(delta - 1) * Red-F~(omega**(|s|/6) * (eps, w6, ..., w6**5);
                                 omega**s_1, ..., omega**s_6; 1/lam**6)

    with delta = 1 when |s| = 0 mod q-1.  As |s| = t*|w| and |w| = 0 mod 6
    (the preflight's coords_ok), delta = 1 and the factor is exactly 1.
    """
    if lam.field is not field:
        raise MixedFieldsError("lambda lives in a different field")
    if lam.is_zero:
        raise BadLambdaError("the kernel route needs lambda != 0")
    upper, lower = _absolute(field, _reduced_exponents(w))
    return complex(_mccarthy_values(field, upper, lower, [(lam**6).inverse().id])[0])


def miyatani_F_s_by_dlog(field: FqField, w) -> np.ndarray:
    """miyatani_F_s for every lam != 0: entry u is the value at 1/lam**6 = g**u."""
    return _mccarthy_vector(field, *_absolute(field, _reduced_exponents(w)))[0]


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


@functools.lru_cache(maxsize=None)
def _preflight_structure() -> tuple:
    """The q-free part of the preflight: the divisor chain of kernel_matrix(6),
    the subset divisors, the u and d vanishing flags, the kernel's size and
    whether every class w has |w| = 0 mod 6."""
    # exponent matrix of the six diagonal monomials, no shift
    a = (6 * np.eye(6, dtype=np.int64)).tolist()
    divisors: set[int] = set()
    u_ok = True
    d_count = 0
    for k in (3, 4, 5, 6):
        for cols in itertools.combinations(range(6), k):
            support = [
                i for i in range(6) if all(a[i][j] == 0 for j in range(6) if j not in cols)
            ]
            sigma = len(support)
            stacked = [[a[j][i] for i in support] for j in cols] + [[1] * sigma]
            divisors.update(smith_normal_form(stacked))
            if k <= 5:
                # a subset contributes only via tuples with exactly 6 - 2i
                # nontrivial components, i = 0, ..., k - sigma; impossible
                # whenever that count exceeds the tuple length sigma
                u_ok &= all(6 - 2 * i > sigma for i in range(k - sigma + 1))
            if k == 3 and all(
                any(a[i][j] >= 1 for j in range(6) if j not in cols) for i in range(6)
            ):
                d_count += 1
    chain = smith_normal_form(kernel_matrix(6))
    kernel = _kernel_table()[0]
    coords_ok = all(sum(w) % 6 == 0 for w in kernel)
    return chain, tuple(sorted(divisors)), u_ok, d_count == 0, len(kernel), coords_ok


def miyatani_preflight(field: FqField) -> MiyataniPreflight:
    """Check every condition the degree-6 kernel route relies on; the kernel
    and the integer structure are free of q, so per field only divisibility
    of q - 1 by 6 and by the subset divisors is checked."""
    q1 = field.q1
    chain, divisors, u_ok, d_ok, size, coords_ok = _preflight_structure()
    modulus_ok = q1 % 6 == 0
    size = size if modulus_ok else 0
    return MiyataniPreflight(
        q=field.q,
        modulus_ok=modulus_ok,
        divisor_chain=chain,
        kernel_size=size,
        kernel_size_ok=size == math.prod(d for d in chain if d) == 6**4,
        coords_ok=modulus_ok and coords_ok,
        subset_divisors_ok=all(d == 0 or q1 % d == 0 for d in divisors),
        u_vanishes=u_ok,
        d_vanishes=d_ok,
    )


def miyatani_remainder_by_dlog(field: FqField) -> np.ndarray:
    """The kernel-route count minus its main term (q**5 - 1)/(q - 1), for
    every lam != 0: entry e is the value at lam = g**e, the locus lam**6 = 1
    included.  The sum of gamma(s) F(s) over the 6**4 kernel classes is one
    inverse DFT: per distinct sorted key, its multiplicity times gamma(s)
    times the Gauss-sum coefficient row of F(s), with the (-1) twist applied
    once to the sum over odd m, read at x = 1/lam**6.  Built once per field,
    after the preflight passes."""

    def build():
        report = miyatani_preflight(field)
        if not report.ok:
            raise PreconditionError(f"kernel-route preconditions failed: {report}")
        _, index, keys = _kernel_table()
        multiplicity = Counter(index)
        gammas = gamma_s(field, [w for w, _ in keys])
        t = field.q1 // 6
        win, rev = _gauss_windows(field)
        by_parity = np.zeros((2, field.q1), dtype=np.complex128)
        for i, (_, (upper, lower)) in enumerate(keys):
            factors = [win[a * t] for a in upper] + [rev[b * t] for b in lower]
            # over the row's j = 0 column, the product of g(A_i) g(conj(B_i))
            norm = math.prod(complex(f[0]) for f in factors)
            acc = factors[0] * (multiplicity[i] * gammas[i] / norm)
            for f in factors[1:]:
                acc *= f
            by_parity[len(upper) % 2] += acc
        # chi(-1)**m: q is odd, so the twist is (-1)**j for odd m
        even, odd = by_parity
        odd[1::2] *= -1
        # the total subtracts sum gamma F, and F(x) = -ifft(row)[dlog x]
        return at_fibres(field, 6, even + odd)

    return field.plan(("miyatani",), build)
