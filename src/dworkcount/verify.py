"""Numerical verification of every identity the counting routes rely on.

Each check evaluates both sides of one identity over an exhaustive small
domain and reports the worst absolute residual.  The suite covers the raw
Gauss-sum facts, the product and convolution identities, the per-orbit
closed forms of the class-by-class count, the kernel-class identities of
the degree-6 route, and the bridge between the two hypergeometric
normalizations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .characters import (
    MultChar,
    char_at_minus_one,
    check_hasse_davenport,
    check_sextic_gauss_product,
    check_twisted_gauss_convolution,
    jacobi,
    trivial_char,
)
from .diagonal import DiagonalParams, class_contribution, enumerate_orbit_classes
from .dwork import (
    CLOSED_FORMS,
    DworkParams,
    KernelElement,
    closed_form_term,
    gamma_s,
    miyatani_F_s,
)
from .field import FqElem, FqField
from .hypergeometric import McCarthyParams, mccarthy_F, mccarthy_to_greene


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity check: worst residual over `count` instances."""

    name: str
    residual: float
    tol: float
    count: int
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.count == 0 or self.residual <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.note})" if self.note else ""
        return f"{status} {self.name}: residual {self.residual:.3e} <= {self.tol:.3e}, {self.count} instances{extra}"


def valid_lambdas(field: FqField, degree: int = 6, limit: int | None = None) -> list[FqElem]:
    """Nonzero lam with lam**degree != 1, in element-id order."""
    out: list[FqElem] = []
    for i in range(1, field.q):
        lam = field.from_id(i)
        if (lam**degree) != field.one:
            out.append(lam)
            if limit is not None and len(out) == limit:
                break
    return out


def nonzero_lambdas(field: FqField, limit: int | None = None) -> list[FqElem]:
    out = [field.from_id(i) for i in range(1, field.q)]
    return out[:limit] if limit is not None else out


def gauss_sum_checks(field: FqField) -> list[CheckResult]:
    """g(eps) = -1 and g(chi) g(conj chi) = q chi(-1) for every chi != eps."""
    tol = 1e-6 * field.q**3
    g = field.gauss_table
    rows = [CheckResult("gauss-trivial", abs(complex(g[0]) + 1), tol, 1)]
    worst = 0.0
    for k in range(1, field.q1):
        lhs = complex(g[k] * g[field.q1 - k])
        rhs = field.q * char_at_minus_one(field, k)
        worst = max(worst, abs(lhs - rhs))
    rows.append(CheckResult("gauss-conjugate-pairs", worst, tol, field.q1 - 1))
    return rows


def hasse_davenport_checks(field: FqField) -> list[CheckResult]:
    """The product relation for m in {2, 3, 6}, over every twisting character."""
    tol = 1e-6 * field.q**3
    rows = []
    for m in (2, 3, 6):
        if field.q1 % m:
            rows.append(CheckResult(f"hasse-davenport-m{m}", 0.0, tol, 0, "m does not divide q-1"))
            continue
        worst = max(check_hasse_davenport(m, MultChar(field, k)) for k in range(field.q1))
        rows.append(CheckResult(f"hasse-davenport-m{m}", worst, tol, field.q1))
    return rows


def sextic_product_checks(field: FqField) -> list[CheckResult]:
    """The sextic Gauss-sum product formula for every shift j."""
    tol = 1e-6 * field.q**3
    if field.q1 % 6:
        return [CheckResult("sextic-product", 0.0, tol, 0, "q is not 1 mod 6")]
    worst = max(check_sextic_gauss_product(field, j) for j in range(field.q1))
    return [CheckResult("sextic-product", worst, tol, field.q1)]


def twisted_convolution_checks(field: FqField, lam_limit: int = 3) -> list[CheckResult]:
    """The twisted full-cycle convolution over all (a, b) multiples of t."""
    tol = 1e-6 * field.q**3
    if field.q1 % 6:
        return [CheckResult("twisted-convolution", 0.0, tol, 0, "q is not 1 mod 6")]
    lams = valid_lambdas(field, 6, lam_limit)
    if not lams:
        return [CheckResult("twisted-convolution", 0.0, tol, 0, "no lambda with lambda**6 != 1")]
    t = field.q1 // 6
    worst = 0.0
    count = 0
    for a in range(0, field.q1, t):
        for b in range(0, field.q1, t):
            for lam in lams:
                worst = max(worst, check_twisted_gauss_convolution(a, b, lam))
                count += 1
    return [CheckResult("twisted-convolution", worst, tol, count)]


@functools.lru_cache(maxsize=None)
def _sextic_orbit_sizes() -> dict[tuple[int, ...], int]:
    return {o.rep: o.size for o in enumerate_orbit_classes(6, 6, (1,) * 6)}


def orbit_closed_forms(field: FqField, lam: FqElem) -> dict[tuple[int, ...], complex]:
    """Closed-form values of the per-class contribution, keyed by orbit
    representative: each degree-6 row of CLOSED_FORMS with its coefficient
    divided by the orbit size.  The main term joins the zero orbit."""
    params = DworkParams(field, 6, lam)
    sizes = _sextic_orbit_sizes()
    forms = {
        row[0]: closed_form_term(params, row, row[1] // sizes[row[0]]) for row in CLOSED_FORMS[6]
    }
    forms[(0,) * 6] = (field.q**5 - 1) // (field.q - 1) + forms[(0,) * 6]
    return forms


def orbit_closed_form_checks(field: FqField, lams: list[FqElem] | None = None) -> list[CheckResult]:
    """Per-class contribution against its closed form, one row per orbit."""
    tol = 1e-6 * field.q**4
    if field.q1 % 6:
        return [CheckResult("orbit-closed-forms", 0.0, tol, 0, "q is not 1 mod 6")]
    if lams is None:
        lams = valid_lambdas(field, 6)
    note = "" if lams else "no lambda with lambda**6 != 1"
    worst = dict.fromkeys(sorted(_sextic_orbit_sizes()), 0.0)
    for lam in lams:
        params = DiagonalParams(field, 6, (1,) * 6, lam)
        for key, value in orbit_closed_forms(field, lam).items():
            worst[key] = max(worst[key], abs(class_contribution(params, key) - value))
    return [CheckResult(f"orbit-{key}", res, tol, len(lams), note) for key, res in worst.items()]


# kernel-class identities: (w-label, sign, q-power, minus-one twist,
# Jacobi character exponents in t units or None, upper exps, lower exps)
KERNEL_IDENTITIES = (
    ((0, 0, 0, 0, 0, 0), -1, 0, False, None, (1, 2, 3, 4, 5), (0, 0, 0, 0, 0)),
    ((0, 0, 0, 0, 1, 5), -1, 1, True, None, (2, 3, 4), (0, 0, 0)),
    ((0, 0, 0, 0, 2, 4), -1, 1, False, None, (1, 3, 5), (0, 0, 0)),
    # sign differs from the printed identity; fixed against gamma(s) F(s)
    ((0, 0, 0, 0, 3, 3), -1, 1, True, None, (1, 2, 4, 5), (0, 0, 0, 3)),
    ((0, 0, 0, 1, 1, 4), -1, 1, False, (2, 5, 5), (2, 3, 5), (0, 0, 1)),
    ((0, 0, 0, 2, 5, 5), -1, 1, False, (1, 1, 4), (3, 4, 1), (0, 0, 5)),
    ((0, 0, 0, 2, 2, 2), -1, 1, False, (4, 4, 4), (1, 3, 4, 5), (0, 0, 2, 2)),
    ((0, 0, 0, 3, 4, 5), -1, 1, False, (1, 2, 3), (2, 1), (0, 0)),
    ((0, 0, 0, 1, 2, 3), -1, 1, False, (3, 4, 5), (4, 5), (0, 0)),
    # sign differs from the printed identity; fixed against gamma(s) F(s)
    ((0, 0, 1, 1, 2, 2), +1, 1, False, (4, 4, 5, 5), (3, 4, 5), (0, 1, 2)),
    ((0, 0, 2, 2, 4, 4), -1, 2, False, None, (3, 5, 1), (0, 2, 4)),
    ((0, 0, 1, 3, 4, 4), +1, 1, False, (2, 2, 3, 5), (2, 5), (0, 4)),
    ((0, 0, 1, 3, 3, 5), -1, 2, False, None, (2, 4), (0, 3)),
    ((0, 0, 1, 2, 4, 5), -1, 2, True, None, (3,), (0,)),
)


def kernel_identity_value(field: FqField, w: tuple[int, ...], lam: FqElem) -> complex:
    """The reduced closed form for the kernel class t*w, from the table."""
    for label, sign, qpow, twist, jexps, upper, lower in KERNEL_IDENTITIES:
        if label == w:
            t = field.q1 // 6
            x = (lam**6).inverse()
            value = sign * field.q**qpow + 0j
            if twist:
                value *= char_at_minus_one(field, t)
            if jexps is not None:
                value *= jacobi(tuple(MultChar(field, k * t) for k in jexps))
            up = tuple(MultChar(field, k * t) for k in upper)
            lo = tuple(MultChar(field, k * t) for k in lower)
            return value * mccarthy_F(McCarthyParams(up, lo, x))
    raise KeyError(w)


def kernel_identity_checks(field: FqField, lams: list[FqElem] | None = None) -> list[CheckResult]:
    """gamma(s) F(s) against the closed form, for each of the 14 orbit
    representatives; valid for every nonzero lam (the sextic-power locus
    included)."""
    tol = 1e-6 * field.q**4
    if field.q1 % 6:
        return [CheckResult("kernel-identities", 0.0, tol, 0, "q is not 1 mod 6")]
    if lams is None:
        lams = nonzero_lambdas(field)
    t = field.q1 // 6
    rows = []
    for label, *_ in KERNEL_IDENTITIES:
        elem = KernelElement(tuple(t * wi for wi in label))
        worst = 0.0
        for lam in lams:
            lhs = gamma_s(field, elem) * miyatani_F_s(field, elem, lam)
            rhs = kernel_identity_value(field, label, lam)
            worst = max(worst, abs(lhs - rhs))
        rows.append(CheckResult(f"kernel-{label}", worst, tol, len(lams)))
    return rows


def bridge_checks(field: FqField, count: int = 200, seed: int = 2026) -> list[CheckResult]:
    """mccarthy_to_greene against mccarthy_F on random precondition-satisfying
    parameter tuples (trivial leading lower parameter, nontrivial leading
    upper, paired parameters distinct)."""
    rng = np.random.default_rng(seed)
    q1 = field.q1
    eps = trivial_char(field)
    worst = 0.0
    done = 0
    while done < count:
        m = int(rng.integers(1, 5))
        ka = rng.integers(0, q1, m)
        kb = rng.integers(0, q1, m - 1)
        if ka[0] % q1 == 0:
            continue
        if any((a - b) % q1 == 0 for a, b in zip(ka[1:], kb)):
            continue
        upper = tuple(MultChar(field, int(k)) for k in ka)
        lower = (eps,) + tuple(MultChar(field, int(k)) for k in kb)
        x = field.from_id(int(rng.integers(0, field.q)))
        params = McCarthyParams(upper, lower, x)
        worst = max(worst, abs(mccarthy_F(params) - mccarthy_to_greene(params)))
        done += 1
    return [CheckResult("normalization-bridge", worst, 1e-6, count)]


def run_identity_suite(field: FqField) -> list[CheckResult]:
    """The full suite for one field."""
    rows = []
    rows += gauss_sum_checks(field)
    rows += hasse_davenport_checks(field)
    rows += sextic_product_checks(field)
    rows += twisted_convolution_checks(field)
    rows += orbit_closed_form_checks(field)
    rows += kernel_identity_checks(field)
    rows += bridge_checks(field)
    return rows
