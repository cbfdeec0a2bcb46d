"""Numerical verification of every identity the counting routes rely on.

Each row evaluates both sides of one identity over an exhaustive small
domain as two vectors, one entry per instance, and reports the worst
absolute residual through _worst, so a NaN anywhere fails the row.  The
suite covers the raw Gauss-sum facts, the product and convolution
identities, the per-orbit closed forms of the class-by-class count, the
kernel-class identities of the degree-6 route, and the bridge between the
two hypergeometric normalizations.

The twisted-convolution, per-orbit and kernel rows evaluate each side at
every deformation value at once: a sum over characters of lam (or a
hypergeometric value or class average, a lambda-free coefficient vector
contracted with the characters of x = 1/lam**6 or of d*lam) is one inverse
DFT, a vector over dlog x that the row reads at the lambdas it checks.
The bridge draws its 200 parameter tuples in one batch and compares each
parameter length m = 1..4 as one vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import MultChar, char_at_minus_one, jacobi
from .diagonal import class_contribution_by_dlog, enumerate_orbit_classes, main_term
from .dwork import (
    CLOSED_FORMS,
    closed_form_term_by_dlog,
    gamma_s,
    miyatani_F_s_by_dlog,
)
from .field import FqElem, FqField
from .hypergeometric import _bridge_values, _mccarthy_values, _mccarthy_vector


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


def valid_lambdas(field: FqField, degree: int = 6) -> list[FqElem]:
    """Nonzero lam with lam**degree != 1, in element-id order."""
    return [lam for lam in nonzero_lambdas(field) if lam**degree != field.one]


def nonzero_lambdas(field: FqField) -> list[FqElem]:
    return [field.from_id(i) for i in range(1, field.q)]


def _worst(residuals: np.ndarray) -> float:
    """The largest absolute residual, 0 when there is none and NaN when one
    is NaN, so that a NaN fails its row."""
    return float(np.abs(residuals).max(initial=0.0))


def _char_values(field: FqField, ks: np.ndarray, x: FqElem) -> np.ndarray:
    """omega**k(x) for every k in ks, x nonzero."""
    return field.unit_roots[(ks * x.exp) % field.q1]


def gauss_sum_checks(field: FqField) -> list[CheckResult]:
    """g(eps) = -1 and g(chi) g(conj chi) = q chi(-1) for every chi != eps."""
    tol = 1e-6 * field.q**3
    g, k = field.gauss_table, np.arange(1, field.q1)
    pairs = g[k] * g[field.q1 - k] - field.q * _char_values(field, k, -field.one)
    return [
        CheckResult("gauss-trivial", _worst(g[:1] + 1), tol, 1),
        CheckResult("gauss-conjugate-pairs", _worst(pairs), tol, field.q1 - 1),
    ]


def hasse_davenport_checks(field: FqField) -> list[CheckResult]:
    """The product relation for chi of order m in {2, 3, 6}, over every
    twisting character psi = omega**k:

        prod_{i<m} g(chi**i psi) = -g(psi**m) psi**(-m)(m) prod_{i<m} g(chi**i)
    """
    tol = 1e-6 * field.q**3
    g, q1, k = field.gauss_table, field.q1, np.arange(field.q1)
    rows = []
    for m in (2, 3, 6):
        if q1 % m:
            rows.append(CheckResult(f"hasse-davenport-m{m}", 0.0, tol, 0, "m does not divide q-1"))
            continue
        chi = np.arange(m)[:, None] * (q1 // m)
        lhs = g[(chi + k) % q1].prod(axis=0)
        rhs = -g[(m * k) % q1] * _char_values(field, -m * k, field.elem(m)) * g[chi].prod()
        rows.append(CheckResult(f"hasse-davenport-m{m}", _worst(lhs - rhs), tol, q1))
    return rows


def sextic_product_checks(field: FqField) -> list[CheckResult]:
    """The sextic product formula for every shift j, with t = (q-1)/6:

        g(omega**(6j)) = prod_{i<6} g(omega**(i t + j))
                         / (omega**(-6j)(6) * prod_{1<=i<6} g(omega**(i t)))
    """
    tol = 1e-6 * field.q**3
    if field.q1 % 6:
        return [CheckResult("sextic-product", 0.0, tol, 0, "q is not 1 mod 6")]
    g, q1, j = field.gauss_table, field.q1, np.arange(field.q1)
    it = np.arange(6)[:, None] * (q1 // 6)
    num = g[(it + j) % q1].prod(axis=0)
    den = _char_values(field, -6 * j, field.elem(6)) * g[it[1:]].prod()
    return [CheckResult("sextic-product", _worst(g[(6 * j) % q1] - num / den), tol, q1)]


def twisted_convolution_checks(field: FqField) -> list[CheckResult]:
    """The twisted full-cycle convolution, for a, b multiples of t = (q-1)/6
    and every lam with lam**6 != 1:

        sum_j g(omega**(j+a)) g(omega**(-j+b)) omega**j(-1) omega**(6j)(lam)
            = (q-1) g(omega**(a+b)) omega**b(-1) omega**(-(a+b))(1 - lam**6)

    The left side is one inverse DFT over j per (a, b), read at 6 dlog lam.
    """
    tol = 1e-6 * field.q**3
    q1 = field.q1
    if q1 % 6:
        return [CheckResult("twisted-convolution", 0.0, tol, 0, "q is not 1 mod 6")]
    at = (6 * np.arange(q1)) % q1
    at = at[at != 0]  # 6 dlog lam for every lam with lam**6 != 1
    if not len(at):
        return [CheckResult("twisted-convolution", 0.0, tol, 0, "no lambda with lambda**6 != 1")]
    g, j = field.gauss_table, np.arange(q1)
    pair = np.arange(36)[:, None]
    a, b = pair // 6 * (q1 // 6), pair % 6 * (q1 // 6)
    sign = _char_values(field, j, -field.one)
    lhs = q1 * np.fft.ifft(g[(j + a) % q1] * g[(b - j) % q1] * sign, axis=1)[:, at]
    one_minus = field.dlog_table[field.one_minus_table[field.exp_table[at]]]
    rhs = q1 * g[(a + b) % q1] * sign[b] * field.unit_roots[(-(a + b) * one_minus) % q1]
    return [CheckResult("twisted-convolution", _worst(lhs - rhs), tol, lhs.size)]


def orbit_closed_forms(field: FqField) -> dict[tuple[int, ...], np.ndarray]:
    """Closed-form values of the per-class contribution at every lam != 0,
    indexed by dlog lam and keyed by orbit representative: each degree-6 row
    of CLOSED_FORMS with its coefficient divided by the orbit size.  The main
    term joins the zero orbit."""
    sizes = {o.rep: o.size for o in enumerate_orbit_classes(6, 6, (1,) * 6)}
    forms = {
        row[0]: closed_form_term_by_dlog(field, 6, row, row[1] // sizes[row[0]])
        for row in CLOSED_FORMS[6]
    }
    forms[(0,) * 6] = main_term(field.q, 6) + forms[(0,) * 6]
    return forms


def orbit_closed_form_checks(field: FqField, lams: list[FqElem] | None = None) -> list[CheckResult]:
    """Per-class contribution against its closed form, one row per orbit;
    valid for every nonzero lam (the sextic-power locus included).  Both
    sides are evaluated at every lam at once and compared at lams."""
    tol = 1e-12 * field.q**4
    if field.q1 % 6:
        return [CheckResult("orbit-closed-forms", 0.0, tol, 0, "q is not 1 mod 6")]
    if lams is None:
        lams = nonzero_lambdas(field)
    at = [lam.exp for lam in lams]
    rows = []
    for key, form in sorted(orbit_closed_forms(field).items()):
        contribution = class_contribution_by_dlog(field, 6, (1,) * 6, key)
        rows.append(CheckResult(f"orbit-{key}", _worst(contribution[at] - form[at]), tol, len(lams)))
    return rows


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


def kernel_identity_checks(field: FqField, lams: list[FqElem] | None = None) -> list[CheckResult]:
    """gamma(s) F(s) against the closed form, for each of the 14 orbit
    representatives; valid for every nonzero lam (the sextic-power locus
    included).  Both sides are vectors over dlog x, compared at x = 1/lam**6."""
    tol = 1e-12 * field.q**4
    if field.q1 % 6:
        return [CheckResult("kernel-identities", 0.0, tol, 0, "q is not 1 mod 6")]
    if lams is None:
        lams = nonzero_lambdas(field)
    t = field.q1 // 6
    at = [(-6 * lam.exp) % field.q1 for lam in lams]
    vectors = {}
    for m in {len(row[5]) for row in KERNEL_IDENTITIES}:
        group = [row for row in KERNEL_IDENTITIES if len(row[5]) == m]
        upper, lower = (t * np.array([row[i] for row in group]) for i in (5, 6))
        vectors.update(zip((row[0] for row in group), _mccarthy_vector(field, upper, lower)))
    rows = []
    for label, sign, qpow, twist, jexps, upper, lower in KERNEL_IDENTITIES:
        lhs = gamma_s(field, label) * miyatani_F_s_by_dlog(field, label)
        value = sign * field.q**qpow + 0j
        if twist:
            value *= char_at_minus_one(field, t)
        if jexps is not None:
            value *= jacobi(tuple(MultChar(field, k * t) for k in jexps))
        rhs = value * vectors[label]
        rows.append(CheckResult(f"kernel-{label}", _worst(lhs[at] - rhs[at]), tol, len(lams)))
    return rows


BRIDGE_COUNT, BRIDGE_SEED = 200, 2026


def bridge_checks(field: FqField) -> list[CheckResult]:
    """mccarthy_to_greene against mccarthy_F on random precondition-satisfying
    parameter tuples (trivial leading lower parameter, nontrivial leading
    upper, paired parameters distinct).  Each batch draws per tuple a length
    m in 1..4, four upper and three lower exponents (those past m unused)
    and an argument; the first BRIDGE_COUNT tuples that meet the
    preconditions are compared, one vector per length m."""
    q1, count = field.q1, BRIDGE_COUNT
    if q1 == 1:
        return [CheckResult("normalization-bridge", 0.0, 1e-6, 0, "no nontrivial character")]
    rng, batches = np.random.default_rng(BRIDGE_SEED), []
    while sum(len(batch[0]) for batch in batches) < count:
        m = rng.integers(1, 5, 2 * count)
        ka, kb = rng.integers(0, q1, (2 * count, 4)), rng.integers(0, q1, (2 * count, 3))
        x = rng.integers(0, field.q, 2 * count)
        paired = np.arange(3) < m[:, None] - 1
        ok = (ka[:, 0] != 0) & ~((ka[:, 1:] == kb) & paired).any(axis=1)
        batches.append((m[ok], ka[ok], kb[ok], x[ok]))
    m, ka, kb, x = (np.concatenate(parts)[:count] for parts in zip(*batches))
    residuals = []
    for n in range(1, 5):
        r = m == n
        lower = np.pad(kb[r, : n - 1], ((0, 0), (1, 0)))
        gauss = _mccarthy_values(field, ka[r, :n], lower, x[r])
        residuals.append(gauss - _bridge_values(field, ka[r, :n], kb[r, : n - 1], x[r]))
    return [CheckResult("normalization-bridge", _worst(np.concatenate(residuals)), 1e-6, count)]


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
