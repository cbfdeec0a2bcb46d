"""Closed-form counts for the deformed power-sum families, integer Smith
form, and the exponent-kernel route."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dworkcount.characters import (
    MultChar,
    char_at_minus_one,
    jacobi,
    norm_jacobi,
    trivial_char,
)
from dworkcount.diagonal import (
    DiagonalParams,
    class_contribution,
    enumerate_orbit_classes,
    koblitz_total,
)
from dworkcount.dwork import (
    CLOSED_FORMS,
    DworkParams,
    KernelElement,
    closed_form_term,
    enumerate_kernel,
    gamma_s,
    greene_total,
    kernel_matrix,
    miyatani_dwork6_total,
    miyatani_F_s,
    miyatani_preflight,
    smith_normal_form,
)
from dworkcount.errors import (
    BadDegreeError,
    BadLambdaError,
    BadModulusError,
    BadWeightError,
)
from dworkcount.field import FqField
from dworkcount.hypergeometric import GreeneParams, greene_F
from dworkcount.verify import valid_lambdas

from conftest import rounded


def snf_divisors_via_minors(mat) -> tuple[int, ...]:
    """Elementary divisors from gcds of k x k minors, the defining property."""
    a = np.asarray(mat, dtype=object)
    rows, cols = a.shape
    rank_bound = min(rows, cols)
    gcds = []
    for k in range(1, rank_bound + 1):
        g = 0
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                sub = a[np.ix_(ri, ci)].astype(np.int64)
                minor = int(round(np.linalg.det(sub.astype(float))))
                g = math.gcd(g, abs(minor))
        gcds.append(g)
    divisors = []
    prev = 1
    for g in gcds:
        if g == 0:
            divisors.append(0)
        else:
            divisors.append(g // prev)
            prev = g
    return tuple(divisors)


def test_smith_form_examples():
    assert smith_normal_form(np.eye(3, dtype=np.int64)) == (1, 1, 1)
    assert smith_normal_form(np.diag([2, 4]).astype(np.int64)) == (2, 4)
    assert smith_normal_form(kernel_matrix(6)) == (1, 6, 6, 6, 6, 0)


def test_smith_form_matches_minor_gcds():
    rng = np.random.default_rng(7)
    for _ in range(30):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        mat = rng.integers(-4, 5, size=(rows, cols))
        got = smith_normal_form(mat)
        expected = snf_divisors_via_minors(mat)
        # divisor chains agree once trailing zeros are normalized
        assert len(got) == len(expected)
        assert got == expected


def test_smith_form_divisibility_chain():
    rng = np.random.default_rng(11)
    for _ in range(20):
        mat = rng.integers(-6, 7, size=(4, 4))
        divisors = [d for d in smith_normal_form(mat) if d != 0]
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0


def test_kernel_matrix_shape():
    m = kernel_matrix(6)
    assert m.shape == (6, 6)
    assert (m.sum(axis=1) == 0).all()
    assert (np.diag(m) == 5).all()


def test_kernel_enumeration(f13):
    kernel = enumerate_kernel(f13)
    assert len(kernel) == 6**4
    t = f13.q1 // 6
    seen = {elem.s for elem in kernel}
    assert len(seen) == 6**4
    assert (0, 0, 0, 0, 0, 0) in seen
    assert (0, 0, 0, 0, t, 5 * t) in seen
    for elem in kernel:
        assert elem.s[0] == 0
        assert all(si % t == 0 for si in elem.s)
        assert elem.total % 6 == 0
        assert elem.total == sum(elem.s)
    with pytest.raises(BadDegreeError):
        enumerate_kernel(f13, 5)


def test_kernel_enumeration_modulus_guard(f5):
    with pytest.raises(BadModulusError):
        enumerate_kernel(f5)


def test_gamma_is_gauss_product(f13):
    t = f13.q1 // 6
    for s in [(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 3 * t, 3 * t), (0, t, 2 * t, 3 * t, 4 * t, 2 * t)]:
        elem = KernelElement(s)
        expected = -1.0 + 0j
        for si in s:
            expected *= complex(f13.gauss_table[MultChar(f13, -si).k])
        assert abs(gamma_s(f13, elem) - expected) < 1e-9


def test_miyatani_values_are_permutation_invariant(f13):
    t = f13.q1 // 6
    lam = f13.elem(2)
    base = (0, t, t, 2 * t, 4 * t, 4 * t)
    value = gamma_s(f13, KernelElement(base)) * miyatani_F_s(f13, KernelElement(base), lam)
    for perm in itertools.permutations(base):
        elem = KernelElement(perm)
        got = gamma_s(f13, elem) * miyatani_F_s(f13, elem, lam)
        assert abs(got - value) < 1e-9


def test_miyatani_f_s_guards(f13):
    t = f13.q1 // 6
    with pytest.raises(BadLambdaError):
        miyatani_F_s(f13, KernelElement((0,) * 6), f13.zero)
    with pytest.raises(BadWeightError):
        miyatani_F_s(f13, KernelElement((0, 0, 0, 0, 1, 2 * t - 1)), f13.elem(2))
    # unit sixth roots are fine here: the kernel identities hold at every
    # nonzero deformation value
    assert abs(miyatani_F_s(f13, KernelElement((0,) * 6), f13.one)) >= 0


def test_preflight_conditions(f13, f25):
    for field in (f13, f25):
        pre = miyatani_preflight(field)
        assert pre.modulus_ok
        assert pre.divisor_chain == (1, 6, 6, 6, 6, 0)
        assert pre.kernel_size == 1296
        assert pre.kernel_size_ok
        assert pre.coords_ok
        assert pre.subset_divisors_ok
        assert pre.u_vanishes
        assert pre.d_vanishes
        assert pre.ok


def test_preflight_fails_off_modulus(f5):
    pre = miyatani_preflight(f5)
    assert not pre.modulus_ok
    assert not pre.ok


def test_dwork_params_guards(f13, f11):
    with pytest.raises(BadDegreeError):
        DworkParams(f13, 3, f13.elem(2))
    with pytest.raises(BadModulusError):
        DworkParams(f13, 5, f13.elem(2))
    with pytest.raises(BadLambdaError):
        DworkParams(f13, 6, f13.zero)
    with pytest.raises(BadLambdaError):
        DworkParams(f13, 6, f13.one)
    with pytest.raises(BadLambdaError):
        DworkParams(f13, 6, f13.from_id(4))
    # 4 elements of order dividing 5 exist only when 5 | q-1
    with pytest.raises(BadLambdaError):
        DworkParams(f11, 5, f11.from_id(3))


def test_dwork_params_diagonal_view(f13):
    params = DworkParams(f13, 6, f13.elem(2))
    diag = DiagonalParams(params.field, params.degree, (1,) * params.degree, params.lam)
    assert diag.d == 6
    assert diag.h == (1,) * 6
    assert diag.lam == params.lam
    assert params.t == 2


def test_greene_sextic_matches_koblitz(f13):
    for lam_id in (2, 5, 6, 7):
        lam = f13.from_id(lam_id)
        params = DworkParams(f13, 6, lam)
        expected = rounded(koblitz_total(DiagonalParams(f13, 6, (1,) * 6, lam)))
        assert rounded(greene_total(params)) == expected


def test_greene_quartic_matches_koblitz(f13, f17):
    for field in (f13, f17):
        for lam in field.units():
            if (lam**4) == field.one:
                continue
            params = DworkParams(field, 4, lam)
            expected = rounded(koblitz_total(DiagonalParams(field, 4, (1,) * 4, lam)))
            assert rounded(greene_total(params)) == expected


def test_greene_quintic_matches_koblitz(f11):
    for lam in f11.units():
        if (lam**5) == f11.one:
            continue
        params = DworkParams(f11, 5, lam)
        expected = rounded(koblitz_total(DiagonalParams(f11, 5, (1,) * 5, lam)))
        assert rounded(greene_total(params)) == expected


def test_miyatani_sextic_matches_koblitz(f13, f25):
    for field in (f13, f25):
        count = 0
        for lam in field.units():
            if (lam**6) == field.one:
                continue
            params = DworkParams(field, 6, lam)
            expected = rounded(koblitz_total(DiagonalParams(field, 6, (1,) * 6, lam)))
            assert rounded(miyatani_dwork6_total(params)) == expected
            count += 1
            if count >= 4:
                break


def test_miyatani_total_is_nearly_real(f13):
    params = DworkParams(f13, 6, f13.elem(2))
    total = miyatani_dwork6_total(params)
    assert abs(total.imag) < 1e-6
    assert abs(total.real - 9810) < 1e-6


def _reference_miyatani_total(params):
    """The kernel sum with a fresh preflight and kernel on every call."""
    field = params.field
    assert miyatani_preflight(field).ok
    values = {}
    total = 0j
    for elem in enumerate_kernel(field):
        key = tuple(sorted(elem.s))
        if key not in values:
            values[key] = gamma_s(field, elem) * miyatani_F_s(field, elem, params.lam)
        total += values[key]
    return (field.q**5 - 1) // (field.q - 1) - total


def test_miyatani_total_is_bit_identical_to_a_fresh_preflight():
    f61, f2017 = FqField(61), FqField(2017)
    fibres = [(f61, lam) for lam in valid_lambdas(f61, 6)]
    fibres += [(f2017, f2017.elem(1501)), (f2017, f2017.elem(5))]
    for field, lam in fibres:
        params = DworkParams(field, 6, lam)
        assert miyatani_dwork6_total(params) == _reference_miyatani_total(params)


def _greene(upper, lower, x):
    return greene_F(GreeneParams(tuple(upper), tuple(lower), x))


def _reference_greene_total(params):
    """The degree-4, -5 and -6 closed forms typed out term by term."""
    field, q, t, lam = params.field, params.field.q, params.t, params.lam
    eps = trivial_char(field)
    w = [MultChar(field, i * t) for i in range(params.degree)]
    x = (lam**params.degree).inverse()
    if params.degree == 4:
        w4, w2, w4b = w[1], w[2], w[3]
        total = (q**3 - 1) // (q - 1) + 0j
        total += 12 * q * char_at_minus_one(field, t) * w2(field.one - lam**4)
        total += q**2 * _greene((w4, w2, w4b), (eps, eps), x)
        total += 3 * q**2 * norm_jacobi(w4b, w4) * _greene((w4b, w4), (w2,), x)
        return total
    if params.degree == 5:
        w1, w2, w3, w4 = w[1], w[2], w[3], w[4]
        total = (q**4 - 1) // (q - 1) + 0j
        total += q**3 * _greene((w1, w2, w3, w4), (eps, eps, eps), x)
        total += 20 * q**2 * _greene((w2, w3), (eps,), x)
        total += 20 * q**2 * _greene((w1, w4), (eps,), x)
        total += 30 * q**2 * _greene((w1, w3), (w4,), x)
        total += 30 * q**2 * _greene((w1, w2), (w3,), x)
        return total
    w6, w3, w2 = w[1], w[2], w[3]
    w3b, w6b = w3.conj(), w6.conj()
    s6 = char_at_minus_one(field, t)
    j632 = jacobi((w6, w3, w2))
    j236 = jacobi((w2, w3b, w6b))
    j663b = jacobi((w6, w6, w3b))
    j333 = jacobi((w3, w3, w3))
    j66 = jacobi((w6, w6))
    total = (q**5 - 1) // (q - 1) + 0j
    total += 360 * q**2 * w2(field.one - lam**6)
    total += q**4 * _greene((w6, w3, w2, w3b, w6b), (eps,) * 4, x)
    total += 30 * q**3 * s6 * _greene((w3, w2, w3b), (eps, eps), x)
    total += 30 * q**3 * _greene((w6, w2, w6b), (eps, eps), x)
    total += -15 * q**3 * s6 * j236 * _greene((w6, w6b, w3b, w3), (eps, eps, w2), x)
    total += -20 * q**3 * s6 * j632 * _greene((w6, w2, w3b, w6b), (eps, w3, w3), x)
    total += 60 * q**2 * s6 * j663b * j236 * _greene((w6, w3b, w2), (eps, w6b), x)
    total += 60 * q**2 * j333 * j236 * _greene((w3, w6b, w2), (eps, w6), x)
    total += 90 * q**3 * _greene((w2, w3b, w6b), (w6, w3), x)
    total += -30 * q**2 * j66 * j632 * _greene((w6, w2, w6b), (w3, w3b), x)
    total += -120 * q**2 * j632 * _greene((w6, w3), (eps,), x)
    total += -120 * q**2 * j236 * _greene((w3b, w6b), (eps,), x)
    total += -180 * q**2 * j632 * _greene((w3, w3b), (w2,), x)
    total += -180 * q**2 * j632 * _greene((w3, w6b), (w3b,), x)
    return total


def test_greene_total_keeps_no_per_character_vectors():
    # each hypergeometric value is one batch of Jacobi rows, so memory stays
    # O(q) per call; one length-q vector per character would be about 250 MiB
    field = FqField(4003)
    params = DworkParams(field, 6, field.elem(2))
    tracemalloc.start()
    try:
        total = greene_total(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # the count koblitz and miyatani agree on for this fibre
    assert rounded(total) == 256826823574896


def test_greene_total_is_bit_identical_to_the_typed_forms(f11, f13, f17, f31):
    # The table-driven evaluator must multiply and add in exactly the typed
    # order: near q = 2017 a sextic count lies in [2**43, 2**44), where one
    # float ulp exceeds the rounding tolerance.  F_13 (degree 6) and F_41
    # (degree 5) are fields where reordering two constants of one row, or
    # two rows, changes the low bits.
    f41, f61, f2017 = FqField(41), FqField(61), FqField(2017)
    fibres = [(field, 6, lam) for field in (f61, f13) for lam in valid_lambdas(field, 6)]
    fibres += [(f2017, 6, f2017.elem(1501)), (f2017, 6, f2017.elem(5))]
    fibres += [(field, 4, lam) for field in (f13, f17) for lam in valid_lambdas(field, 4)]
    fibres += [(field, 5, lam) for field in (f11, f31, f41) for lam in valid_lambdas(field, 5)]
    for field, degree, lam in fibres:
        params = DworkParams(field, degree, lam)
        assert greene_total(params) == _reference_greene_total(params)
    assert len(fibres) == (54 + 6 + 2) + (8 + 12) + (5 + 25 + 35)


def test_closed_form_rows_sum_their_orbits(f11, f13):
    # each row's term, with its coefficient divided by the orbit size, is
    # the contribution of one shift class in the orbit the row names; the
    # main term joins the zero orbit
    for field, degree in ((f13, 4), (f11, 5), (f13, 6)):
        sizes = {o.rep: o.size for o in enumerate_orbit_classes(degree, degree, (1,) * degree)}
        main = (field.q ** (degree - 1) - 1) // (field.q - 1)
        for lam in valid_lambdas(field, degree)[:3]:
            params = DworkParams(field, degree, lam)
            diag = DiagonalParams(field, degree, (1,) * degree, lam)
            for row in CLOSED_FORMS[degree]:
                label, coef = row[0], row[1]
                assert coef % sizes[label] == 0
                value = closed_form_term(params, row, coef // sizes[label])
                if label == (0,) * degree:
                    value += main
                assert abs(class_contribution(diag, label) - value) < 1e-6 * field.q**degree
