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
    main_term,
)
from dworkcount.dwork import (
    CLOSED_FORMS,
    MiyataniPreflight,
    _kernel_table,
    closed_form_constants,
    closed_form_term,
    closed_form_term_by_dlog,
    gamma_s,
    greene_remainder_by_dlog,
    kernel_matrix,
    miyatani_F_s,
    miyatani_F_s_by_dlog,
    miyatani_preflight,
    miyatani_remainder_by_dlog,
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

from conftest import count, rounded


def _greene_float(field, d, lam):
    """The greene route's float total: main term plus the fibre's remainder."""
    return main_term(field.q, d) + greene_remainder_by_dlog(field, d)[lam.exp]


def _miyatani_float(field, lam):
    """The kernel route's float total: main term plus the fibre's remainder."""
    return main_term(field.q, 6) + miyatani_remainder_by_dlog(field)[lam.exp]


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


def _fresh_kernel():
    """The kernel classes w (s = t*w) enumerated afresh, in lexicographic order."""
    return [(0,) + w for w in itertools.product(range(6), repeat=5) if sum(w) % 6 == 0]


def test_kernel_table_matches_a_fresh_enumeration():
    classes, index, keys = _kernel_table()
    fresh = _fresh_kernel()
    assert list(classes) == fresh
    assert len(fresh) == 6**4
    assert (0, 0, 0, 0, 0, 0) in classes and (0, 0, 0, 0, 1, 5) in classes
    # keys in order of first appearance, each class pointing at its sorted key
    first = {}
    for w in fresh:
        first.setdefault(tuple(sorted(w)), w)
    assert [w for w, _ in keys] == list(first.values())
    assert len(keys) == 42
    assert [tuple(sorted(w)) for w in fresh] == [tuple(sorted(keys[i][0])) for i in index]
    # the reduced exponents: the rotation (|w|/6 + i) mod 6 over w, common
    # multiset cancelled, in order
    for w, (upper, lower) in keys:
        up = [(sum(w) // 6 + i) % 6 for i in range(6)]
        lo = list(w)
        for k in set(up) & set(lo):
            for _ in range(min(up.count(k), lo.count(k))):
                up.remove(k)
                lo.remove(k)
        assert (upper, lower) == (up, lo), w


def test_gamma_is_gauss_product(f13):
    t = f13.q1 // 6
    for w in [(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 3, 3), (0, 1, 2, 3, 4, 2)]:
        expected = -1.0 + 0j
        for wi in w:
            expected *= complex(f13.gauss_table[MultChar(f13, -t * wi).k])
        assert abs(gamma_s(f13, w) - expected) < 1e-9


def test_miyatani_values_are_permutation_invariant(f13):
    lam = f13.elem(2)
    base = (0, 1, 1, 2, 4, 4)
    value = gamma_s(f13, base) * miyatani_F_s(f13, base, lam)
    for perm in itertools.permutations(base):
        got = gamma_s(f13, perm) * miyatani_F_s(f13, perm, lam)
        assert abs(got - value) < 1e-9


def test_kernel_enumeration_modulus_guard(f5):
    # the kernel classes are written in units of t = (q-1)/6
    with pytest.raises(BadModulusError):
        miyatani_F_s(f5, (0,) * 6, f5.elem(2))
    with pytest.raises(BadModulusError):
        miyatani_F_s_by_dlog(f5, (0,) * 6)


def test_miyatani_f_s_guards(f13):
    with pytest.raises(BadLambdaError):
        miyatani_F_s(f13, (0,) * 6, f13.zero)
    # not a kernel class: a sum that is not 0 mod 6 (t*|w| is 0 mod 6 at
    # q = 13 all the same), an entry outside range(6), a seventh entry
    for w in [(0, 0, 0, 0, 1, 2), (0, 0, 0, 0, 0, 6), (0, 0, 0, 0, 1, 5, 0)]:
        with pytest.raises(BadWeightError):
            miyatani_F_s(f13, w, f13.elem(2))
        with pytest.raises(BadWeightError):
            miyatani_F_s_by_dlog(f13, w)
    # unit sixth roots are fine here: the kernel identities hold at every
    # nonzero deformation value
    assert abs(miyatani_F_s(f13, (0,) * 6, f13.one)) >= 0


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


def _reference_preflight(field):
    """The preflight with every Smith form and the kernel computed afresh."""
    q1 = field.q1
    modulus_ok = q1 % 6 == 0
    chain = smith_normal_form(kernel_matrix(6))
    expected = math.prod(d for d in chain if d)
    coords_ok, size = False, 0
    if modulus_ok:
        t = q1 // 6
        kernel = [
            (0,) + tuple(t * wi for wi in w)
            for w in itertools.product(range(6), repeat=5)
            if sum(w) % 6 == 0
        ]
        coords_ok = all(
            all(si % t == 0 for si in s) and sum(s) % 6 == 0 and sum(s) % q1 == 0
            for s in kernel
        )
        size = len(kernel)
    a = (6 * np.eye(6, dtype=np.int64)).tolist()
    subset_ok, u_ok, d_count = True, True, 0
    for k in (3, 4, 5, 6):
        for cols in itertools.combinations(range(6), k):
            support = [
                i for i in range(6) if all(a[i][j] == 0 for j in range(6) if j not in cols)
            ]
            sigma = len(support)
            stacked = [[a[j][i] for i in support] for j in cols] + [[1] * sigma]
            subset_ok &= all(d == 0 or q1 % d == 0 for d in smith_normal_form(stacked))
            if k <= 5:
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


def test_preflight_report_matches_a_fresh_computation(f5, f13, f25):
    # the integer structure is shared by every field of the process; each
    # report must still equal the one computed from scratch, field by field
    for field in (f5, f13, f25, FqField(4003), f5):
        assert miyatani_preflight(field) == _reference_preflight(field)


def test_preflight_fails_off_modulus(f5):
    pre = miyatani_preflight(f5)
    assert not pre.modulus_ok
    assert not pre.ok


def test_greene_route_guards(f13, f11):
    with pytest.raises(BadDegreeError):
        count(f13, 3, f13.elem(2), "greene")
    with pytest.raises(BadModulusError):
        closed_form_term(f13, 5, f13.elem(2), CLOSED_FORMS[5][0], 1)
    with pytest.raises(BadLambdaError):
        count(f13, 6, f13.zero, "greene")
    with pytest.raises(BadLambdaError):
        count(f13, 6, f13.one, "greene")
    with pytest.raises(BadLambdaError):
        count(f13, 6, f13.from_id(4), "greene")
    # 4 elements of order dividing 5 exist only when 5 | q-1
    with pytest.raises(BadLambdaError):
        count(f11, 5, f11.from_id(3), "greene")


def test_greene_sextic_matches_koblitz(f13):
    for lam_id in (2, 5, 6, 7):
        lam = f13.from_id(lam_id)
        assert count(f13, 6, lam, "greene") == count(f13, 6, lam, "koblitz")


def test_greene_quartic_matches_koblitz(f13, f17):
    for field in (f13, f17):
        for lam in field.units():
            if (lam**4) == field.one:
                continue
            assert count(field, 4, lam, "greene") == count(field, 4, lam, "koblitz")


def test_greene_quintic_matches_koblitz(f11):
    for lam in f11.units():
        if (lam**5) == f11.one:
            continue
        assert count(f11, 5, lam, "greene") == count(f11, 5, lam, "koblitz")


def test_miyatani_sextic_matches_koblitz(f13, f25):
    for field in (f13, f25):
        lams = [lam for lam in field.units() if lam**6 != field.one]
        for lam in lams[:4]:
            assert count(field, 6, lam, "miyatani") == count(field, 6, lam, "koblitz")


def test_miyatani_total_is_nearly_real(f13):
    total = _miyatani_float(f13, f13.elem(2))
    assert abs(total.imag) < 1e-6
    assert abs(total.real - 9810) < 1e-6


def _reference_miyatani_total(field, lam):
    """The kernel sum with a fresh preflight and kernel on every call."""
    assert miyatani_preflight(field).ok
    values = {}
    total = 0j
    for w in _fresh_kernel():
        key = tuple(sorted(w))
        if key not in values:
            values[key] = gamma_s(field, w) * miyatani_F_s(field, w, lam)
        total += values[key]
    return (field.q**5 - 1) // (field.q - 1) - total


def test_miyatani_total_rounds_like_a_fresh_preflight():
    # one inverse DFT per field in place of a contraction per fibre: the low
    # bits differ from the kernel loop, the count may not
    f61, f2017 = FqField(61), FqField(2017)
    fibres = [(f61, lam) for lam in valid_lambdas(f61, 6)]
    fibres += [(f2017, f2017.elem(1501)), (f2017, f2017.elem(5))]
    # the top prime of the cold benchmark range
    f4003 = FqField(4003)
    fibres += [(f4003, f4003.elem(2)), (f4003, f4003.elem(3001))]
    for field, lam in fibres:
        total, reference = _miyatani_float(field, lam), _reference_miyatani_total(field, lam)
        assert rounded(total) == rounded(reference)
        # a tenth of the rounding tolerance
        assert abs(total - reference) < 1e-4


def _greene(upper, lower, x):
    return greene_F(GreeneParams(tuple(upper), tuple(lower), x))


def _reference_greene_total(field, degree, lam):
    """The degree-4, -5 and -6 closed forms typed out term by term."""
    q, t = field.q, field.q1 // degree
    eps = trivial_char(field)
    w = [MultChar(field, i * t) for i in range(degree)]
    x = (lam**degree).inverse()
    if degree == 4:
        w4, w2, w4b = w[1], w[2], w[3]
        total = (q**3 - 1) // (q - 1) + 0j
        total += 12 * q * char_at_minus_one(field, t) * w2(field.one - lam**4)
        total += q**2 * _greene((w4, w2, w4b), (eps, eps), x)
        total += 3 * q**2 * norm_jacobi(w4b, w4) * _greene((w4b, w4), (w2,), x)
        return total
    if degree == 5:
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
    tracemalloc.start()
    try:
        total = _greene_float(field, 6, field.elem(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # the count koblitz and miyatani agree on for this fibre
    assert rounded(total) == 256826823574896


def test_greene_total_rounds_like_the_typed_forms(f11, f13, f17, f31):
    # The rows are summed as vectors over dlog lam, once per field, so the
    # low bits differ from the typed forms; the count may not.
    f41, f61, f2017 = FqField(41), FqField(61), FqField(2017)
    fibres = [(field, 6, lam) for field in (f61, f13) for lam in valid_lambdas(field, 6)]
    fibres += [(f2017, 6, f2017.elem(1501)), (f2017, 6, f2017.elem(5))]
    fibres += [(field, 4, lam) for field in (f13, f17) for lam in valid_lambdas(field, 4)]
    fibres += [(field, 5, lam) for field in (f11, f31, f41) for lam in valid_lambdas(field, 5)]
    for field, degree, lam in fibres:
        total = _greene_float(field, degree, lam)
        reference = _reference_greene_total(field, degree, lam)
        assert rounded(total) == rounded(reference)
        # a tenth of the rounding tolerance
        assert abs(total - reference) < 1e-4
    assert len(fibres) == (54 + 6 + 2) + (8 + 12) + (5 + 25 + 35)


@pytest.mark.parametrize("p, e, d", [(13, 1, 6), (5, 2, 6), (61, 1, 6), (13, 1, 4), (5, 2, 4)])
def test_closed_form_constants_match_the_defining_sums(p, e, d):
    field = FqField(p, e)
    t = field.q1 // d
    w = [MultChar(field, i * t) for i in range(d)]
    sign = char_at_minus_one(field, t)
    if d == 6:
        expected = (
            sign,
            jacobi((w[1], w[2], w[3])),
            jacobi((w[3], w[4], w[5])),
            jacobi((w[1], w[1], w[4])),
            jacobi((w[2], w[2], w[2])),
            jacobi((w[1], w[1])),
        )
    else:
        # (conj w4; w4) = w4(-1)/q J(conj w4, conj w4)
        expected = (sign, sign / field.q * jacobi((w[3], w[3])))
    constants = closed_form_constants(field, d)
    assert len(constants) == len(expected)
    for value, reference in zip(constants, expected):
        assert abs(value - reference) < 1e-10 * field.q


def test_closed_form_rows_sum_their_orbits(f11, f13):
    # each row's term, with its coefficient divided by the orbit size, is
    # the contribution of one shift class in the orbit the row names; the
    # main term joins the zero orbit
    for field, degree in ((f13, 4), (f11, 5), (f13, 6)):
        sizes = {o.rep: o.size for o in enumerate_orbit_classes(degree, degree, (1,) * degree)}
        main = (field.q ** (degree - 1) - 1) // (field.q - 1)
        for lam in valid_lambdas(field, degree)[:3]:
            diag = DiagonalParams(field, degree, (1,) * degree, lam)
            for row in CLOSED_FORMS[degree]:
                label, coef = row[0], row[1]
                assert coef % sizes[label] == 0
                value = closed_form_term(field, degree, lam, row, coef // sizes[label])
                if label == (0,) * degree:
                    value += main
                assert abs(class_contribution(diag, label) - value) < 1e-6 * field.q**degree


@pytest.mark.parametrize(
    "d, p, e", [(4, 13, 1), (4, 5, 2), (4, 37, 1), (5, 11, 1), (5, 31, 1),
                (6, 13, 1), (6, 5, 2), (6, 37, 1)]
)
def test_closed_form_terms_by_dlog_match_every_fibre(d, p, e):
    field = FqField(p, e)
    for row in CLOSED_FORMS[d]:
        values = closed_form_term_by_dlog(field, d, row, row[1])
        assert values.shape == (field.q1,)
        for lam in valid_lambdas(field, d):
            single = closed_form_term(field, d, lam, row, row[1])
            assert abs(values[lam.exp] - single) < 1e-9 * abs(row[1]) * field.q ** row[2]


def test_closed_form_terms_by_dlog_guard(f11):
    with pytest.raises(BadModulusError):
        closed_form_term_by_dlog(f11, 6, CLOSED_FORMS[6][1], 1)


@pytest.mark.parametrize("p, e", [(13, 1), (5, 2), (37, 1)])
def test_miyatani_values_by_dlog_match_every_lambda(p, e):
    field = FqField(p, e)
    classes = {tuple(sorted(w)): w for w in _fresh_kernel()}
    for w in classes.values():
        values = miyatani_F_s_by_dlog(field, w)
        for lam in field.units():
            single = miyatani_F_s(field, w, lam)
            assert abs(values[(-6 * lam.exp) % field.q1] - single) < 1e-9, (w, lam)


@pytest.mark.parametrize("p, e", [(13, 1), (5, 2), (37, 1)])
def test_miyatani_remainder_is_the_kernel_sum(p, e):
    # the route folds each key's normalization into one scalar and twists
    # the odd-m sum once; the oracle reads every class's own F(s) row
    field = FqField(p, e)
    at = (-6 * np.arange(field.q1)) % field.q1  # x = 1/lam**6 at lam = g**e
    expected = -sum(gamma_s(field, w) * miyatani_F_s_by_dlog(field, w)[at] for w in _fresh_kernel())
    # a few thousand ulps of the largest entry
    tol = 1e-12 * np.abs(expected).max()
    np.testing.assert_allclose(miyatani_remainder_by_dlog(field), expected, rtol=0, atol=tol)
