"""Weil decomposition, shift classes, and the Gauss-sum route for diagonal
hypersurfaces."""

import numpy as np
import pytest

from dworkcount.brute import deformed_diagonal_polynomial, projective_count
from dworkcount.diagonal import (
    DiagonalParams,
    class_contribution,
    class_contribution_by_dlog,
    class_gauss_average,
    class_gauss_average_by_dlog,
    class_members,
    enumerate_orbit_classes,
    koblitz_remainder_by_dlog,
    main_term,
    weil_point_count,
    _shift_classes,
    _weight_vectors,
)
from dworkcount.errors import (
    BadDegreeError,
    BadLambdaError,
    BadParamsError,
    BadWeightError,
)
from dworkcount.field import FqField
from dworkcount.verify import valid_lambdas

from conftest import count, rounded


def _koblitz_float(field, h, lam):
    """The koblitz route's float total: main term plus the fibre's remainder."""
    return main_term(field.q, len(h)) + koblitz_remainder_by_dlog(field, sum(h), h)[lam.exp]


def canonical_class_rep(d, h, w):
    """The least member of the shift class of w."""
    return min(class_members(d, h, w))


def fermat_count(field, d, n):
    """Points of x_1**d + ... + x_n**d = 0 in P^(n-1): the Weil terms of
    every weight vector, summed and rounded."""
    total = 0j
    for w in _weight_vectors(d, n):
        total += weil_point_count(field, d, n, w)
    return rounded(total)


def test_weil_sum_matches_projective_line_fermat(f13):
    # x1**d + x2**d = 0 in P^1, counted directly over representatives (1 : y)
    # and (0 : 1)
    for d in (2, 3, 4, 6):
        direct = sum(
            1
            for y in f13.elements()
            if (f13.one + y**d).is_zero
        )
        total = sum(weil_point_count(f13, d, 2, w) for w in _weight_vectors(d, 2))
        assert abs(total - direct) < 1e-9


def test_weil_trivial_weight_is_rational_stratum(f13):
    # the all-zero weight carries the full torus-free stratum count
    for d, n in [(3, 3), (4, 4), (6, 6)]:
        value = weil_point_count(f13, d, n, (0,) * n)
        assert abs(value.imag) < 1e-9
        assert value.real > 0


def test_weil_guards(f13):
    with pytest.raises(BadDegreeError):
        weil_point_count(f13, 5, 3, (0, 0, 0))
    with pytest.raises(BadWeightError):
        weil_point_count(f13, 3, 3, (0, 0))
    with pytest.raises(BadWeightError):
        weil_point_count(f13, 3, 3, (0, 3, 0))
    with pytest.raises(BadWeightError):
        weil_point_count(f13, 3, 3, (1, 1, 2))


def test_fermat_counts_match_enumeration(f7, f13):
    assert fermat_count(f7, 3, 3) == 9
    assert fermat_count(f13, 3, 3) == 9
    assert fermat_count(f13, 4, 4) == 128
    assert fermat_count(f13, 6, 6) == 87570


def test_class_members_have_full_length(f13):
    # gcd(d, h) = 1 forces exactly d distinct members per shift class
    for h in [(1, 1, 1, 1, 1, 1), (1, 1, 1, 3, 3, 3), (1, 2, 3, 4, 5, 3)]:
        d = 6
        for w in [(0,) * 6, (1, 2, 3, 0, 0, 0), (5, 5, 5, 5, 5, 5)]:
            if sum(w) % d:
                continue
            members = class_members(d, h, w)
            assert len(members) == d
            assert len(set(members)) == d
            assert all(sum(v) % d == 0 for v in members)


def test_canonical_rep_is_stable(f13):
    d, h = 6, (1,) * 6
    for w in _weight_vectors(d, 4):
        w6 = w + (0, (-sum(w)) % d)
        rep = canonical_class_rep(d, h, w6)
        assert rep in class_members(d, h, w6)
        assert canonical_class_rep(d, h, rep) == rep
        for member in class_members(d, h, w6):
            assert canonical_class_rep(d, h, member) == rep


def test_shift_classes_partition_weight_vectors():
    d, h, n = 6, (1,) * 6, 6
    reps = {canonical_class_rep(d, h, w) for w in _weight_vectors(d, n)}
    assert len(reps) == 6**5 // 6
    covered = set()
    for rep in reps:
        members = class_members(d, h, rep)
        assert not covered.intersection(members)
        covered.update(members)
    assert len(covered) == 6**5


def test_orbit_decomposition_shape():
    orbits = enumerate_orbit_classes(6, 6, (1,) * 6)
    sizes = sorted(o.size for o in orbits)
    assert len(orbits) == 14
    assert sum(sizes) == 1296
    assert sizes == sorted((1, 30, 30, 15, 60, 120, 20, 60, 120, 90, 30, 180, 180, 360))
    for orbit in orbits:
        assert orbit.rep == tuple(sorted(orbit.rep))
        assert len(orbit.classes) == orbit.size
    with pytest.raises(BadParamsError):
        enumerate_orbit_classes(6, 6, (1, 1, 1, 1, 1, 1 + 6))


def test_class_gauss_average_member_independence(f13):
    params = DiagonalParams(f13, 6, (1,) * 6, f13.elem(2))
    for w in [(0, 0, 0, 1, 1, 4), (0, 1, 2, 3, 4, 2), (0, 0, 2, 2, 4, 4)]:
        values = [class_gauss_average(params, v) for v in class_members(6, params.h, w)]
        assert max(abs(v - values[0]) for v in values) < 1e-9 * f13.q ** (params.n / 2)
        plain = class_gauss_average(params, w)
        assert abs(values[0] - plain) < 1e-12


@pytest.mark.parametrize("p, e", [(13, 1), (5, 2), (37, 1)])
def test_class_gauss_average_by_dlog_matches_every_fibre(p, e):
    field = FqField(p, e)
    h = (1,) * 6
    fibres = [DiagonalParams(field, 6, h, lam) for lam in valid_lambdas(field, 6)]
    for rep, _ in _shift_classes(6, 6, h):
        values = class_gauss_average_by_dlog(field, 6, h, rep)
        assert values.shape == (field.q1,)
        for params in fibres:
            single = class_gauss_average(params, rep)
            assert abs(values[params.lam.exp] - single) < 1e-9 * field.q**3, (rep, params.lam)


def test_class_gauss_average_by_dlog_guard(f13):
    with pytest.raises(BadDegreeError):
        class_gauss_average_by_dlog(f13, 5, (1,) * 5, (0,) * 5)


def test_permuted_classes_contribute_equally(f13):
    params = DiagonalParams(f13, 6, (1,) * 6, f13.elem(2))
    orbits = enumerate_orbit_classes(6, 6, (1,) * 6)
    for orbit in orbits:
        if orbit.size < 2:
            continue
        values = [class_contribution(params, rep) for rep in orbit.classes[:3]]
        for v in values[1:]:
            assert abs(v - values[0]) < 1e-9


def test_koblitz_sextic_anchor(f13):
    for lam_id in (2, 3, 5, 6, 7, 11):
        lam = f13.from_id(lam_id)
        if (lam**6) == f13.one:
            continue
        assert count(f13, 6, lam, "koblitz") == 9810


def test_koblitz_quartic_anchor(f13):
    expected = {2: 320, 3: 320, 10: 320, 11: 320, 4: 352, 6: 352, 7: 352, 9: 352}
    for lam_id, points in expected.items():
        assert count(f13, 4, f13.from_id(lam_id), "koblitz") == points


def test_koblitz_quintic_anchor(f11):
    for lam_id in range(2, 11):
        lam = f11.from_id(lam_id)
        if (lam**5) == f11.one:
            continue
        assert count(f11, 5, lam, "koblitz") == 2550


def test_koblitz_matches_enumeration_for_nonuniform_weights(f13):
    # h = (1, 2, 3) with d = 6: a genuinely non-symmetric diagonal family
    h = (1, 2, 3)
    for lam_id in (2, 5, 8):
        lam = f13.from_id(lam_id)
        try:
            DiagonalParams(f13, 6, h, lam)
        except BadLambdaError:
            continue
        brute = projective_count(
            f13, deformed_diagonal_polynomial(f13, 6, h, lam), 3
        )
        assert rounded(_koblitz_float(f13, h, lam)) == brute


def test_hesse_family_anchor(f7):
    for lam_id in (3, 5, 6):
        assert count(f7, 3, f7.from_id(lam_id), "koblitz") == 9


def test_params_guards(f7, f13):
    with pytest.raises(BadDegreeError):
        DiagonalParams(f13, 5, (1, 1, 1, 1, 1), f13.elem(2))
    with pytest.raises(BadParamsError):
        DiagonalParams(f13, 6, (1, 1, 1, 1, 1, 2), f13.elem(2))
    with pytest.raises(BadParamsError):
        DiagonalParams(f13, 6, (2, 2, 2), f13.elem(2))
    with pytest.raises(BadParamsError):
        DiagonalParams(f13, 6, (1,) * 6, f7.elem(2))
    with pytest.raises(BadLambdaError):
        DiagonalParams(f13, 6, (1,) * 6, f13.zero)
    with pytest.raises(BadLambdaError):
        DiagonalParams(f13, 6, (1,) * 6, f13.from_id(4))
    with pytest.raises(BadLambdaError):
        DiagonalParams(f7, 3, (1, 1, 1), f7.from_id(2))


def test_koblitz_total_is_nearly_real(f13):
    total = _koblitz_float(f13, (1,) * 6, f13.elem(2))
    assert abs(total.imag) < 1e-9


def _reference_weil_sums(field, d, h, reps):
    """Per-member Weil terms summed in member order, for each class, every
    member included and each term written out as a left-to-right product."""
    t = field.q1 // d
    sums = {}
    for rep in reps:
        weil = 0j
        for v in class_members(d, h, rep):
            if not any(v):
                weil += complex((field.q ** (len(h) - 1) - 1) // (field.q - 1))
            elif all(v):
                prod = 1 + 0j
                for wi in v:
                    prod *= field.gauss_table[(wi * t) % field.q1]
                weil += prod / field.q
            else:
                weil += 0j
        sums[rep] = weil
    return sums


def _reference_koblitz_total(params, reps, weil):
    """The class-by-class sum written out directly: each class's Weil sum
    plus a per-class numpy Gauss average, over reps in sorted order."""
    field, d, h = params.field, params.d, params.h
    q1, t = field.q1, params.t
    j = np.arange(q1, dtype=np.int64)
    g = field.gauss_table
    dlam = field.elem(d) * params.lam
    tw = field.unit_roots[(d * j * dlam.exp) % q1]
    total = 0j
    for rep in reps:
        num = np.ones(q1, dtype=np.complex128)
        for wi, hi in zip(rep, h):
            num = num * g[(wi * t + hi * j) % q1]
        total += weil[rep] + complex(np.sum(num / g[(d * j) % q1] * tw) / q1)
    return total


def test_koblitz_total_rounds_like_the_class_loop(f13):
    # The route reads one entry of a per-field vector, summed orbit by orbit,
    # so its low bits differ from the class loop; the count may not.
    f61, f2017, f37, f31 = FqField(61), FqField(2017), FqField(37), FqField(31)
    groups = [
        (f61, (1,) * 6, valid_lambdas(f61, 6)),
        (f13, (1,) * 6, valid_lambdas(f13, 6)),
        (f2017, (1,) * 6, [f2017.elem(1501), f2017.elem(5)]),
        (f13, (1, 2, 3), [f13.elem(2), f13.elem(5)]),
        (f13, (1, 1, 4), valid_lambdas(f13, 6)[:4]),
        (f13, (1,) * 3, valid_lambdas(f13, 3)),
        (f37, (1,) * 4, valid_lambdas(f37, 4)),
        (f31, (1,) * 5, valid_lambdas(f31, 5)),
    ]
    fibres = 0
    for field, h, lams in groups:
        d = sum(h)
        reps = sorted({canonical_class_rep(d, h, w) for w in _weight_vectors(d, len(h))})
        weil = _reference_weil_sums(field, d, h, reps)
        for lam in lams:
            params = DiagonalParams(field, d, h, lam)
            total = _koblitz_float(field, h, lam)
            reference = _reference_koblitz_total(params, reps, weil)
            assert rounded(total) == rounded(reference)
            # a tenth of the rounding tolerance
            assert abs(total - reference) < 1e-4
            fibres += 1
    assert fibres == 54 + 6 + 2 + 2 + 4 + 9 + 32 + 25


@pytest.mark.parametrize("p, e", [(13, 1), (5, 2), (37, 1)])
@pytest.mark.parametrize("h", [(1,) * 6, (1, 2, 3), (1, 1, 1, 3)])
def test_koblitz_remainder_is_the_sum_of_its_class_contributions(p, e, h):
    # the route builds one numerator from shared factor rows and divides
    # once; the oracle divides each class's ratio row on its own
    field, d = FqField(p, e), sum(h)
    classes = _shift_classes(d, len(h), h)
    expected = sum(class_contribution_by_dlog(field, d, h, rep) for rep, _ in classes)
    expected -= main_term(field.q, len(h))
    # a few thousand ulps of the largest entry
    tol = 1e-12 * np.abs(expected).max()
    np.testing.assert_allclose(koblitz_remainder_by_dlog(field, d, h), expected, rtol=0, atol=tol)
