"""Exhaustive enumeration: small cases by hand, strata bookkeeping, budget."""

import pytest

from dworkcount.brute import (
    ENUMERATION_BUDGET,
    deformed_diagonal_polynomial,
    dwork_counts_by_lambda,
    dwork_polynomial,
    projective_count,
)
from dworkcount.errors import BadDegreeError, BudgetExceededError, NotHomogeneousError
from dworkcount.field import FqField


def test_hyperplane_in_projective_line(f13):
    # x1 + x2 = 0 has the single point (1 : -1)
    monos = [(f13.one, (1, 0)), (f13.one, (0, 1))]
    assert projective_count(f13, monos, 2) == 1


def test_conic_by_hand(f5):
    # x**2 + y**2 + z**2 = 0 over F_5: rational conic, q + 1 points
    monos = [(f5.one, (2, 0, 0)), (f5.one, (0, 2, 0)), (f5.one, (0, 0, 2))]
    assert projective_count(f5, monos, 3) == 6
    # hand check by full loop over normalized representatives
    direct = 0
    for point in _projective_points(f5, 3):
        value = sum((x**2 for x in point[1:]), start=point[0] ** 2)
        direct += value.is_zero
    assert direct == 6


def _projective_points(field, nvars):
    for lead in range(nvars):
        free = nvars - lead - 1
        for flat in range(field.q**free):
            rest = []
            v = flat
            for _ in range(free):
                rest.append(field.from_id(v % field.q))
                v //= field.q
            yield [field.zero] * lead + [field.one] + rest[::-1]


def test_zero_polynomial_counts_all_points(f7):
    expected = (7**3 - 1) // (7 - 1)
    assert projective_count(f7, [], 3) == expected


def test_strata_sum_zero_locus(f13):
    # the zero locus of x1 (one coordinate hyperplane) is a P^1 inside P^2
    monos = [(f13.one, (1, 0, 0))]
    assert projective_count(f13, monos, 3) == (13**2 - 1) // (13 - 1)


def test_determinism(f13):
    lam = f13.elem(2)
    monos = dwork_polynomial(f13, 6, lam)
    first = projective_count(f13, monos, 6)
    second = projective_count(f13, monos, 6, chunk=1 << 10)
    assert first == second == 9810


def test_dwork_polynomial_shape(f13):
    lam = f13.elem(3)
    monos = dwork_polynomial(f13, 4, lam)
    assert len(monos) == 5
    powers = sorted(exps for _, exps in monos)
    assert (1, 1, 1, 1) in powers
    assert (4, 0, 0, 0) in powers
    # the cross-term coefficient is -4 lambda
    cross = [c for c, exps in monos if exps == (1, 1, 1, 1)][0]
    assert cross == f13.elem(-4) * lam


def test_deformed_diagonal_polynomial_shape(f13):
    lam = f13.elem(2)
    h = (1, 2, 3)
    monos = deformed_diagonal_polynomial(f13, 6, h, lam)
    assert len(monos) == 4
    assert any(exps == h for _, exps in monos)
    cross = [c for c, exps in monos if exps == h][0]
    assert cross == f13.elem(-6) * lam


def test_fermat_limit_of_deformation(f13):
    # the lambda = 0 fibre is the plain power-sum hypersurface: the cross
    # term gets a zero coefficient, which projective_count drops
    monos = deformed_diagonal_polynomial(f13, 3, (1, 1, 1), f13.zero)
    assert projective_count(f13, monos, 3) == 9


def test_homogeneity_guard(f13):
    with pytest.raises(NotHomogeneousError):
        projective_count(f13, [(f13.one, (2, 0)), (f13.one, (0, 1))], 2)
    with pytest.raises(NotHomogeneousError):
        projective_count(f13, [(f13.one, (2, 0))], 3)


def test_budget_guard():
    field = FqField(2, 16)
    with pytest.raises(BudgetExceededError):
        projective_count(field, [], 3)
    with pytest.raises(BudgetExceededError):
        dwork_counts_by_lambda(field, 3)
    assert ENUMERATION_BUDGET == 10**9


def test_counts_by_lambda_sextic(f13):
    # one array cell per fibre, indexed by the id of lambda
    counts = dwork_counts_by_lambda(f13, 6)
    assert counts.shape == (13,)
    for lam_id in (2, 5, 6, 7, 8, 11):
        assert counts[lam_id] == 9810
    # the undeformed fibre agrees with the separate power-sum count
    assert counts[0] == 87570


@pytest.mark.parametrize(
    "degree, p, e",
    [
        (3, 13, 1), (4, 13, 1), (4, 5, 2), (5, 11, 1), (6, 13, 1),
        # gcd(d, q - 1) < d, so the histograms fold dlog by m > (q - 1)/d
        (4, 11, 1), (6, 11, 1), (5, 13, 1), (3, 101, 1),
        # characteristic 2 and 3
        (3, 2, 4), (5, 2, 4), (4, 3, 3),
    ],
)
def test_counts_by_lambda_match_single_fibre_enumeration(degree, p, e):
    # the histogram counts against the generic evaluator, fibre by fibre:
    # lambda = 0, the singular fibres and every valid one
    field = FqField(p, e)
    counts = dwork_counts_by_lambda(field, degree)
    for lam_id in range(field.q):
        monos = dwork_polynomial(field, degree, field.from_id(lam_id))
        assert counts[lam_id] == projective_count(field, monos, degree), lam_id


def test_counts_by_lambda_quartic(f13):
    counts = dwork_counts_by_lambda(f13, 4)
    expected = {2: 320, 3: 320, 10: 320, 11: 320, 4: 352, 6: 352, 7: 352, 9: 352}
    for lam_id, value in expected.items():
        assert counts[lam_id] == value


@pytest.mark.parametrize("degree, p, e", [(3, 61, 1), (4, 7, 2), (5, 31, 1), (6, 13, 1)])
def test_counts_by_lambda_at_enumcheck_configs(degree, p, e):
    # the benchmark's enumcheck fields (bench/spec.py ENUMCHECK_CONFIGS), whose
    # reference array is this function: lambda = 0, the singular fibre
    # lambda = 1 and two valid fibres against the generic evaluator
    field = FqField(p, e)
    counts = dwork_counts_by_lambda(field, degree)
    valid = [lam for lam in field.units() if lam**degree != field.one][:2]
    for lam in [field.zero, field.one, *valid]:
        monos = dwork_polynomial(field, degree, lam)
        assert counts[lam.id] == projective_count(field, monos, degree), lam.id


@pytest.mark.parametrize("degree, p, e", [(3, 3, 1), (4, 2, 3)])
def test_counts_by_lambda_bad_degree(degree, p, e):
    # d * lambda * x_1 ... x_d vanishes when p divides d
    with pytest.raises(BadDegreeError):
        dwork_counts_by_lambda(FqField(p, e), degree)
