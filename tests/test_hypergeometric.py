"""Hypergeometric values in both normalizations, against raw definitions."""

import pytest

from dworkcount.characters import (
    MultChar,
    norm_jacobi,
    trivial_char,
)
from dworkcount.errors import BadParamsError, PreconditionError
from dworkcount.hypergeometric import (
    GreeneParams,
    McCarthyParams,
    greene_F,
    greene_F_chi_sum,
    mccarthy_F,
    mccarthy_to_greene,
    reduce_params,
)


def raw_greene(params):
    """The defining character sum, with binomials from Jacobi sums directly."""
    field = params.field
    q, q1 = field.q, field.q1

    def binom(ka, kb):
        a = MultChar(field, ka)
        b = MultChar(field, kb)
        return b(field.elem(-1)) / q * sum(
            a(x) * b.conj()(field.one - x) for x in field.elements()
        )

    total = 0j
    a0 = params.upper[0].k
    for j in range(q1):
        chi = MultChar(field, j)
        term = binom(a0 + j, j)
        for a, b in zip(params.upper[1:], params.lower):
            term *= binom(a.k + j, b.k + j)
        total += term * chi(params.x)
    return q / (q - 1) * total


def raw_mccarthy(params):
    field = params.field
    q1 = field.q1
    g = field.gauss_table
    total = 0j
    for j in range(q1):
        chi = MultChar(field, j)
        term = 1.0 + 0j
        for a, b in zip(params.upper, params.lower):
            term *= g[(a * chi).k] / g[a.k]
            term *= g[(b * chi).conj().k] / g[b.conj().k]
        total += term * chi(field.elem(-1)) ** params.m * chi(params.x)
    return -total / q1


def test_greene_matches_raw_definition(f13):
    for a0, a1, a2, b1, b2, xid in [
        (2, 6, 10, 0, 0, 2),
        (1, 3, 5, 2, 7, 5),
        (4, 4, 8, 1, 11, 12),
        (11, 9, 2, 3, 3, 7),
    ]:
        params = GreeneParams(
            upper=(MultChar(f13, a0), MultChar(f13, a1), MultChar(f13, a2)),
            lower=(MultChar(f13, b1), MultChar(f13, b2)),
            x=f13.from_id(xid),
        )
        assert abs(greene_F(params) - raw_greene(params)) < 1e-9


def test_greene_branches_agree_for_one_upper_pair(f13, f25):
    # the explicit average and the character sum are different formulas for
    # the same value when there is a single lower parameter
    for field in (f13, f25):
        cases = [
            (1, 5, 0, 2),
            (2, 7, 3, field.q - 1),
            (0, 4, 9, 5),
            (6, 6, 6, 7),
        ]
        for a0, a1, b1, xid in cases:
            params = GreeneParams(
                upper=(MultChar(field, a0), MultChar(field, a1)),
                lower=(MultChar(field, b1),),
                x=field.from_id(xid % field.q),
            )
            avg = greene_F(params)
            chi = greene_F_chi_sum(params)
            assert abs(avg - chi) < 1e-9


def test_greene_zero_argument(f13):
    params = GreeneParams(
        upper=(MultChar(f13, 1), MultChar(f13, 2)),
        lower=(MultChar(f13, 0),),
        x=f13.zero,
    )
    assert greene_F(params) == 0j


def test_greene_param_shape_guard(f13):
    with pytest.raises(BadParamsError):
        GreeneParams(upper=(MultChar(f13, 1),), lower=(), x=f13.one)
    with pytest.raises(BadParamsError):
        GreeneParams(
            upper=(MultChar(f13, 1), MultChar(f13, 2)),
            lower=(MultChar(f13, 0), MultChar(f13, 3)),
            x=f13.one,
        )


def test_greene_3f2_fixture(f13):
    # frozen from the raw double-loop definition: the sextic family value
    # 3F2((w6, w2, conj(w6)); (eps, eps); 2**-6) = -23/169 at q = 13
    params = GreeneParams(
        upper=(MultChar(f13, 2), MultChar(f13, 6), MultChar(f13, 10)),
        lower=(trivial_char(f13), trivial_char(f13)),
        x=f13.elem(2) ** (-6),
    )
    value = greene_F(params)
    assert abs(value - (-23 / 169)) < 1e-12


def test_greene_1f0_three_ways(f13):
    # closed form eps(x) * conj(omega_alpha)(1 - x) vs the Gauss-normalized
    # value with one upper parameter vs the binomial expansion
    eps = trivial_char(f13)
    for alpha in (2, 3, 6):
        chi = MultChar(f13, f13.q1 // alpha)
        for x in f13.elements():
            closed = 0j if x.is_zero else chi.conj()(f13.one - x)
            gauss = mccarthy_F(McCarthyParams((chi,), (eps,), x))
            assert abs(closed - gauss) < 1e-12
            if x.is_zero:
                continue
            series = sum(
                norm_jacobi(chi * MultChar(f13, j), MultChar(f13, j))
                * MultChar(f13, j)(x)
                for j in range(f13.q1)
            ) * f13.q / (f13.q - 1)
            assert abs(closed - series) < 1e-9


def test_mccarthy_matches_raw_definition(f13, f25):
    for field in (f13, f25):
        cases = [
            ((1, 4), (0, 2), 3),
            ((2, 5, 7), (0, 1, 3), field.q - 2),
            ((0, 3), (1, 1), 5),
        ]
        for ups, los, xid in cases:
            params = McCarthyParams(
                upper=tuple(MultChar(field, k) for k in ups),
                lower=tuple(MultChar(field, k) for k in los),
                x=field.from_id(xid),
            )
            assert abs(mccarthy_F(params) - raw_mccarthy(params)) < 1e-9


def test_mccarthy_param_guards(f13):
    with pytest.raises(BadParamsError):
        McCarthyParams(upper=(), lower=(), x=f13.one)
    with pytest.raises(BadParamsError):
        McCarthyParams(
            upper=(MultChar(f13, 1), MultChar(f13, 2)),
            lower=(MultChar(f13, 0),),
            x=f13.one,
        )


def test_reduce_params_cancels_common_pairs(f13):
    params = McCarthyParams(
        upper=tuple(MultChar(f13, k) for k in (2, 2, 5, 7)),
        lower=tuple(MultChar(f13, k) for k in (2, 7, 7, 9)),
        x=f13.elem(3),
    )
    reduced = reduce_params(params)
    assert sorted(c.k for c in reduced.upper) == [2, 5]
    assert sorted(c.k for c in reduced.lower) == [7, 9]
    assert reduced.x == params.x
    # idempotent
    again = reduce_params(reduced)
    assert sorted(c.k for c in again.upper) == [2, 5]
    assert sorted(c.k for c in again.lower) == [7, 9]


def test_reduce_params_rejects_total_cancellation(f13):
    params = McCarthyParams(
        upper=(MultChar(f13, 3), MultChar(f13, 8)),
        lower=(MultChar(f13, 8), MultChar(f13, 3)),
        x=f13.elem(3),
    )
    with pytest.raises(BadParamsError):
        reduce_params(params)


def test_parameter_pair_order_is_immaterial(f13):
    base = McCarthyParams(
        upper=tuple(MultChar(f13, k) for k in (1, 4, 9)),
        lower=tuple(MultChar(f13, k) for k in (0, 2, 6)),
        x=f13.elem(5),
    )
    swapped = McCarthyParams(
        upper=tuple(MultChar(f13, k) for k in (4, 9, 1)),
        lower=tuple(MultChar(f13, k) for k in (2, 6, 0)),
        x=f13.elem(5),
    )
    assert abs(mccarthy_F(base) - mccarthy_F(swapped)) < 1e-12


def test_bridge_matches_greene(f13):
    # conversion divides out the Jacobi normalizations
    for ups, los, xid in [
        ((2, 3, 5), (0, 1, 4), 4),
        ((7, 1, 9, 2), (0, 5, 3, 8), 11),
        ((5, 6), (0, 2), 6),
    ]:
        params = McCarthyParams(
            upper=tuple(MultChar(f13, k) for k in ups),
            lower=tuple(MultChar(f13, k) for k in los),
            x=f13.from_id(xid),
        )
        lhs = mccarthy_to_greene(params)
        greene = greene_F(
            GreeneParams(upper=params.upper, lower=params.lower[1:], x=params.x)
        )
        denom = 1.0 + 0j
        for a, b in zip(params.upper[1:], params.lower[1:]):
            denom *= norm_jacobi(a, b)
        assert abs(lhs - greene / denom) < 1e-12


def test_bridge_single_pair_closed_form(f13):
    for a0 in range(1, 13 - 1):
        for xid in range(13):
            params = McCarthyParams(
                upper=(MultChar(f13, a0),),
                lower=(trivial_char(f13),),
                x=f13.from_id(xid),
            )
            got = mccarthy_to_greene(params)
            x = params.x
            expected = 0j if x.is_zero else MultChar(f13, -a0)(f13.one - x)
            assert abs(got - expected) < 1e-12


def test_bridge_preconditions(f13):
    with pytest.raises(PreconditionError):
        mccarthy_to_greene(
            McCarthyParams(
                upper=(MultChar(f13, 1), MultChar(f13, 2)),
                lower=(MultChar(f13, 3), MultChar(f13, 4)),
                x=f13.one,
            )
        )
    with pytest.raises(PreconditionError):
        mccarthy_to_greene(
            McCarthyParams(
                upper=(trivial_char(f13), MultChar(f13, 2)),
                lower=(trivial_char(f13), MultChar(f13, 4)),
                x=f13.one,
            )
        )
    with pytest.raises(PreconditionError):
        mccarthy_to_greene(
            McCarthyParams(
                upper=(MultChar(f13, 1), MultChar(f13, 4)),
                lower=(trivial_char(f13), MultChar(f13, 4)),
                x=f13.one,
            )
        )
