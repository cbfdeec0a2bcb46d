"""Multiplicative characters, Gauss and Jacobi sums, and integer rounding."""

import cmath
import math

import numpy as np
import pytest

from dworkcount.characters import (
    MultChar,
    at_fibres,
    char_at_minus_one,
    char_vector,
    jacobi,
    jacobi_rows,
    norm_jacobi,
    norm_jacobi_exps,
    omega,
    round_to_int,
    trivial_char,
)
from dworkcount.errors import BadParamsError, MixedFieldsError, RoundingFailure
from dworkcount.field import FqField
from dworkcount.verify import hasse_davenport_checks, sextic_product_checks, twisted_convolution_checks


def raw_gauss(chi):
    field = chi.field
    psi = np.exp(2j * np.pi * field.trace_table / field.p)
    return sum(chi(x) * psi[x.id] for x in field.units())


def raw_jacobi(chars):
    field = chars[0].field
    total = 0j
    for x in field.elements():
        prod = chars[0](x)
        rest = field.one - x
        if len(chars) == 2:
            prod *= chars[1](rest)
            total += prod
        else:
            for y in field.elements():
                total += prod * chars[1](y) * chars[2](rest - y)
    return total


def test_character_is_multiplicative(f13):
    for k in range(13 - 1):
        chi = MultChar(f13, k)
        assert chi(f13.zero) == 0
        for x in f13.units():
            for y in f13.units():
                assert abs(chi(x * y) - chi(x) * chi(y)) < 1e-12


def test_character_orthogonality(f13, f25):
    for field in (f13, f25):
        for k in range(field.q1):
            total = sum(MultChar(field, k)(x) for x in field.units())
            expected = field.q1 if k == 0 else 0
            assert abs(total - expected) < 1e-9


def test_omega_beta_order(f13):
    for beta in (1, 2, 3, 4, 6, 12):
        chi = MultChar(f13, f13.q1 // beta)
        assert chi.order == beta


def test_char_vector_matches_calls(f25):
    for k in range(0, f25.q1, 3):
        vec = char_vector(f25, k)
        chi = MultChar(f25, k)
        for x in f25.elements():
            assert abs(vec[x.id] - chi(x)) < 1e-12


def test_gauss_sum_matches_raw_definition(f13, f25):
    for field in (f13, f25):
        for k in range(field.q1):
            chi = MultChar(field, k)
            assert abs(complex(field.gauss_table[k]) - raw_gauss(chi)) < 1e-9


def test_gauss_sum_trivial_and_conjugate(f13, f25):
    for field in (f13, f25):
        g = field.gauss_table
        assert abs(complex(g[trivial_char(field).k]) + 1) < 1e-12
        for k in range(1, field.q1):
            chi = MultChar(field, k)
            lhs = complex(g[k] * g[chi.conj().k])
            rhs = field.q * chi(field.elem(-1))
            assert abs(lhs - rhs) < 1e-9


def test_jacobi_pair_matches_raw(f13):
    for ka in range(12):
        for kb in range(12):
            pair = (MultChar(f13, ka), MultChar(f13, kb))
            assert abs(jacobi(pair) - raw_jacobi(pair)) < 1e-9


def test_jacobi_triple_matches_raw(f7):
    for ka in range(6):
        for kb in range(6):
            for kc in range(6):
                chars = (MultChar(f7, ka), MultChar(f7, kb), MultChar(f7, kc))
                assert abs(jacobi(chars) - raw_jacobi(chars)) < 1e-9


def test_jacobi_gauss_relation(f13, f25):
    # J(a, b) = g(a) g(b) / g(ab) when a, b, ab are all nontrivial
    for field in (f13, f25):
        g = field.gauss_table
        for ka in range(1, field.q1):
            for kb in range(1, field.q1):
                if (ka + kb) % field.q1 == 0:
                    continue
                a, b = MultChar(field, ka), MultChar(field, kb)
                lhs = jacobi((a, b))
                rhs = complex(g[a.k] * g[b.k] / g[(a * b).k])
                assert abs(lhs - rhs) < 1e-9


def test_jacobi_guards(f7, f13):
    with pytest.raises(BadParamsError):
        jacobi((omega(f7),))
    with pytest.raises(MixedFieldsError):
        jacobi((omega(f7), omega(f13)))


def test_norm_jacobi_matches_definition(f13):
    for ka in range(12):
        for kb in range(12):
            a, b = MultChar(f13, ka), MultChar(f13, kb)
            expected = b(f13.elem(-1)) / 13 * jacobi((a, b.conj()))
            assert abs(norm_jacobi(a, b) - expected) < 1e-12
            assert abs(norm_jacobi_exps(f13, ka, kb) - expected) < 1e-12


def test_jacobi_rows_match_definition(f13, f25):
    # every (ka, kb) in one call, so trivial and equal characters, the sign
    # rows and the extension field's 1 - x table are all covered
    for field in (f13, f25):
        q1 = field.q1
        pairs = [(ka, kb) for ka in range(q1) for kb in range(q1)]
        rows = jacobi_rows(field, [ka for ka, _ in pairs], [kb for _, kb in pairs])
        assert rows.shape == (len(pairs), q1)
        minus_one = field.elem(-1)
        for r, (ka, kb) in enumerate(pairs):
            for j in range(q1):
                a, b = MultChar(field, ka + j), MultChar(field, kb + j)
                expected = b(minus_one) / field.q * jacobi((a, b.conj()))
                assert abs(rows[r, j] - expected) < 1e-12


@pytest.mark.parametrize("p, e, d", [(13, 1, 3), (13, 1, 6), (5, 2, 4), (31, 1, 5), (7, 2, 6)])
@pytest.mark.parametrize("shifted", [False, True])
def test_at_fibres_matches_the_direct_sum(p, e, d, shifted):
    # entry u is (q-1)**(-1) * sum_j S[j] * zeta**(j (offset - d u)), with
    # the koblitz offset -d dlog d or none
    field = FqField(p, e)
    q1 = field.q1
    offset = -d * field.elem(d).exp if shifted else 0
    rng = np.random.default_rng(q1 * d)
    spectrum = rng.normal(size=q1) + 1j * rng.normal(size=q1)
    phase = np.outer(np.arange(q1), offset - d * np.arange(q1)) % q1
    direct = spectrum @ np.exp(2j * np.pi * phase / q1) / q1
    values = at_fibres(field, d, spectrum, offset)
    assert values.shape == (q1,)
    assert np.abs(values - direct).max() < 1e-12


def test_char_at_minus_one(f13, f25):
    for field in (f13, f25):
        minus_one = field.elem(-1)
        for k in range(field.q1):
            assert abs(char_at_minus_one(field, k) - MultChar(field, k)(minus_one)) < 1e-12


def test_round_to_int():
    assert round_to_int(5.0000001 + 1e-8j) == (5, pytest.approx(abs(5.0000001 + 1e-8j - 5)))
    assert round_to_int(-3.0 + 0j)[0] == -3
    with pytest.raises(RoundingFailure):
        round_to_int(5.5 + 0j)
    with pytest.raises(RoundingFailure):
        round_to_int(5.0 + 0.5j)
    # a NaN tolerance accepts nothing, rather than everything
    with pytest.raises(RoundingFailure):
        round_to_int(10.4 + 3j, float("nan"))
    with pytest.raises(RoundingFailure):
        round_to_int(10.0 + 0j, float("nan"))


def test_jacobi_fixtures_order_twelve_field(f13):
    # zeta is the primitive twelfth root of unity attached to the smallest
    # primitive element 2, so omega(2) = zeta and t = (q-1)/6 = 2
    assert f13.generator_id == 2
    zeta = cmath.exp(2j * cmath.pi / 12)
    w6 = MultChar(f13, 2)
    w3 = MultChar(f13, 4)
    w2 = MultChar(f13, 6)
    fixtures = [
        (jacobi((w2, w3.conj(), w6.conj())), 4 * zeta**2 - 1),
        (jacobi((w6, w3, w2)), -4 * zeta**2 + 3),
        (jacobi((w6, w6, w3.conj())), zeta**2 - 4),
        (jacobi((w3, w3, w3)), 3 * zeta**2 + 1),
        (jacobi((w6, w6)), 4 - zeta**2),
    ]
    for got, expected in fixtures:
        assert abs(got - expected) < 1e-9



# -- the sum identities the identity suite checks, instance by instance ----
# `verify` checks each as one vector row; these read the field's Gauss
# table one instance at a time, and the q != 1 mod m guards are note rows.


def test_hasse_davenport_residuals(f13, f25):
    # prod_{i<m} g(chi**i psi) = -g(psi**m) psi**(-m)(m) prod_{i<m} g(chi**i)
    for field in (f13, f25):
        g, q1 = field.gauss_table, field.q1
        for m in (2, 3, 6):
            chi = [i * q1 // m for i in range(m)]
            for k in range(q1):
                lhs = math.prod(g[(c + k) % q1] for c in chi)
                rhs = -g[m * k % q1] * MultChar(field, -m * k)(field.elem(m)) * math.prod(g[c] for c in chi)
                assert abs(lhs - rhs) < 1e-6
    rows = {row.name: row for row in hasse_davenport_checks(FqField(5))}
    for name in ("hasse-davenport-m3", "hasse-davenport-m6"):
        assert (rows[name].count, rows[name].note) == (0, "m does not divide q-1")


def test_sextic_product_residuals(f13):
    # g(omega**(6j)) = prod_{i<6} g(omega**(it+j)) / (omega**(-6j)(6) prod_{0<i<6} g(omega**(it)))
    g, q1 = f13.gauss_table, f13.q1
    t = q1 // 6
    for j in range(q1):
        num = math.prod(g[(i * t + j) % q1] for i in range(6))
        den = MultChar(f13, -6 * j)(f13.elem(6)) * math.prod(g[i * t] for i in range(1, 6))
        assert abs(g[6 * j % q1] - num / den) < 1e-6
    (row,) = sextic_product_checks(FqField(5))
    assert (row.count, row.note) == (0, "q is not 1 mod 6")


def test_twisted_convolution_residuals(f13):
    # sum_j g(omega**(j+a)) g(omega**(b-j)) omega**j(-1) omega**(6j)(lam)
    #     = (q-1) g(omega**(a+b)) omega**b(-1) omega**(-(a+b))(1 - lam**6)
    g, q1 = f13.gauss_table, f13.q1
    t = q1 // 6
    minus_one = -f13.one
    lams = [lam for lam in f13.units() if lam**6 != f13.one]
    assert len(lams) == 6
    for lam in lams:
        for a in range(0, q1, t):
            for b in range(0, q1, t):
                lhs = sum(
                    g[(j + a) % q1] * g[(b - j) % q1] * MultChar(f13, j)(minus_one) * MultChar(f13, 6 * j)(lam)
                    for j in range(q1)
                )
                rhs = q1 * g[(a + b) % q1] * char_at_minus_one(f13, b) * MultChar(f13, -(a + b))(f13.one - lam**6)
                assert abs(lhs - rhs) < 1e-6
    (row,) = twisted_convolution_checks(FqField(5))
    assert (row.count, row.note) == (0, "q is not 1 mod 6")
