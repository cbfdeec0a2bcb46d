"""Field arithmetic, table consistency, and construction guards."""

import numpy as np
import pytest

from dworkcount.errors import (
    FieldTooLargeError,
    MixedFieldsError,
    NonPrimeError,
    ZeroArgumentError,
)
from dworkcount.field import FqElem, FqField


def test_prime_field_addition_matches_integers(f13):
    for a in range(13):
        for b in range(13):
            assert f13.add_ids(a, b) == (a + b) % 13


def test_prime_field_multiplication_matches_integers(f13):
    for a in range(13):
        for b in range(13):
            assert (f13.from_id(a) * f13.from_id(b)).id == (a * b) % 13


def test_extension_field_axioms(f25):
    elems = list(f25.elements())
    assert len(elems) == 25
    for x in elems:
        assert (x + f25.zero) == x
        assert (x * f25.one) == x
        assert (x - x).is_zero
        if not x.is_zero:
            assert (x * x.inverse()) == f25.one
    # associativity and distributivity on a full sweep
    for x in elems:
        for y in elems:
            assert (x + y) == (y + x)
            assert (x * y) == (y * x)
            for z in (f25.gen, f25.one):
                assert ((x + y) * z) == (x * z + y * z)


def test_generator_has_full_order(f13, f25):
    for field in (f13, f25):
        g = field.gen
        seen = set()
        x = field.one
        for _ in range(field.q1):
            seen.add(x.id)
            x = x * g
        assert len(seen) == field.q1
        assert x == field.one


def test_exp_and_dlog_are_inverse(f25):
    for m in range(f25.q1):
        x = FqElem(f25, m)
        assert x.exp == m
        assert f25.exp_table[m] == x.id
        assert f25.dlog_table[x.id] == m


def test_coeff_round_trip(f25):
    for i in range(25):
        assert f25.from_coeffs(f25.id_to_coeffs(i)).id == i


def test_neg_and_one_minus_tables(f25):
    for x in f25.elements():
        assert (x + f25.from_id(int(f25.neg_table[x.id]))).is_zero
        assert (f25.one - x).id == int(f25.one_minus_table[x.id])


def test_add_id_arrays_matches_scalar(f25):
    ids = np.arange(25)
    table = f25.add_id_arrays(ids[:, None], ids[None, :])
    for a in range(25):
        for b in range(25):
            assert table[a, b] == f25.add_ids(a, b)


def test_trace_is_additive_to_prime_subfield(f25):
    for x in f25.elements():
        t = f25.trace(x)
        assert 0 <= t < 5
        # Frobenius sum: x + x**5 for e = 2
        if not x.is_zero:
            frob = x + x ** 5
            assert frob.id == f25.elem(t).id
    for x in f25.elements():
        for y in f25.elements():
            assert f25.trace(x + y) == (f25.trace(x) + f25.trace(y)) % 5


def test_additive_character_table(f13, f25):
    for field in (f13, f25):
        psi = np.exp(2j * np.pi * field.trace_table / field.p)
        # psi(x) psi(y) = psi(x + y) via trace additivity
        for a in range(field.q):
            for b in range(field.q):
                c = field.add_ids(a, b)
                assert abs(psi[a] * psi[b] - psi[c]) < 1e-12
        assert abs(psi.sum()) < 1e-9


def test_alt_generator_differs_but_same_field(f13, f13_alt):
    assert f13.generator_id != f13_alt.generator_id
    assert f13.q == f13_alt.q
    # both generators are primitive
    for field in (f13, f13_alt):
        orders = {pow(field.generator_id, k, 13) for k in range(12)}
        assert len(orders) == 12


def test_alt_generator_needs_two_primitive_elements():
    # F_2 and F_3 have one primitive element each, F_4 has two
    for q in (2, 3):
        with pytest.raises(ValueError, match=f"F_{q} has only one primitive element"):
            FqField(q, alt_generator=True)
    assert FqField(2, 2, alt_generator=True).generator_id != FqField(2, 2).generator_id


def test_modulus_is_irreducible(f25):
    # no root in the prime subfield for degree 2
    mod = f25.modulus
    assert len(mod) == 3
    for r in range(5):
        value = sum(c * r ** i for i, c in enumerate(mod)) % 5
        assert value != 0


def test_construction_guards():
    with pytest.raises(NonPrimeError):
        FqField(12)
    with pytest.raises(NonPrimeError):
        FqField(1)
    with pytest.raises(ValueError):
        FqField(5, 0)
    with pytest.raises(FieldTooLargeError):
        FqField(2, 21)


def test_zero_guards(f13):
    with pytest.raises(ZeroArgumentError):
        f13.zero.inverse()
    # zero has no discrete logarithm
    assert f13.zero.exp is None
    with pytest.raises(ZeroArgumentError):
        f13.zero ** (-1)


def test_mixed_field_guards(f7, f13):
    with pytest.raises(MixedFieldsError):
        f7.one + f13.one
    with pytest.raises(MixedFieldsError):
        f13.trace(f7.one)


def test_units_and_elements_counts(f13, f25):
    for field in (f13, f25):
        assert len(list(field.elements())) == field.q
        assert len(list(field.units())) == field.q1
        assert all(not u.is_zero for u in field.units())


@pytest.mark.parametrize("p, e", [(1009, 1), (7, 3)])
def test_gauss_table_is_accurate_to_a_few_ulps(p, e):
    # against the defining sum in extended precision: a table built from a
    # double 2*pi drifts coherently with the trace (5.7e-14 at q = 1009)
    field = FqField(p, e)
    q1 = field.q1
    tau = 2 * np.arccos(np.longdouble(-1))
    trace = field.trace_table[field.exp_table].astype(np.longdouble) / p
    m = np.arange(q1, dtype=np.int64)
    worst = 0.0
    for k in range(q1):
        angle = tau * (trace + ((k * m) % q1).astype(np.longdouble) / q1)
        g = field.gauss_table[k]
        error = abs(complex(g.real - np.cos(angle).sum(), g.imag - np.sin(angle).sum()))
        worst = max(worst, error)
    assert worst < 1e-14


@pytest.mark.parametrize("p, e", [(13, 1), (5, 2), (4003, 1)])
def test_gauss_sum_of_the_trivial_character_is_exactly_minus_one(p, e):
    # g(eps) = sum over x != 0 of psi(x) = -psi(0) = -1 by definition; the
    # transform alone leaves a cancellation error that grows with q
    assert FqField(p, e).gauss_table[0] == -1
