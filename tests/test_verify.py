"""The bundled identity suite must be green on its own fields."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dworkcount
import dworkcount.verify as verify
from dworkcount.characters import MultChar, char_at_minus_one, jacobi
from dworkcount.diagonal import DiagonalParams, class_contribution, enumerate_orbit_classes
from dworkcount.dwork import CLOSED_FORMS, closed_form_term, gamma_s, miyatani_F_s
from dworkcount.field import FqField
from dworkcount.hypergeometric import McCarthyParams, _bridge_values, mccarthy_F
from dworkcount.verify import (
    KERNEL_IDENTITIES,
    CheckResult,
    bridge_checks,
    gauss_sum_checks,
    hasse_davenport_checks,
    kernel_identity_checks,
    nonzero_lambdas,
    orbit_closed_form_checks,
    run_identity_suite,
    sextic_product_checks,
    twisted_convolution_checks,
    valid_lambdas,
)


def test_check_result_formatting():
    row = CheckResult(name="demo", residual=1e-9, tol=1e-6, count=3)
    assert row.passed
    line = row.line()
    assert line.startswith("PASS demo:")
    assert "3 instances" in line
    failing = CheckResult(name="demo", residual=1.0, tol=1e-6, count=1)
    assert not failing.passed
    assert failing.line().startswith("FAIL")


def test_vacuous_checks_pass_with_zero_instances():
    empty = CheckResult(name="none", residual=0.0, tol=1e-6, count=0, note="empty")
    assert empty.passed
    assert "empty" in empty.line()


def test_valid_lambdas(f7, f13):
    # degree 6: every unit is a sixth root of unity over F_7
    assert valid_lambdas(f7, 6) == []
    ids = [lam.id for lam in valid_lambdas(f13, 6)]
    assert ids == [2, 5, 6, 7, 8, 11]
    assert len(nonzero_lambdas(f7)) == 6


def test_full_suite_green_q7(f7):
    rows = run_identity_suite(f7)
    assert rows
    for row in rows:
        assert row.passed, row.line()


def test_full_suite_green_q13(f13):
    rows = run_identity_suite(f13)
    assert rows
    for row in rows:
        assert row.passed, row.line()


def test_gauss_rows_cover_all_characters(f13):
    rows = gauss_sum_checks(f13)
    by_name = {row.name: row for row in rows}
    assert by_name["gauss-trivial"].count == 1
    assert by_name["gauss-conjugate-pairs"].count == f13.q1 - 1


def test_hasse_davenport_rows(f13):
    rows = hasse_davenport_checks(f13)
    assert len(rows) == 3
    for row in rows:
        assert row.count == f13.q1
        assert row.passed


def test_sextic_rows(f13):
    rows = sextic_product_checks(f13)
    assert len(rows) == 1
    assert rows[0].count == f13.q1


def test_twisted_rows_vacuous_on_singular_field(f7):
    rows = twisted_convolution_checks(f7)
    assert len(rows) == 1
    assert rows[0].count == 0
    assert rows[0].passed
    assert rows[0].note


def test_orbit_rows_run_even_on_singular_field(f7):
    # the closed forms hold on the sextic-power locus too, which over F_7
    # is every nonzero deformation value
    rows = orbit_closed_form_checks(f7)
    assert len(rows) == 14
    for row in rows:
        assert row.count == f7.q1
        assert row.passed, row.line()


def test_modulus_guards_are_note_rows():
    # 3 does not divide q - 1 = 4
    field = FqField(5)
    rows = {
        row.name: row
        for row in hasse_davenport_checks(field)
        + sextic_product_checks(field)
        + twisted_convolution_checks(field)
        + orbit_closed_form_checks(field)
        + kernel_identity_checks(field)
    }
    assert rows["hasse-davenport-m2"].count == field.q1
    assert rows["hasse-davenport-m2"].passed
    for name in ("hasse-davenport-m3", "hasse-davenport-m6"):
        assert (rows[name].count, rows[name].note) == (0, "m does not divide q-1")
    for name in ("sextic-product", "twisted-convolution", "orbit-closed-forms", "kernel-identities"):
        assert (rows[name].count, rows[name].note) == (0, "q is not 1 mod 6")
    assert all(row.passed for row in rows.values())


def test_orbit_rows_are_the_fourteen_orbits(f13):
    rows = orbit_closed_form_checks(f13)
    reps = sorted(o.rep for o in enumerate_orbit_classes(6, 6, (1,) * 6))
    assert [row.name for row in rows] == [f"orbit-{rep}" for rep in reps]
    assert len(rows) == 14
    for row in rows:
        assert row.count == f13.q1
        assert row.passed, row.line()


def test_kernel_rows_run_even_on_singular_field(f7):
    # kernel identities hold for every nonzero deformation value
    rows = kernel_identity_checks(f7)
    assert len(rows) == 14
    for row in rows:
        assert row.count == f7.q1
        assert row.passed, row.line()


def test_bridge_rows(f13):
    rows = bridge_checks(f13)
    assert len(rows) == 1
    assert rows[0].count == 200
    assert rows[0].passed


def test_a_nan_residual_fails_its_row(monkeypatch):
    groups = []

    def nan_for_one_tuple(field, ka, kb, x_ids):
        values = _bridge_values(field, ka, kb, x_ids)
        groups.append(len(values))
        if len(groups) == 2:
            values[0] = complex("nan")
        return values

    monkeypatch.setattr(verify, "_bridge_values", nan_for_one_tuple)
    [row] = bridge_checks(FqField(13))
    # one call per parameter length, 200 tuples in all, one of them NaN
    assert len(groups) == 4 and groups[1] > 0 and sum(groups) == 200
    assert not row.passed, row.line()

    # one NaN Gauss sum fails every row that reads it
    field = FqField(13)
    field.gauss_table[1] = complex("nan")
    rows = (
        gauss_sum_checks(field)
        + hasse_davenport_checks(field)
        + sextic_product_checks(field)
        + twisted_convolution_checks(field)
    )
    assert [row.name for row in rows if row.passed] == ["gauss-trivial"]


@pytest.mark.parametrize("p", [7, 13, 127])
def test_bridge_draws_meet_the_preconditions_at_every_length(monkeypatch, p):
    groups = []

    def recorded(field, ka, kb, x_ids):
        groups.append((ka, kb, x_ids))
        return _bridge_values(field, ka, kb, x_ids)

    monkeypatch.setattr(verify, "_bridge_values", recorded)
    [row] = bridge_checks(FqField(p))
    assert row.passed and row.count == 200, row.line()
    assert [ka.shape[1] for ka, _, _ in groups] == [1, 2, 3, 4]
    assert sum(len(x) for _, _, x in groups) == 200
    for ka, kb, x in groups:
        assert len(x) > 0 and (ka[:, 0] != 0).all() and (ka[:, 1:] != kb).all()


def test_a_wrong_trivial_gauss_sum_fails_its_row():
    # the field sets g(eps) = -1 rather than summing it; the row still reads
    # the table entry and must catch a wrong one
    field = FqField(13)
    field.gauss_table[0] = 1
    row = gauss_sum_checks(field)[0]
    assert row.name == "gauss-trivial"
    assert not row.passed, row.line()


# -- the per-lambda loops the vector checks replaced, kept as references ----


def reference_kernel_identity_value(field, w, lam):
    """The reduced closed form for the kernel class t*w at one lam."""
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


def reference_kernel_residuals(field, lams):
    return {
        f"kernel-{label}": [
            abs(gamma_s(field, label) * miyatani_F_s(field, label, lam)
                - reference_kernel_identity_value(field, label, lam))
            for lam in lams
        ]
        for label, *_ in KERNEL_IDENTITIES
    }


def reference_orbit_residuals(field, lams):
    sizes = {o.rep: o.size for o in enumerate_orbit_classes(6, 6, (1,) * 6)}
    residuals = {key: [] for key in sorted(sizes)}
    for lam in lams:
        forms = {
            row[0]: closed_form_term(field, 6, lam, row, row[1] // sizes[row[0]])
            for row in CLOSED_FORMS[6]
        }
        forms[(0,) * 6] = (field.q**5 - 1) // (field.q - 1) + forms[(0,) * 6]
        diag = DiagonalParams(field, 6, (1,) * 6, lam)
        for key, value in forms.items():
            residuals[key].append(abs(class_contribution(diag, key) - value))
    return {f"orbit-{key}": res for key, res in residuals.items()}


def reference_gauss_sums(field):
    """g(omega**k) for every k, from the defining sum over F_q*."""
    psi = np.exp(2j * np.pi * field.trace_table / field.p)
    return [
        sum(MultChar(field, k)(x) * psi[x.id] for x in field.units())
        for k in range(field.q1)
    ]


def reference_character_residuals(field):
    """Per-instance residuals of the Gauss-sum, Hasse-Davenport, sextic and
    twisted-convolution identities, for a field with q = 1 mod 6."""
    q, q1, t = field.q, field.q1, field.q1 // 6
    g = reference_gauss_sums(field)

    def w(k, x):
        return MultChar(field, k)(x)

    minus_one = -field.one
    out = {
        "gauss-trivial": [abs(g[0] + 1)],
        "gauss-conjugate-pairs": [abs(g[k] * g[q1 - k] - q * w(k, minus_one)) for k in range(1, q1)],
    }
    # prod_{i<m} g(chi**i psi) = -g(psi**m) psi**(-m)(m) prod_{i<m} g(chi**i)
    for m in (2, 3, 6):
        chi = [i * q1 // m for i in range(m)]
        out[f"hasse-davenport-m{m}"] = [
            abs(math.prod(g[(c + k) % q1] for c in chi)
                + g[m * k % q1] * w(-m * k, field.elem(m)) * math.prod(g[c] for c in chi))
            for k in range(q1)
        ]
    # g(omega**(6j)) = prod_{i<6} g(omega**(it+j)) / (omega**(-6j)(6) prod_{0<i<6} g(omega**(it)))
    out["sextic-product"] = [
        abs(g[6 * j % q1] - math.prod(g[(i * t + j) % q1] for i in range(6))
            / (w(-6 * j, field.elem(6)) * math.prod(g[i * t] for i in range(1, 6))))
        for j in range(q1)
    ]
    # sum_j g(omega**(j+a)) g(omega**(b-j)) omega**j(-1) omega**(6j)(lam)
    #     = (q-1) g(omega**(a+b)) omega**b(-1) omega**(-(a+b))(1 - lam**6)
    out["twisted-convolution"] = [
        abs(sum(g[(j + a) % q1] * g[(b - j) % q1] * w(j, minus_one) * w(6 * j, lam) for j in range(q1))
            - q1 * g[(a + b) % q1] * w(b, minus_one) * w(-(a + b), field.one - lam**6))
        for a in range(0, q1, t)
        for b in range(0, q1, t)
        for lam in field.units()
        if lam**6 != field.one
    ]
    return out


def test_vector_checks_match_the_per_lambda_reference(f13, f25):
    for field in (f13, f25):
        # the per-fibre DiagonalParams of the orbit reference refuses lambda**6 = 1
        sextic_free = valid_lambdas(field, 6)
        character_rows = (
            gauss_sum_checks(field)
            + hasse_davenport_checks(field)
            + sextic_product_checks(field)
            + twisted_convolution_checks(field)
        )
        # both residuals are rounding noise, so they agree to an absolute
        # bound, not to a fraction of the row's tolerance
        quartic, cubic = 1e-12 * field.q**4, 1e-12 * field.q**3
        for rows, reference, bound in [
            (kernel_identity_checks(field), reference_kernel_residuals(field, nonzero_lambdas(field)), quartic),
            (orbit_closed_form_checks(field, sextic_free), reference_orbit_residuals(field, sextic_free), quartic),
            (character_rows, reference_character_residuals(field), cubic),
        ]:
            assert [row.name for row in rows] == list(reference)
            for row in rows:
                residuals = reference[row.name]
                assert row.count == len(residuals)
                assert row.passed, row.line()
                assert abs(row.residual - max(residuals)) <= bound, row.line()


def test_checks_gather_at_the_requested_lambdas(monkeypatch):
    # every lambda satisfies the identities, so a gather at the wrong index
    # would still pass; plant a failure at one lambda's index instead
    field = FqField(37)
    lam, other = field.from_id(2), field.from_id(3)
    assert (lam**6).exp not in (0, field.q1 // 2)
    spike = 1e6

    def spiked(function, index):
        def wrapper(*args):
            values = function(*args)
            values[index] += spike
            return values
        return wrapper

    lhs = spiked(verify.miyatani_F_s_by_dlog, (lam**6).inverse().exp)
    monkeypatch.setattr(verify, "miyatani_F_s_by_dlog", lhs)
    rows = kernel_identity_checks(field, [lam])
    assert all(row.count == 1 and not row.passed for row in rows)
    assert all(row.passed for row in kernel_identity_checks(field, [other]))

    contribution = spiked(verify.class_contribution_by_dlog, lam.exp)
    monkeypatch.setattr(verify, "class_contribution_by_dlog", contribution)
    rows = orbit_closed_form_checks(field, [lam])
    assert all(row.count == 1 and not row.passed for row in rows)
    assert all(row.passed for row in orbit_closed_form_checks(field, [other]))


@pytest.mark.parametrize("p", [13, 61, 331, 4003])
def test_sign_flipped_rows_fail(monkeypatch, p):
    # flip the sign of one kernel identity or one degree-6 closed form at a
    # time: that row, and no other, must fail
    field = FqField(p)
    for i, row in enumerate(KERNEL_IDENTITIES):
        flipped = list(KERNEL_IDENTITIES)
        flipped[i] = (row[0], -row[1], *row[2:])
        monkeypatch.setattr(verify, "KERNEL_IDENTITIES", tuple(flipped))
        failed = [r.name for r in kernel_identity_checks(field) if not r.passed]
        assert failed == [f"kernel-{row[0]}"], (p, row)
    monkeypatch.undo()
    for i, row in enumerate(CLOSED_FORMS[6]):
        flipped = list(CLOSED_FORMS[6])
        flipped[i] = (row[0], -row[1], *row[2:])
        monkeypatch.setattr(verify, "CLOSED_FORMS", {**CLOSED_FORMS, 6: tuple(flipped)})
        failed = [r.name for r in orbit_closed_form_checks(field) if not r.passed]
        assert failed == [f"orbit-{row[0]}"], (p, row)


def test_kernel_checks_compute_each_jacobi_constant_once(monkeypatch):
    calls = []

    def counted(chars):
        calls.append(chars)
        return jacobi(chars)

    monkeypatch.setattr(verify, "jacobi", counted)
    for q in (127, 13):
        calls.clear()
        rows = kernel_identity_checks(FqField(q))
        # one call per row with Jacobi exponents, however many lambda
        assert len(calls) == sum(row[4] is not None for row in KERNEL_IDENTITIES) == 7
        assert all(row.passed for row in rows)


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_verify_command_finishes_on_small_fields(p, e):
    result = subprocess.run(
        [sys.executable, "-m", "dworkcount.cli", "verify", "--p", str(p), "--e", str(e)],
        capture_output=True, text=True, timeout=60,
        cwd=Path(dworkcount.__file__).resolve().parents[1],
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    rows = sum(line.startswith("PASS ") for line in lines)
    assert rows > 0
    assert lines[-1] == f"{rows}/{rows} checks passed"
    if p**e == 2:
        assert "normalization-bridge" in result.stdout
        assert "no nontrivial character" in result.stdout
