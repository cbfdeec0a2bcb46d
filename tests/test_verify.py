"""The bundled identity suite must be green on its own fields."""

from dworkcount.diagonal import enumerate_orbit_classes
from dworkcount.verify import (
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


def test_orbit_rows_vacuous_on_singular_field(f7):
    rows = orbit_closed_form_checks(f7)
    assert all(row.count == 0 for row in rows)
    assert all(row.passed for row in rows)


def test_orbit_rows_are_the_fourteen_orbits(f13):
    rows = orbit_closed_form_checks(f13)
    reps = sorted(o.rep for o in enumerate_orbit_classes(6, 6, (1,) * 6))
    assert [row.name for row in rows] == [f"orbit-{rep}" for rep in reps]
    assert len(rows) == 14
    for row in rows:
        assert row.count == len(valid_lambdas(f13, 6))
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
