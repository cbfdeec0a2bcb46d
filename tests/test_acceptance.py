"""Acceptance gate: ten numbered criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import cmath
import json
import time

from dworkcount.brute import (
    deformed_diagonal_polynomial,
    dwork_counts_by_lambda,
    projective_count,
)
from dworkcount.characters import MultChar, jacobi
from dworkcount.cli import main
from dworkcount.diagonal import enumerate_orbit_classes
from dworkcount.dwork import kernel_matrix, miyatani_preflight, smith_normal_form
from dworkcount.field import FqField
from dworkcount.verify import (
    bridge_checks,
    gauss_sum_checks,
    hasse_davenport_checks,
    kernel_identity_checks,
    orbit_closed_form_checks,
    sextic_product_checks,
    twisted_convolution_checks,
    valid_lambdas,
)

from conftest import count


def report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_three_route_equality_degree_six():
    start = time.perf_counter()
    fields = [FqField(7), FqField(13), FqField(19), FqField(5, 2), FqField(31)]
    instances = 0
    for field in fields:
        lams = valid_lambdas(field, 6)
        if field.q == 7:
            # every unit of F_7 is a sixth root of unity: nothing to count
            assert lams == []
            continue
        assert lams
        brute = dwork_counts_by_lambda(field, 6)
        for lam in lams:
            expected = int(brute[lam.id])
            for method in ("koblitz", "greene", "miyatani"):
                assert count(field, 6, lam, method) == expected
            instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(1, f"three-route equality, degree 6 ({instances} fibres, {elapsed:.1f}s)")


def test_criterion_02_degree_four_vs_enumeration():
    start = time.perf_counter()
    instances = 0
    for field in [FqField(5), FqField(13), FqField(17), FqField(5, 2)]:
        lams = valid_lambdas(field, 4)
        if field.q == 5:
            # every unit of F_5 is a fourth root of unity: nothing to count
            assert lams == []
            continue
        assert lams
        brute = dwork_counts_by_lambda(field, 4)
        for lam in lams:
            expected = int(brute[lam.id])
            assert count(field, 4, lam, "koblitz") == expected
            assert count(field, 4, lam, "greene") == expected
            instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, f"degree 4 closed form vs enumeration ({instances} fibres, {elapsed:.1f}s)")


def test_criterion_03_degree_five_vs_enumeration():
    start = time.perf_counter()
    instances = 0
    for field in [FqField(11), FqField(31)]:
        lams = valid_lambdas(field, 5)
        assert lams
        brute = dwork_counts_by_lambda(field, 5)
        for lam in lams:
            expected = int(brute[lam.id])
            assert count(field, 5, lam, "koblitz") == expected
            assert count(field, 5, lam, "greene") == expected
            instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"degree 5 closed form vs enumeration ({instances} fibres, {elapsed:.1f}s)")


def test_criterion_04_deformed_cubic_generality():
    start = time.perf_counter()
    instances = 0
    for field in [FqField(7), FqField(13)]:
        for lam in field.units():
            if (lam**3) == field.one:
                continue
            monos = deformed_diagonal_polynomial(field, 3, (1, 1, 1), lam)
            assert count(field, 3, lam, "koblitz") == projective_count(field, monos, 3)
            instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, f"deformed cubic vs enumeration ({instances} fibres, {elapsed:.1f}s)")


def test_criterion_05_order_twelve_jacobi_fixtures():
    field = FqField(13)
    assert field.generator_id == 2
    zeta = cmath.exp(2j * cmath.pi / 12)
    w6, w3, w2 = MultChar(field, 2), MultChar(field, 4), MultChar(field, 6)
    first = jacobi((w2, w3.conj(), w6.conj()))
    second = jacobi((w6, w3, w2))
    assert abs(first - (4 * zeta**2 - 1)) < 1e-9
    assert abs(second - (-4 * zeta**2 + 3)) < 1e-9
    report(5, "q = 13 Jacobi fixtures match to 1e-9")


def test_criterion_06_identity_suite():
    instances = 0
    for field in [FqField(7), FqField(13), FqField(5, 2)]:
        tol = 1e-6 * field.q**3
        rows = (
            gauss_sum_checks(field)
            + hasse_davenport_checks(field)
            + sextic_product_checks(field)
            + twisted_convolution_checks(field)
        )
        for row in rows:
            assert row.passed, row.line()
            if row.count:
                assert row.residual < tol, row.line()
            instances += row.count
    report(6, f"Gauss-sum identity suite at q in {{7, 13, 25}} ({instances} instances)")


def test_criterion_07_per_orbit_and_kernel_identities():
    instances = 0
    for field in [FqField(7), FqField(13)]:
        tol = 1e-6 * field.q**4
        orbit_rows = orbit_closed_form_checks(field)
        kernel_rows = kernel_identity_checks(field)
        assert len(kernel_rows) == 14
        if field.q == 7:
            # every nonzero deformation value is a singular sixth root over
            # F_7; the per-orbit and kernel identities hold there too and run
            assert all(row.count == field.q1 for row in orbit_rows)
            assert all(row.count == field.q1 for row in kernel_rows)
        else:
            assert all(row.count > 0 for row in orbit_rows)
        for row in orbit_rows + kernel_rows:
            assert row.passed, row.line()
            if row.count:
                assert row.residual < tol, row.line()
            instances += row.count
    report(7, f"per-orbit and kernel closed forms ({instances} instances)")


def test_criterion_08_structure_checks():
    orbits = enumerate_orbit_classes(6, 6, (1,) * 6)
    sizes = sorted(orbit.size for orbit in orbits)
    expected = sorted((1, 30, 30, 15, 60, 120, 20, 60, 120, 90, 30, 180, 180, 360))
    assert len(orbits) == 14
    assert sizes == expected
    assert sum(sizes) == 1296
    assert smith_normal_form(kernel_matrix(6)) == (1, 6, 6, 6, 6, 0)
    assert miyatani_preflight(FqField(13)).kernel_size == 1296
    report(8, "orbit sizes, divisor chain (1,6,6,6,6,0), kernel size 1296")


def test_criterion_09_normalization_bridge():
    instances = 0
    for field in [FqField(7), FqField(13)]:
        rows = bridge_checks(field)
        for row in rows:
            assert row.count >= 200
            assert row.passed, row.line()
            assert row.residual < 1e-6
            instances += row.count
    report(9, f"normalization bridge on {instances} parameter tuples")


def test_criterion_10_generator_independence(capsys):
    jobs = [
        ["count", "--degree", "6", "--p", "13", "--all-lambda"],
        ["count", "--degree", "4", "--p", "13", "--all-lambda", "--methods", "koblitz,greene"],
        ["count", "--degree", "3", "--p", "7", "--all-lambda"],
        ["table", "--degree", "6", "--p", "7", "--format", "csv"],
    ]
    compared = 0
    for argv in jobs:
        outputs = []
        for extra in ([], ["--generator-alt"]):
            code = main(argv + extra)
            captured = capsys.readouterr()
            assert code == 0, captured.err
            outputs.append(captured.out)
        if argv[0] == "table":
            assert outputs[0] == outputs[1]
            compared += 1
            continue
        base = json.loads(outputs[0])
        alt = json.loads(outputs[1])
        assert len(base) == len(alt)
        for left, right in zip(base, alt):
            assert left["lambda"] == right["lambda"]
            assert left["counts"] == right["counts"]
            compared += 1
    report(10, f"counts identical under the alternate generator ({compared} reports)")
