"""Command-line behaviour: output schemas, exit codes, flag handling."""

import gc
import json
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import dworkcount
import dworkcount.brute as brute
import dworkcount.cli as cli
import dworkcount.diagonal as diagonal
import dworkcount.dwork as dwork
import dworkcount.hypergeometric as hypergeometric
from dworkcount.brute import dwork_polynomial, projective_count
from dworkcount.cli import main, run_count
from dworkcount.field import FqField
from dworkcount.verify import valid_lambdas

CSV_HEADER = (
    "q,degree,lambda,"
    "count_brute,count_koblitz,count_greene,count_miyatani,"
    "res_koblitz,res_greene,res_miyatani,"
    "ms_brute,ms_koblitz,ms_greene,ms_miyatani"
)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_json_all_methods(capsys):
    code, out, err = run_main(
        capsys, "count", "--degree", "6", "--p", "13", "--lambda", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 13
    assert payload["degree"] == 6
    assert payload["lambda"] == 2
    assert payload["counts"] == {
        "brute": 9810,
        "koblitz": 9810,
        "greene": 9810,
        "miyatani": 9810,
    }
    assert set(payload["residuals"]) == {"koblitz", "greene", "miyatani"}
    assert all(r < 1e-3 for r in payload["residuals"].values())
    assert set(payload["ms"]) == {"brute", "koblitz", "greene", "miyatani"}


def test_count_csv_header_and_row(capsys):
    code, out, err = run_main(
        capsys,
        "count", "--degree", "6", "--p", "13", "--lambda", "2",
        "--methods", "koblitz,greene", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[0:3] == ["13", "6", "2"]
    assert cells[4] == "9810"
    assert cells[5] == "9810"
    assert cells[3] == ""


def test_table_is_header_only_when_every_fibre_is_singular(capsys):
    code, out, err = run_main(
        capsys, "table", "--degree", "6", "--p", "7", "--format", "csv"
    )
    assert code == 0
    assert out.strip() == CSV_HEADER


def test_table_quartic_sweep(capsys):
    code, out, err = run_main(
        capsys,
        "table", "--degree", "4", "--p", "13",
        "--methods", "koblitz", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    counts = {line.split(",")[2]: line.split(",")[4] for line in lines[1:]}
    assert counts == {
        "2": "320", "3": "320", "10": "320", "11": "320",
        "4": "352", "6": "352", "7": "352", "9": "352",
    }


def test_all_lambda_json_is_array(capsys):
    code, out, err = run_main(
        capsys,
        "count", "--degree", "6", "--p", "13", "--all-lambda",
        "--methods", "koblitz",
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list)
    assert len(payload) == 6
    assert all(item["counts"]["koblitz"] == 9810 for item in payload)


def test_usage_errors_exit_two(capsys):
    # (argv, exact stderr or None when only the exit code is pinned)
    cases = [
        (("count", "--degree", "6", "--p", "13"), None),
        (("count", "--degree", "6", "--p", "13", "--lambda", "0"), None),
        (("count", "--degree", "6", "--p", "13", "--lambda", "1"), None),
        (("count", "--degree", "6", "--p", "12", "--lambda", "2"), None),
        (
            ("count", "--degree", "3", "--p", "13", "--lambda", "2", "--methods", "greene"),
            "error: the greene route needs degree 4, 5, or 6\n",
        ),
        (
            ("count", "--degree", "3", "--p", "13", "--lambda", "2", "--methods", "miyatani"),
            "error: the miyatani route needs degree 6\n",
        ),
        (
            ("count", "--degree", "4", "--p", "13", "--lambda", "2", "--methods", "nosuch"),
            "error: unknown method 'nosuch'\n",
        ),
        (("count", "--degree", "6", "--p", "11", "--lambda", "2"), None),
        (
            ("count", "--degree", "3", "--p", "7", "--lambda", "0", "--methods", "all"),
            "error: the Gauss-sum route needs lambda != 0\n",
        ),
        (("count", "--degree", "3", "--p", "7", "--lambda", "1", "--methods", "all"), None),
    ]
    # a NaN tolerance would switch the rounding check off, and a negative one
    # would be reported as a verification failure
    for tolerance in ("nan", "inf", "-1", "0.5"):
        cases.append((
            ("count", "--degree", "6", "--p", "13", "--lambda", "2", "--tolerance", tolerance),
            f"error: --tolerance must lie in [0, 0.5), not {float(tolerance)}\n",
        ))
    cases.append((
        ("table", "--degree", "6", "--p", "13", "--methods", "koblitz", "--tolerance", "nan"),
        "error: --tolerance must lie in [0, 0.5), not nan\n",
    ))
    # F_2 and F_3 have no second primitive element to switch to
    no_alt = "has only one primitive element, so there is no alternative generator\n"
    cases += [
        (("verify", "--p", "3", "--generator-alt"), "error: F_3 " + no_alt),
        (("verify", "--p", "2", "--generator-alt"), "error: F_2 " + no_alt),
        (("count", "--degree", "3", "--p", "3", "--lambda", "2", "--generator-alt"), "error: F_3 " + no_alt),
    ]
    for argv, expected in cases:
        code, out, err = run_main(capsys, *argv)
        assert code == 2, argv
        assert "error" in err
        if expected is not None:
            assert err == expected


def test_enumeration_alone_counts_zero_and_singular_fibres(capsys):
    # lambda = 0 and the singular lambda = 1 have point counts too; only the
    # character routes refuse them
    field = FqField(7)
    for lam in (0, 1):
        expected = projective_count(field, dwork_polynomial(field, 3, field.elem(lam)), 3)
        code, out, err = run_main(
            capsys, "count", "--degree", "3", "--p", "7", "--lambda", str(lam), "--methods", "brute"
        )
        assert code == 0, err
        assert json.loads(out)["counts"] == {"brute": expected}


def test_refusal_names_the_route_and_a_plain_number(capsys):
    for method in ("koblitz", "greene", "miyatani"):
        code, out, err = run_main(
            capsys, "count", "--degree", "6", "--p", "13", "--lambda", "2",
            "--methods", method, "--tolerance", "1e-30",
        )
        assert code == 3
        assert out == ""
        assert err.startswith(f"verification failure: {method}: value (98")
        assert "np." not in err and "complex128" not in err


@pytest.mark.parametrize(
    "degree, p, lam, methods",
    [
        (3, 7, 3, ["brute", "koblitz"]),
        (4, 13, 2, ["brute", "koblitz", "greene"]),
        (5, 11, 2, ["brute", "koblitz", "greene"]),
        (6, 13, 2, ["brute", "koblitz", "greene", "miyatani"]),
    ],
)
def test_methods_all_runs_every_route_of_the_degree(capsys, degree, p, lam, methods):
    # the same lists as bench/spec.py's all_methods
    code, out, err = run_main(
        capsys, "count", "--degree", str(degree), "--p", str(p), "--lambda", str(lam)
    )
    assert code == 0, err
    assert list(json.loads(out)["counts"]) == methods


def test_degree_three_runs_enumeration_and_gauss_routes(capsys):
    code, out, err = run_main(
        capsys, "count", "--degree", "3", "--p", "7", "--lambda", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"brute": 9, "koblitz": 9}


def test_generator_choice_does_not_change_counts(capsys):
    base = run_main(
        capsys,
        "count", "--degree", "6", "--p", "13", "--lambda", "2",
        "--methods", "koblitz,miyatani",
    )
    alt = run_main(
        capsys,
        "count", "--degree", "6", "--p", "13", "--lambda", "2",
        "--methods", "koblitz,miyatani", "--generator-alt",
    )
    assert base[0] == alt[0] == 0
    assert json.loads(base[1])["counts"] == json.loads(alt[1])["counts"]


def test_extension_field_lambda_coefficients(capsys):
    code, out, err = run_main(
        capsys,
        "count", "--degree", "6", "--p", "5", "--e", "2",
        "--lambda", "2,1", "--methods", "koblitz",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 25
    assert payload["lambda"] == [2, 1]
    assert payload["counts"]["koblitz"] == 720882


def test_verify_subcommand(capsys):
    code, out, err = run_main(capsys, "verify", "--p", "13")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_console_module_entry():
    # run from the directory holding the package under test, so the child
    # imports the same package without PYTHONPATH
    result = subprocess.run(
        [sys.executable, "-m", "dworkcount.cli",
         "count", "--degree", "4", "--p", "13", "--lambda", "2",
         "--methods", "koblitz"],
        capture_output=True, text=True,
        cwd=Path(dworkcount.__file__).resolve().parents[1],
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["counts"]["koblitz"] == 320


def test_field_plans_are_built_once_and_die_with_the_field(monkeypatch):
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(diagonal, "weil_point_count")
    counted(dwork, "miyatani_preflight")
    # the greene route reads every Jacobi sum, its constants included, from
    # one base table per field and degree, built with one jacobi_rows call
    # per row: d calls per field, and no other
    counted(hypergeometric, "jacobi_rows")
    counted(cli, "dwork_counts_by_lambda")
    counted(brute, "projective_count")
    # the koblitz class groups depend on (d, n, h) alone and the kernel table on
    # nothing: one build each per process
    diagonal._koblitz_terms.cache_clear()
    dwork._kernel_table.cache_clear()
    cases = [
        # one class grouping, one kernel table and one preflight for the whole
        # sweep; no Weil term is validated vector by vector
        (61, 6, ["koblitz", "greene", "miyatani"], 54,
         {"koblitz_terms": 1, "kernel_tables": 1, "miyatani_preflight": 1, "jacobi_rows": 6}),
        # one scan gives every brute count; no fibre is enumerated on its own
        (31, 5, ["brute", "koblitz", "greene"], 25,
         {"koblitz_terms": 1, "dwork_counts_by_lambda": 1, "jacobi_rows": 5}),
        # a sweep without enumeration builds no scan, and the degree-5 class
        # grouping of the last field serves this one
        (31, 5, ["koblitz"], 25, {}),
    ]
    for p, degree, methods, fibres, expected in cases:
        calls.clear()
        builds = diagonal._koblitz_terms.cache_info().misses
        kernel_builds = dwork._kernel_table.cache_info().misses
        field = FqField(p)
        lams = valid_lambdas(field, degree)
        for lam in lams:
            report = run_count(field, degree, lam, methods, 1e-3)
            assert report.consistent
        assert len(lams) == fibres
        calls["koblitz_terms"] = diagonal._koblitz_terms.cache_info().misses - builds
        calls["kernel_tables"] = dwork._kernel_table.cache_info().misses - kernel_builds
        assert +calls == expected, methods

        # no plan may hold a MultChar or an FqElem: either would make a
        # reference cycle, and the field would wait for the cyclic collector
        ref = weakref.ref(field)
        gc.disable()
        try:
            del field, lams, lam, report
            assert ref() is None
        finally:
            gc.enable()


def test_brute_skip_marker_builds_no_scan(monkeypatch, capsys):
    def no_scan(*args):
        raise AssertionError("enumeration started for a skipped count")

    monkeypatch.setattr(cli, "dwork_counts_by_lambda", no_scan)
    # 61**5 points exceed BRUTE_SKIP_POINTS
    field = FqField(61, 1)
    report = run_count(field, 6, field.elem(2), ["brute"], 1e-3)
    assert report.counts == {"brute": "skipped"}
    assert report.ms == {}
    code, out, err = run_main(
        capsys, "count", "--degree", "6", "--p", "61", "--lambda", "2", "--methods", "brute"
    )
    assert code == 0
    assert json.loads(out)["counts"] == {"brute": "skipped"}


# exact counts of fibres above 2**53, where the float total alone would
# print a count on a grid of spacing 4 or more
LARGE_FIBRES = {
    (12007, 2): 20786191929012960,
    (12007, 3): 20786145764510592,
    (12007, 5): 20786045140341216,
    (131071, 2): 295141145190943633920,
}


@pytest.mark.parametrize("q, lam", [(12007, 2), (12007, 3), (12007, 5)])
def test_counts_above_2_53_are_exact(capsys, q, lam):
    code, out, err = run_main(
        capsys, "count", "--degree", "6", "--p", str(q), "--lambda", str(lam),
        "--methods", "koblitz,greene,miyatani",
    )
    assert code == 0, err
    expected = LARGE_FIBRES[q, lam]
    assert json.loads(out)["counts"] == {m: expected for m in ("koblitz", "greene", "miyatani")}


@pytest.mark.parametrize("method", ["koblitz", "miyatani"])
def test_counts_near_2_68_are_exact_or_refused(capsys, method):
    code, out, err = run_main(
        capsys, "count", "--degree", "6", "--p", "131071", "--lambda", "2", "--methods", method
    )
    if code == 0:
        assert json.loads(out)["counts"] == {method: LARGE_FIBRES[131071, 2]}
    else:
        assert code == 3 and err.startswith(f"verification failure: {method}: "), err


# reference-pool fibres whose greene totals were off their integer by more
# than the tolerance when the closed-form constants were three-character
# convolutions and not entries of the rows the hypergeometric values read
GREENE_POOL_FIBRES = {
    3271: (900, 1781, 2361, 3099),
    3517: (22, 1553, 2620),
    3697: (2280,),
    3793: (2174, 2451),
    3877: (46, 1023, 1402, 2172, 3181, 3533, 3762),
    3919: (33, 2269),
    3943: (1483,),
    4003: (254, 412, 992, 2826),
}


@pytest.mark.parametrize("q", sorted(GREENE_POOL_FIBRES))
def test_greene_accepts_the_reference_pool_fibres_near_2_48(capsys, q):
    path = Path(__file__).resolve().parent.parent / "bench" / "reference_counts.json"
    pool = json.loads(path.read_text())["cold6"][str(q)]
    for lam in GREENE_POOL_FIBRES[q]:
        code, out, err = run_main(
            capsys, "count", "--degree", "6", "--p", str(q), "--lambda", str(lam),
            "--methods", "greene",
        )
        assert code == 0, err
        assert json.loads(out)["counts"] == {"greene": pool[str(lam)]["count"]}


@pytest.mark.parametrize("q", [2017, 3457])
def test_koblitz_and_miyatani_accept_the_reference_pool_near_2_44(q):
    # counts in [2**43, 2**46): one float ulp is as coarse as the rounding
    # tolerance, so an inaccurate Gauss table refuses these fibres
    path = Path(__file__).resolve().parent.parent / "bench" / "reference_counts.json"
    pool = json.loads(path.read_text())["cold6"][str(q)]
    assert len(pool) == 16
    field = FqField(q)
    for lam, expected in pool.items():
        report = run_count(field, 6, field.elem(int(lam)), ["koblitz", "miyatani"], 1e-3)
        assert report.counts == {"koblitz": expected["count"], "miyatani": expected["count"]}
