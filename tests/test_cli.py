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
import dworkcount.diagonal as diagonal
import dworkcount.dwork as dwork
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
    ]
    for argv, expected in cases:
        code, out, err = run_main(capsys, *argv)
        assert code == 2, argv
        assert "error" in err
        if expected is not None:
            assert err == expected


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
    counted(dwork, "jacobi")
    field = FqField(61)
    lams = valid_lambdas(field, 6)
    for lam in lams:
        report = run_count(field, 6, lam, ["koblitz", "greene", "miyatani"], 1e-3)
        assert report.consistent
    assert len(lams) == 54
    # one Weil term per weight vector and one preflight for the whole sweep
    assert calls == {"weil_point_count": 6**5, "miyatani_preflight": 1, "jacobi": 5}

    ref = weakref.ref(field)
    del field, lams, lam
    gc.collect()
    assert ref() is None
