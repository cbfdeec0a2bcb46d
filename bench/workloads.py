"""One pass of each workload, run against the package.

Imported by worker processes only, after the package source is on sys.path.
Every op returns a record with its latency, the exit code the command would
give, and what it printed or counted; checking is left to the orchestrator,
so a failed op is recorded like any other.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import dworkcount.cli as cli
import dworkcount.field as field_mod
import dworkcount.verify as verify_mod
from dworkcount.errors import CountingError, RoundingFailure

import spec


def _fibre(field, degree: int, lam, methods) -> dict:
    """One fibre through the call the table command makes per row."""
    record = {"key": [degree, field.p, field.e, lam.id], "exit": 0}
    try:
        report = cli.run_count(field, degree, lam, list(methods), spec.TOLERANCE)
    except RoundingFailure as exc:
        record.update(exit=3, detail=str(exc))
    except (CountingError, ValueError) as exc:
        record.update(exit=2, detail=str(exc))
    else:
        record["counts"] = report.counts
    return record


def _command(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _count_command(q: int, lam: int) -> dict:
    argv = ["count", "--degree", "6", "--p", str(q), "--lambda", str(lam)]
    code, out, err = _command(argv + ["--methods", ",".join(spec.SWEEP6_METHODS)])
    record = {"key": [6, q, 1, lam], "exit": code}
    if code == 0:
        record["counts"] = json.loads(out)["counts"]
    else:
        record["detail"] = err.strip()
    return record


def _verify_command(p: int, e: int) -> dict:
    code, out, err = _command(["verify", "--p", str(p), "--e", str(e)])
    lines = out.splitlines()
    return {
        "key": [p, e],
        "exit": code,
        "rows": sum(line.startswith(("PASS ", "FAIL ")) for line in lines),
        "failed_rows": [line for line in lines if line.startswith("FAIL ")],
        "summary": lines[-1] if lines else "",
        "detail": err.strip(),
    }


def _timed(op, *args) -> dict:
    start = time.perf_counter()
    record = op(*args)
    record["ms"] = (time.perf_counter() - start) * 1000
    return record


def run_pass(workload: str, seed: int, pass_index: int, wrap_op=lambda op: op) -> dict:
    """Run one pass; wall_s covers the ops, not the field builds a command
    makes once before its first op (those belong to set-up time)."""
    records, wall = [], 0.0
    if workload in ("sweep6", "enumcheck"):
        if workload == "sweep6":
            configs = [(6, spec.SWEEP6_P, 1, spec.SWEEP6_METHODS)]
        else:
            configs = [(d, p, e, spec.all_methods(d)) for d, p, e in spec.ENUMCHECK_CONFIGS]
        op = wrap_op(_fibre)
        for degree, p, e, methods in configs:
            field = field_mod.FqField(p, e)
            start = time.perf_counter()
            for lam in verify_mod.valid_lambdas(field, degree):
                records.append(_timed(op, field, degree, lam, methods))
            wall += time.perf_counter() - start
    else:
        if workload == "cold6":
            op, inputs = wrap_op(_count_command), spec.cold6_ops(seed, pass_index)
        else:
            op, inputs = wrap_op(_verify_command), spec.VERIFY_FIELDS
        start = time.perf_counter()
        for args in inputs:
            records.append(_timed(op, *args))
        wall = time.perf_counter() - start
    return {"wall_s": wall, "ops": records}
