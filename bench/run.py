"""Benchmark of dworkcount: four workloads over the count, table and verify
commands, every output checked, and a traced run that times each layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from src/.

Workloads (closed loop, one op after another, one process, one BLAS thread):
  sweep6     every nonsingular degree-6 fibre over F_61 through cli.run_count
             on one field, methods koblitz,greene,miyatani; the work redone per
             fibre that does not depend on lambda.
  cold6      one `count` command per op at a prime q = 1 mod 6 in [1009, 4003]
             that no earlier op of the run used, lambda drawn by the seed; the
             cold field build, Jacobi-cache fill and greene character loop.
  enumcheck  `table --methods all` with enumeration on, degrees 3 to 6; the
             brute-force route, checked against dwork_counts_by_lambda.
  verify     the `verify` command on every prime power q = 1 mod 6 up to 130.

--trace 0 measures the end-to-end metrics: wall_s (median time of a pass),
op_ms_p50 and op_ms_tail (over every op run, each at its median time over
the passes that ran it; the tail is the highest percentile with at least
10 ops beyond it), setup_s (median over fresh processes of the package
import plus the field builds a command makes once) and peak_rss_mb.
failed_frac is printed with them; the result line carries it as
failed / attempted.  A pass is fixed work, and the number of passes is
sized from --seconds (spec.passes_for).

--trace 1 runs one untraced pass and two traced passes, each in a fresh
process, and reports per-layer calls, self time and cache counters from the
spans of the first traced pass.  The exact counters of the two traced passes
must be equal.  Spans are written under .bench_out/.

The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
RUN_BUDGET_S = 170

sys.path.insert(0, str(BENCH))
import selftest  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

SPAN_METRICS = {
    "diagonal.koblitz_total": ("calls", "self_ms"),
    "diagonal.class_contribution": ("calls", "self_ms"),
    "diagonal.class_members": ("calls", "self_ms"),
    "diagonal.canonical_class_rep": ("calls", "self_ms"),
    "diagonal.class_gauss_average": ("calls", "self_ms"),
    "diagonal.weil_point_count": ("calls", "self_ms"),
    "dwork.miyatani_preflight": ("calls", "self_ms"),
    "dwork.enumerate_kernel": ("calls", "self_ms"),
    "dwork.miyatani_F_s": ("calls", "self_ms"),
    "dwork.miyatani_dwork6_total": ("calls", "self_ms"),
    "dwork.dwork4_greene_total": ("calls", "self_ms"),
    "dwork.dwork5_greene_total": ("calls", "self_ms"),
    "dwork.dwork6_greene_total": ("calls", "self_ms"),
    "dwork.smith_normal_form": ("calls",),
    "characters.norm_jacobi_exps": ("calls", "self_ms"),
    "characters.jacobi": ("calls", "self_ms"),
    "hypergeometric.greene_F": ("calls", "self_ms"),
    "hypergeometric.greene_F_chi_sum": ("calls", "self_ms"),
    "hypergeometric.mccarthy_F": ("calls", "self_ms"),
    "hypergeometric.reduce_params": ("calls", "self_ms"),
    "brute.projective_count": ("calls", "self_ms"),
    "verify.gauss_sum_checks": ("calls", "self_ms"),
    "verify.hasse_davenport_checks": ("calls", "self_ms"),
    "verify.sextic_product_checks": ("calls", "self_ms"),
    "verify.twisted_convolution_checks": ("calls", "self_ms"),
    "verify.orbit_closed_form_checks": ("calls", "self_ms"),
    "verify.kernel_identity_checks": ("calls", "self_ms"),
    "verify.bridge_checks": ("calls", "self_ms"),
    "field.FqField": ("calls", "ms"),
    "cli.run_count": ("self_ms",),
}
UNITS = {"calls": "count", "self_ms": "ms", "ms": "ms"}
COUNTER_METRICS = {
    "characters.norm_jacobi.fills": "count",
    "characters.norm_jacobi.hit_ratio": "fraction",
    "characters.char_vector.fills": "count",
    "brute.points": "count",
    "brute.points_per_s": "1/s",
    "characters.round_to_int.max_residual": "abs",
    "trace.overhead_frac": "fraction",
}
END_TO_END = {"wall_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


class Runner:
    """Starts worker processes one at a time, inside the run's time budget."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONHASHSEED="0")

    def __call__(self, *args) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), *map(str, args)]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{' '.join(map(str, args))}: over the {RUN_BUDGET_S} s budget") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise ChildFailed(f"{' '.join(map(str, args))} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def load_references(workload: str, run: Runner) -> dict:
    if workload == "enumcheck":
        return run("reference", workload)
    if workload in ("sweep6", "cold6"):
        return json.loads((BENCH / "reference_counts.json").read_text())[workload]
    return {}


def _expected_count(workload: str, refs: dict, key: list[int]) -> int:
    degree, p, e, lam = key
    if workload == "enumcheck":
        return refs[f"{degree},{p},{e}"][lam]
    return refs[str(p)][str(lam)]["count"]


def _routes(workload: str, degree: int) -> int:
    return len(spec.all_methods(degree) if workload == "enumcheck" else spec.SWEEP6_METHODS)


def judge(workload: str, op: dict, refs: dict) -> tuple[bool, bool]:
    """(ok, wrong) for one op.  Not ok: a non-zero exit, a rounding failure,
    routes that disagree, a count off the reference, or a failed identity
    row.  Wrong: a result accepted with exit 0 that is not right, or an exit
    other than 0 and the verification-failure code 3."""
    code = op["exit"]
    if workload == "verify":
        rows = op["rows"]
        passed = rows > 0 and not op["failed_rows"] and op["summary"] == f"{rows}/{rows} checks passed"
        ok = code == 0 and passed
        return ok, (code == 0 and not passed) or code not in (0, 3)
    if code != 0:
        return False, code != 3
    values = set(op["counts"].values())
    agree = len(op["counts"]) == _routes(workload, op["key"][0]) and len(values) == 1
    if not agree:
        return False, False  # the command reports the disagreement and exits 3
    right = values == {_expected_count(workload, refs, op["key"])}
    return right, not right


def check(workload: str, passes: list[dict], refs: dict) -> bool:
    """Mark every op ok or not; True when no op gave a wrong answer."""
    correct = True
    for p in passes:
        for op in p["ops"]:
            op["ok"], wrong = judge(workload, op, refs)
            if wrong:
                correct = False
                print(f"wrong output: {json.dumps(op)}", file=sys.stderr)
    return correct


def _report_failures(passes: list[dict]) -> None:
    for p in passes:
        for op in p["ops"]:
            if not op["ok"]:
                print(f"failed op {op['key']}: exit {op['exit']} {op.get('detail', '')[:160]}")


def timed_run(args, run: Runner) -> dict:
    setups = [run("setup", args.workload)["setup_s"] for _ in range(SETUP_REPEATS)]
    refs = load_references(args.workload, run)
    passes = spec.passes_for(args.workload, args.seconds)
    measured = run("measure", args.workload, args.seed, passes)
    correct = check(args.workload, measured["passes"], refs)
    summary = stats.summarize(measured["passes"])
    print("env " + json.dumps(dict(measured["env"], seed=args.seed, workload=args.workload)))
    _report_failures(measured["passes"])
    values = {
        "wall_s": summary["wall_s"],
        "op_ms_p50": summary["op_ms_p50"],
        "op_ms_tail": summary["op_ms_tail"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    notes = {
        "wall_s": f"median of {passes} passes",
        "op_ms_p50": f"{summary['attempted']} ops",
        "op_ms_tail": f"p{summary['tail_pct']:.1f}, {stats.TAIL_BEYOND} of {summary['attempted']} ops beyond it",
        "setup_s": f"median of {SETUP_REPEATS} fresh processes",
        "peak_rss_mb": "measuring process",
    }
    for name, unit in END_TO_END.items():
        print(f"{name} {values[name]:.6g} {unit}  ({notes[name]})")
    print(f"failed_frac {summary['failed_frac']:.6g} fraction  ({summary['failed']} of {summary['attempted']} ops)")
    return {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()},
    }


def traced_run(args, run: Runner) -> dict:
    refs = load_references(args.workload, run)
    plain = run("measure", args.workload, args.seed, 1)
    stems = [OUT / f"spans-{args.workload}-{tag}" for tag in ("a", "b")]
    first, second = (run("traced", args.workload, args.seed, stem) for stem in stems)
    correct = all([check(args.workload, r["passes"], refs) for r in (plain, first, second)])
    print("env " + json.dumps(dict(plain["env"], seed=args.seed, workload=args.workload)))
    _report_failures(first["passes"])

    rows = [stats.per_name(*tracing.read_spans(stem)) for stem in stems]
    for suffix in (".bin", ".json"):  # the second run's spans served only the comparison
        stems[1].with_suffix(suffix).unlink()
    exact = [
        dict(r["counters"], **{f"{name}.calls": row["calls"] for name, row in rows_i.items()})
        for r, rows_i in zip((first, second), rows)
    ]
    if exact[0] != exact[1]:
        correct = False
        diff = {k: (exact[0].get(k), exact[1].get(k)) for k in exact[0].keys() | exact[1].keys() if exact[0].get(k) != exact[1].get(k)}
        print(f"exact counters differ between two traced runs: {diff}", file=sys.stderr)

    spans = rows[0]
    empty = {"calls": 0, "self_ms": 0.0, "ms": 0.0}
    metrics = {}
    for name, keys in SPAN_METRICS.items():
        for key in keys:
            metrics[f"{name}.{key}"] = (spans.get(name, empty)[key], UNITS[key])
    counters = first["counters"]
    jacobi_calls = spans.get("characters.norm_jacobi_exps", empty)["calls"]
    brute_s = spans.get("brute.projective_count", empty)["ms"] / 1000
    derived = {
        "characters.norm_jacobi.fills": counters["characters.norm_jacobi.fills"],
        "characters.norm_jacobi.hit_ratio": 1 - counters["characters.norm_jacobi.fills"] / jacobi_calls if jacobi_calls else 0.0,
        "characters.char_vector.fills": counters["characters.char_vector.fills"],
        "brute.points": counters["brute.points"],
        "brute.points_per_s": counters["brute.points"] / brute_s if brute_s else 0.0,
        "characters.round_to_int.max_residual": first["max_residual"],
        "trace.overhead_frac": first["passes"][0]["wall_s"] / plain["passes"][0]["wall_s"] - 1,
    }
    for name, unit in COUNTER_METRICS.items():
        metrics[name] = (derived[name], unit)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    summary = stats.summarize(first["passes"])
    return {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    selftest.check()
    if not (ROOT / "src" / "dworkcount" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'dworkcount'}", file=sys.stderr)
        return 2
    run = Runner()
    try:
        result = traced_run(args, run) if args.trace else timed_run(args, run)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
