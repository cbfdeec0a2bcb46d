"""Record the reference counts that sweep6 and cold6 ops are checked against.

Run from the repository root:  python3 bench/make_reference.py

Every route runs on its own, so a route that refuses (a rounding failure)
does not hide the others.  A fibre is recorded only when every route that
returned a count agrees and at least two did; the routes that refused are
listed next to it.  The output is bench/reference_counts.json.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import spec  # noqa: E402
from dworkcount.cli import run_count  # noqa: E402
from dworkcount.errors import RoundingFailure  # noqa: E402
from dworkcount.field import FqField  # noqa: E402
from dworkcount.verify import valid_lambdas  # noqa: E402


def agreed_count(field: FqField, lam) -> dict:
    counts, refused = {}, []
    for method in spec.SWEEP6_METHODS:
        try:
            counts[method] = run_count(field, 6, lam, [method], spec.TOLERANCE).counts[method]
        except RoundingFailure:
            refused.append(method)
    values = set(counts.values())
    if len(values) != 1 or len(counts) < 2:
        raise SystemExit(f"q={field.q} lambda={lam}: routes disagree {counts}, refused {refused}")
    entry = {"count": values.pop()}
    if refused:
        entry["refused"] = refused
    return entry


def main() -> None:
    field = FqField(spec.SWEEP6_P)
    sweep = {str(lam.id): agreed_count(field, lam) for lam in valid_lambdas(field, 6)}
    cold = {}
    for q in spec.COLD6_PRIMES:
        field = FqField(q)
        cold[str(q)] = {str(lam): agreed_count(field, field.elem(lam)) for lam in spec.cold6_pool(q)}
        print(q, sum("refused" in e for e in cold[str(q)].values()), "refusals", flush=True)
    out = {"sweep6": {str(spec.SWEEP6_P): sweep}, "cold6": cold}
    (BENCH / "reference_counts.json").write_text(dump(out))


def dump(out: dict) -> str:
    """JSON with one line per field, so the file reads and diffs by prime."""
    blocks = []
    for workload, by_q in out.items():
        rows = ",\n".join(f"  {json.dumps(q)}: {json.dumps(counts, sort_keys=True)}" for q, counts in by_q.items())
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    main()
