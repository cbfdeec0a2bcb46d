"""Command-line interface for the point-count routes.

Subcommands: `count` evaluates one (or every valid) deformation parameter by
the selected methods and reports counts, rounding residuals and timings as
JSON or CSV; `table` sweeps all valid parameters; `verify` runs the identity
suite.  Exit codes: 0 on success, 2 on usage errors, 3 when verification
fails (mismatched counts, rounding failure, or a failing identity).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field as dataclass_field

from .brute import dwork_polynomial, projective_count
from .characters import round_to_int
from .diagonal import DiagonalParams, koblitz_total
from .dwork import CLOSED_FORMS, DworkParams, greene_total, miyatani_dwork6_total
from .errors import CountingError, RoundingFailure
from .field import FqElem, FqField
from .verify import run_identity_suite, valid_lambdas

BRUTE_SKIP_POINTS = 280_000_000

# Every route: (degrees it covers, its total from the validated diagonal
# parameters, or None for enumeration).  --methods, dispatch, rounding and
# the CSV columns all read this table.  The lambdas look each total up by
# name when called, so a wrapper bound to that module name sees every call.
ROUTES = {
    "brute": ((3, 4, 5, 6), None),
    "koblitz": ((3, 4, 5, 6), lambda diag: koblitz_total(diag)),
    "greene": (
        tuple(CLOSED_FORMS),
        lambda diag: greene_total(DworkParams(diag.field, diag.d, diag.lam)),
    ),
    "miyatani": (
        (6,),
        lambda diag: miyatani_dwork6_total(DworkParams(diag.field, diag.d, diag.lam)),
    ),
}
ROUNDED = [name for name, (_, total) in ROUTES.items() if total is not None]
CSV_HEADER = ",".join(
    ["q", "degree", "lambda"]
    + [f"count_{m}" for m in ROUTES]
    + [f"res_{m}" for m in ROUNDED]
    + [f"ms_{m}" for m in ROUTES]
)


@dataclass
class CountReport:
    """Counts, residuals, and wall-clock times for one parameter value."""

    q: int
    degree: int
    lam: int | list[int]
    counts: dict = dataclass_field(default_factory=dict)
    residuals: dict = dataclass_field(default_factory=dict)
    ms: dict = dataclass_field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        values = {v for v in self.counts.values() if isinstance(v, int)}
        return len(values) <= 1

    def to_json(self) -> str:
        return json.dumps(
            {
                "q": self.q,
                "degree": self.degree,
                "lambda": self.lam,
                "counts": self.counts,
                "residuals": self.residuals,
                "ms": self.ms,
            }
        )

    def to_csv_row(self) -> str:
        lam = "+".join(map(str, self.lam)) if isinstance(self.lam, list) else str(self.lam)
        cells = [str(self.q), str(self.degree), lam]
        cells += [str(self.counts.get(m, "")) for m in ROUTES]
        cells += ["" if m not in self.residuals else f"{self.residuals[m]:.3e}" for m in ROUNDED]
        cells += ["" if m not in self.ms else f"{self.ms[m]:.3f}" for m in ROUTES]
        return ",".join(cells)


def _lambda_json(lam: FqElem) -> int | list[int]:
    if lam.field.e == 1:
        return lam.id
    return list(lam.coeffs)


def parse_lambda(field: FqField, text: str) -> FqElem:
    """An integer means the image of that integer; comma-separated values are
    prime-subfield coefficients of the basis powers."""
    if "," in text:
        coeffs = tuple(int(c) for c in text.split(","))
        if len(coeffs) > field.e:
            raise ValueError(f"at most {field.e} coefficients for q = {field.q}")
        return field.from_coeffs(coeffs + (0,) * (field.e - len(coeffs)))
    return field.elem(int(text))


def run_count(field: FqField, degree: int, lam: FqElem, methods: list[str], tol: float) -> CountReport:
    report = CountReport(q=field.q, degree=degree, lam=_lambda_json(lam))
    diag = DiagonalParams(field, degree, (1,) * degree, lam)
    for method in methods:
        start = time.perf_counter()
        total = ROUTES[method][1]
        if total is None:
            if field.q ** (degree - 1) > BRUTE_SKIP_POINTS:
                report.counts[method] = "skipped"
                continue
            report.counts[method] = projective_count(
                field, dwork_polynomial(field, degree, lam), degree
            )
        else:
            try:
                value, residual = round_to_int(total(diag), tol)
            except RoundingFailure as exc:
                raise RoundingFailure(f"{method}: {exc}") from None
            report.counts[method] = value
            report.residuals[method] = residual
        report.ms[method] = (time.perf_counter() - start) * 1000
    return report


def _parse_methods(text: str, degree: int) -> list[str]:
    if text == "all":
        return [m for m, (degrees, _) in ROUTES.items() if degree in degrees]
    methods = [m.strip() for m in text.split(",")]
    for m in methods:
        if m not in ROUTES:
            raise ValueError(f"unknown method {m!r}")
        degrees = ROUTES[m][0]
        if degree not in degrees:
            *head, last = map(str, degrees)
            listed = ", ".join(head + [f"or {last}"]) if head else last
            raise ValueError(f"the {m} route needs degree {listed}")
    return methods


def _emit(reports: list[CountReport], fmt: str, single: bool) -> None:
    if fmt == "csv":
        print(CSV_HEADER)
        for r in reports:
            print(r.to_csv_row())
    elif single and len(reports) == 1:
        print(reports[0].to_json())
    else:
        print(json.dumps([json.loads(r.to_json()) for r in reports]))


def _add_field_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="field characteristic")
    sub.add_argument("--e", type=int, default=1, help="extension degree (default 1)")
    sub.add_argument(
        "--generator-alt",
        action="store_true",
        help="use the second-smallest primitive element",
    )


def _add_count_args(sub: argparse.ArgumentParser) -> None:
    _add_field_args(sub)
    degrees = sorted({d for covered, _ in ROUTES.values() for d in covered})
    sub.add_argument("--degree", type=int, choices=degrees, required=True)
    sub.add_argument("--lambda", dest="lam", help="deformation parameter")
    sub.add_argument(
        "--all-lambda", action="store_true", help="sweep every nonsingular parameter"
    )
    sub.add_argument("--methods", default="all", help=f"comma list of {','.join(ROUTES)}")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--tolerance", type=float, default=1e-3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dworkcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    count = sub.add_parser("count", help="count points for one or all parameters")
    _add_count_args(count)
    table = sub.add_parser("table", help="one row per valid parameter")
    _add_count_args(table)
    verify = sub.add_parser("verify", help="run the identity suite")
    _add_field_args(verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        field = FqField(args.p, args.e, alt_generator=args.generator_alt)
    except (CountingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "verify":
        rows = run_identity_suite(field)
        for row in rows:
            print(row.line())
        failed = [r for r in rows if not r.passed]
        print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
        return 3 if failed else 0

    try:
        methods = _parse_methods(args.methods, args.degree)
        if args.command == "table" or args.all_lambda:
            lams = valid_lambdas(field, args.degree)
        elif args.lam is None:
            raise ValueError("provide --lambda or --all-lambda")
        else:
            lams = [parse_lambda(field, args.lam)]
    except (CountingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reports = []
    try:
        for lam in lams:
            reports.append(run_count(field, args.degree, lam, methods, args.tolerance))
    except RoundingFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except (CountingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _emit(reports, args.format, single=args.command == "count" and not args.all_lambda)
    if any(not r.consistent for r in reports):
        print("verification failure: methods disagree", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
