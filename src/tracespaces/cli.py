"""Command line entry point.

Runs the verification suites at a chosen configuration, renders the
reports as JSON or CSV, and checks baseline-compared cases against
values pinned in a baseline directory.  ``--pin-baselines`` records the
current values instead of checking them; pinned files are keyed by a
hash of the configuration, so values from one configuration are never
compared against another.  A suite that raises is reported with one
failed ``error`` case and is never pinned; the other suites still run.
The suites of one call share one store, so trace-f and trace-b norm
their common draws once.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .report import BaselineStore, CaseRecord, VerificationReport, render_reports
from .suites import SUITE_ORDER, SuiteConfig, run_suite

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracespaces-verify",
        description="Run the numerical verification suites and report results.",
    )
    parser.add_argument("--suite", action="append", choices=SUITE_ORDER + ("all",),
                        help="suite to run (repeatable; default: all)")
    parser.add_argument("--baseline-dir", default="baselines",
                        help="directory of pinned regression values")
    parser.add_argument("--pin-baselines", action="store_true",
                        help="record current values as the pinned baselines")
    parser.add_argument("--baseline-tolerance", type=float, default=0.01,
                        help="allowed relative excess over a pinned value (finite, >= 0)")
    parser.add_argument("--grid-n", type=int, default=1024,
                        help="number of samples of the periodic grid")
    parser.add_argument("--grid-l", type=float, default=1.0,
                        help="half width of the spatial interval")
    parser.add_argument("--seed", type=int, default=2024,
                        help="root seed of every random draw")
    parser.add_argument("--family-size", type=int, default=50,
                        help="size of the seeded test-function families")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report output format")
    parser.add_argument("--out", help="write the rendered report here instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = SuiteConfig(half_width=args.grid_l, n_samples=args.grid_n,
                             seed=args.seed, family_size=args.family_size)
    except ValueError as exc:
        parser.error(str(exc))
    if not (math.isfinite(args.baseline_tolerance) and args.baseline_tolerance >= 0):
        parser.error(f"baseline tolerance must be finite and >= 0, got {args.baseline_tolerance}")
    # checked before any suite runs, so a long run cannot end in a traceback
    if args.out and os.path.isdir(args.out):
        parser.error(f"cannot write the report to {args.out}: it is a directory")
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        parser.error(f"cannot write the report to {args.out}: no such directory")
    names = args.suite or ["all"]
    # a suite named twice runs once, at its first place
    names = list(SUITE_ORDER) if "all" in names else list(dict.fromkeys(names))

    reports, errored, store = [], set(), {}
    for name in names:
        try:
            reports.append(run_suite(name, config, store))
        except Exception as exc:  # one failing suite must not abort the run
            print(f"{name}: error: {type(exc).__name__}: {exc}", file=sys.stderr)
            errored.add(name)
            reports.append(VerificationReport(
                suite=name, config=config.config_dict(),
                cases=[CaseRecord("error", 1.0, 0.0)]))
    store = BaselineStore(args.baseline_dir)
    ok = True

    if args.pin_baselines:
        for report in reports:
            ok = ok and report.verdict()
            if report.suite in errored:
                continue  # never overwrite a pinned file with an empty one
            store.pin(report)
            print(f"pinned {report.suite} -> {store.path(report.suite, report.config_hash)}")
    else:
        for report in reports:
            store.check(report, tolerance=args.baseline_tolerance)
            ok = ok and report.verdict()
        rendered = render_reports(reports, fmt=args.format)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(rendered)
        else:
            sys.stdout.write(rendered)

    for report in reports:
        verdict = "pass" if report.verdict() else "FAIL"
        print(f"{report.suite}: {verdict} ({len(report.cases)} cases)", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
