"""``python -m repro.analysis`` — the invariant linter CLI.

Exit status: 0 when the tree is clean, 1 when any finding survives
suppression, 2 on usage errors or a blown ``--max-seconds`` budget.
Designed to sit next to ``ruff`` and ``mypy`` as a third named CI
step, so failures attribute cleanly; ``--format sarif`` feeds the same
findings to GitHub code scanning.  With no paths it checks the four
roots CI checks (``src tests benchmarks examples``), one file at a
time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, Sequence

from .engine import run_paths, to_sarif
from .rules import ALL_RULES, AUDIT_RULES

#: The roots CI's blocking analyzer step checks; a no-flag run checks
#: exactly these.
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repo-specific invariant linter (REP rules).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=(
            "files or directories to check "
            f"(default: {' '.join(DEFAULT_PATHS)}, the CI roots)"
        ),
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the formatted findings to FILE instead of stdout",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="fail (exit 2) if the analysis takes longer than S seconds",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the summary line",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in (*ALL_RULES, *AUDIT_RULES):
            print(f"{rule.id}  {rule.summary}")
        return 0

    select: Optional[List[str]] = None
    if args.select:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
        known = {rule.id for rule in (*ALL_RULES, *AUDIT_RULES)}
        unknown = [rule_id for rule_id in select if rule_id not in known]
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)}")

    started = time.perf_counter()
    try:
        findings = run_paths(args.paths, select=select)
    except FileNotFoundError as exc:
        parser.error(str(exc))
    elapsed = time.perf_counter() - started

    if args.format == "sarif":
        payload = json.dumps(to_sarif(findings), indent=2, sort_keys=True)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fp:
                fp.write(payload + "\n")
        else:
            print(payload)
    else:
        rendered = "\n".join(finding.render() for finding in findings)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fp:
                fp.write(rendered + ("\n" if rendered else ""))
        elif rendered:
            print(rendered)

    if not args.quiet:
        checked = ", ".join(args.paths)
        if findings:
            print(
                f"{len(findings)} finding(s) in {checked} "
                f"({elapsed:.2f}s)",
                file=sys.stderr,
            )
        else:
            print(f"clean: {checked} ({elapsed:.2f}s)", file=sys.stderr)

    if args.max_seconds is not None and elapsed > args.max_seconds:
        print(
            f"analysis took {elapsed:.2f}s, over the --max-seconds "
            f"{args.max_seconds:g} budget",
            file=sys.stderr,
        )
        return 2
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
