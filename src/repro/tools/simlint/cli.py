"""``python -m repro.tools.simlint`` — the lint front-end CI runs.

Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
Diagnostics are one ``file:line:col rule message`` per line on stdout;
the summary goes to stderr so output stays pipe-friendly.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.tools.simlint.core import RULES, LintConfig, LintError, lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.simlint",
        description=(
            "AST lint enforcing the simulator's determinism, unit, and "
            "tracepoint contracts (see docs/STATIC_ANALYSIS.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--disable",
        metavar="RULES",
        help="comma-separated rule names to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _split(csv: Optional[str]) -> Optional[List[str]]:
    if csv is None:
        return None
    return [item.strip() for item in csv.split(",") if item.strip()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        width = max(len(name) for name in RULES)
        for name in sorted(RULES):
            print(f"{name:<{width}}  {RULES[name].description}")
        return 0

    config = LintConfig(
        select=_split(args.select),
        disable=_split(args.disable) or (),
    )
    try:
        findings = lint_paths(args.paths, config)
    except LintError as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return 2

    for finding in findings:
        print(finding)
    if findings:
        print(f"simlint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("simlint: clean", file=sys.stderr)
    return 0
