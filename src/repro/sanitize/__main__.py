"""CLI for the runtime sanitizers: ``python -m repro.sanitize diff``.

``diff`` runs the instrumentation differential harness (:mod:`.diff`) and
exits 0 when the uninstrumented and the PROF+SANITIZE traces are
byte-identical, 1 on divergence.  On divergence (or with ``--out``) the
two JSONL traces are written next to each other so
``diff plain.jsonl instrumented.jsonl`` localizes the break.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional, Sequence

from repro.sanitize.diff import DEFAULT_BIOS, DEFAULT_DEPTH, run_diff


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.sanitize",
        description="Runtime sanitizer tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    diff = sub.add_parser(
        "diff",
        help="byte-diff an uninstrumented trace against a PROF+SANITIZE trace",
    )
    diff.add_argument("--bios", type=int, default=DEFAULT_BIOS)
    diff.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    diff.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="always write plain.jsonl/instrumented.jsonl here (default: only on divergence)",
    )
    return parser


def _write_traces(report: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "plain.jsonl").write_text(report["plain_trace"])
    (out_dir / "instrumented.jsonl").write_text(report["instrumented_trace"])
    print(f"traces written to {out_dir}/plain.jsonl and {out_dir}/instrumented.jsonl")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    report = run_diff(args.bios, args.depth)
    checks = " ".join(
        f"{name}={count}" for name, count in report["sanitize_checks"].items() if count
    )
    print(
        f"{report['bios']} bios at depth {report['depth']}: "
        f"{report['events']} trace events per run"
    )
    print(f"sanitize checks (instrumented run): {checks or 'none'}")
    if report["identical"]:
        print("uninstrumented and instrumented traces are byte-identical")
        if args.out is not None:
            _write_traces(report, args.out)
        return 0
    divergence = report["divergence"]
    print(
        f"TRACE DIVERGENCE at line {divergence['line']}:\n"
        f"  plain:        {divergence['plain']}\n"
        f"  instrumented: {divergence['instrumented']}"
    )
    _write_traces(report, args.out if args.out is not None else Path("sanitize-diff"))
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    raise SystemExit(main())
