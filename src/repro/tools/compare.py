"""``python -m repro.tools.compare`` — controller comparison on one device.

Runs the canonical two-container proportional-control scenario (weights
2:1, both saturating) under every Table 1 mechanism and prints achieved
IOPS, the split ratio, and p90 latency — a quick "which controller does
what" view of the library.

The per-mechanism fan-out drives through the :mod:`repro.exp`
orchestrator (one ``mechanism_2to1`` cell per mechanism), so comparisons
parallelise across a worker pool and repeat invocations against a
persistent ``--store`` are served from the result cache.
"""

from __future__ import annotations

import argparse
import tempfile
from typing import Optional, Sequence

from repro.analysis.report import Table, format_ratio, format_si
from repro.exp import ArtifactStore, ExperimentSpec, run_sweep
from repro.exp.cli import add_device_args, device_or_exit, wall_clock
from repro.testbed import CONTROLLERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.compare",
        description="Compare IO control mechanisms on a 2:1 weighted scenario.",
    )
    add_device_args(parser, "ssd_old")
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--depth", type=int, default=32)
    parser.add_argument(
        "--workers", type=int, default=2,
        help="mechanism runs executed in parallel (default 2)",
    )
    parser.add_argument(
        "--store", default=None,
        help="persistent artifact store root (default: throwaway temp dir); "
        "repeat invocations hit the result cache",
    )
    return parser


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The comparison as a declarative sweep: one axis over mechanisms."""
    base = {
        "device": args.device,
        "duration": args.duration,
        "depth": args.depth,
        "vrate": 0.9,
        "period": 0.05,
    }
    if args.scale is not None:
        base["device_scale"] = args.scale
    return ExperimentSpec(
        name=f"compare-{args.device}",
        kind="mechanism_2to1",
        base=base,
        grid={"mechanism": list(CONTROLLERS)},
        seed=args.seed,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    device = device_or_exit(parser, args)
    spec = build_spec(args)

    def sweep(root: str):
        return run_sweep(
            spec, ArtifactStore(root), workers=args.workers, clock=wall_clock
        )

    if args.store is not None:
        report = sweep(args.store)
    else:
        with tempfile.TemporaryDirectory() as root:
            report = sweep(root)

    table = Table(
        f"Mechanism comparison — {device.name}, weights 2:1, both saturating",
        ["mechanism", "high IOPS", "low IOPS", "ratio", "read p90"],
    )
    failures = 0
    for outcome in report.outcomes:
        name = outcome.run.axes["mechanism"]
        if not outcome.ok:
            failures += 1
            error = outcome.error or {}
            table.add_row(name, "failed", error.get("type", "?"), "-", "-")
            continue
        result = outcome.result
        p90 = result["read_p90"]
        table.add_row(
            name,
            format_si(result["high_iops"]),
            format_si(result["low_iops"]),
            format_ratio(result["high_iops"], result["low_iops"]),
            f"{p90 * 1e6:.0f}us" if p90 is not None else "n/a",
        )
    table.print()
    cached = report.cache_hits
    if cached:
        print(f"\n({cached}/{report.runs_total} mechanisms served from cache)")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
