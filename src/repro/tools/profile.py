"""``python -m repro.tools.profile`` — profile a device model (§3.2).

Runs the saturating sweeps against a catalogued (or scaled) device model
and prints the measured parameters plus the ``io.cost.model`` configuration
line, like the open-sourced iocost tooling does for real block devices.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.analysis.report import Table, format_si
from repro.core.profiler import profile_device
from repro.exp.cli import add_device_args, device_or_exit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.profile",
        description="Profile a simulated device into iocost model parameters.",
    )
    add_device_args(parser, "ssd_new")
    parser.add_argument(
        "--read-duration", type=float, default=0.25,
        help="simulated seconds per read sweep",
    )
    parser.add_argument(
        "--write-duration", type=float, default=1.0,
        help="simulated seconds per write sweep (longer: GC steady state)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    spec = device_or_exit(parser, args)

    print(f"profiling {spec.name} (saturating sweeps)...")
    profile = profile_device(
        spec,
        seed=args.seed,
        read_duration=args.read_duration,
        write_duration=args.write_duration,
    )

    table = Table(f"Measured parameters — {spec.name}", ["parameter", "value"])
    table.add_row("random read IOPS (4k)", format_si(profile.rrandiops))
    table.add_row("sequential read IOPS (4k)", format_si(profile.rseqiops))
    table.add_row("read bandwidth", format_si(profile.rbps, "B/s"))
    table.add_row("random write IOPS (4k)", format_si(profile.wrandiops))
    table.add_row("sequential write IOPS (4k)", format_si(profile.wseqiops))
    table.add_row("write bandwidth (sustained)", format_si(profile.wbps, "B/s"))
    table.add_row("read latency p50 (saturated)", f"{profile.read_lat_p50 * 1e6:.0f}us")
    table.print()
    print("\nio.cost.model configuration:")
    print(f"  {profile.config_line()}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    raise SystemExit(main())
