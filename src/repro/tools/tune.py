"""``python -m repro.tools.tune`` — derive vrate bounds for a device (§3.4).

Runs the two ResourceControlBench scenarios across a vrate sweep and prints
the table plus the derived ``io.cost.qos`` bounds.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.analysis.report import Table
from repro.block.device_models import DEVICE_CATALOG
from repro.core.qos_tuning import DEFAULT_VRATE_CANDIDATES, tune_qos
from repro.exp.experiments import device_spec_for

MB = 1024 * 1024


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.tune",
        description="Derive QoS vrate bounds via the RCBench two-scenario sweep.",
    )
    parser.add_argument(
        "device", nargs="?", default="ssd_new",
        help=f"device model name (one of: {', '.join(sorted(DEVICE_CATALOG))})",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="speed factor applied to the device model")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--candidates", type=float, nargs="+",
        default=list(DEFAULT_VRATE_CANDIDATES),
    )
    parser.add_argument("--duration", type=float, default=8.0,
                        help="simulated seconds per sweep point")
    parser.add_argument("--mem-mb", type=int, default=128)
    parser.add_argument("--latency-target-ms", type=float, default=75.0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = device_spec_for(args.device, args.scale)
    except KeyError as exc:  # the message carries the roster
        parser.exit(2, f"{parser.prog}: {exc.args[0]}\n")

    print(f"tuning QoS for {spec.name} (two-scenario vrate sweep)...")
    result = tune_qos(
        spec,
        candidates=args.candidates,
        latency_threshold=args.latency_target_ms * 1e-3,
        duration=args.duration,
        total_mem=args.mem_mb * MB,
        seed=args.seed,
    )

    table = Table(
        f"RCBench vrate sweep — {spec.name}",
        ["vrate", "solo RPS (paging-bound)", "p95 vs memory leak"],
    )
    for vrate in result.candidates:
        table.add_row(
            f"{vrate:.2f}",
            f"{result.solo_rps[vrate]:.0f}",
            f"{result.protected_p95[vrate] * 1e3:.1f}ms",
        )
    table.print()
    print(
        f"\nio.cost.qos bounds: vrate_min={result.vrate_min * 100:.0f}% "
        f"vrate_max={result.vrate_max * 100:.0f}%"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
