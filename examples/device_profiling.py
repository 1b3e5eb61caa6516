#!/usr/bin/env python
"""Offline device profiling and cost-model generation (paper §3.2).

Reproduces the workflow of the open-sourced iocost tooling: run saturating
fio-style workloads against a device, fit the six linear-model parameters,
print the ``io.cost.model`` configuration line (Figure 6 format), and show
what individual IOs cost under the fitted model.

Run:  python examples/device_profiling.py [device-name]
"""

import sys

from repro.analysis.report import Table, format_si
from repro.block.bio import Bio, IOOp
from repro.block.device_models import get_device_spec
from repro.cgroup import CgroupTree
from repro.core.profiler import profile_device


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "ssd_old"
    spec = get_device_spec(name)
    print(f"profiling device model {name!r} (saturating sweeps)...")
    profile = profile_device(spec)

    print("\nfitted io.cost.model configuration (Figure 6 format):")
    print(f"  {profile.config_line()}")

    table = Table(f"Measured parameters — {name}", ["parameter", "value"])
    table.add_row("random read IOPS (4k)", format_si(profile.rrandiops))
    table.add_row("sequential read IOPS (4k)", format_si(profile.rseqiops))
    table.add_row("read bandwidth", format_si(profile.rbps, "B/s"))
    table.add_row("random write IOPS (4k)", format_si(profile.wrandiops))
    table.add_row("sequential write IOPS (4k)", format_si(profile.wseqiops))
    table.add_row("write bandwidth (sustained)", format_si(profile.wbps, "B/s"))
    table.add_row("read latency p50 (saturated)", f"{profile.read_lat_p50 * 1e6:.0f}us")
    table.print()

    # Price a few representative IOs with the fitted model.
    model = profile.to_cost_model()
    group = CgroupTree().create("pricing")
    table = Table("IO occupancy costs under the fitted model", ["io", "cost", "max/sec"])
    for label, op, size, seq in (
        ("4 KiB random read", IOOp.READ, 4096, False),
        ("4 KiB sequential read", IOOp.READ, 4096, True),
        ("128 KiB random read", IOOp.READ, 128 * 1024, False),
        ("4 KiB random write", IOOp.WRITE, 4096, False),
        ("1 MiB sequential write", IOOp.WRITE, 1 << 20, True),
    ):
        bio = Bio(op, size, 0, group)
        bio.sequential = seq
        cost = model.cost(bio)
        table.add_row(label, f"{cost * 1e6:.1f} us", f"{1 / cost:,.0f}")
    table.print()
    print(
        "\nnote: cost is an occupancy estimate, not a latency — a cost of"
        " 20ms means the device absorbs 50 such IOs per second (§3.1)."
    )


if __name__ == "__main__":
    main()
