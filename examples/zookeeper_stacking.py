#!/usr/bin/env python
"""Stacked ZooKeeper ensembles with a noisy neighbour (paper §4.6, Fig 16).

Twelve five-participant ensembles share five machines (no two participants
of one ensemble co-hosted).  Eleven are well-behaved (100 KB payloads); the
twelfth writes 300 KB payloads and dumps 3x-sized snapshots — the noisy
neighbour.  Snapshots of the in-memory database fire every ``snapshot_every``
transactions, producing momentary write spikes even under nominal load.
We count violations of a one-second P99 SLO for the well-behaved ensembles.

Scaled down from the paper's 6-hour run on enterprise SSDs to minutes on a
1/40-speed device; snapshot cadence is scaled to preserve burst frequency.
The scenario is :func:`repro.workloads.zookeeper.run_fig16`.

Run:  python examples/zookeeper_stacking.py
"""

from repro.analysis.report import Table
from repro.workloads.zookeeper import FIG16_CONTROLLERS, FIG16_DURATION, run_fig16


def main() -> None:
    table = Table(
        f"1s-SLO violations of the 11 well-behaved ensembles ({FIG16_DURATION:.0f}s simulated)",
        ["controller", "violations", "longest (s)", "peak p99 (s)"],
    )
    for name in FIG16_CONTROLLERS:
        print(f"running {name}...")
        row = run_fig16(name)
        table.add_row(name, row["count"], f"{row['longest']:.1f}", f"{row['peak']:.2f}")
    table.print()
    print(
        "\npaper shape (Figure 16): blk-throttle most violations (78, some"
        " lasting tens of seconds), iolatency 31, bfq 13, iocost only 2"
        " marginal ones (~1.0-1.5s peaks)."
    )


if __name__ == "__main__":
    main()
