"""Figure 16 — Impact of IO control on stacked ZooKeeper SLO violations.

Twelve five-participant ensembles over five machines, eleven well-behaved
(100 KB payloads), one noisy neighbour (300 KB payloads, 3x snapshots).
Counts violations of the one-second P99 SLO for the well-behaved ensembles
under each controller (:func:`repro.workloads.zookeeper.run_fig16`).
Scaled from the paper's 6-hour run on enterprise SSDs to minutes on a
1/40-speed device with proportional snapshot cadence.

Paper shape: blk-throttle shows the most violations (78, some tens of
seconds), iolatency 31, bfq 13 (2-5 s), iocost only two marginal ones.
"""

from repro.analysis.report import Table
from repro.workloads.zookeeper import FIG16_CONTROLLERS, run_fig16

from benchmarks.conftest import run_experiment


def run_all():
    return {name: run_fig16(name) for name in FIG16_CONTROLLERS}


def test_fig16_zookeeper_slo(benchmark):
    results = run_experiment(benchmark, run_all)

    table = Table(
        "Figure 16: 1s-SLO violations of the 11 well-behaved ensembles",
        ["mechanism", "violations", "longest (s)", "peak p99 (s)"],
    )
    for name, row in results.items():
        table.add_row(name, row["count"], f"{row['longest']:.1f}", f"{row['peak']:.2f}")
    table.print()

    # IOCost shows the fewest violations, and they are marginal (p99 barely
    # above the SLO, vs multi-second overshoots elsewhere).
    for name in ("blk-throttle", "bfq", "iolatency"):
        assert results["iocost"]["count"] < results[name]["count"], name
        assert results["iocost"]["peak"] < results[name]["peak"], name
    assert results["iocost"]["peak"] < 1.6
    # blk-throttle violates the most, with long stalls.
    assert results["blk-throttle"]["count"] == max(
        row["count"] for row in results.values()
    )
    assert results["blk-throttle"]["longest"] > 5.0
