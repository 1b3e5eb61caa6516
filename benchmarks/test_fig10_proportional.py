"""Figure 10 — Proportional control.

Two latency-sensitive workloads continuously issue 4 KiB random reads while
their observed p50 stays below 200 us (load-shedding online services), on
the older-generation SSD.  The high-priority workload is entitled to double
the IO of the low-priority one.

Paper shape: bfq and iolatency give the high-priority workload >10:1 (the
low-priority workload sheds itself into starvation); blk-throttle (with
hand-set limits) and iocost hold the 2:1 target.
"""

import pytest

from repro.analysis.report import Table, format_ratio, format_si
from repro.block.device_models import SSD_OLD
from repro.controllers.blk_throttle import ThrottleLimits
from repro.core.qos import QoSParams
from repro.exp import ExperimentSpec
from repro.testbed import Testbed

from benchmarks.conftest import run_figure

DURATION = 4.0
LATENCY_TARGET = 200e-6

# Tight enough that vrate holds the device where weight budgets bind.
QOS = QoSParams(
    read_lat_target=180e-6, read_pct=90, vrate_min=0.25, vrate_max=1.5, period=0.025
)


def run_one(params, seed):
    name = params["mechanism"]
    kwargs = {}
    if name == "blk-throttle":
        # Hand-set limits preserving 2:1 within device capability (~90K).
        kwargs["limits"] = {
            "workload.slice/high": ThrottleLimits(riops=40_000),
            "workload.slice/low": ThrottleLimits(riops=20_000),
        }
    elif name == "iolatency":
        # The paper's "best configuration" attempt: staggered targets.
        kwargs["targets"] = {
            "workload.slice/high": 200e-6,
            "workload.slice/low": 400e-6,
        }
    testbed = Testbed(device=SSD_OLD, controller=name, qos=QOS, seed=11, **kwargs)
    high = testbed.add_cgroup("workload.slice/high", weight=200)
    low = testbed.add_cgroup("workload.slice/low", weight=100)
    wl_high = testbed.latency_governed(high, latency_target=LATENCY_TARGET, stop_at=DURATION)
    wl_low = testbed.latency_governed(low, latency_target=LATENCY_TARGET, stop_at=DURATION)
    testbed.run(DURATION)
    testbed.detach()
    return {
        "high_iops": wl_high.completed / DURATION,
        "low_iops": wl_low.completed / DURATION,
        "high_p50": wl_high.recent_percentile(50, last=1000),
        "low_p50": wl_low.recent_percentile(50, last=1000),
    }


SPEC = ExperimentSpec(
    name="fig10-proportional",
    kind=f"{__name__}.run_one",
    grid={"mechanism": ("bfq", "blk-throttle", "iolatency", "iocost")},
)


def test_fig10_proportional_control(benchmark):
    results = run_figure(benchmark, SPEC)

    table = Table(
        "Figure 10: proportional control (target high:low = 2:1)",
        ["mechanism", "high IOPS", "low IOPS", "ratio", "high p50", "low p50"],
    )
    for name, row in results.items():
        table.add_row(
            name,
            format_si(row["high_iops"]),
            format_si(row["low_iops"]),
            format_ratio(row["high_iops"], row["low_iops"]),
            f"{row['high_p50'] * 1e6:.0f}us",
            f"{row['low_p50'] * 1e6:.0f}us",
        )
    table.print()

    ratios = {
        name: row["high_iops"] / max(row["low_iops"], 1.0)
        for name, row in results.items()
    }
    # IOCost precisely matches the 2:1 target.
    assert ratios["iocost"] == pytest.approx(2.0, rel=0.15)
    # blk-throttle's hand-set limits also hold the ratio.
    assert ratios["blk-throttle"] == pytest.approx(2.0, rel=0.2)
    # iolatency grossly over-serves the high-priority workload (paper:
    # >10:1; our best-tuned staggered targets land near that).
    assert ratios["iolatency"] > 4.0
    # DEVIATION from the paper: real BFQ starves the low-priority workload
    # into a >10:1 split via its latency swings; our BFQ abstraction
    # reaches a gentler slice equilibrium and holds near the weight ratio.
    # Recorded in EXPERIMENTS.md.
    assert ratios["bfq"] > 1.5
