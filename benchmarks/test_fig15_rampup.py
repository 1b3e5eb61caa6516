"""Figure 15 — Ramp-up time in an overcommitted environment.

ResourceControlBench is PID-ramped from 40% to 80% of its peak load while
keeping p95 request latency under the target; as its load grows, its
resident-memory demand grows and the collocated ``stress`` consumer's
memory must be paged out.  We measure the time to complete the ramp under:

* bfq and iocost without stress (baselines);
* bfq and iocost with stress;
* the paper's own ablation of the §3.5 debt mechanism: swap IO charged to
  the root cgroup (never throttled) and swap IO throttled at the origin
  (priority inversion), both expected slower than production iocost.

Paper shape: iocost ramps ~2x faster than bfq unloaded and ~5x faster with
stress; both broken swap configurations are worse than production iocost.
"""

import pytest

from repro.analysis.report import Table
from repro.core.debt import SwapChargeMode
from repro.core.qos import QoSParams
from repro.exp import ExperimentSpec
from repro.testbed import Testbed
from repro.workloads.memleak import StressWorkload
from repro.workloads.pid import LoadRamp
from repro.workloads.rcbench import ResourceControlBench

from benchmarks.conftest import run_figure

MB = 1024 * 1024
TIMEOUT = 120.0
LATENCY_TARGET = 75e-3

#: configuration -> (controller, with stress, swap charging mode).
CONFIGS = {
    "iocost (no stress)": ("iocost", False, SwapChargeMode.DEBT),
    "bfq (no stress)": ("bfq", False, SwapChargeMode.DEBT),
    "iocost + stress": ("iocost", True, SwapChargeMode.DEBT),
    "bfq + stress": ("bfq", True, SwapChargeMode.DEBT),
    "iocost(root-charged) + stress": ("iocost", True, SwapChargeMode.ROOT),
    "iocost(origin-throttled) + stress": ("iocost", True, SwapChargeMode.ORIGIN_THROTTLE),
}


def run_ramp(params, seed):
    controller_name, with_stress, swap_mode = CONFIGS[params["config"]]
    qos = QoSParams(
        read_lat_target=5e-3, read_pct=90, vrate_min=0.4, vrate_max=2.0, period=0.05
    )
    kwargs = {}
    if controller_name == "iocost":
        kwargs["swap_mode"] = swap_mode
    testbed = Testbed(
        device="ssd_old",
        controller=controller_name,
        qos=qos,
        mem_bytes=768 * MB,
        swap_bytes=8192 * MB,
        seed=21,
        **kwargs,
    )
    bench_group = testbed.add_cgroup("workload.slice/rcbench", weight=500)
    # Paging-bound by construction (SS3.4: RCBench "adjusts its working
    # set size until ... paging and swap operations begins to limit
    # performance"): the working set exceeds machine memory.
    bench = ResourceControlBench(
        testbed.sim, testbed.layer, testbed.mm, bench_group,
        peak_rps=600, workers=12,
        working_set=896 * MB, touch_per_request=384 * 1024,
        stop_at=TIMEOUT,
    ).start()
    if with_stress:
        StressWorkload(
            testbed.sim, testbed.layer, testbed.mm,
            testbed.cgroups.lookup("system.slice"),
            working_set=512 * MB, touch_chunk=16 * MB, touch_interval=0.02,
            stop_at=TIMEOUT, seed=22,
        ).start()
    ramp = LoadRamp(
        testbed.sim, bench,
        start_load=0.4, end_load=0.8,
        latency_target=LATENCY_TARGET, interval=0.5,
    ).start()
    testbed.run(TIMEOUT)
    testbed.detach()
    return {"ramp_time": ramp.ramp_time if ramp.ramp_time is not None else TIMEOUT}


SPEC = ExperimentSpec(
    name="fig15-rampup", kind=f"{__name__}.run_ramp", grid={"config": tuple(CONFIGS)}
)


def test_fig15_rampup(benchmark):
    results = {name: row["ramp_time"] for name, row in run_figure(benchmark, SPEC).items()}

    table = Table(
        "Figure 15: time to ramp RCBench load 40% -> 80% (p95 < 75ms)",
        ["configuration", "ramp time (s)"],
    )
    for name, value in results.items():
        table.add_row(name, f"{value:.1f}")
    table.print()

    # IOCost ramps faster than bfq, with and without stress.
    assert results["iocost (no stress)"] < results["bfq (no stress)"]
    assert results["iocost + stress"] < results["bfq + stress"]
    # The stress overcommit gap widens the advantage.
    iocost_slowdown = results["iocost + stress"] / results["iocost (no stress)"]
    bfq_slowdown = results["bfq + stress"] / results["bfq (no stress)"]
    assert bfq_slowdown > iocost_slowdown
    # Both broken swap-charging configurations are slower than production.
    assert results["iocost(root-charged) + stress"] > results["iocost + stress"]
    assert results["iocost(origin-throttled) + stress"] > results["iocost + stress"]
