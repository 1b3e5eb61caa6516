"""Ablation — memory control alone vs memory + IO control (paper §5).

"One initial motivation was to address isolation failures from system
service memory leaks.  Memory control alone was insufficient as memory
limits still resulted in reclaim which interfered with latency-sensitive
applications through IO.  We could achieve comprehensive isolation only by
doing both memory and IO controls together."

The leaker here *is* capped with a memory.max limit, so it can never
displace the web server's memory — yet its cap-induced local-reclaim swap
churn hammers the shared device.  Without IO control the web server's
latency collapses anyway; with IOCost it is protected.
"""

import pytest

from repro.analysis.report import Table
from repro.core.qos import QoSParams
from repro.exp import ExperimentSpec
from repro.testbed import Testbed
from repro.workloads.memleak import MemoryLeaker
from repro.workloads.rcbench import WebServer

from benchmarks.conftest import run_figure

MB = 1024 * 1024
DURATION = 15.0
#: The leak-free iocost run every retained fraction is relative to.
BASELINE = "baseline (no leak)"


def run_once(params, seed):
    with_leak = params["io_control"] != BASELINE
    controller_name = params["io_control"] if with_leak else "iocost"
    qos = QoSParams(
        read_lat_target=5e-3, read_pct=90, vrate_min=0.4, vrate_max=2.0, period=0.05
    )
    testbed = Testbed(
        device="ssd_old",
        controller=controller_name,
        qos=qos,
        mem_bytes=1024 * MB,
        swap_bytes=8192 * MB,
        seed=31,
    )
    # Memory control IS configured: the leaker is hard-capped.
    testbed.mm.limits["system.slice"] = 128 * MB
    web_group = testbed.add_cgroup("workload.slice/web", weight=500)
    # An IO-heavy latency-sensitive server: several storage reads per
    # request, so device-level interference shows directly in p95/RPS.
    web = WebServer(
        testbed.sim, testbed.layer, testbed.mm, web_group,
        working_set=256 * MB, load=0.9, workers=4,
        touch_per_request=64 * 1024,
        io_reads_per_request=6, io_read_size=32 * 1024,
        stop_at=DURATION,
    ).start()
    if with_leak:
        for index in range(3):
            MemoryLeaker(
                testbed.sim, testbed.layer, testbed.mm,
                testbed.cgroups.lookup("system.slice"),
                rate_bps=1024 * MB, chunk=8 * MB,
                stop_at=DURATION, seed=200 + index,
            ).start()
    testbed.run(DURATION)
    testbed.detach()
    p95 = web.request_percentile(95, last=500)
    return {"rps": web.rps_series.mean(DURATION / 2, DURATION), "p95": p95}


SPEC = ExperimentSpec(
    name="ablation-memory-only",
    kind=f"{__name__}.run_once",
    grid={"io_control": (BASELINE, "none", "iocost")},
)


def test_ablation_memory_control_alone(benchmark):
    cells = run_figure(benchmark, SPEC)
    results = {
        name: {"retained": cell["rps"] / cells[BASELINE]["rps"], "p95": cell["p95"]}
        for name, cell in cells.items()
    }

    table = Table(
        "Ablation: memory.max on the leaker, with and without IO control",
        ["IO control", "web RPS retained", "web p95"],
    )
    for name, row in results.items():
        table.add_row(name, f"{row['retained']:.0%}", f"{row['p95'] * 1e3:.1f}ms")
    table.print()

    # Memory control alone: the capped leaker's reclaim IO still blows up
    # the latency-sensitive service's tail (an order of magnitude over the
    # leak-free baseline).
    assert results["none"]["p95"] > 5 * results[BASELINE]["p95"]
    # Adding IO control (iocost) cuts the interference tail sharply.
    assert results["none"]["p95"] > 2 * results["iocost"]["p95"]
    assert results["iocost"]["retained"] > 0.9
