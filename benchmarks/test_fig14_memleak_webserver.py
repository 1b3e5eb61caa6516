"""Figure 14 — Web-server RPS while stacked with a memory-leak workload.

A production-style web server fills most of memory (partially protected by
memory.low, as in Meta's deployment) while system services leak memory
aggressively.  Reclaim pushes pages to swap through the shared SSD and the
web server's fault path competes with the storm.  Reported per controller
and per SSD generation: steady-state RPS relative to the leak-free
baseline.

Paper shape: bfq and mq-deadline suffer badly, iolatency holds moderately,
iocost keeps the web server above 80% of baseline.
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
DURATION = 20.0
MEASURE_FROM = 8.0

CONFIGS = {
    "mq-deadline": {},
    "bfq": {},
    "iolatency": {"targets": {"workload.slice/web": 10e-3}},
    "iocost": {},
}
#: The leak-free iocost run every retained fraction is relative to.
BASELINE = "baseline"


def run_once(params, seed):
    device, config = params["device"], params["config"]
    with_leak = config != BASELINE
    controller_name = config if with_leak else "iocost"
    controller_kwargs = CONFIGS[config] if with_leak else {}
    qos = QoSParams(
        read_lat_target=5e-3, read_pct=90, vrate_min=0.4, vrate_max=2.0, period=0.05
    )
    testbed = Testbed(
        device=device,
        controller=controller_name,
        qos=qos,
        mem_bytes=1024 * MB,
        swap_bytes=8192 * MB,
        protected={"workload.slice/web": 320 * MB},
        seed=7,
        **controller_kwargs,
    )
    web_group = testbed.add_cgroup("workload.slice/web", weight=500)
    web = WebServer(
        testbed.sim, testbed.layer, testbed.mm, web_group,
        working_set=640 * MB, load=0.9, workers=8,
        touch_per_request=512 * 1024, stop_at=DURATION,
    ).start()
    if with_leak:
        for index in range(3):
            MemoryLeaker(
                testbed.sim, testbed.layer, testbed.mm,
                testbed.cgroups.lookup("system.slice"),
                rate_bps=1024 * MB, chunk=8 * MB,
                stop_at=DURATION, seed=100 + index,
            ).start()
    testbed.run(DURATION)
    testbed.detach()
    return {"rps": web.rps_series.mean(MEASURE_FROM, DURATION)}


SPEC = ExperimentSpec(
    name="fig14-memleak-webserver",
    kind=f"{__name__}.run_once",
    grid={"config": (BASELINE, *CONFIGS), "device": ("ssd_old", "ssd_new")},
)


def test_fig14_memleak_webserver(benchmark):
    cells = run_figure(benchmark, SPEC)
    results = {
        device: {
            name: cells[(name, device)]["rps"] / cells[(BASELINE, device)]["rps"]
            for name in CONFIGS
        }
        for device in ("ssd_old", "ssd_new")
    }

    table = Table(
        "Figure 14: web-server RPS retained under a memory leak",
        ["controller", "ssd_old", "ssd_new"],
    )
    for name in CONFIGS:
        table.add_row(
            name,
            f"{results['ssd_old'][name]:.0%}",
            f"{results['ssd_new'][name]:.0%}",
        )
    table.print()

    for device in ("ssd_old", "ssd_new"):
        retained = results[device]
        # IOCost keeps the web server above 80% of baseline and at least
        # matches every other mechanism.
        assert retained["iocost"] >= 0.8, device
        for name in ("mq-deadline", "bfq", "iolatency"):
            assert retained["iocost"] >= retained[name] - 0.02, (device, name)
        # BFQ performs worst, with a near-total loss of throughput.
        assert retained["bfq"] < 0.5, device
        assert retained["bfq"] == min(retained.values()), device
    # The old (slow, GC-fragile) SSD is where the unaware mechanisms bleed.
    assert results["ssd_old"]["mq-deadline"] < 0.8
    assert results["ssd_old"]["iolatency"] < 0.8
    # The higher-end SSD softens the pain (more headroom), as in the paper.
    assert results["ssd_new"]["mq-deadline"] >= results["ssd_old"]["mq-deadline"]
