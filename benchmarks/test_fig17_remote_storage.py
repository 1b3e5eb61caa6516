"""Figure 17 — Remote storage and VM environments.

Repeats the memory-leak protection experiment with ResourceControlBench on
the four public-cloud volume models (AWS EBS gp3/io2, Google Cloud PD
balanced/SSD), reporting the fraction of leak-free RPS retained with IOCost
as the guest's controller.

Paper shape: despite the different latency profiles, IOCost effectively
isolates the latency-sensitive workload on every configuration, local or
remotely attached.
"""

import pytest

from repro.analysis.report import Table
from repro.core.qos import QoSParams
from repro.exp import ExperimentSpec
from repro.testbed import Testbed
from repro.workloads.memleak import MemoryLeaker
from repro.workloads.rcbench import ResourceControlBench

from benchmarks.conftest import run_figure

MB = 1024 * 1024
DURATION = 20.0
MEASURE_FROM = 8.0

VOLUMES = ("ebs_gp3", "ebs_io2", "gcp_pd_balanced", "gcp_pd_ssd")

# Latency targets sized to each volume's service profile (QoS parameters
# are per-device, §3.4).
TARGETS = {
    "ebs_gp3": 30e-3,
    "ebs_io2": 10e-3,
    "gcp_pd_balanced": 30e-3,
    "gcp_pd_ssd": 15e-3,
}


def run_once(params, seed):
    volume, with_leak = params["volume"], params["with_leak"]
    qos = QoSParams(
        read_lat_target=TARGETS[volume], read_pct=90,
        vrate_min=0.4, vrate_max=2.0, period=0.05,
    )
    testbed = Testbed(
        device=volume,
        controller="iocost",
        qos=qos,
        mem_bytes=1024 * MB,
        swap_bytes=8192 * MB,
        protected={"workload.slice/rcbench": 320 * MB},
        seed=13,
    )
    bench_group = testbed.add_cgroup("workload.slice/rcbench", weight=500)
    bench = ResourceControlBench(
        testbed.sim, testbed.layer, testbed.mm, bench_group,
        peak_rps=300, load=0.8, workers=8,
        working_set=640 * MB, touch_per_request=256 * 1024,
        io_reads_per_request=1, io_read_size=8 * 1024,
        queue_timeout=0.5,
        stop_at=DURATION,
    ).start()
    if with_leak:
        for index in range(2):
            MemoryLeaker(
                testbed.sim, testbed.layer, testbed.mm,
                testbed.cgroups.lookup("system.slice"),
                rate_bps=512 * MB, chunk=8 * MB,
                stop_at=DURATION, seed=100 + index,
            ).start()
    testbed.run(DURATION)
    testbed.detach()
    return {"rps": bench.rps_series.mean(MEASURE_FROM, DURATION)}


SPEC = ExperimentSpec(
    name="fig17-remote-storage",
    kind=f"{__name__}.run_once",
    grid={"volume": VOLUMES, "with_leak": (False, True)},
)


def test_fig17_remote_storage(benchmark):
    cells = run_figure(benchmark, SPEC)
    protection = {
        volume: cells[(volume, True)]["rps"] / cells[(volume, False)]["rps"]
        for volume in VOLUMES
    }

    table = Table(
        "Figure 17: RCBench RPS retained under a memory leak (IOCost in-guest)",
        ["volume", "retained"],
    )
    for volume in VOLUMES:
        table.add_row(volume, f"{protection[volume]:.0%}")
    table.print()

    # IOCost protects effectively on every volume type (some variance from
    # the different latency profiles, as in the paper).
    for volume in VOLUMES:
        assert protection[volume] > 0.7, volume
