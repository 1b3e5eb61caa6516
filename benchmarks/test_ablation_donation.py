"""Ablation — budget donation (DESIGN.md §4).

The §3.6 donation algorithm is what makes IOCost work-conserving without
touching the issue path.  This ablation runs the same two-group scenario
(one saturating, one barely active) with donation enabled and disabled:

* disabled: the busy group is capped near its 50% hweight — unused budget
  evaporates;
* enabled: the light group's unused share flows to the busy group, which
  recovers nearly the whole device.
"""

from repro.analysis.report import Table, format_si
from repro.block.device import DeviceSpec
from repro.core.qos import QoSParams
from repro.testbed import Testbed

from benchmarks.conftest import run_experiment

SPEC = DeviceSpec(
    name="abldev",
    parallelism=8,
    srv_rand_read=100e-6,
    srv_seq_read=100e-6,
    srv_rand_write=100e-6,
    srv_seq_write=100e-6,
    read_bw=1e9,
    write_bw=1e9,
    sigma=0.0,
    nr_slots=128,
)
PEAK = SPEC.peak_rand_read_iops  # 80K
DURATION = 2.0

# vrate pinned so budgets bind and the donation effect is unconfounded.
QOS = QoSParams(
    read_lat_target=None, write_lat_target=None,
    vrate_min=1.0, vrate_max=1.0, period=0.025,
)


def run_one(donation_enabled):
    bed = Testbed(
        device=SPEC, controller="iocost", qos=QOS, donation_enabled=donation_enabled
    )
    busy = bed.saturate(bed.add_cgroup("busy"), depth=32, stop_at=DURATION)
    bed.paced(bed.add_cgroup("light"), rate=2000, stop_at=DURATION)
    bed.run(DURATION)
    bed.detach()
    return busy.completed / DURATION


def run_both():
    return {
        "donation disabled": run_one(False),
        "donation enabled": run_one(True),
    }


def test_ablation_donation(benchmark):
    results = run_experiment(benchmark, run_both)

    table = Table(
        "Ablation: budget donation (busy group vs 2K-IOPS light neighbour)",
        ["configuration", "busy IOPS", "of device peak"],
    )
    for name, value in results.items():
        table.add_row(name, format_si(value), f"{value / PEAK:.0%}")
    table.print()

    # Disabled: capped around the 50% hweight.
    assert results["donation disabled"] < 0.6 * PEAK
    # Enabled: recovers nearly all unused capacity.
    assert results["donation enabled"] > 0.85 * (PEAK - 2000)
    assert results["donation enabled"] > 1.5 * results["donation disabled"]
