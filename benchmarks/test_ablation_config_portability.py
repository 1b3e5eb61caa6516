"""Ablation — configuration portability across heterogeneous devices (§2.3).

The paper's core configuration argument: per-workload limits (IOPS/bytes)
must be re-derived for every device a workload lands on, which "is often
too brittle and intractable to be used in production at scale", while
IOCost separates device configuration (cost model + QoS, derived per
device offline) from workload configuration (weights, device-independent).

We tune blk-throttle limits for a perfect 2:1 split *on the slow fleet
device*, then move the exact same workload configuration to the fast fleet
device:

* blk-throttle: still 2:1, but the limits now strand most of the fast
  device — utilisation collapses;
* iocost: the same weights (200:100) carry over unchanged; each device
  uses its own offline-derived cost model, and utilisation stays high on
  both.
"""

import pytest

from repro.analysis.report import Table, format_si
from repro.block.device_models import get_device_spec
from repro.controllers.blk_throttle import ThrottleLimits
from repro.core.qos import QoSParams
from repro.exp import ExperimentSpec
from repro.testbed import Testbed

from benchmarks.conftest import run_figure

DURATION = 1.0
SLOW = "fleet_e"   # 60K IOPS
FAST = "fleet_h"   # 600K IOPS

QOS = QoSParams(
    read_lat_target=None, write_lat_target=None,
    vrate_min=0.9, vrate_max=0.9, period=0.025,
)

# blk-throttle limits hand-tuned for the SLOW device (2:1 within ~54K).
TUNED_FOR_SLOW = {
    "workload.slice/high": ThrottleLimits(riops=36_000),
    "workload.slice/low": ThrottleLimits(riops=18_000),
}


def run_one(params, seed):
    spec, controller_name = get_device_spec(params["device"]), params["controller"]
    kwargs = {"limits": dict(TUNED_FOR_SLOW)} if controller_name == "blk-throttle" else {}
    testbed = Testbed(device=spec, controller=controller_name, qos=QOS, seed=9, **kwargs)
    high = testbed.add_cgroup("workload.slice/high", weight=200)
    low = testbed.add_cgroup("workload.slice/low", weight=100)
    testbed.saturate(high, depth=64, stop_at=DURATION)
    testbed.saturate(low, depth=64, stop_at=DURATION)
    testbed.run(DURATION)
    high_iops, low_iops = testbed.iops(high), testbed.iops(low)
    testbed.detach()
    total = high_iops + low_iops
    return {
        "ratio": high_iops / max(low_iops, 1.0),
        "utilisation": total / spec.peak_rand_read_iops,
        "total": total,
    }


SPEC = ExperimentSpec(
    name="ablation-config-portability",
    kind=f"{__name__}.run_one",
    grid={"controller": ("blk-throttle", "iocost"), "device": (SLOW, FAST)},
)


def test_ablation_config_portability(benchmark):
    results = run_figure(benchmark, SPEC)

    table = Table(
        "Ablation: workload config tuned on fleet_e, moved to fleet_h",
        ["mechanism", "device", "total IOPS", "utilisation", "ratio"],
    )
    for (name, device), row in results.items():
        table.add_row(
            name, device, format_si(row["total"]),
            f"{row['utilisation']:.0%}", f"{row['ratio']:.2f}",
        )
    table.print()

    # On the device the limits were tuned for, both do fine.
    assert results[("blk-throttle", "fleet_e")]["ratio"] == pytest.approx(2.0, rel=0.2)
    assert results[("iocost", "fleet_e")]["ratio"] == pytest.approx(2.0, rel=0.2)
    # Moved to the 10x-faster device, the per-workload limits strand it...
    assert results[("blk-throttle", "fleet_h")]["utilisation"] < 0.25
    # ...while the unchanged weights keep the fast device busy at 2:1.
    assert results[("iocost", "fleet_h")]["utilisation"] > 0.6
    assert results[("iocost", "fleet_h")]["ratio"] == pytest.approx(2.0, rel=0.25)
