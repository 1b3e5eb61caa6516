"""Tests for the stacked gate + scheduler configuration."""

import numpy as np
import pytest

from repro.block.bio import Bio, BioFlags, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.controllers.mq_deadline import MQDeadlineController
from repro.controllers.stacked import StackedController
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.qos import QoSParams
from repro.obs.iostat import IOStat
from repro.sim import Simulator
from repro.testbed import make_controller
from repro.workloads.synthetic import ClosedLoopWorkload

SPEC = DeviceSpec(
    name="stackdev",
    parallelism=4,
    srv_rand_read=100e-6,
    srv_seq_read=100e-6,
    srv_rand_write=100e-6,
    srv_seq_write=100e-6,
    read_bw=1e9,
    write_bw=1e9,
    sigma=0.0,
    nr_slots=64,
)

FIXED = QoSParams(
    read_lat_target=None, write_lat_target=None,
    vrate_min=1.0, vrate_max=1.0, period=0.025,
)


def make_stacked():
    sim = Simulator()
    device = Device(sim, SPEC, np.random.default_rng(0))
    gate = IOCost(LinearCostModel(ModelParams.from_device_spec(SPEC)), qos=FIXED)
    controller = StackedController(gate, MQDeadlineController())
    layer = BlockLayer(sim, device, controller)
    return sim, layer, controller, CgroupTree()


def test_features_combine():
    gate = IOCost(
        LinearCostModel(
            ModelParams(rbps=1e9, rseqiops=1e5, rrandiops=1e5,
                        wbps=1e9, wseqiops=1e5, wrandiops=1e5)
        )
    )
    stacked = StackedController(gate, MQDeadlineController())
    # The stack is the gate's to the memory manager and to another stack.
    assert stacked.mm_aware and stacked.cgroup_aware
    assert stacked.issue_overhead > gate.issue_overhead


@pytest.mark.parametrize("name", ["blk-throttle", "bfq", "iolatency", "iocost"])
def test_cgroup_aware_scheduler_rejected(name):
    # The record has one ``pd`` slot and it is the gate's.
    with pytest.raises(ValueError, match="cgroup-aware"):
        StackedController(MQDeadlineController(), make_controller(name, SPEC))


@pytest.mark.parametrize("name", ["none", "mq-deadline", "kyber"])
def test_classic_scheduler_accepted(name):
    scheduler = make_controller(name, SPEC)
    assert StackedController(MQDeadlineController(), scheduler).scheduler is scheduler


def test_stack_preserves_proportionality():
    sim, layer, controller, tree = make_stacked()
    high = tree.create("high", weight=200)
    low = tree.create("low", weight=100)
    ClosedLoopWorkload(sim, layer, high, depth=16, stop_at=0.5, seed=1).start()
    ClosedLoopWorkload(sim, layer, low, depth=16, stop_at=0.5, seed=2).start()
    sim.run(until=0.5)
    controller.detach()
    ratio = layer.iops_of(high) / layer.iops_of(low)
    assert ratio == pytest.approx(2.0, rel=0.15)


def test_scheduler_orders_within_the_gated_stream():
    # Reads and writes from one cgroup: the gate passes both at full
    # budget; mq-deadline below still prefers reads.
    sim, layer, controller, tree = make_stacked()
    group = tree.create("g")
    reader = ClosedLoopWorkload(
        sim, layer, group, op=IOOp.READ, depth=16, stop_at=0.3, seed=1
    ).start()
    writer = ClosedLoopWorkload(
        sim, layer, group, op=IOOp.WRITE, depth=16, stop_at=0.3, seed=2
    ).start()
    sim.run(until=0.3)
    controller.detach()
    assert reader.completed > writer.completed


def test_debt_hook_reaches_gate():
    sim, layer, controller, tree = make_stacked()
    group = tree.create("leaker", weight=25)
    other = tree.create("other", weight=500)
    ClosedLoopWorkload(sim, layer, other, depth=16, stop_at=0.3, seed=3).start()
    for index in range(400):
        layer.submit(Bio(IOOp.WRITE, 4096, index * 8, group, flags=BioFlags.SWAP))
    sim.run(until=0.05)
    assert controller.userspace_delay(group) > 0
    controller.detach()


def test_detach_tears_down_both():
    sim, layer, controller, tree = make_stacked()
    group = tree.create("g")
    layer.submit(Bio(IOOp.READ, 4096, 8, group))
    sim.run(until=0.05)
    controller.detach()
    ticks = len(controller.gate.vrate_ctl.vrate_series)
    sim.run(until=0.5)
    assert len(controller.gate.vrate_ctl.vrate_series) == ticks


def test_io_stat_sees_through_the_stack():
    # The stack used to answer io.stat from its own, never-written base
    # counters: throttled 0 and no cost.* key while the gate was throttling.
    sim, layer, controller, tree = make_stacked()
    high = tree.create("high", weight=200)
    low = tree.create("low", weight=100)
    ClosedLoopWorkload(sim, layer, high, depth=64, stop_at=0.2, seed=1).start()
    ClosedLoopWorkload(sim, layer, low, depth=64, stop_at=0.2, seed=2).start()
    sim.run(until=0.2)
    controller.detach()
    snap = IOStat(tree, {layer.dev: controller}).device_snapshot()
    for name in ("high", "low"):  # bios the gate held, once each
        entry = snap[name][layer.dev]
        assert 0 < entry["throttled"] <= entry["rios"] + entry["wios"]
    low_entry = snap["low"][layer.dev]
    assert low_entry["cost.usage"] > 0 and low_entry["cost.vrate"] == 1.0
    assert low_entry["cost.ios"] > 0
    assert controller.stat(low) == controller.gate.stat(low)
