"""Unit tests for the block layer."""

import numpy as np
import pytest

from repro.analysis.stats import keyed_percentiles
from repro.block.bio import Bio, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer, BlockLayerError
from repro.cgroup import CgroupTree
from repro.controllers.noop import NoopController
from repro.sim import Simulator


def make_env(nr_slots=8, parallelism=2, issue_overhead=0.0, sigma=0.0):
    sim = Simulator()
    spec = DeviceSpec(
        name="dev",
        parallelism=parallelism,
        srv_rand_read=100e-6,
        srv_seq_read=80e-6,
        srv_rand_write=120e-6,
        srv_seq_write=100e-6,
        read_bw=1e9,
        write_bw=1e9,
        sigma=sigma,
        nr_slots=nr_slots,
    )
    device = Device(sim, spec, np.random.default_rng(0))
    controller = NoopController()
    controller.issue_overhead = issue_overhead
    layer = BlockLayer(sim, device, controller)
    tree = CgroupTree()
    return sim, layer, tree


def test_submit_flows_to_completion():
    sim, layer, tree = make_env()
    group = tree.create("a")
    completed = []
    layer.submit(Bio(IOOp.READ, 4096, 5, group), on_done=completed.append)
    sim.run()
    assert len(completed) == 1
    bio = completed[0]
    assert bio.submit_time == 0.0
    assert bio.complete_time == pytest.approx(100e-6)
    assert layer.completed_ios == 1
    assert layer.completed_bytes == 4096


def test_cgroup_stats_accounted_at_submit():
    sim, layer, tree = make_env()
    group = tree.create("a")
    layer.submit(Bio(IOOp.WRITE, 8192, 0, group))
    record = group.stats.device(layer.dev)
    assert record.wbytes == 8192
    assert record.wios == 1


def test_sequential_detection_per_cgroup():
    sim, layer, tree = make_env()
    a = tree.create("a")
    b = tree.create("b")
    first = Bio(IOOp.READ, 4096, 0, a)
    second = Bio(IOOp.READ, 4096, first.end_sector, a)
    interloper = Bio(IOOp.READ, 4096, 9999, b)
    layer.submit(first)
    layer.submit(interloper)  # b's IO does not break a's stream
    layer.submit(second)
    assert not first.sequential  # no previous IO from a
    assert not interloper.sequential
    assert second.sequential
    sim.run()


def test_request_slots_limit_inflight():
    sim, layer, tree = make_env(nr_slots=4, parallelism=4)
    group = tree.create("a")
    for index in range(10):
        layer.submit(Bio(IOOp.READ, 4096, index * 100, group))
    # Only 4 slots: 4 in flight, rest waiting in the controller queue.
    assert layer.inflight == 4
    assert layer.depleted_events > 0
    sim.run()
    assert layer.completed_ios == 10


def test_dispatch_without_slots_raises():
    sim, layer, tree = make_env(nr_slots=1)
    group = tree.create("a")
    layer.submit(Bio(IOOp.READ, 4096, 0, group))
    with pytest.raises(BlockLayerError):
        layer.dispatch(Bio(IOOp.READ, 4096, 1, group))


def test_latency_windows_split_reads_writes():
    sim, layer, tree = make_env()
    group = tree.create("a")
    layer.submit(Bio(IOOp.READ, 4096, 1, group))
    layer.submit(Bio(IOOp.WRITE, 4096, 999, group))
    sim.run()
    assert len(layer.read_latency) == 1
    assert len(layer.write_latency) == 1
    assert layer.read_latency.percentile(sim.now, 50) == pytest.approx(100e-6)


def test_cgroup_window_populated():
    sim, layer, tree = make_env()
    group = tree.create("workload")
    layer.submit(Bio(IOOp.READ, 4096, 1, group))
    sim.run()
    key = group.stats.device(layer.dev).latency
    assert key == 1.0  # the layer's first
    logs = layer.read_latency, layer.write_latency
    assert keyed_percentiles(logs, sim.now, [key], (0, 100)) == [[pytest.approx(100e-6)] * 2]


def test_asking_for_a_window_makes_nothing():
    sim, layer, tree = make_env()
    idle = tree.create("idle")
    logs = layer.read_latency, layer.write_latency
    assert keyed_percentiles(logs, sim.now, [None], (50,)) == [[None]]
    assert idle.stats.per_device == {}  # no record either
    layer.submit(Bio(IOOp.READ, 4096, 1, idle))
    record = idle.stats.device(layer.dev)
    assert record.latency is None  # keyed by its first completion
    sim.run()
    assert keyed_percentiles(logs, sim.now, [record.latency], (50,)) == [[pytest.approx(100e-6)]]


def test_issue_overhead_serializes_dispatch():
    # With 50us serialized CPU cost per IO and a fast device, throughput
    # is capped at 20K IOPS by the issue path, not the device.
    sim, layer, tree = make_env(nr_slots=64, parallelism=32, issue_overhead=50e-6)
    group = tree.create("a")

    outstanding = {"count": 0}

    def top_up(_value=None):
        while outstanding["count"] < 32 and sim.now < 0.1:
            outstanding["count"] += 1
            layer.submit(
                Bio(IOOp.READ, 4096, layer.submitted_ios * 7 + 1, group),
                on_done=finished,
            )

    def finished(_bio):
        outstanding["count"] -= 1
        top_up()

    top_up()
    sim.run(until=0.12)
    achieved = layer.completed_ios / 0.1
    assert achieved == pytest.approx(20_000, rel=0.1)


def test_iops_of_and_snapshot():
    sim, layer, tree = make_env()
    group = tree.create("a")
    for index in range(3):
        layer.submit(Bio(IOOp.READ, 4096, index * 50, group))
    sim.run()
    assert layer.iops_of(group) == 3
    snap = layer.iops_of(group)
    layer.submit(Bio(IOOp.READ, 4096, 7777, group))
    sim.run()
    assert layer.iops_of(group) - snap == 1
    assert group.stats.device(layer.dev).done_bytes == 4 * 4096


def test_submit_returns_none():
    sim, layer, tree = make_env()
    bio = Bio(IOOp.READ, 4096, 5, tree.create("a"))
    assert layer.submit(bio) is None
    assert layer.submit(Bio(IOOp.READ, 4096, 9, bio.cgroup), on_done=lambda _b: None) is None


def test_completion_without_submit_is_a_protocol_error():
    sim, layer, tree = make_env()
    stray = Bio(IOOp.READ, 4096, 5, tree.create("a"))
    with pytest.raises(BlockLayerError, match="without passing"):
        layer._device_completed(stray)
    # The stray bio was rejected before it could release a slot it never held.
    assert layer.inflight == 0 and layer.completed_ios == 0
