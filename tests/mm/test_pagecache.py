"""Tests for the page cache and dirty writeback."""

import numpy as np
import pytest

from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.controllers.noop import NoopController
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.qos import QoSParams
from repro.mm.pagecache import PageCache
from repro.sim import Simulator

MB = 1024 * 1024

SPEC = DeviceSpec(
    name="pcdev",
    parallelism=4,
    srv_rand_read=100e-6,
    srv_seq_read=100e-6,
    srv_rand_write=100e-6,
    srv_seq_write=100e-6,
    read_bw=200e6,
    write_bw=200e6,
    sigma=0.0,
    nr_slots=64,
)


def make_env(controller=None, background=4 * MB, limit=16 * MB):
    sim = Simulator()
    device = Device(sim, SPEC, np.random.default_rng(0))
    controller = controller or NoopController()
    layer = BlockLayer(sim, device, controller)
    cache = PageCache(sim, layer, background_bytes=background, limit_bytes=limit)
    tree = CgroupTree()
    return sim, layer, cache, tree


def run_op(sim, gen):
    proc = sim.process(gen)
    while not proc.done:
        sim.step()
    return proc


class TestBufferedWrites:
    def test_small_writes_do_not_touch_device(self):
        sim, layer, cache, tree = make_env()
        group = tree.create("a")
        run_op(sim, cache.buffered_write(group, 1 * MB))
        assert sim.now == 0.0
        assert layer.submitted_ios == 0
        assert cache.state_of(group).dirty == 1 * MB

    def test_background_flusher_kicks_past_threshold(self):
        sim, layer, cache, tree = make_env()
        group = tree.create("a")
        run_op(sim, cache.buffered_write(group, 6 * MB))  # > 4MB background
        sim.run(until=1.0)
        state = cache.state_of(group)
        assert state.written_back_total > 0
        assert state.dirty <= cache.background_bytes
        assert group.stats.device(layer.dev).wbytes == state.written_back_total

    def test_dirty_throttling_blocks_writer_at_limit(self):
        sim, layer, cache, tree = make_env()
        group = tree.create("a")

        def firehose():
            for _ in range(40):
                yield from cache.buffered_write(group, 1 * MB)

        run_op(sim, firehose())
        state = cache.state_of(group)
        assert state.throttled_time > 0
        # Never wildly above the hard limit.
        assert state.dirty <= cache.limit_bytes + 1 * MB

    def test_sync_drains_everything(self):
        sim, layer, cache, tree = make_env()
        group = tree.create("a")
        run_op(sim, cache.buffered_write(group, 3 * MB))
        run_op(sim, cache.sync(group))
        assert cache.state_of(group).dirty == 0
        assert cache.state_of(group).written_back_total == 3 * MB

    def test_invalid_inputs(self):
        sim, layer, cache, tree = make_env()
        group = tree.create("a")
        with pytest.raises(ValueError):
            run_op(sim, cache.buffered_write(group, 0))
        with pytest.raises(ValueError):
            PageCache(sim, layer, background_bytes=8, limit_bytes=8)

    def test_per_cgroup_isolation_of_accounting(self):
        sim, layer, cache, tree = make_env()
        a = tree.create("a")
        b = tree.create("b")
        run_op(sim, cache.buffered_write(a, 2 * MB))
        run_op(sim, cache.buffered_write(b, 1 * MB))
        assert cache.state_of(a).dirty == 2 * MB
        assert cache.state_of(b).dirty == 1 * MB
        assert cache.dirty_total == 3 * MB

    def test_restart_at_the_same_path_starts_clean(self):
        sim, layer, cache, tree = make_env()
        dead = tree.create("workload.slice/a")
        run_op(sim, cache.buffered_write(dead, 3 * MB))  # below background
        tree.remove("workload.slice/a")
        live = tree.create("workload.slice/a")
        assert cache.state_of(live).dirty == 0
        run_op(sim, cache.buffered_write(live, 2 * MB))
        run_op(sim, cache.sync(live))
        # Only what the live cgroup dirtied is written back on its record.
        assert cache.state_of(live).written_back_total == 2 * MB
        assert live.stats.device(layer.dev).wbytes == 2 * MB
        assert cache.state_of(dead).dirty == 3 * MB


class TestWritebackUnderIOCost:
    def test_low_weight_writer_paced_by_its_own_writeback(self):
        # A bulk buffered writer in a low-weight cgroup is ultimately paced
        # by how fast the controller lets its writeback flow: the dirty
        # limit turns controller throttling into writer throttling.
        sim = Simulator()
        device = Device(sim, SPEC, np.random.default_rng(0))
        controller = IOCost(
            LinearCostModel(ModelParams.from_device_spec(SPEC)),
            qos=QoSParams(
                read_lat_target=None, write_lat_target=None,
                vrate_min=1.0, vrate_max=1.0, period=0.025,
            ),
        )
        layer = BlockLayer(sim, device, controller)
        cache = PageCache(sim, layer, background_bytes=4 * MB, limit_bytes=16 * MB)
        tree = CgroupTree()
        bulk = tree.create("bulk", weight=25)
        reader_group = tree.create("reader", weight=500)

        from repro.workloads.synthetic import ClosedLoopWorkload

        ClosedLoopWorkload(
            sim, layer, reader_group, depth=16, stop_at=2.0, seed=2
        ).start()

        written = {"bytes": 0}

        def firehose():
            while sim.now < 2.0:
                yield from cache.buffered_write(bulk, 1 * MB)
                written["bytes"] += 1 * MB

        sim.process(firehose())
        sim.run(until=2.0)
        controller.detach()
        # The bulk writer's effective rate is bounded by its ~5% share of
        # the 200 MB/s device (plus the dirty allowance), far below what
        # the unthrottled page cache would accept.
        assert written["bytes"] < 60 * MB
        assert cache.state_of(bulk).throttled_time > 0.5
