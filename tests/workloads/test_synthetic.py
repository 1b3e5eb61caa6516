"""Tests for the fio-style synthetic workloads."""

import numpy as np
import pytest

from repro.block.bio import IOOp
from repro.obs.metrics import select_percentiles
from repro.workloads.synthetic import (
    ClosedLoopWorkload,
    LatencyGovernedWorkload,
    PacedWorkload,
    ThinkTimeWorkload,
)

from tests.workloads.conftest import WL_SPEC, make_noop_env


class TestClosedLoop:
    def test_saturates_device(self):
        sim, layer, tree = make_noop_env()
        group = tree.create("a")
        workload = ClosedLoopWorkload(sim, layer, group, depth=16, stop_at=0.2).start()
        sim.run(until=0.25)
        assert workload.iops(0.2) == pytest.approx(WL_SPEC.peak_rand_read_iops, rel=0.05)

    def test_stop_method_halts(self):
        sim, layer, tree = make_noop_env()
        group = tree.create("a")
        workload = ClosedLoopWorkload(sim, layer, group, depth=4).start()
        sim.run(until=0.05)
        workload.stop()
        done = workload.completed
        sim.run(until=0.2)
        # Only in-flight IOs finish after stop.
        assert workload.completed <= done + 4

    def test_sequential_mode_streams(self):
        sim, layer, tree = make_noop_env()
        group = tree.create("a")
        workload = ClosedLoopWorkload(
            sim, layer, group, depth=1, sequential=True, stop_at=0.05
        ).start()
        sim.run(until=0.1)
        # All IOs after the first should be cgroup-sequential → the device
        # sequential stream gives the same 4k service; just sanity-check
        # completions happened and latencies are tight.
        assert workload.completed > 100
        assert max(workload.latencies) < 1e-3

    def test_latency_summary(self):
        sim, layer, tree = make_noop_env()
        group = tree.create("a")
        workload = ClosedLoopWorkload(sim, layer, group, depth=4, stop_at=0.05).start()
        sim.run(until=0.1)
        assert len(workload.latencies) == workload.completed
        p50, p99 = select_percentiles(np.array(workload.latencies), (50, 99))
        assert p50 <= p99 <= max(workload.latencies)


class TestPaced:
    def test_open_loop_rate(self):
        sim, layer, tree = make_noop_env()
        group = tree.create("a")
        workload = PacedWorkload(sim, layer, group, rate=2000, stop_at=0.5).start()
        sim.run(until=0.6)
        assert workload.completed == pytest.approx(1000, rel=0.05)

    def test_invalid_rate(self):
        sim, layer, tree = make_noop_env()
        group = tree.create("a")
        with pytest.raises(ValueError):
            PacedWorkload(sim, layer, group, rate=0)


class TestThinkTime:
    def test_throughput_set_by_latency_plus_think(self):
        sim, layer, tree = make_noop_env()
        group = tree.create("a")
        workload = ThinkTimeWorkload(
            sim, layer, group, think_time=100e-6, stop_at=0.5
        ).start()
        sim.run(until=0.6)
        # Serial: one IO per (service 100us + think 100us) = 5000/s.
        assert workload.iops(0.5) == pytest.approx(5000, rel=0.05)


class TestLatencyGoverned:
    def test_sheds_load_when_latency_high(self):
        # A slow contended device: the workload should shrink depth to 1.
        from repro.block.device import DeviceSpec

        slow = DeviceSpec(
            name="slow",
            parallelism=1,
            srv_rand_read=400e-6,
            srv_seq_read=400e-6,
            srv_rand_write=400e-6,
            srv_seq_write=400e-6,
            read_bw=1e9,
            write_bw=1e9,
            sigma=0.0,
            nr_slots=64,
        )
        sim, layer, tree = make_noop_env(spec=slow)
        group = tree.create("a")
        workload = LatencyGovernedWorkload(
            sim, layer, group, latency_target=200e-6, stop_at=2.0
        ).start()
        sim.run(until=2.0)
        assert workload.depth == 1

    def test_grows_depth_when_latency_low(self):
        sim, layer, tree = make_noop_env()  # 100us service, target 200us
        group = tree.create("a")
        workload = LatencyGovernedWorkload(
            sim, layer, group, latency_target=2e-3, stop_at=1.0
        ).start()
        sim.run(until=1.0)
        assert workload.depth > 4

    def test_respects_max_depth(self):
        sim, layer, tree = make_noop_env()
        group = tree.create("a")
        workload = LatencyGovernedWorkload(
            sim, layer, group, latency_target=1.0, max_depth=8, stop_at=1.0
        ).start()
        sim.run(until=1.0)
        assert workload.depth <= 8
