"""Unit tests for the simulated device."""

import numpy as np
import pytest

from repro.block.bio import Bio, IOOp
from repro.block.device import Device, DeviceSpec
from repro.cgroup import CgroupTree
from repro.sim import Simulator


def make_spec(**overrides):
    base = dict(
        name="test",
        parallelism=4,
        srv_rand_read=100e-6,
        srv_seq_read=80e-6,
        srv_rand_write=120e-6,
        srv_seq_write=100e-6,
        read_bw=1e9,
        write_bw=0.8e9,
        sigma=0.0,
    )
    base.update(overrides)
    return DeviceSpec(**base)


@pytest.fixture
def env():
    sim = Simulator()
    tree = CgroupTree()
    group = tree.create("w")
    return sim, group


def make_device(sim, spec):
    return Device(sim, spec, np.random.default_rng(0))


class TestSpecValidation:
    def test_peak_rates(self):
        spec = make_spec()
        assert spec.peak_rand_read_iops == pytest.approx(4 / 100e-6)
        assert spec.peak_seq_read_iops == pytest.approx(4 / 80e-6)
        assert spec.peak_rand_write_iops == pytest.approx(4 / 120e-6)
        assert spec.peak_seq_write_iops == pytest.approx(4 / 100e-6)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("parallelism", 0),
            ("srv_rand_read", 0.0),
            ("srv_seq_write", -1.0),
            ("read_bw", 0.0),
            ("nr_slots", 0),
        ],
    )
    def test_invalid_specs_rejected(self, field, value):
        with pytest.raises(ValueError):
            make_spec(**{field: value})

    def test_scaled_preserves_peaks_ratio(self):
        spec = make_spec()
        fast = spec.scaled(10.0)
        assert fast.peak_rand_read_iops == pytest.approx(10 * spec.peak_rand_read_iops)
        assert fast.read_bw == pytest.approx(10 * spec.read_bw)


class TestServiceModel:
    def test_single_read_latency_is_base_service(self, env):
        sim, group = env
        device = make_device(sim, make_spec())
        done = []
        device.on_complete = done.append
        bio = Bio(IOOp.READ, 4096, 123, group)
        device.submit(bio)
        sim.run()
        # sector 123 != next expected (0), so random service time applies
        assert sim.now == pytest.approx(100e-6)
        assert done == [bio]

    def test_sequential_detection_uses_device_order(self, env):
        sim, group = env
        device = make_device(sim, make_spec())
        first = Bio(IOOp.READ, 4096, 0, group)
        second = Bio(IOOp.READ, 4096, first.end_sector, group)
        device.submit(first)
        device.submit(second)
        assert first.device_sequential  # device starts expecting sector 0
        assert second.device_sequential

    def test_large_io_pays_transfer_time(self, env):
        sim, group = env
        spec = make_spec(parallelism=1, read_bw=1e9)
        device = make_device(sim, spec)
        device.submit(Bio(IOOp.READ, 1024 * 1024, 999, group))
        sim.run()
        expected = 100e-6 + (1024 * 1024 - 4096) / 1e9
        assert sim.now == pytest.approx(expected)

    def test_parallelism_queues_excess(self, env):
        sim, group = env
        spec = make_spec(parallelism=2)
        device = make_device(sim, spec)
        for index in range(4):
            device.submit(Bio(IOOp.READ, 4096, 1000 * index + 1, group))
        assert device.in_flight == 4
        sim.run()
        # Two waves of two parallel requests.
        assert sim.now == pytest.approx(200e-6)
        assert device.completed_ios == 4

    def test_write_uses_write_service(self, env):
        sim, group = env
        device = make_device(sim, make_spec())
        device.submit(Bio(IOOp.WRITE, 4096, 55, group))
        sim.run()
        assert sim.now == pytest.approx(120e-6)

    def test_throughput_matches_peak_rate(self, env):
        sim, group = env
        spec = make_spec(sigma=0.0)
        device = make_device(sim, spec)

        # Closed-loop: keep 8 requests outstanding for 0.1 s.
        def resubmit(bio):
            if sim.now < 0.1:
                device.submit(Bio(IOOp.READ, 4096, 7919 * device.completed_ios % 100000, group))

        device.on_complete = resubmit
        for index in range(8):
            device.submit(Bio(IOOp.READ, 4096, 13 * index + 7, group))
        sim.run(until=0.15)
        achieved = device.completed_ios / 0.1
        assert achieved == pytest.approx(spec.peak_rand_read_iops, rel=0.05)


class TestGCModel:
    def test_gc_debt_slows_sustained_writes(self, env):
        sim, group = env
        spec = make_spec(
            parallelism=1,
            srv_rand_write=10e-6,
            gc_buffer_bytes=1024 * 1024,
            gc_drain_bps=10e6,
            gc_write_slowdown=5.0,
        )
        device = make_device(sim, spec)

        # Push 2 MiB of writes: debt accumulates far past the 1 MiB buffer.
        for index in range(512):
            device.submit(Bio(IOOp.WRITE, 4096, index * 100 + 1, group))
        sim.run()
        assert device.gc_slow_ios > 0

    def test_gc_debt_drains_over_time(self):
        """A 64 KiB write leaves debt that slows a read issued at once but
        has drained by a read issued 10 s later — handed over now with its
        ``issue_time`` ahead, so the drain runs to the bio's start."""
        spec = make_spec(gc_buffer_bytes=1024, gc_drain_bps=1e6)

        def read_after_write(gap):
            sim = Simulator()
            group = CgroupTree().create("w")
            device = make_device(sim, spec)
            device.submit(Bio(IOOp.WRITE, 64 * 1024, 1, group))
            sim.run()
            assert device.gc_slow_ios == 1
            finished = []
            device.on_complete = lambda bio: finished.append(sim.now)
            read = Bio(IOOp.READ, 4096, 9, group)
            read.issue_time = sim.now + gap
            device.submit(read)
            sim.run()
            return device.gc_slow_ios, finished[0] - read.issue_time

        slow_ios, service = read_after_write(0.0)
        assert slow_ios == 2
        assert service == pytest.approx(spec.srv_rand_read * spec.gc_read_slowdown)
        slow_ios, service = read_after_write(10.0)
        assert slow_ios == 1
        assert service == pytest.approx(spec.srv_rand_read)

    def test_gc_disabled_without_buffer(self, env):
        sim, group = env
        device = make_device(sim, make_spec(gc_buffer_bytes=0))
        device.submit(Bio(IOOp.WRITE, 1024 * 1024, 1, group))
        sim.run()
        assert device.gc_slow_ios == 0


class TestRemoteModel:
    def test_network_rtt_added(self, env):
        sim, group = env
        device = make_device(sim, make_spec(network_rtt=1e-3))
        device.submit(Bio(IOOp.READ, 4096, 1, group))
        sim.run()
        assert sim.now == pytest.approx(100e-6 + 1e-3)

    def test_iops_limit_paces_requests(self, env):
        sim, group = env
        spec = make_spec(parallelism=16, iops_limit=1000, srv_rand_read=10e-6)
        device = make_device(sim, spec)

        def resubmit(bio):
            if sim.now < 0.5:
                device.submit(Bio(IOOp.READ, 4096, device.completed_ios * 3 + 1, group))

        device.on_complete = resubmit
        for index in range(16):
            device.submit(Bio(IOOp.READ, 4096, index * 5 + 2, group))
        sim.run(until=0.6)
        achieved = device.completed_ios / 0.5
        assert achieved <= 1100
        assert achieved == pytest.approx(1000, rel=0.1)
