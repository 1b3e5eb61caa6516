"""Block-layer error/timeout/retry paths (docs/FAULTS.md).

The regression class at the bottom is the slot-release audit: every
completion path — success, retryable failure, terminal error, timeout —
must return the bio's request slot exactly once, so an all-error run ends
with zero inflight and a fully dispatchable layer.
"""

import numpy as np
import pytest

from repro.block.bio import Bio, BioStatus, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer, BlockLayerError
from repro.cgroup import CgroupTree
from repro.controllers.noop import NoopController
from repro.faults import ErrorBurst, FaultPlan, Hang
from repro.sim import Simulator

SRV = 100e-6


def make_env(faults=None, io_timeout=None, max_retries=3, nr_slots=64,
             parallelism=2):
    sim = Simulator()
    spec = DeviceSpec(
        name="dev",
        parallelism=parallelism,
        srv_rand_read=SRV,
        srv_seq_read=80e-6,
        srv_rand_write=120e-6,
        srv_seq_write=100e-6,
        read_bw=1e9,
        write_bw=1e9,
        sigma=0.0,
        nr_slots=nr_slots,
    )
    device = Device(sim, spec, np.random.default_rng(0), faults=faults)
    layer = BlockLayer(
        sim, device, NoopController(),
        io_timeout=io_timeout, max_retries=max_retries,
    )
    tree = CgroupTree()
    return sim, layer, tree


def read_bio(group, sector=10_000):
    return Bio(IOOp.READ, 4096, sector, group)


class TestConstruction:
    def test_nonpositive_io_timeout_rejected(self):
        with pytest.raises(BlockLayerError):
            make_env(io_timeout=0.0)

    def test_negative_max_retries_rejected(self):
        with pytest.raises(BlockLayerError):
            make_env(max_retries=-1)


class TestRetry:
    def test_transient_error_retried_to_success(self):
        # The burst covers only the first attempt; the backed-off retry
        # lands outside it and succeeds.
        plan = FaultPlan([ErrorBurst(start=0.0, duration=0.5e-3)], seed=0)
        sim, layer, tree = make_env(faults=plan)
        group = tree.create("ws")
        done = []
        layer.submit(read_bio(group), on_done=done.append)
        sim.run()
        (bio,) = done
        assert bio.ok and bio.retries == 1
        assert layer.requeued_ios == 1 and layer.errored_ios == 0
        assert layer.completed_ios == 1 and layer.completed_bytes == 4096
        # Retry waits the backoff after the failed first attempt.
        assert bio.complete_time == pytest.approx(SRV + 1e-3 + SRV)
        stats = group.stats.device(layer.dev)
        assert stats.requeues == 1 and stats.errors == 0

    def test_backoff_doubles_per_retry(self):
        plan = FaultPlan([ErrorBurst(start=0.0, duration=1.0)], seed=0)
        sim, layer, tree = make_env(faults=plan, max_retries=2)
        group = tree.create("ws")
        done = []
        layer.submit(read_bio(group), on_done=done.append)
        sim.run()
        (bio,) = done
        assert bio.status is BioStatus.EIO and bio.retries == 2
        # attempt + 1ms + attempt + 2ms + attempt.
        assert bio.complete_time == pytest.approx(3 * SRV + 1e-3 + 2e-3)

    def test_exhausted_retries_complete_with_terminal_error(self):
        plan = FaultPlan([ErrorBurst(start=0.0, duration=1.0)], seed=0)
        sim, layer, tree = make_env(faults=plan, max_retries=2)
        group = tree.create("ws")
        done = []
        layer.submit(read_bio(group), on_done=done.append)
        sim.run()
        (bio,) = done
        assert bio.status is BioStatus.EIO
        assert layer.errored_ios == 1 and layer.requeued_ios == 2
        assert layer.completed_ios == 1  # finished, though not successfully
        assert layer.completed_bytes == 0
        stats = group.stats.device(layer.dev)
        assert stats.errors == 1 and stats.requeues == 2
        assert stats.done_ios == 0 and layer.iops_of(group) == 0

    def test_max_retries_zero_fails_immediately(self):
        plan = FaultPlan([ErrorBurst(start=0.0, duration=1.0)], seed=0)
        sim, layer, tree = make_env(faults=plan, max_retries=0)
        group = tree.create("ws")
        done = []
        layer.submit(read_bio(group), on_done=done.append)
        sim.run()
        assert done[0].status is BioStatus.EIO and done[0].retries == 0
        assert layer.requeued_ios == 0


class TestTimeout:
    def test_hung_bio_times_out(self):
        plan = FaultPlan([Hang(start=0.0)])
        sim, layer, tree = make_env(faults=plan, io_timeout=0.01, max_retries=0)
        group = tree.create("ws")
        done = []
        layer.submit(read_bio(group), on_done=done.append)
        sim.run()
        (bio,) = done
        assert bio.status is BioStatus.TIMEOUT
        assert bio.complete_time == pytest.approx(0.01)
        assert layer.timed_out_ios == 1
        assert layer.device.aborted_ios == 1
        # The timed-out bio records its full io_timeout as device latency —
        # the degraded signal the QoS loop reacts to.
        assert layer.read_latency.percentile(sim.now, 50) == pytest.approx(0.01)

    def test_timeout_retries_then_terminal(self):
        plan = FaultPlan([Hang(start=0.0)])
        sim, layer, tree = make_env(
            faults=plan, io_timeout=0.01, max_retries=1
        )
        group = tree.create("ws")
        done = []
        layer.submit(read_bio(group), on_done=done.append)
        sim.run()
        (bio,) = done
        assert bio.status is BioStatus.TIMEOUT and bio.retries == 1
        assert layer.timed_out_ios == 2  # both attempts timed out
        assert bio.complete_time == pytest.approx(0.01 + 1e-3 + 0.01)

    def test_healthy_run_cancels_timers(self):
        sim, layer, tree = make_env(io_timeout=10.0)
        group = tree.create("ws")
        for index in range(8):
            layer.submit(read_bio(group, sector=index * 1000))
        sim.run()
        assert layer.completed_ios == 8 and layer.timed_out_ios == 0
        assert not layer._timeouts
        # No timeout event left behind: the clock stopped at the last
        # completion, not at now + io_timeout.
        assert sim.now < 1.0


class TestSlotRelease:
    """Satellite audit: request slots never leak, on any completion path."""

    def test_all_error_run_returns_every_slot(self):
        plan = FaultPlan([ErrorBurst(start=0.0, duration=10.0)], seed=0)
        sim, layer, tree = make_env(
            faults=plan, max_retries=2, nr_slots=4, parallelism=2
        )
        group = tree.create("ws")
        done = []
        for index in range(20):  # 5x the slot count
            layer.submit(read_bio(group, sector=index * 1000), on_done=done.append)
        sim.run()
        assert len(done) == 20
        assert all(bio.status is BioStatus.EIO for bio in done)
        assert layer.inflight == 0
        assert layer.device.in_flight == 0
        assert layer.inflight < layer.nr_slots
        assert not layer._retryq and not layer._timeouts

    def test_all_timeout_run_returns_every_slot(self):
        plan = FaultPlan([Hang(start=0.0)])
        sim, layer, tree = make_env(
            faults=plan, io_timeout=0.005, max_retries=1, nr_slots=4,
            parallelism=2,
        )
        group = tree.create("ws")
        done = []
        for index in range(12):
            layer.submit(read_bio(group, sector=index * 1000), on_done=done.append)
        sim.run()
        assert len(done) == 12
        assert all(bio.status is BioStatus.TIMEOUT for bio in done)
        assert layer.inflight == 0
        assert layer.device.in_flight == 0
        assert not layer.device._hung  # no bio left parked

    def test_mixed_fault_run_conserves_slots(self):
        plan = FaultPlan(
            [
                ErrorBurst(start=0.0, duration=0.004, error_rate=0.5),
                Hang(start=0.006, duration=0.004),
            ],
            seed=3,
        )
        sim, layer, tree = make_env(
            faults=plan, io_timeout=0.05, max_retries=2, nr_slots=8,
            parallelism=2,
        )
        group = tree.create("ws")
        done = []
        for index in range(40):
            sim.schedule(
                index * 0.0004,
                lambda i=index: layer.submit(
                    read_bio(group, sector=i * 1000), on_done=done.append
                ),
            )
        sim.run()
        assert len(done) == 40
        assert layer.inflight == 0 and layer.device.in_flight == 0
        assert layer.completed_ios == 40
