"""Behavioural tests for the baseline controllers."""

import pytest

from repro.analysis.stats import LatencyLog
from repro.block.bio import Bio, IOOp
from repro.block.device import DeviceSpec
from repro.controllers import (
    BFQController,
    BlkThrottleController,
    IOLatencyController,
    KyberController,
    MQDeadlineController,
    ThrottleLimits,
)

from tests.controllers.conftest import ClosedLoop, build_layer

HDD_LIKE = DeviceSpec(
    name="hddlike",
    parallelism=1,
    srv_rand_read=5e-3,
    srv_seq_read=50e-6,
    srv_rand_write=5e-3,
    srv_seq_write=50e-6,
    read_bw=200e6,
    write_bw=200e6,
    sigma=0.0,
    nr_slots=32,
)


class TestMQDeadline:
    def test_passthrough_throughput(self):
        sim, layer, tree = build_layer(MQDeadlineController())
        group = tree.create("a")
        ClosedLoop(sim, layer, group, stop_at=0.2).start()
        sim.run(until=0.25)
        assert layer.iops_of(group) / 0.2 == pytest.approx(40_000, rel=0.1)

    def test_reads_preferred_over_writes(self):
        sim, layer, tree = build_layer(MQDeadlineController(), spec=HDD_LIKE)
        group = tree.create("a")
        reader = ClosedLoop(sim, layer, group, op=IOOp.READ, depth=8, stop_at=1.0, seed=1).start()
        writer = ClosedLoop(sim, layer, group, op=IOOp.WRITE, depth=8, stop_at=1.0, seed=2).start()
        sim.run(until=1.0)
        # Reads win roughly 2:1 (WRITES_STARVED batching), not total.
        assert reader.completed > writer.completed
        assert writer.completed > 0

    def test_expired_write_jumps_queue(self):
        sim, layer, tree = build_layer(MQDeadlineController(), spec=HDD_LIKE)
        group = tree.create("a")
        # One write sits while a steady read stream arrives.
        write_done = []
        layer.submit(Bio(IOOp.WRITE, 4096, 1, group), on_done=write_done.append)
        ClosedLoop(sim, layer, group, op=IOOp.READ, depth=4, stop_at=7.0, seed=1).start()
        sim.run(until=6.5)
        assert write_done  # dispatched within WRITE_EXPIRE + service slack

    def test_no_cgroup_fairness(self):
        sim, layer, tree = build_layer(MQDeadlineController())
        a = tree.create("a", weight=200)
        b = tree.create("b", weight=100)
        la = ClosedLoop(sim, layer, a, depth=16, stop_at=0.3, seed=1).start()
        lb = ClosedLoop(sim, layer, b, depth=16, stop_at=0.3, seed=2).start()
        sim.run(until=0.3)
        # Weights are ignored: equal queue depths get ~equal service.
        assert la.completed / lb.completed == pytest.approx(1.0, rel=0.15)


class TestKyber:
    def test_near_zero_overhead_throughput(self):
        sim, layer, tree = build_layer(KyberController())
        group = tree.create("a")
        ClosedLoop(sim, layer, group, stop_at=0.2).start()
        sim.run(until=0.25)
        assert layer.iops_of(group) / 0.2 == pytest.approx(40_000, rel=0.05)

    def test_write_depth_shrinks_under_read_latency_pressure(self):
        # Saturate a slow device with writes; read p99 violations shrink
        # the write domain's depth.
        spec = DeviceSpec(
            name="slow",
            parallelism=2,
            srv_rand_read=2e-3,
            srv_seq_read=2e-3,
            srv_rand_write=2e-3,
            srv_seq_write=2e-3,
            read_bw=1e9,
            write_bw=1e9,
            sigma=0.0,
            nr_slots=64,
        )
        controller = KyberController()
        sim, layer, tree = build_layer(controller, spec=spec)
        group = tree.create("a")
        ClosedLoop(sim, layer, group, op=IOOp.READ, depth=32, stop_at=2.0, seed=1).start()
        ClosedLoop(sim, layer, group, op=IOOp.WRITE, depth=32, stop_at=2.0, seed=2).start()
        initial_write_depth = spec.nr_slots // 4
        sim.run(until=2.0)
        assert controller._write_depth < initial_write_depth


class TestBlkThrottle:
    def test_iops_limit_enforced(self):
        controller = BlkThrottleController({"a": ThrottleLimits(riops=5000)})
        sim, layer, tree = build_layer(controller)
        group = tree.create("a")
        ClosedLoop(sim, layer, group, stop_at=0.5).start()
        sim.run(until=0.55)
        achieved = layer.iops_of(group) / 0.5
        assert achieved == pytest.approx(5000, rel=0.1)

    def test_bps_limit_enforced(self):
        controller = BlkThrottleController({"a": ThrottleLimits(wbps=10e6)})
        sim, layer, tree = build_layer(controller)
        group = tree.create("a")
        ClosedLoop(sim, layer, group, op=IOOp.WRITE, size=65536, stop_at=0.5).start()
        sim.run(until=0.55)
        achieved_bps = group.stats.device(layer.dev).done_bytes / 0.5
        assert achieved_bps == pytest.approx(10e6, rel=0.15)

    def test_unlimited_group_passes_through(self):
        controller = BlkThrottleController()
        sim, layer, tree = build_layer(controller)
        group = tree.create("free")
        ClosedLoop(sim, layer, group, stop_at=0.2).start()
        sim.run(until=0.25)
        assert layer.iops_of(group) / 0.2 == pytest.approx(40_000, rel=0.1)

    def test_not_work_conserving(self):
        # One group limited to 2K IOPS; a second limited group stays at its
        # own limit even though the device has spare capacity.
        controller = BlkThrottleController(
            {"a": ThrottleLimits(riops=2000), "b": ThrottleLimits(riops=4000)}
        )
        sim, layer, tree = build_layer(controller)
        a = tree.create("a")
        b = tree.create("b")
        ClosedLoop(sim, layer, a, stop_at=0.5, seed=1).start()
        ClosedLoop(sim, layer, b, stop_at=0.5, seed=2).start()
        sim.run(until=0.55)
        # Device can do 40K; the groups stay pinned at 2K and 4K.
        assert layer.iops_of(a) / 0.5 == pytest.approx(2000, rel=0.1)
        assert layer.iops_of(b) / 0.5 == pytest.approx(4000, rel=0.1)

    def test_set_limits_online(self):
        controller = BlkThrottleController()
        sim, layer, tree = build_layer(controller)
        group = tree.create("a")
        controller.set_limits("a", ThrottleLimits(riops=1000))
        ClosedLoop(sim, layer, group, stop_at=0.5).start()
        sim.run(until=0.55)
        assert layer.iops_of(group) / 0.5 == pytest.approx(1000, rel=0.15)

    def test_set_limits_keeps_queued_bios_and_the_armed_wake(self):
        # Replacing the limits of a group with bios queued used to drop the
        # group — queue, buckets and wake timer with it — and strand them.
        controller = BlkThrottleController({"a": ThrottleLimits(riops=1000)})
        sim, layer, tree = build_layer(controller)
        group = tree.create("a")
        ClosedLoop(sim, layer, group, depth=32, stop_at=1.0).start()
        sim.run(until=0.1)
        assert layer.submitted_ios - layer.completed_ios > layer.inflight  # queued
        controller.set_limits("a", ThrottleLimits(riops=2000))
        before = layer.iops_of(group)
        sim.run(until=1.1)
        assert layer.completed_ios == layer.submitted_ios
        assert (layer.iops_of(group) - before) / 0.9 == pytest.approx(2000, rel=0.05)


class TestBFQ:
    def test_sector_proportional_sequential(self):
        # Both sequential: 2:1 weights give ~2:1 throughput (Fig 12 seq/seq).
        sim, layer, tree = build_layer(BFQController(), spec=HDD_LIKE)
        high = tree.create("high", weight=200)
        low = tree.create("low", weight=100)
        lh = ClosedLoop(sim, layer, high, sequential=True, depth=8, stop_at=5.0, seed=1).start()
        ll = ClosedLoop(sim, layer, low, sequential=True, depth=8, stop_at=5.0, seed=2).start()
        sim.run(until=5.0)
        assert lh.completed / ll.completed == pytest.approx(2.0, rel=0.2)

    def test_random_over_allocated_vs_sequential(self):
        # Fig 12 rand/seq: sector fairness hands the random workload far
        # more device *time* on a seek-bound disk.  With 2:1 weights for
        # the random group, the sequential group gets a tiny fraction of
        # its standalone throughput.
        sim, layer, tree = build_layer(BFQController(), spec=HDD_LIKE)
        rand = tree.create("rand", weight=200)
        seq = tree.create("seq", weight=100)
        ClosedLoop(sim, layer, rand, sequential=False, depth=8, stop_at=10.0, seed=1).start()
        lseq = ClosedLoop(sim, layer, seq, sequential=True, depth=8, stop_at=10.0, seed=2).start()
        sim.run(until=10.0)
        seq_alone_rate = 1 / 50e-6  # 20K IOPS standalone
        seq_share = (lseq.completed / 10.0) / seq_alone_rate
        # The sequential group holds only a third of the device *time*
        # (weights 2:1 favour the random group), so it delivers well under
        # its standalone throughput while the random group burns most of
        # the disk's time on seeks.
        assert seq_share < 0.35

    def test_exclusive_slices_inflate_other_groups_latency(self):
        sim, layer, tree = build_layer(BFQController(), spec=HDD_LIKE)
        a = tree.create("a", weight=100)
        b = tree.create("b", weight=100)
        la = ClosedLoop(sim, layer, a, sequential=True, depth=4, stop_at=5.0, seed=1).start()
        lb = ClosedLoop(sim, layer, b, sequential=True, depth=4, stop_at=5.0, seed=2).start()
        sim.run(until=5.0)
        # Whole-slice waits show up as a huge latency tail: while b's
        # multi-MB slice runs, a's requests sit for many milliseconds.
        assert max(la.latencies) > 100 * 50e-6
        lat = sorted(la.latencies)
        p50 = lat[len(lat) // 2]
        assert max(la.latencies) > 20 * p50  # wide swings, not uniform slowness

    def test_work_conserving_when_one_queue_empties(self):
        sim, layer, tree = build_layer(BFQController())
        a = tree.create("a", weight=100)
        tree.create("b", weight=100)
        la = ClosedLoop(sim, layer, a, depth=16, stop_at=0.3, seed=1).start()
        sim.run(until=0.35)
        assert la.completed / 0.3 == pytest.approx(40_000, rel=0.15)


class TestIOLatency:
    def test_protected_group_throttles_unprotected(self):
        spec = DeviceSpec(
            name="mid",
            parallelism=2,
            srv_rand_read=200e-6,
            srv_seq_read=200e-6,
            srv_rand_write=200e-6,
            srv_seq_write=200e-6,
            read_bw=1e9,
            write_bw=1e9,
            sigma=0.0,
            nr_slots=64,
        )
        controller = IOLatencyController({"prot": 1e-3})
        sim, layer, tree = build_layer(controller, spec=spec)
        prot = tree.create("prot")
        noisy = tree.create("noisy")
        lp = ClosedLoop(sim, layer, prot, depth=2, stop_at=3.0, seed=1).start()
        ln = ClosedLoop(sim, layer, noisy, depth=32, stop_at=3.0, seed=2).start()
        sim.run(until=3.0)
        # The noisy group's depth must have been scaled down.
        assert noisy.stats.device(layer.dev).pd.depth < 32
        # And the protected group gets decent service despite depth-32 noise.
        assert lp.completed > 0.25 * ln.completed

    def test_no_proportional_control_for_equal_targets(self):
        # Two groups with equal targets: nothing arbitrates between them
        # (the Figure 10 failure) — they share roughly equally regardless
        # of any intended 2:1 split.
        controller = IOLatencyController({"a": 5e-3, "b": 5e-3})
        sim, layer, tree = build_layer(controller)
        a = tree.create("a", weight=200)
        b = tree.create("b", weight=100)
        la = ClosedLoop(sim, layer, a, depth=16, stop_at=0.5, seed=1).start()
        lb = ClosedLoop(sim, layer, b, depth=16, stop_at=0.5, seed=2).start()
        sim.run(until=0.5)
        assert la.completed / lb.completed == pytest.approx(1.0, rel=0.2)

    def test_depths_recover_when_pressure_ends(self):
        controller = IOLatencyController({"prot": 1e-3})
        sim, layer, tree = build_layer(controller)
        prot = tree.create("prot")
        noisy = tree.create("noisy")
        ClosedLoop(sim, layer, prot, depth=8, stop_at=0.2, seed=1).start()
        ClosedLoop(sim, layer, noisy, depth=8, stop_at=0.2, seed=2).start()
        sim.run(until=1.0)  # long quiet tail
        assert noisy.stats.device(layer.dev).pd.depth == layer.device.spec.nr_slots

    @pytest.mark.parametrize("groups", [0, 1, 3, 12])
    def test_one_adjust_reads_each_log_once(self, groups, monkeypatch):
        """One tick reads every protected group's p90 in one pass: each log's
        columns once, not once per group, and not at all without a target."""
        controller = IOLatencyController({f"g{index}": 1e-3 for index in range(groups)})
        sim, layer, tree = build_layer(controller)
        for index in range(groups + 1):  # and one group without a target
            group = tree.create(f"g{index}")
            ClosedLoop(sim, layer, group, depth=2, stop_at=0.04, seed=index).start()
        sim.run(until=0.045)  # before the first tick
        assert all(group.blkg.latency is not None for group in controller.groups)
        read = []
        columns = LatencyLog._columns

        def counted(log, now, horizon):
            read.append(id(log))
            return columns(log, now, horizon)

        monkeypatch.setattr(LatencyLog, "_columns", counted)
        controller._adjust()
        # The read log and the write log, once each.
        assert len(read) == len(set(read)) == (2 if groups else 0)


class TestBlkThrottleLargeBios:
    def test_bios_larger_than_burst_flow_at_limit(self):
        # 1 MiB bios under a 10 MB/s cap: the bucket must carry negative
        # tokens rather than deadlock on a bio bigger than its burst.
        controller = BlkThrottleController({"a": ThrottleLimits(wbps=10e6)})
        sim, layer, tree = build_layer(controller)
        group = tree.create("a")
        ClosedLoop(
            sim, layer, group, op=IOOp.WRITE, size=1 << 20, depth=4, stop_at=2.0
        ).start()
        sim.run(until=2.2)
        achieved_bps = group.stats.device(layer.dev).done_bytes / 2.0
        assert achieved_bps == pytest.approx(10e6, rel=0.15)
        assert layer.completed_ios > 10
