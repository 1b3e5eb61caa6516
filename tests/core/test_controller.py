"""Integration tests for the IOCost controller on a simulated device."""

import numpy as np
import pytest

from repro.block.bio import Bio, BioFlags, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.debt import SwapChargeMode
from repro.core.qos import QoSParams
from repro.sim import Simulator

# A deterministic 40K-IOPS test device with identical rand/seq behaviour so
# the oracle cost model is exact.
TEST_SPEC = DeviceSpec(
    name="testdev",
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

FIXED_QOS = QoSParams(
    read_lat_target=None,
    write_lat_target=None,
    vrate_min=1.0,
    vrate_max=1.0,
    period=0.025,
)

PEAK_IOPS = TEST_SPEC.peak_rand_read_iops  # 40_000


def make_env(qos=FIXED_QOS, spec=TEST_SPEC, **iocost_kwargs):
    sim = Simulator()
    device = Device(sim, spec, np.random.default_rng(0))
    model = LinearCostModel(ModelParams.from_device_spec(spec))
    controller = IOCost(model, qos=qos, **iocost_kwargs)
    layer = BlockLayer(sim, device, controller)
    tree = CgroupTree()
    return sim, layer, controller, tree


class Saturator:
    """Closed-loop 4 KiB random-read generator for one cgroup."""

    def __init__(self, sim, layer, cgroup, depth=16, stop_at=None, seed=1):
        self.sim = sim
        self.layer = layer
        self.cgroup = cgroup
        self.depth = depth
        self.stop_at = stop_at
        self.rng = np.random.default_rng(seed)
        self.completed = 0

    def start(self):
        for _ in range(self.depth):
            self._issue()

    def _issue(self):
        sector = int(self.rng.integers(1, 1 << 28)) * 8
        bio = Bio(IOOp.READ, 4096, sector, self.cgroup)
        self.layer.submit(bio, on_done=self._done)

    def _done(self, bio):
        self.completed += 1
        if self.stop_at is None or self.sim.now < self.stop_at:
            self._issue()


class PacedIssuer:
    """Open-loop generator issuing at a fixed rate (possibly under-using)."""

    def __init__(self, sim, layer, cgroup, rate, stop_at, seed=2):
        self.sim = sim
        self.layer = layer
        self.cgroup = cgroup
        self.interval = 1.0 / rate
        self.stop_at = stop_at
        self.rng = np.random.default_rng(seed)
        self.completed = 0

    def start(self):
        self.sim.schedule(self.interval, self._tick)

    def _tick(self):
        if self.sim.now >= self.stop_at:
            return
        sector = int(self.rng.integers(1, 1 << 28)) * 8
        bio = Bio(IOOp.READ, 4096, sector, self.cgroup)
        self.layer.submit(bio)
        self.completed += 1
        self.sim.schedule(self.interval, self._tick)


class TestThroughputControl:
    def test_single_group_achieves_model_rate(self):
        sim, layer, controller, tree = make_env()
        group = tree.create("a")
        Saturator(sim, layer, group, stop_at=0.5).start()
        sim.run(until=0.6)
        achieved = layer.iops_of(group) / 0.5
        assert achieved == pytest.approx(PEAK_IOPS, rel=0.05)

    def test_equal_weights_split_evenly(self):
        sim, layer, controller, tree = make_env()
        a = tree.create("a", weight=100)
        b = tree.create("b", weight=100)
        Saturator(sim, layer, a, stop_at=0.5, seed=1).start()
        Saturator(sim, layer, b, stop_at=0.5, seed=2).start()
        sim.run(until=0.6)
        ratio = layer.iops_of(a) / layer.iops_of(b)
        assert ratio == pytest.approx(1.0, rel=0.1)

    def test_weighted_split_two_to_one(self):
        sim, layer, controller, tree = make_env()
        high = tree.create("high", weight=200)
        low = tree.create("low", weight=100)
        Saturator(sim, layer, high, stop_at=0.5, seed=1).start()
        Saturator(sim, layer, low, stop_at=0.5, seed=2).start()
        sim.run(until=0.6)
        ratio = layer.iops_of(high) / layer.iops_of(low)
        assert ratio == pytest.approx(2.0, rel=0.1)

    def test_hierarchical_split(self):
        sim, layer, controller, tree = make_env()
        # workload (500) vs system (100); inside workload, x:y = 3:1.
        x = tree.create("workload/x", weight=300)
        y = tree.create("workload/y", weight=100)
        tree.lookup("workload").weight = 500
        system = tree.create("system", weight=100)
        for seed, group in ((1, x), (2, y), (3, system)):
            Saturator(sim, layer, group, stop_at=0.5, seed=seed).start()
        sim.run(until=0.6)
        total = PEAK_IOPS * 0.5
        assert layer.iops_of(system) / total == pytest.approx(1 / 6, rel=0.15)
        assert layer.iops_of(x) / total == pytest.approx(5 / 6 * 3 / 4, rel=0.15)
        assert layer.iops_of(y) / total == pytest.approx(5 / 6 * 1 / 4, rel=0.15)


class TestWorkConservation:
    def test_idle_group_budget_flows_to_active(self):
        sim, layer, controller, tree = make_env()
        a = tree.create("a", weight=100)
        tree.create("b", weight=100)  # never issues IO
        Saturator(sim, layer, a, stop_at=0.5).start()
        sim.run(until=0.6)
        achieved = layer.iops_of(a) / 0.5
        assert achieved == pytest.approx(PEAK_IOPS, rel=0.05)

    def test_underusing_group_donates(self):
        sim, layer, controller, tree = make_env()
        busy = tree.create("busy", weight=100)
        light = tree.create("light", weight=100)
        Saturator(sim, layer, busy, stop_at=1.0).start()
        PacedIssuer(sim, layer, light, rate=1000, stop_at=1.0).start()
        sim.run(until=1.1)
        # Without donation busy would be capped at 50% = 20K IOPS; with
        # donation it should recover nearly all of the unused capacity.
        busy_rate = layer.iops_of(busy) / 1.0
        assert busy_rate > 0.85 * (PEAK_IOPS - 1000)
        assert controller.donation_passes > 0

    def test_deactivation_restores_full_share(self):
        sim, layer, controller, tree = make_env()
        a = tree.create("a", weight=100)
        b = tree.create("b", weight=100)
        # b saturates only the first 100ms, then goes silent.
        Saturator(sim, layer, a, stop_at=1.0, seed=1).start()
        Saturator(sim, layer, b, stop_at=0.1, seed=2).start()
        sim.run(until=1.1)
        snap = layer.iops_of(a)
        # After b idles out (one full period), a should be back at peak.
        Saturator(sim, layer, a, stop_at=1.6, seed=3).start()
        sim.run(until=1.6)
        state_b = controller.tree.lookup(b)
        assert not state_b.active
        a_rate = (layer.iops_of(a) - snap) / 0.5
        assert a_rate == pytest.approx(PEAK_IOPS, rel=0.1)

    def test_donor_rescinds_when_demand_returns(self):
        sim, layer, controller, tree = make_env()
        busy = tree.create("busy", weight=100)
        bursty = tree.create("bursty", weight=100)
        Saturator(sim, layer, busy, stop_at=1.0, seed=1).start()
        # Trickle so bursty is a donor, then burst mid-period.
        PacedIssuer(sim, layer, bursty, rate=500, stop_at=0.4, seed=2).start()

        def burst():
            Saturator(sim, layer, bursty, stop_at=1.0, seed=3).start()

        sim.schedule(0.4 + 0.01, burst)  # mid-period (period = 25ms)
        sim.run(until=1.1)
        assert controller.rescinds > 0
        # After the burst starts, bursty should converge back towards half.
        snap_ratio = layer.iops_of(bursty) / layer.iops_of(busy)
        assert snap_ratio > 0.25


class TestUrgentAndDebt:
    def test_swap_bio_bypasses_budget(self):
        sim, layer, controller, tree = make_env()
        group = tree.create("leaker")
        # Exhaust the group's budget with a huge prior charge.
        state = controller.tree.state_of(group)
        controller.tree.activate(state)
        state.local_vtime = controller.clock.now() + 10.0
        bio = Bio(IOOp.WRITE, 4096, 0, group, flags=BioFlags.SWAP)
        done = []
        layer.submit(bio, on_done=done.append)
        sim.run(until=0.01)
        assert done  # dispatched immediately despite zero budget

    def test_swap_debt_throttles_future_io(self):
        sim, layer, controller, tree = make_env()
        group = tree.create("leaker")
        other = tree.create("other")
        Saturator(sim, layer, other, stop_at=0.3, seed=5).start()
        # 200 swap-out pages: owner accumulates debt.
        for index in range(200):
            layer.submit(Bio(IOOp.WRITE, 4096, index * 8, group, flags=BioFlags.SWAP))
        state = controller.tree.lookup(group)
        assert controller.debt.debt_vtime(state) > 0
        # A normal read from the leaker now waits behind the debt.
        normal_done = []
        layer.submit(Bio(IOOp.READ, 4096, 99999, group), on_done=normal_done.append)
        debt_wall = controller.debt.debt_walltime(state)
        sim.run(until=debt_wall / 2)
        assert not normal_done
        sim.run(until=debt_wall * 1.5)
        assert normal_done

    def test_root_charge_mode_creates_no_debt(self):
        sim, layer, controller, tree = make_env(swap_mode=SwapChargeMode.ROOT)
        group = tree.create("leaker")
        for index in range(200):
            layer.submit(Bio(IOOp.WRITE, 4096, index * 8, group, flags=BioFlags.SWAP))
        state = controller.tree.lookup(group)
        assert controller.debt.debt_vtime(state) == 0.0

    def test_origin_throttle_mode_queues_swap_io(self):
        sim, layer, controller, tree = make_env(swap_mode=SwapChargeMode.ORIGIN_THROTTLE)
        group = tree.create("leaker")
        state = controller.tree.state_of(group)
        controller.tree.activate(state)
        state.local_vtime = controller.clock.now() + 1.0  # deep in debt
        done = []
        bio = Bio(IOOp.WRITE, 4096, 0, group, flags=BioFlags.SWAP)
        layer.submit(bio, on_done=done.append)
        sim.run(until=0.05)
        assert not done  # throttled like normal IO: the priority inversion

    def test_userspace_delay_reflects_debt(self):
        sim, layer, controller, tree = make_env()
        group = tree.create("leaker")
        assert controller.userspace_delay(group) == 0.0
        for index in range(500):
            layer.submit(Bio(IOOp.WRITE, 4096, index * 8, group, flags=BioFlags.SWAP))
        assert controller.userspace_delay(group) > 0.0


class TestConfiguration:
    def test_set_weight_immediate(self):
        sim, layer, controller, tree = make_env()
        a = tree.create("a", weight=100)
        b = tree.create("b", weight=100)
        sa = controller.tree.state_of(a)
        sb = controller.tree.state_of(b)
        controller.tree.activate(sa)
        controller.tree.activate(sb)
        assert controller.stat(a)["hweight"] == pytest.approx(0.5)
        controller.set_weight(a, 300)
        assert controller.stat(a)["hweight"] == pytest.approx(0.75)

    def test_detach_cancels_timers(self):
        sim, layer, controller, tree = make_env()
        controller.detach()
        sim.run(until=1.0)  # no planning ticks should fire
        assert len(controller.vrate_ctl.vrate_series) == 0

    def test_vrate_rises_when_model_pessimistic(self):
        # Model claims half the real capability; with QoS latency targets
        # set, vrate should climb towards ~2x (Figure 13 mechanics).
        sim = Simulator()
        device = Device(sim, TEST_SPEC, np.random.default_rng(0))
        pessimistic = ModelParams.from_device_spec(TEST_SPEC).scaled(0.5)
        qos = QoSParams(
            read_lat_target=1e-3,
            read_pct=90,
            vrate_min=0.25,
            vrate_max=4.0,
            period=0.025,
        )
        controller = IOCost(LinearCostModel(pessimistic), qos=qos)
        layer = BlockLayer(sim, device, controller)
        tree = CgroupTree()
        group = tree.create("a")
        Saturator(sim, layer, group, stop_at=3.0).start()
        sim.run(until=3.0)
        assert controller.vrate > 1.5
        achieved = layer.iops_of(group) / 3.0
        assert achieved > 0.7 * PEAK_IOPS


class TestOversizedIOs:
    def test_large_bios_at_small_hweight_progress_at_fair_rate(self):
        # A 1 MiB write at a small hweight has a relative cost far above
        # the budget cap; it must still flow at the group's fair byte rate
        # instead of stalling forever.
        sim, layer, controller, tree = make_env()
        small = tree.create("small", weight=25)
        big = tree.create("big", weight=475)
        Saturator(sim, layer, big, stop_at=2.0, seed=1).start()

        outstanding = {"n": 0}

        def issue(_value=None):
            if sim.now >= 2.0:
                return
            outstanding["n"] += 1
            bio = Bio(IOOp.WRITE, 1 << 20, 8 * outstanding["n"] * 4096, small)
            layer.submit(bio, on_done=done)

        def done(_bio):
            issue()

        issue()
        sim.run(until=2.0)
        # Fair share: 5% of 1 GB/s write bandwidth = ~50 MB/s => ~100 MiB
        # in 2s => ~100 bios of 1 MiB.
        completed = layer.iops_of(small)
        assert completed > 50  # far from stalled
        # And it must not exceed ~2x its fair share either.
        assert completed < 250


class TestDonorWedgeRegression:
    def test_bursting_donor_never_wedges_on_donated_weight(self):
        # Regression: a group donated down to a tiny effective weight used
        # to be able to issue a bio at an astronomically inflated relative
        # cost (if its banked budget covered the cap), wedging it with
        # hours of negative budget.  It must rescind first and keep
        # flowing at its fair rate.
        sim, layer, controller, tree = make_env()
        busy = tree.create("busy", weight=100)
        quiet = tree.create("quiet", weight=100)
        Saturator(sim, layer, busy, stop_at=3.0, seed=1).start()
        # quiet trickles (becomes a deep donor), then bursts periodically.
        PacedIssuer(sim, layer, quiet, rate=50, stop_at=3.0, seed=2).start()

        def burst():
            for index in range(64):
                bio = Bio(IOOp.READ, 65536, (index + 1) * 8192, quiet)
                layer.submit(bio)

        for at in (0.4, 1.2, 2.0):
            sim.schedule(at, burst)
        sim.run(until=3.0)
        state = controller.tree.lookup(quiet)
        # Budget deficit is bounded (no runaway vtime), and the bursts
        # actually completed.
        deficit = state.local_vtime - controller.clock.now()
        assert deficit < 1.0
        assert layer.iops_of(quiet) > 150
