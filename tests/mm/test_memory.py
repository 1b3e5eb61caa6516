"""Tests for the memory-management substrate."""

import numpy as np
import pytest

from repro.block.bio import BioFlags
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.controllers.iolatency import IOLatencyController
from repro.controllers.noop import NoopController
from repro.controllers.stacked import StackedController
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.debt import SwapChargeMode
from repro.core.qos import QoSParams
from repro.mm.memory import MemoryManager, MemoryPressureError
from repro.sim import Simulator
from repro.testbed import make_controller

MB = 1024 * 1024

SPEC = DeviceSpec(
    name="mmdev",
    parallelism=4,
    srv_rand_read=100e-6,
    srv_seq_read=100e-6,
    srv_rand_write=100e-6,
    srv_seq_write=100e-6,
    read_bw=500e6,
    write_bw=500e6,
    sigma=0.0,
    nr_slots=64,
)


def make_env(controller=None, total=64 * MB, swap=256 * MB, protected=None):
    sim = Simulator()
    device = Device(sim, SPEC, np.random.default_rng(0))
    controller = controller or NoopController()
    layer = BlockLayer(sim, device, controller)
    mm = MemoryManager(sim, layer, total_bytes=total, swap_bytes=swap, protected=protected)
    tree = CgroupTree()
    return sim, layer, mm, tree


def run_op(sim, gen):
    """Run the simulator until the operation's process completes.

    Stepping (rather than draining the heap) matters: controllers with
    periodic timers reschedule themselves forever.
    """
    proc = sim.process(gen)
    while not proc.done:
        if not sim.step():
            raise AssertionError("simulation drained before operation finished")
    return proc


class TestAccounting:
    def test_alloc_within_memory_is_instant(self):
        sim, layer, mm, tree = make_env()
        group = tree.create("a")
        run_op(sim, mm.alloc(group, 10 * MB))
        assert mm.state_of(group).resident == 10 * MB
        assert sim.now == 0.0  # no reclaim, no IO
        assert mm.free_bytes == 54 * MB

    def test_free_releases(self):
        sim, layer, mm, tree = make_env()
        group = tree.create("a")
        run_op(sim, mm.alloc(group, 10 * MB))
        mm.free(group, 4 * MB)
        assert mm.state_of(group).resident == 6 * MB
        mm.free(group)
        assert mm.state_of(group).total == 0

    def test_negative_alloc_rejected(self):
        sim, layer, mm, tree = make_env()
        group = tree.create("a")
        with pytest.raises(ValueError):
            run_op(sim, mm.alloc(group, -1))


class TestReclaim:
    def test_overcommit_swaps_out_mostly_the_big_owner(self):
        sim, layer, mm, tree = make_env(total=64 * MB)
        leaker = tree.create("leaker")
        victim_free = tree.create("app")
        run_op(sim, mm.alloc(leaker, 60 * MB))
        run_op(sim, mm.alloc(victim_free, 10 * MB))  # forces reclaim
        # Victims are sampled proportionally to resident size, so the big
        # owner absorbs the bulk of the eviction.
        assert mm.state_of(leaker).swapped >= 5 * MB
        assert mm.state_of(leaker).swapped > mm.state_of(victim_free).swapped
        assert mm.resident_total <= 64 * MB

    # Non-MM-aware controllers see reclaim writeback in the root cgroup —
    # the Table 1 isolation failure; MM-aware ones charge the pages' owner.
    @pytest.mark.parametrize("name,owner_pays", [
        ("none", False),
        ("mq-deadline", False),
        ("kyber", False),
        ("blk-throttle", False),
        ("bfq", False),
        ("iolatency", True),
        ("iocost", True),
        ("iocost+mq-deadline", True),  # a stack asks its gate
        ("blk-throttle+mq-deadline", False),
    ])
    def test_swap_out_payer_under_every_controller(self, name, owner_pays):
        gate, _, scheduler = name.partition("+")
        controller = make_controller(gate, SPEC)
        if scheduler:
            controller = StackedController(controller, make_controller(scheduler, SPEC))
        sim, layer, mm, tree = make_env(controller)
        leaker = tree.create("leaker")
        app = tree.create("app")
        run_op(sim, mm.alloc(leaker, 60 * MB))
        run_op(sim, mm.alloc(app, 10 * MB))
        controller.detach()
        leaker_out = mm.state_of(leaker).swapped_out_total
        assert leaker_out > 0
        payer, bystander = (leaker, tree.root) if owner_pays else (tree.root, leaker)
        assert payer.stats.device(layer.dev).wbytes >= leaker_out
        assert bystander.stats.device(layer.dev).wbytes == 0

    def test_allocator_waits_for_swap_io(self):
        sim, layer, mm, tree = make_env(total=64 * MB)
        leaker = tree.create("leaker")
        app = tree.create("app")
        run_op(sim, mm.alloc(leaker, 60 * MB))
        start = sim.now
        run_op(sim, mm.alloc(app, 10 * MB))
        assert sim.now > start  # blocked on swap-out writes

    def test_protected_cgroup_not_reclaimed(self):
        sim, layer, mm, tree = make_env(
            total=64 * MB, protected={"prot": 30 * MB}
        )
        prot = tree.create("prot")
        other = tree.create("other")
        run_op(sim, mm.alloc(prot, 30 * MB))
        run_op(sim, mm.alloc(other, 20 * MB))
        run_op(sim, mm.alloc(other, 30 * MB))  # overcommit: other must self-swap
        assert mm.state_of(prot).swapped == 0
        assert mm.state_of(other).swapped > 0


class TestRestartAtTheSamePath:
    """State is keyed by the cgroup, not its path (like ``bio.blkg.pd``)."""

    PATH = "workload.slice/a"

    def restarted(self):
        # MM-aware, so swap-out writes are charged to the pages' owner.
        sim, layer, mm, tree = make_env(IOLatencyController(), total=64 * MB)
        dead = tree.create(self.PATH)
        run_op(sim, mm.alloc(dead, 48 * MB))
        tree.remove(self.PATH)
        return sim, layer, mm, dead, tree.create(self.PATH)

    def test_fresh_cgroup_starts_at_zero(self):
        sim, layer, mm, dead, live = self.restarted()
        assert mm.state_of(live).total == 0
        # The dead cgroup's pages stay charged to it until reclaimed or freed.
        assert mm.state_of(dead).resident == mm.resident_total == 48 * MB

    def test_reclaim_io_lands_on_the_record_of_the_pages_owner(self):
        sim, layer, mm, dead, live = self.restarted()
        run_op(sim, mm.alloc(live, 48 * MB))  # 96 MB wanted of 64: reclaims both
        sim.run(until=sim.now + 0.1)  # kswapd's last batch completes
        for owner in (dead, live):
            swapped_out = mm.state_of(owner).swapped_out_total
            assert swapped_out > 0
            assert owner.stats.device(layer.dev).wbytes == swapped_out
        assert mm.state_of(live).total == 48 * MB


class TestFaulting:
    def test_touch_resident_memory_is_free(self):
        sim, layer, mm, tree = make_env()
        group = tree.create("a")
        run_op(sim, mm.alloc(group, 10 * MB))
        before = sim.now
        run_op(sim, mm.touch(group, 10 * MB))
        assert sim.now == before
        assert group.stats.device(layer.dev).rbytes == 0

    def test_touch_swapped_memory_faults(self):
        sim, layer, mm, tree = make_env(total=64 * MB)
        group = tree.create("a")
        hog = tree.create("hog")
        run_op(sim, mm.alloc(group, 40 * MB))
        run_op(sim, mm.alloc(hog, 50 * MB))  # pushes `group` partially out
        swapped = mm.state_of(group).swapped
        assert swapped > 0
        run_op(sim, mm.touch(group, 20 * MB))
        state = mm.state_of(group)
        assert state.faulted_in_total > 0
        assert group.stats.device(layer.dev).rbytes > 0  # swap-in reads charged to faulter

    def test_fault_fraction_tracks_swapped_share(self):
        sim, layer, mm, tree = make_env(total=64 * MB)
        group = tree.create("a")
        hog = tree.create("hog")
        run_op(sim, mm.alloc(group, 40 * MB))
        run_op(sim, mm.alloc(hog, 44 * MB))
        state = mm.state_of(group)
        frac = state.swapped_fraction
        run_op(sim, mm.touch(group, 10 * MB))
        expected = int(10 * MB * frac)
        assert state.faulted_in_total == pytest.approx(expected, rel=0.05)


class TestOOM:
    def test_swap_exhaustion_triggers_oom(self):
        sim, layer, mm, tree = make_env(total=32 * MB, swap=16 * MB)
        leaker = tree.create("leaker")
        app = tree.create("app")
        killed = []
        mm.on_oom(leaker, lambda: killed.append("leaker"))
        run_op(sim, mm.alloc(leaker, 30 * MB))
        # app needs 20MB; swap can only hold 16MB => OOM kill of the leaker.
        run_op(sim, mm.alloc(app, 20 * MB))
        assert killed == ["leaker"]
        assert mm.oom_kills[0].cgroup_path == "leaker"
        assert mm.state_of(leaker).total == 0
        # The app got all 20 MB (some of it may itself have been swapped
        # during the contended allocation).
        assert mm.state_of(app).total == 20 * MB
        assert mm.state_of(app).resident > 0

    def test_oversized_allocation_gets_self_oom_killed(self):
        # With no swap, allocating 2x machine memory ends with the OOM
        # killer taking out the allocator itself; the allocation aborts.
        sim, layer, mm, tree = make_env(total=8 * MB, swap=0)
        group = tree.create("a")
        killed = []
        mm.on_oom(group, lambda: killed.append("a"))
        run_op(sim, mm.alloc(group, 16 * MB))
        assert killed == ["a"]
        assert mm.state_of(group).resident < 16 * MB

    def test_allocation_with_no_consumers_raises(self):
        sim, layer, mm, tree = make_env(total=0, swap=0)
        group = tree.create("a")
        proc = sim.process(mm.alloc(group, 1 * MB))
        with pytest.raises(MemoryPressureError):
            while not proc.done:
                sim.step()


class TestDebtIntegration:
    def make_iocost_env(self, swap_mode):
        sim = Simulator()
        device = Device(sim, SPEC, np.random.default_rng(0))
        controller = IOCost(
            LinearCostModel(ModelParams.from_device_spec(SPEC)),
            qos=QoSParams(
                read_lat_target=None,
                write_lat_target=None,
                vrate_min=1.0,
                vrate_max=1.0,
                period=0.025,
            ),
            swap_mode=swap_mode,
        )
        layer = BlockLayer(sim, device, controller)
        mm = MemoryManager(sim, layer, total_bytes=64 * MB, swap_bytes=1024 * MB)
        tree = CgroupTree()
        return sim, layer, controller, mm, tree

    def test_debt_accrues_to_owner_when_others_allocate(self):
        # The paper's scenario: an innocent app's allocations push the
        # leaker's pages to swap.  The swap writes are charged to the
        # *leaker* as debt, and the leaker's next userspace boundary blocks.
        sim, layer, controller, mm, tree = self.make_iocost_env(SwapChargeMode.DEBT)
        # Like the paper's Figure 1 hierarchy, the leaker lives in a
        # low-weight slice: its tiny hweight makes swap IO far more
        # expensive in budget than the wall time it takes, so debt builds.
        leaker = tree.create("leaker", weight=25)
        app = tree.create("app", weight=500)
        run_op(sim, mm.alloc(leaker, 60 * MB))

        # The app also reads heavily, so the device is contended.
        from repro.block.bio import IOOp
        from tests.controllers.conftest import ClosedLoop

        ClosedLoop(sim, layer, app, op=IOOp.READ, depth=16, stop_at=10.0).start()

        def app_alloc_loop():
            for _ in range(80):
                yield from mm.alloc(app, 1 * MB)
            # App frees so the next round reclaims the leaker again.
            mm.free(app, 80 * MB)
            for _ in range(80):
                yield from mm.alloc(app, 1 * MB)

        run_op(sim, app_alloc_loop())
        state = controller.tree.lookup(leaker)
        assert controller.debt.debt_walltime(state) > 0

        # A return-to-userspace boundary with no IO of its own (touching
        # resident memory) is blocked by the outstanding debt.
        def leaker_boundary():
            yield from mm.touch(leaker, 0)

        blocks_before = controller.debt.userspace_blocks
        start = sim.now
        run_op(sim, leaker_boundary())
        assert controller.debt.userspace_blocks > blocks_before
        assert sim.now > start  # the thread actually slept

    def test_self_reclaim_pays_debt_by_waiting(self):
        # A group that both owns the memory and drives the allocation waits
        # for its own swap writes, so global vtime keeps pace: no residual
        # debt builds up and its userspace boundary is never blocked.
        sim, layer, controller, mm, tree = self.make_iocost_env(SwapChargeMode.DEBT)
        leaker = tree.create("leaker")
        run_op(sim, mm.alloc(leaker, 60 * MB))

        def leak_loop():
            for _ in range(100):
                yield from mm.alloc(leaker, 1 * MB)

        run_op(sim, leak_loop())
        assert controller.debt_charged > 0
        state = controller.tree.lookup(leaker)
        assert controller.debt.debt_walltime(state) < 0.01

    def test_root_mode_never_blocks_leaker(self):
        sim, layer, controller, mm, tree = self.make_iocost_env(SwapChargeMode.ROOT)
        leaker = tree.create("leaker")
        run_op(sim, mm.alloc(leaker, 60 * MB))

        def leak_loop():
            for _ in range(100):
                yield from mm.alloc(leaker, 1 * MB)

        run_op(sim, leak_loop())
        assert controller.debt.userspace_blocks == 0

    def test_debt_mode_faster_for_innocent_allocator_than_origin_throttle(self):
        durations = {}
        for mode in (SwapChargeMode.DEBT, SwapChargeMode.ORIGIN_THROTTLE):
            sim, layer, controller, mm, tree = self.make_iocost_env(mode)
            # Low-weight leaker: its budget drains slowly, so origin-side
            # throttling of its swap-outs visibly blocks the innocent app.
            leaker = tree.create("leaker", weight=25)
            app = tree.create("app", weight=500)
            run_op(sim, mm.alloc(leaker, 60 * MB))
            # Saturate the leaker's budget with its own writes first so its
            # queue is backlogged when the swap-out lands in it.
            from tests.controllers.conftest import ClosedLoop
            from repro.block.bio import IOOp

            ClosedLoop(sim, layer, leaker, op=IOOp.WRITE, depth=64, stop_at=5.0).start()
            ClosedLoop(sim, layer, app, op=IOOp.READ, depth=16, stop_at=5.0).start()
            sim.run(until=0.2)
            start = sim.now
            run_op(sim, mm.alloc(app, 20 * MB))
            durations[mode] = sim.now - start
        assert durations[SwapChargeMode.DEBT] < 0.5 * durations[SwapChargeMode.ORIGIN_THROTTLE]


class TestMemoryLimits:
    def test_limit_triggers_local_reclaim(self):
        sim, layer, mm, tree = make_env(total=256 * MB)
        group = tree.create("capped")
        mm.limits["capped"] = 32 * MB
        run_op(sim, mm.alloc(group, 64 * MB))
        state = mm.state_of(group)
        # Total charged is 64MB but resident stays near the limit.
        assert state.total == 64 * MB
        assert state.resident <= 32 * MB + 4 * 64 * 1024
        assert state.swapped >= 30 * MB

    def test_limit_generates_swap_io_despite_free_memory(self):
        # The §5 lesson: memory limits alone *create* reclaim IO — machine
        # memory is plentiful, yet the capped group churns swap.
        sim, layer, mm, tree = make_env(total=1024 * MB)
        group = tree.create("capped")
        mm.limits["capped"] = 16 * MB
        run_op(sim, mm.alloc(group, 48 * MB))
        assert mm.free_bytes > 900 * MB
        # Local-reclaim swap writes hit the device (charged to the reclaim
        # context under this non-MM-aware controller).
        assert mm.state_of(group).swapped_out_total >= 30 * MB
        assert layer.completed_bytes >= 30 * MB

    def test_uncapped_group_unaffected(self):
        sim, layer, mm, tree = make_env(total=256 * MB)
        capped = tree.create("capped")
        free_group = tree.create("free")
        mm.limits["capped"] = 16 * MB
        run_op(sim, mm.alloc(free_group, 64 * MB))
        assert mm.state_of(free_group).swapped == 0
