"""System-level invariant and property tests across the full stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.bio import Bio, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.controllers.noop import NoopController
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.qos import QoSParams
from repro.faults import ErrorBurst, FaultPlan
from repro.mm.memory import MemoryManager
from repro.sim import Simulator
from repro.workloads.synthetic import ClosedLoopWorkload

SPEC = DeviceSpec(
    name="invdev",
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
    read_lat_target=None, write_lat_target=None,
    vrate_min=1.0, vrate_max=1.0, period=0.025,
)


def make_stack(vrate=1.0):
    sim = Simulator()
    device = Device(sim, SPEC, np.random.default_rng(0))
    qos = QoSParams(
        read_lat_target=None, write_lat_target=None,
        vrate_min=vrate, vrate_max=vrate, period=0.025,
    )
    controller = IOCost(
        LinearCostModel(ModelParams.from_device_spec(SPEC)), qos=qos,
        initial_vrate=vrate,
    )
    layer = BlockLayer(sim, device, controller)
    return sim, layer, controller


class TestAccountingInvariants:
    def test_no_bios_lost(self):
        sim, layer, controller = make_stack()
        tree = CgroupTree()
        groups = [tree.create(f"g{i}", weight=50 * (i + 1)) for i in range(4)]
        for index, group in enumerate(groups):
            ClosedLoopWorkload(
                sim, layer, group, depth=8, stop_at=0.3, seed=index
            ).start()
        sim.run(until=0.5)
        controller.detach()
        queued = sum(len(s.waitq) for s in controller.tree.groups)
        assert layer.submitted_ios == layer.completed_ios + layer.inflight + queued
        assert layer.inflight == 0  # everything drained after stop

    def test_completed_counts_sum_per_cgroup(self):
        sim, layer, controller = make_stack()
        tree = CgroupTree()
        a = tree.create("a")
        b = tree.create("b")
        ClosedLoopWorkload(sim, layer, a, depth=4, stop_at=0.2, seed=1).start()
        ClosedLoopWorkload(sim, layer, b, depth=4, stop_at=0.2, seed=2).start()
        sim.run(until=0.4)
        controller.detach()
        assert layer.iops_of(a) > 0 and layer.iops_of(b) > 0
        assert sum(layer.iops_of(group) for group in tree) == layer.completed_ios

    def test_records_account_for_every_finished_bio_across_removals(self):
        """One home: the tree's records for a device sum to the layer's
        finished count (successes + terminal errors), removals included."""
        sim = Simulator()
        plan = FaultPlan([ErrorBurst(start=0.05, duration=0.02)], seed=0)
        device = Device(sim, SPEC, np.random.default_rng(0), faults=plan)
        layer = BlockLayer(sim, device, NoopController(), max_retries=0)
        tree = CgroupTree()
        paths = ("a", "a/b", "a/b/c", "d")
        for index, path in enumerate(paths):
            ClosedLoopWorkload(
                sim, layer, tree.create(path), depth=4, stop_at=0.2, seed=index
            ).start()
        sim.run(until=0.4)

        def finished():
            records = [group.stats.device(layer.dev) for group in tree]
            return sum(record.done_ios + record.errors for record in records)

        assert layer.errored_ios > 0 and layer.inflight == 0
        assert finished() == layer.completed_ios
        for path in ("a/b/c", "d", "a/b"):
            tree.remove(path)
            assert finished() == layer.completed_ios
        assert layer.iops_of(tree.lookup("a")) + layer.iops_of(tree.root) == (
            layer.completed_ios - layer.errored_ios
        )

    @given(vrate=st.floats(min_value=0.25, max_value=1.0))
    @settings(max_examples=10, deadline=None)
    def test_total_issue_bounded_by_vrate(self, vrate):
        """Total absolute cost issued never exceeds vtime generated."""
        sim, layer, controller = make_stack(vrate=vrate)
        tree = CgroupTree()
        group = tree.create("a")
        ClosedLoopWorkload(sim, layer, group, depth=32, stop_at=0.5, seed=1).start()
        sim.run(until=0.5)
        controller.detach()
        issued_cost = layer.completed_ios * (1 / SPEC.peak_rand_read_iops)
        generated = vrate * 0.5
        # Slack: budget cap allows one period of burst.
        assert issued_cost <= generated + controller.budget_cap + 0.01

    @given(
        w_high=st.integers(min_value=50, max_value=500),
        w_low=st.integers(min_value=50, max_value=500),
    )
    @settings(max_examples=8, deadline=None)
    def test_proportionality_follows_weights(self, w_high, w_low):
        sim, layer, controller = make_stack()
        tree = CgroupTree()
        high = tree.create("high", weight=w_high)
        low = tree.create("low", weight=w_low)
        ClosedLoopWorkload(sim, layer, high, depth=24, stop_at=0.5, seed=1).start()
        ClosedLoopWorkload(sim, layer, low, depth=24, stop_at=0.5, seed=2).start()
        sim.run(until=0.5)
        controller.detach()
        achieved = layer.iops_of(high) / max(1, layer.iops_of(low))
        assert achieved == pytest.approx(w_high / w_low, rel=0.2)


class TestMemoryInvariants:
    def test_memory_conserved_through_swap_cycles(self):
        sim, layer, controller = make_stack()
        mm = MemoryManager(sim, layer, total_bytes=64 << 20, swap_bytes=1 << 30)
        tree = CgroupTree()
        a = tree.create("a")
        b = tree.create("b")

        def churn():
            yield from mm.alloc(a, 50 << 20)
            yield from mm.alloc(b, 30 << 20)
            yield from mm.touch(a, 20 << 20)
            yield from mm.touch(b, 10 << 20)

        proc = sim.process(churn())
        while not proc.done:
            sim.step()
        controller.detach()
        assert mm.state_of(a).total == 50 << 20
        assert mm.state_of(b).total == 30 << 20
        assert mm.resident_total <= mm.total_bytes
        assert mm.swapped_total <= mm.swap_bytes

    def test_swap_io_flows_through_block_layer(self):
        sim, layer, controller = make_stack()
        mm = MemoryManager(sim, layer, total_bytes=32 << 20, swap_bytes=1 << 30)
        tree = CgroupTree()
        a = tree.create("a")
        b = tree.create("b")

        def churn():
            yield from mm.alloc(a, 30 << 20)
            yield from mm.alloc(b, 20 << 20)

        proc = sim.process(churn())
        while not proc.done:
            sim.step()
        controller.detach()
        swapped = mm.swapped_total
        assert swapped > 0
        # Every swapped byte crossed the device as a write.
        assert layer.completed_bytes >= swapped


class TestVTimeInvariants:
    def test_local_vtime_monotone_per_group(self):
        sim, layer, controller = make_stack()
        tree = CgroupTree()
        group = tree.create("a")
        state = controller.tree.state_of(group)
        observations = []

        def sample():
            observations.append(state.local_vtime)
            if sim.now < 0.3:
                sim.schedule(0.01, sample)

        ClosedLoopWorkload(sim, layer, group, depth=8, stop_at=0.3, seed=1).start()
        sim.schedule(0.01, sample)
        sim.run(until=0.35)
        controller.detach()
        # Local vtime only moves forward while the group stays active.
        deltas = [b - a for a, b in zip(observations, observations[1:])]
        assert all(delta >= -1e-12 for delta in deltas)
