"""Edge-case tests for the IOCost controller."""

import numpy as np
import pytest

from repro.block.bio import Bio, BioFlags, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.qos import QoSParams
from repro.sim import Simulator

SPEC = DeviceSpec(
    name="edge",
    parallelism=2,
    srv_rand_read=100e-6,
    srv_seq_read=100e-6,
    srv_rand_write=100e-6,
    srv_seq_write=100e-6,
    read_bw=1e9,
    write_bw=1e9,
    sigma=0.0,
    nr_slots=8,
)

FIXED = QoSParams(
    read_lat_target=None, write_lat_target=None,
    vrate_min=1.0, vrate_max=1.0, period=0.02,
)


def make_env(**kwargs):
    sim = Simulator()
    device = Device(sim, SPEC, np.random.default_rng(0))
    controller = IOCost(
        LinearCostModel(ModelParams.from_device_spec(SPEC)),
        qos=kwargs.pop("qos", FIXED), **kwargs,
    )
    layer = BlockLayer(sim, device, controller)
    return sim, layer, controller, CgroupTree()


def test_weight_change_applies_mid_stream():
    sim, layer, controller, tree = make_env()
    a = tree.create("a", weight=100)
    b = tree.create("b", weight=100)

    def closed_loop(group, seed):
        rng = np.random.default_rng(seed)

        def issue(_v=None):
            if sim.now < 1.0:
                sector = int(rng.integers(1, 1 << 20)) * 8
                layer.submit(Bio(IOOp.READ, 4096, sector, group), on_done=issue)

        for _ in range(8):
            issue()

    closed_loop(a, 1)
    closed_loop(b, 2)
    sim.run(until=0.5)
    a_before, b_before = layer.iops_of(a), layer.iops_of(b)
    controller.set_weight(a, 300)
    sim.run(until=1.0)
    controller.detach()
    a_done = layer.iops_of(a) - a_before
    b_done = layer.iops_of(b) - b_before
    assert a_done / b_done == pytest.approx(3.0, rel=0.15)


def test_urgent_bios_respect_request_slots():
    # Swap bios bypass budget but not the device's request slots.
    sim, layer, controller, tree = make_env()
    group = tree.create("g")
    for index in range(20):
        layer.submit(
            Bio(IOOp.WRITE, 4096, index * 8, group, flags=BioFlags.SWAP)
        )
    assert layer.inflight <= SPEC.nr_slots
    sim.run(until=0.1)
    controller.detach()
    assert layer.completed_ios == 20


def test_zero_weight_never_configured_but_min_weight_works():
    sim, layer, controller, tree = make_env()
    tiny = tree.create("tiny", weight=1)
    big = tree.create("big", weight=10000)
    done = []
    layer.submit(Bio(IOOp.READ, 4096, 8, tiny), on_done=done.append)
    sim.run(until=0.5)
    controller.detach()
    assert done  # even a 1-weight group makes progress


def test_detach_then_no_more_planning():
    sim, layer, controller, tree = make_env()
    group = tree.create("g")
    layer.submit(Bio(IOOp.READ, 4096, 8, group))
    sim.run(until=0.05)
    ticks = len(controller.vrate_ctl.vrate_series)
    controller.detach()
    sim.run(until=1.0)
    assert len(controller.vrate_ctl.vrate_series) == ticks


def test_inactive_group_keeps_no_stale_wake_timer():
    sim, layer, controller, tree = make_env()
    group = tree.create("g")
    # Saturate briefly so a wake timer gets armed, then stop.
    for index in range(30):
        layer.submit(Bio(IOOp.READ, 4096, index * 8, group))
    sim.run(until=2.0)
    controller.detach()
    state = controller.tree.lookup(group)
    assert not state.waitq
    assert layer.completed_ios == 30


def test_pump_visits_backlogged_groups_in_creation_order():
    # Arrival order must not leak into issue order: the walk over
    # ``groups`` is what keeps trajectories independent of who queued first.
    sim, layer, controller, tree = make_env()
    groups = [tree.create(name) for name in "abc"]
    for group in groups:
        controller.tree.state_of(group)  # states exist in creation order
    # A newly active group has no budget, so each bio is held; equal
    # weights and costs mean one pump later finds budget for all three.
    bios = [Bio(IOOp.READ, 4096, 8 * index, group) for index, group in enumerate(groups)]
    for bio in reversed(bios):
        layer.submit(bio)
    assert controller._queued == 3 and layer.inflight == 0
    sim.run(until=0.01)
    controller.detach()
    # Dispatches pay the issue-path CPU one after another, so issue times
    # are strictly ordered by dispatch order.
    assert sorted(bios, key=lambda bio: bio.issue_time) == bios
    assert len({bio.issue_time for bio in bios}) == 3
    assert bios[2].issue_time - bios[0].issue_time < 1e-5  # one pump, not three
    assert controller._queued == 0


def test_sequential_cost_discount_applies():
    # A cgroup streaming sequentially is charged the (cheaper) sequential
    # cost, so it completes more IO than a random peer at equal weight on
    # a device where sequential is faster.
    spec = DeviceSpec(
        name="seqdev",
        parallelism=2,
        srv_rand_read=200e-6,
        srv_seq_read=50e-6,
        srv_rand_write=200e-6,
        srv_seq_write=50e-6,
        read_bw=1e9,
        write_bw=1e9,
        sigma=0.0,
        nr_slots=64,
    )
    sim = Simulator()
    device = Device(sim, spec, np.random.default_rng(0))
    # vrate pinned below the physical capacity of the *interleaved* mix
    # (the random stream's detours break some of the sequential run), so
    # the budgets — and with them the cost-model discount — actually bind.
    qos = QoSParams(
        read_lat_target=None, write_lat_target=None,
        vrate_min=0.5, vrate_max=0.5, period=0.02,
    )
    controller = IOCost(
        LinearCostModel(ModelParams.from_device_spec(spec)), qos=qos
    )
    layer = BlockLayer(sim, device, controller)
    tree = CgroupTree()
    seq = tree.create("seq", weight=100)
    rand = tree.create("rand", weight=100)

    from repro.workloads.synthetic import ClosedLoopWorkload

    wl_seq = ClosedLoopWorkload(
        sim, layer, seq, depth=16, sequential=True, stop_at=0.5, seed=1
    ).start()
    wl_rand = ClosedLoopWorkload(
        sim, layer, rand, depth=16, sequential=False, stop_at=0.5, seed=2
    ).start()
    sim.run(until=0.5)
    controller.detach()
    # Equal *occupancy*: the sequential group completes ~4x the IOs
    # (cost ratio 200us:50us).
    assert wl_seq.completed / wl_rand.completed == pytest.approx(4.0, rel=0.25)


class TestStatIntrospection:
    def test_stat_for_unknown_cgroup(self):
        sim, layer, controller, tree = make_env()
        group = tree.create("ghost", weight=42)
        stat = controller.stat(group)
        assert stat["active"] is False
        assert stat["weight"] == 42
        assert stat["hweight"] == 0.0
        assert stat["queued"] == 0

    def test_stat_reflects_live_state(self):
        sim, layer, controller, tree = make_env()
        a = tree.create("a", weight=200)
        b = tree.create("b", weight=100)
        for index in range(40):
            layer.submit(Bio(IOOp.READ, 4096, index * 8, a))
        for index in range(40):
            layer.submit(Bio(IOOp.READ, 4096, 100000 + index * 8, b))
        sim.run(until=0.01)
        stat_a = controller.stat(a)
        assert stat_a["active"] is True
        assert stat_a["hweight"] == pytest.approx(2 / 3, rel=0.01)
        assert stat_a["weight_eff"] == 200.0
        sim.run(until=0.2)
        controller.detach()

    def test_stat_shows_debt(self):
        sim, layer, controller, tree = make_env()
        leaker = tree.create("leaker", weight=25)
        other = tree.create("other", weight=500)
        for index in range(8):
            layer.submit(Bio(IOOp.READ, 4096, 5000 + index * 8, other))
        for index in range(100):
            layer.submit(
                Bio(IOOp.WRITE, 4096, index * 8, leaker, flags=BioFlags.SWAP)
            )
        stat = controller.stat(leaker)
        assert stat["debt_walltime"] > 0
        assert stat["budget"] < 0
        sim.run(until=0.2)
        controller.detach()
