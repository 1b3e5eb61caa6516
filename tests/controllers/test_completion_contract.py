"""The completion contract: one controller call per completion.

``BlockLayer._finish`` makes one call, ``controller.on_complete(bio)``, and
that call ends with whatever pump the policy needs (``IOController``'s
default pumps; IOCost pumps only when bios are queued).  Nothing else pumps
at a completion, so a mechanism whose ``on_complete`` forgot its pump would
leave a freed request slot, or a freed scheduler depth, empty until some
unrelated timer fired.  Each rig here submits a batch larger than the
binding limit with no completion callback, so the completion's own pump is
the only thing that can refill the limit.
"""

import numpy as np
import pytest

from repro.block.bio import Bio, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.controllers import (
    BFQController,
    BlkThrottleController,
    IOLatencyController,
    KyberController,
    MQDeadlineController,
    NoopController,
    StackedController,
)
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.qos import QoSParams
from repro.obs.prof import PROF
from repro.sim import Simulator

#: One channel, so completions come one at a time, 100 us apart.
SPEC = DeviceSpec(
    name="serial",
    parallelism=1,
    srv_rand_read=100e-6,
    srv_seq_read=100e-6,
    srv_rand_write=100e-6,
    srv_seq_write=100e-6,
    read_bw=1e9,
    write_bw=1e9,
    sigma=0.0,
    nr_slots=8,
)
#: Budget at twice the device's rate: IOCost's bios wait for slots, not budget.
FIXED = QoSParams(
    read_lat_target=None, write_lat_target=None,
    vrate_min=2.0, vrate_max=2.0, period=0.025,
)
#: The batch goes in once the warm-up bio is done and IOCost has banked
#: budget for all of it.
BATCH_AT = 0.01
BATCH = 24


def _iocost():
    return IOCost(LinearCostModel(ModelParams.from_device_spec(SPEC)), qos=FIXED)


MECHANISMS = {
    "none": NoopController,
    "mq-deadline": MQDeadlineController,
    "kyber": KyberController,
    "blk-throttle": BlkThrottleController,
    "bfq": BFQController,
    "iolatency": IOLatencyController,
    "iocost": _iocost,
    "iocost+mq-deadline": lambda: StackedController(_iocost(), MQDeadlineController()),
    "blk-throttle+kyber": lambda: StackedController(BlkThrottleController(), KyberController()),
}


def _rig(controller, spec=SPEC):
    sim = Simulator()
    layer = BlockLayer(sim, Device(sim, spec, np.random.default_rng(0)), controller)
    cgroup = CgroupTree().create("workload.slice/a")
    return sim, layer, cgroup


def _submit(layer, cgroup, op, count, first_sector=0):
    for index in range(count):
        layer.submit(Bio(op, 4096, first_sector + 8 * index, cgroup))


@pytest.mark.parametrize("op", (IOOp.READ, IOOp.WRITE), ids=("reads", "writes"))
@pytest.mark.parametrize("name", MECHANISMS)
def test_a_completion_refills_the_limit_it_frees_at_once(name, op):
    """Reads are held by the request slots; kyber holds writes at its
    write depth (a quarter of the slots) instead."""
    controller = MECHANISMS[name]()
    sim, layer, cgroup = _rig(controller)
    _submit(layer, cgroup, op, 1)  # the warm-up: a slice, a budget, a group
    sim.run(until=BATCH_AT)
    assert layer.completed_ios == 1

    _submit(layer, cgroup, op, BATCH, first_sector=1 << 20)
    limit = layer.inflight
    scheduler = getattr(controller, "scheduler", controller)
    if isinstance(scheduler, KyberController) and op is IOOp.WRITE:
        assert limit == SPEC.nr_slots // 4
    else:
        assert limit == SPEC.nr_slots

    finish = layer.device.on_complete
    seen = []

    def checked_finish(bio):
        finish(bio)
        outstanding = 1 + BATCH - layer.completed_ios
        seen.append((sim.now, layer.inflight, min(limit, outstanding)))

    layer.device.on_complete = checked_finish
    sim.run(until=BATCH_AT + 0.02)  # 2.4 ms of service, over before any periodic timer
    assert layer.completed_ios == 1 + BATCH
    assert len(seen) == BATCH
    for now, inflight, expected in seen:
        assert inflight == expected, f"{name}: the slot freed at {now} stayed empty"
    controller.detach()


def _pumps_at_completions(depth, bios):
    """PROF ``pump_calls`` made inside completions by IOCost, on a rig that
    keeps ``depth`` bios outstanding (each completion's ``on_done`` submits
    the next one after the completion call has returned)."""
    controller = _iocost()
    sim, layer, cgroup = _rig(controller)
    finish = layer.device.on_complete
    pumps = [0]
    state = {"sector": 1 << 20, "left": bios - depth}

    def counting_finish(bio):
        before = PROF.pump_calls
        finish(bio)
        pumps[0] += PROF.pump_calls - before

    def successor(_bio):
        if state["left"] > 0:
            state["left"] -= 1
            state["sector"] += 8
            sim.schedule(0.0, resubmit)

    def resubmit():
        layer.submit(Bio(IOOp.READ, 4096, state["sector"], cgroup), on_done=successor)

    _submit(layer, cgroup, IOOp.READ, 1)  # the warm-up banks budget
    sim.run(until=BATCH_AT)
    layer.device.on_complete = counting_finish
    with PROF:
        for _ in range(depth):
            resubmit()
        sim.run(until=0.5)
    controller.detach()
    assert layer.completed_ios == 1 + bios
    return pumps[0]


@pytest.fixture
def prof_off():
    PROF.disable().reset()
    yield
    PROF.disable().reset()


def test_iocost_with_nothing_queued_pumps_at_no_completion(prof_off):
    # Four outstanding against eight slots: nothing ever waits for a slot.
    assert _pumps_at_completions(depth=4, bios=400) == 0


def test_iocost_pumps_at_completions_while_bios_wait_for_slots(prof_off):
    # Twice the slots outstanding: every completion frees a slot some bio
    # waits for, and its pump is the one that issues it.
    assert _pumps_at_completions(depth=2 * SPEC.nr_slots, bios=400) > 300
