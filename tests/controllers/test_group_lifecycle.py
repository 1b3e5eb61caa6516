"""Containers come and go: one table over every mechanism that keeps
per-group state, each row driven through the same removal and restart.

Per-group state lives on the record a bio carries (``bio.blkg.pd``) and
dies with its cgroup (controllers/base.py).  Every test walks the whole
table and reports the failing rows together, so one mechanism's breakage
does not hide another's (ROADMAP item 3(a), the removal column).
"""

import dataclasses
from collections import Counter
from typing import Callable, Optional

import pytest
from hypothesis import given, strategies as st

from repro.block.device_models import get_device_spec
from repro.block.bio import Bio, IOOp
from repro.cgroup import Cgroup, CgroupTree, IOStats
from repro.controllers import (
    BFQController,
    BlkThrottleController,
    IOController,
    IOLatencyController,
    MQDeadlineController,
    StackedController,
    ThrottleLimits,
)
from repro.core.qos import QoSParams
from repro.sanitize import SANITIZE
from repro.testbed import Testbed, make_controller
from tests.controllers.conftest import ClosedLoop

A, B = "workload.slice/a", "workload.slice/b"
SPEC = get_device_spec("ssd_old")
#: vrate pinned below the device's speed, so budget always binds.
PINNED = QoSParams(
    read_lat_target=None, write_lat_target=None, vrate_min=0.6, vrate_max=0.6
)


def _iocost() -> IOController:
    return make_controller("iocost", SPEC, qos=PINNED, initial_vrate=0.6)


def _nothing(controller: IOController) -> None:
    pass


def _outweigh(gate: IOController, b: Cgroup) -> None:
    gate.set_weight(b, 1)  # a's hweight: 1/10001 -> 1/2


@dataclasses.dataclass(frozen=True)
class Row:
    #: A fresh controller; ``a`` starts at weight 100 with this configuration.
    make: Callable[[], IOController]
    #: What the restarted ``a`` is given instead: a weight, and/or whatever
    #: path-keyed configuration the mechanism takes.
    restart_weight: int = 100
    reconfigure: Callable[[IOController], None] = _nothing
    #: The component of the controller that holds the groups.
    gate: Callable[[IOController], IOController] = lambda controller: controller
    #: For a gate that holds heads under a wake timer (``IOController.hold``):
    #: what lets ``a``'s held head go at once, ahead of that timer.
    release: Optional[Callable[[IOController, Cgroup], None]] = None
    #: Simulated seconds to settle, then to measure, and how close the
    #: restarted machine's a:b ratio must come to the fresh machine's.
    settle: float = 0.1
    measure: float = 0.3
    rel: float = 0.02


ROWS = {
    "iocost": Row(_iocost, restart_weight=400, release=_outweigh),
    "iolatency": Row(
        # b is protected, so a is squeezed to depth 1 and queues.  The
        # restarted a is protected too: ``_targets`` is the path-keyed table
        # ``make_group`` reads, and the controller has no public setter.
        lambda: IOLatencyController({B: 5e-4}),
        reconfigure=lambda controller: controller._targets.update({A: 2.5e-4}),
    ),
    "blk-throttle": Row(
        lambda: BlkThrottleController(
            {A: ThrottleLimits(riops=1000), B: ThrottleLimits(riops=1000)}
        ),
        reconfigure=lambda controller: controller.set_limits(
            A, ThrottleLimits(riops=2000)
        ),
        release=lambda gate, b: gate.set_limits(A, ThrottleLimits()),
    ),
    # Slices are 0.1-0.4 s long and b's budgets have ramped by the time a
    # restarts: the ratio depends on where in the round the window falls
    # (3.69 fresh, 4.05 restarted; 1.05-2.85 with an inherited queue).
    "bfq": Row(BFQController, restart_weight=400, settle=0.5, measure=1.0, rel=0.15),
    "stacked": Row(
        lambda: StackedController(_iocost(), MQDeadlineController()),
        restart_weight=400,
        gate=lambda controller: controller.gate,
        release=_outweigh,
    ),
}


def for_every_row(check: Callable[[str, Row], None], rows=ROWS) -> None:
    """Run ``check`` on every row and fail once, naming every failing row."""
    failures = []
    for name, row in rows.items():
        try:
            check(name, row)
        except Exception as exc:  # noqa: BLE001 - a row's failure is its report
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    if failures:
        pytest.fail("\n".join(failures))


@pytest.fixture(autouse=True)
def sanitized():
    """Every lifecycle test also runs under the runtime invariant checkers
    (slot conservation, cost conservation, per-group vtime monotonicity)."""
    SANITIZE.reset()
    was = SANITIZE.enabled
    SANITIZE.enable()
    yield
    SANITIZE.enabled = was
    SANITIZE.reset()


class Tracked(ClosedLoop):
    """The closed loop, remembering what it submitted and what came back."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submitted = 0
        self.done = Counter()

    def _issue(self):
        self.submitted += 1
        super()._issue()

    def _done(self, bio):
        self.done[bio.id] += 1
        super()._done(bio)


def remove_under_load(row: Row):
    """Remove ``a`` at the first instant it has both queued and in-flight
    bios; its workload keeps submitting for a while (bios for a dead
    cgroup), then everything drains."""
    bed = Testbed("ssd_old", row.make(), seed=5)
    a, b = bed.add_cgroup(A), bed.add_cgroup(B)
    loops = [
        Tracked(bed.sim, bed.layer, group, depth=32, seed=seed).start()
        for seed, group in enumerate((a, b), start=1)
    ]
    dead = a.stats.device(bed.layer.dev).pd
    while not (dead.waitq and loops[0].submitted - len(loops[0].done) > len(dead.waitq)):
        assert bed.sim.now < 0.5, "a never had bios queued and in flight at once"
        bed.run(1e-4)
    bed.cgroups.remove(A)
    for loop in loops:
        loop.stop_at = bed.sim.now + 0.05
    bed.run(1.0)
    return bed, loops, a, dead


class TestRemoval:
    def test_every_submitted_bio_completes_exactly_once(self):
        def check(name, row):
            bed, loops, _, _ = remove_under_load(row)
            for loop in loops:
                assert len(loop.done) == loop.submitted > 32
                assert set(loop.done.values()) == {1}
            assert bed.layer.inflight == 0
            assert bed.layer.completed_ios == bed.layer.submitted_ios

        for_every_row(check)

    def test_nothing_of_the_dead_group_is_left(self):
        def check(name, row):
            bed, _, a, dead = remove_under_load(row)
            gate = row.gate(bed.controller)
            record = a.stats.device(bed.layer.dev)
            assert not record.online and record.pd is None
            assert dead not in gate.groups
            assert all(group.blkg.online for group in gate.groups)
            # The one wake timer of a group that is held (IOController.hold).
            assert getattr(dead, "wake", None) is None
            if hasattr(gate, "tree"):  # iocost: backlog, active set, hierarchy
                assert not dead.waitq and gate._queued == 0
                assert not dead.active
                assert dead not in dead.parent.children
                assert dead.parent.active_refs == sum(
                    child.active_refs > 0 for child in dead.parent.children
                )
            # A straggler for the dead cgroup gets a fresh group, which
            # retires the same way.
            straggler = Tracked(bed.sim, bed.layer, a, depth=1, stop_at=0.0).start()
            bed.run(1.0)
            assert straggler.done and record.pd is None
            assert all(group.blkg.online for group in gate.groups)

        for_every_row(check)

    def test_a_retired_group_leaves_no_timer_behind(self):
        # a's burst queues behind a far wake; a is removed; the row's
        # ``release`` then lets the queue go in one pump, ahead of that
        # wake, so a retires drained with the timer still armed.  Nothing
        # else fires for nobody now that timers are not churned.
        def check(name, row):
            if row.release is None:
                return  # never holds: no wake timer
            bed = Testbed("ssd_old", row.make(), seed=5)
            a, b = bed.add_cgroup(A, weight=1), bed.add_cgroup(B, weight=10000)
            Tracked(bed.sim, bed.layer, b, depth=32).start()
            bed.run(0.01)
            for index in range(32):
                bed.layer.submit(Bio(IOOp.READ, 4096, 8 * index, a))
            gate = row.gate(bed.controller)
            dead = a.stats.device(bed.layer.dev).pd
            assert dead.waitq and dead.wake is not None
            bed.cgroups.remove(A)
            bed.run(0.005)
            assert dead.waitq
            row.release(gate, b)
            while dead in gate.groups:
                assert bed.sim.now < 0.2, "a never retired"
                bed.run(1e-4)
            assert not dead.waitq and dead.wake is None
            assert not [
                event for _time, _seq, event in bed.sim._heap
                if dead in event.args and not event.cancelled
            ]
            bed.detach()

        for_every_row(check)


    def test_iocost_counts_ios_on_the_record_across_a_removal(self):
        """``cost.ios`` and idleness are the record's ``total_ios`` (against
        its value at the last plan tick).  A removed child's counters fold
        into its parent's record, so the parent's ``cost.ios`` takes them
        over as its ``rios`` does, and the jump reads as one period of IO:
        a parent that went idle before the removal deactivates a tick later."""
        period = PINNED.period
        bed = Testbed("ssd_old", _iocost(), seed=5)
        parent = bed.add_cgroup("workload.slice/p")
        child = bed.add_cgroup("workload.slice/p/c")
        loops = [
            Tracked(bed.sim, bed.layer, group, depth=4, stop_at=stop * period).start()
            for group, stop in ((parent, 1.5), (child, 2.4))
        ]
        bed.run(2.5 * period)  # ticks 1 and 2 saw both issue
        states = [group.stats.device(bed.layer.dev).pd for group in (parent, child)]
        own, folded = [loop.submitted for loop in loops]
        assert [len(loop.done) for loop in loops] == [own, folded]

        def cost_ios(group):
            return bed.controller.cost_stat(group)["cost.ios"]

        assert (cost_ios(parent), cost_ios(child)) == (own, folded)
        assert [state.active for state in states] == [True, True]

        bed.cgroups.remove("workload.slice/p/c")
        assert (cost_ios(parent), cost_ios(child)) == (own + folded, folded)
        bed.run(period)  # tick 3: the child retires; the fold looks like IO
        assert states[1] not in bed.controller.groups and cost_ios(child) == 0
        assert [state.active for state in states] == [True, False]
        bed.run(period)  # tick 4: nothing moved
        assert not states[0].active
        assert cost_ios(parent) == own + folded == states[0].blkg.total_ios
        bed.detach()


class TestRestart:
    def machine(self, row: Row, restart: bool) -> float:
        bed = Testbed("ssd_old", row.make(), seed=3)
        b = bed.add_cgroup(B)
        bed.saturate(b, depth=32)
        if restart:
            bed.saturate(bed.add_cgroup(A), depth=32, stop_at=0.15)
            bed.run(0.15)
            bed.cgroups.remove(A)
            bed.run(0.15)
        row.reconfigure(bed.controller)
        a = bed.add_cgroup(A, weight=row.restart_weight)
        bed.saturate(a, depth=32)
        bed.run(row.settle)
        bed.run(row.measure)
        ratio = bed.iops(a) / bed.iops(b)
        bed.detach()
        return ratio

    def test_restart_at_the_same_path_behaves_like_a_fresh_machine(self):
        # ISSUE 17's motivating number is the iocost row: at the parent the
        # restarted a inherited the dead one's GroupState, weight 100
        # included, and split 1.00:1 where a fresh machine gives 4.00:1.
        def check(name, row):
            fresh = self.machine(row, restart=False)
            restarted = self.machine(row, restart=True)
            assert restarted == pytest.approx(fresh, rel=row.rel)

        for_every_row(check)


#: Everything on the record that is not a counter, hence never folded.
NOT_COUNTERS = {"next_sector", "latency", "pd", "online"}
COUNTERS = [f.name for f in dataclasses.fields(IOStats) if f.name not in NOT_COUNTERS]
counts = st.fixed_dictionaries({name: st.integers(0, 1 << 40) for name in COUNTERS})


class TestFold:
    def test_throttled_is_a_counter(self):
        assert "throttled" in COUNTERS

    @given(parent=counts, child=counts)
    def test_remove_conserves_every_counter_and_nothing_else_crosses(self, parent, child):
        tree = CgroupTree()
        parent_record = tree.create("p").stats.device("8:0")
        child_record = tree.create("p/c").stats.device("8:0")
        for name in COUNTERS:
            setattr(parent_record, name, parent[name])
            setattr(child_record, name, child[name])
        child_record.pd, child_record.latency, child_record.next_sector = object(), object(), 8
        tree.remove("p/c")
        for name in COUNTERS:
            assert getattr(parent_record, name) == parent[name] + child[name], name
        assert parent_record.pd is None and parent_record.latency is None
        assert parent_record.next_sector is None and parent_record.online
        assert not child_record.online
