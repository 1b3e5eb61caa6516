"""Stacked IO control: a cgroup gate above a classic scheduler.

In the kernel, IOCost is not an IO scheduler — it is an ``rq_qos`` policy
that throttles bios *before* they reach whatever scheduler the device uses
(commonly ``none`` or ``mq-deadline``; see the paper's Figure 2).  This
module reproduces that stacking: a *gate* controller (IOCost, blk-throttle)
meters bios by cgroup policy, and a *scheduler* controller (mq-deadline,
kyber) orders the metered stream for the device.

The gate runs against a shim that looks like a block layer but whose
``dispatch`` feeds the scheduler's queue instead of the device, so both
components run unmodified.  Both count throttles on the record the bio
carries (``bio.blkg``); its one ``pd`` slot is the gate's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.block.bio import Bio
from repro.cgroup import Cgroup
from repro.controllers.base import IOController

if TYPE_CHECKING:  # pragma: no cover
    from repro.block.layer import BlockLayer


class _GateShim:
    """Adapter: presents the scheduler's queue to the gate as a layer.

    The gate throttles by its own budgets; request slots and device
    backpressure are the scheduler's concern, so the shim has unlimited
    ``nr_slots`` and ``dispatch`` simply hands the bio down.  The rest,
    even ``inflight``, is the real layer's.
    """

    def __init__(self, stacked: "StackedController", real: "BlockLayer"):
        self._stacked = stacked
        self._real = real
        self.nr_slots = float("inf")

    def dispatch(self, bio: Bio) -> None:
        scheduler = self._stacked.scheduler
        scheduler.enqueue(bio)
        scheduler.pump()

    def __getattr__(self, name):
        # sim, device, latency windows, slot_utilization, stats...
        return getattr(self._real, name)


class StackedController(IOController):
    """Gate (cgroup policy) stacked above a scheduler (device ordering)."""

    name = "stacked"

    def __init__(self, gate: IOController, scheduler: IOController):
        super().__init__()
        if scheduler.cgroup_aware:  # would fight over blkg.pd
            raise ValueError(f"{scheduler.name}: a stack's scheduler must not be cgroup-aware")
        self.gate = gate
        self.scheduler = scheduler
        # The stack has the gate's control properties; overhead compounds.
        self.mm_aware = gate.mm_aware
        self.cgroup_aware = gate.cgroup_aware
        self.issue_overhead = gate.issue_overhead + scheduler.issue_overhead

    def attach(self, layer: "BlockLayer") -> None:
        super().attach(layer)
        self.scheduler.attach(layer)
        self.gate.attach(_GateShim(self, layer))

    def detach(self) -> None:
        self.gate.detach()
        self.scheduler.detach()

    def enqueue(self, bio: Bio) -> None:
        self.gate.enqueue(bio)

    def pump(self) -> None:
        self.gate.pump()
        self.scheduler.pump()

    def on_complete(self, bio: Bio) -> None:
        self.gate.on_complete(bio)
        self.scheduler.on_complete(bio)

    def cost_stat(self, cgroup: Cgroup) -> dict:
        """The gate's io.stat keys; ``throttled`` counts both components (it
        is read off the record they share)."""
        return self.gate.cost_stat(cgroup)

    def __getattr__(self, name: str):
        # What the stack does not define, its gate answers, if it can: stat,
        # userspace_delay (the §3.5 hook), vrate...
        if name == "gate":  # an instance __init__ never ran on (copy, pickle)
            raise AttributeError(name)
        return getattr(self.gate, name)
