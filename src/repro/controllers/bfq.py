"""BFQ: budget fair queueing by sectors (paper §2.2, [41]).

BFQ grants the device *exclusively* to one cgroup queue at a time, for a
sector budget proportional to its weight, then moves to the next queue in a
weighted round robin.  That design encodes the two failure modes the paper
measures:

* **Heavy issue path** (Figure 9): per-IO budget accounting, queue merging
  and tree reshuffling under a single scheduler lock — modelled as a large
  serialized ``issue_overhead`` that caps achievable IOPS far below fast
  devices.
* **Sector fairness ≠ occupancy fairness** (Figure 12): a random-read queue
  receives the same *sectors* as a sequential one, which on a seek-bound
  disk translates into far more device *time*.
* **Wide latency swings** (Figures 10/11): while one queue's slice runs,
  everyone else waits out the whole slice — and BFQ *idles*: when the
  in-service queue momentarily empties with budget remaining, the device
  is held idle for a window awaiting the queue's next sync IO (preserving
  its sequential locality), starving everyone else meanwhile.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.block.bio import Bio, SECTOR_SIZE
from repro.cgroup import Cgroup, IOStats
from repro.controllers.base import IOController


class _BfqQueue:
    __slots__ = (
        "blkg",
        "weight",
        "waitq",
        "budget_left",
        "budget_granted",
        "next_budget",
        "slice_deadline",
    )

    def __init__(self, blkg: IOStats, weight: int):
        self.blkg = blkg
        self.weight = weight
        self.waitq: Deque[Bio] = deque()
        self.budget_left = 0
        self.budget_granted = 0
        self.next_budget = 0
        self.slice_deadline = 0.0


class BFQController(IOController):
    """Weighted round-robin of exclusive, sector-budgeted service slices."""

    name = "bfq"
    cgroup_aware = True
    #: Fig 9: "severe software overheads ... despite significant tuning".
    issue_overhead = 8e-6

    #: Initial sector budget per unit weight.  Budgets adapt like kernel
    #: BFQ's auto-tuning: a queue that exhausts its budget gets double next
    #: time (up to MAX_SECTORS_PER_WEIGHT * weight), so fast sequential
    #: queues ramp to slices bounded by the time quantum, while seeky
    #: queues keep small budgets.
    SECTORS_PER_WEIGHT = 64
    MAX_SECTORS_PER_WEIGHT = 1024
    #: Cap on dispatches in flight from the active queue at once.
    SLICE_DEPTH = 32
    #: How long an empty in-service queue keeps the device idle waiting
    #: for its next sync IO (the kernel's slice_idle, ~2-8 ms).
    IDLE_WINDOW = 2e-3
    #: Time quantum per unit weight: a slice also expires after
    #: weight * SLICE_TIME_PER_WEIGHT seconds (kernel BFQ's time budget),
    #: so a slow queue cannot hold the device for its whole sector budget.
    #: Default-weight queues get ~100 ms, long enough to amortise the
    #: slice-boundary seek on spinning disks.
    SLICE_TIME_PER_WEIGHT = 1e-3

    def __init__(self) -> None:
        super().__init__()
        # ``self.groups`` doubles as the service round: _next_queue rotates
        # it, so it is in creation order only until the first slice.
        self._active: Optional[_BfqQueue] = None
        self._active_inflight = 0
        self._idle_timer = None

    def detach(self) -> None:
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None

    def make_group(self, cgroup: Cgroup, blkg: IOStats) -> _BfqQueue:
        return _BfqQueue(blkg, cgroup.weight)

    def enqueue(self, bio: Bio) -> None:
        queue = bio.blkg.pd
        if queue is None:
            queue = self.new_group(bio)
        queue.weight = bio.cgroup.weight  # pick up weight changes
        queue.waitq.append(bio)
        # The idled-for IO arrived: stop idling and resume the slice.
        if self._idle_timer is not None and self._active is queue:
            self._idle_timer.cancel()
            self._idle_timer = None

    # -- slice management -----------------------------------------------------

    def _grant_slice(self, queue: _BfqQueue) -> None:
        self._active = queue
        if queue.next_budget <= 0:
            queue.next_budget = queue.weight * self.SECTORS_PER_WEIGHT
        queue.budget_left = queue.budget_granted = queue.next_budget
        queue.slice_deadline = (
            self.layer.sim.now + queue.weight * self.SLICE_TIME_PER_WEIGHT
        )

    def _retire_slice(self, queue: _BfqQueue) -> None:
        """Adapt the next budget from how this slice ended (auto-tuning)."""
        minimum = queue.weight * self.SECTORS_PER_WEIGHT
        maximum = queue.weight * self.MAX_SECTORS_PER_WEIGHT
        used = queue.budget_granted - queue.budget_left
        if queue.budget_left <= 0:
            # Exhausted its sectors: a fast queue — grow the budget.
            queue.next_budget = min(2 * queue.budget_granted, maximum)
        else:
            # Time-expired or drained: size the budget to what it can use.
            queue.next_budget = max(used, minimum)

    def _next_queue(self) -> Optional[_BfqQueue]:
        """Round-robin to the next backlogged queue: the round rotates once,
        past it, so the queues skipped on the way go to the back."""
        round_ = self.groups
        found = None
        offline = False
        for index, queue in enumerate(round_):
            if queue.waitq:
                found = queue
                round_[:] = round_[index + 1:] + round_[: index + 1]
                break
            if not queue.blkg.online:
                offline = True
        if offline:  # no queue is in service here, so any may go
            self.retire_offline()
        return found

    def _expire_if_done(self) -> None:
        active = self._active
        if active is None:
            return
        out_of_grant = (
            active.budget_left <= 0 or self.layer.sim.now >= active.slice_deadline
        )
        if out_of_grant and self._active_inflight == 0:
            self._retire_slice(active)
            self._active = None
        elif not active.waitq and self._active_inflight == 0:
            # Queue drained with budget left: idle the device for a window
            # in case the queue's process issues another sync IO soon.
            if self._idle_timer is None:
                self._idle_timer = self.layer.sim.schedule(
                    self.IDLE_WINDOW, self._idle_expired
                )

    def _idle_expired(self) -> None:
        self._idle_timer = None
        if self._active is not None:
            self._retire_slice(self._active)
        self._active = None
        self.pump()

    def pump(self) -> None:
        layer = self.layer
        while layer.inflight < layer.nr_slots:
            self._expire_if_done()
            if self._idle_timer is not None:
                return  # device held idle for the in-service queue
            if self._active is None:
                nxt = self._next_queue()
                if nxt is None:
                    return
                self._grant_slice(nxt)
            active = self._active
            if (
                not active.waitq
                or active.budget_left <= 0
                or self.layer.sim.now >= active.slice_deadline
                or self._active_inflight >= self.SLICE_DEPTH
            ):
                return  # wait for completions (exclusive service)
            bio = active.waitq.popleft()
            sectors = max(1, bio.nbytes // SECTOR_SIZE)
            active.budget_left -= sectors
            self._active_inflight += 1
            layer.dispatch(bio)

    def on_complete(self, bio: Bio) -> None:
        # Slices only expire once their dispatches drain, so outstanding
        # completions always belong to the active queue.
        if self._active is not None and bio.blkg.pd is self._active:
            self._active_inflight -= 1
        self.pump()  # even with nothing queued: it expires slices, arms idling
