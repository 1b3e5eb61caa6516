"""mq-deadline: the default Linux scheduler (no cgroup awareness).

FIFO queues per direction with expiry deadlines; reads are preferred over
writes (synchronous reads must not be starved by async writebacks), but an
expired write jumps the line and writes get a dispatch slot after every few
read batches.  Ensures "respectable machine-wide performance" only — no
per-cgroup resources (Table 1: no proportional fairness, no cgroup control).
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.block.bio import Bio
from repro.block.layer import BlockLayerError
from repro.controllers.base import IOController


class MQDeadlineController(IOController):
    """Deadline-based global IO scheduler."""

    name = "mq-deadline"
    #: Fig 9 shows moderate overhead for mq-deadline (sorting + deadline
    #: bookkeeping under a queue lock).
    issue_overhead = 1.6e-6

    #: Default expiry deadlines mirroring the kernel's read_expire=500ms,
    #: write_expire=5s.
    READ_EXPIRE = 0.5
    WRITE_EXPIRE = 5.0
    #: Writes are considered after this many consecutive read dispatches.
    WRITES_STARVED = 2

    def __init__(self) -> None:
        super().__init__()
        self._reads: Deque[Bio] = deque()
        self._writes: Deque[Bio] = deque()
        self._starved = 0

    def enqueue(self, bio: Bio) -> None:
        if bio.is_write:
            self._writes.append(bio)
        else:
            self._reads.append(bio)

    def _write_expired(self) -> bool:
        if not self._writes:
            return False
        head = self._writes[0]
        if head.submit_time is None:
            raise BlockLayerError("queued bio never passed BlockLayer.submit()")
        return self.layer.sim.now - head.submit_time >= self.WRITE_EXPIRE

    def _pick(self) -> Bio:
        if self._write_expired():
            self._starved = 0
            return self._writes.popleft()
        if self._reads and (self._starved < self.WRITES_STARVED or not self._writes):
            self._starved += 1
            return self._reads.popleft()
        if self._writes:
            self._starved = 0
            return self._writes.popleft()
        return self._reads.popleft()

    def pump(self) -> None:
        layer = self.layer
        while (self._reads or self._writes) and layer.inflight < layer.nr_slots:
            layer.dispatch(self._pick())
