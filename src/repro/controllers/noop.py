"""The "none" mechanism: no scheduler, no control.

Bios flow straight to the device in FIFO order, gated only by request-slot
availability.  This is the Figure 9 baseline showing the achievable
throughput of the block layer itself.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.block.bio import Bio
from repro.controllers.base import IOController


class NoopController(IOController):
    """Pass-through dispatch (the paper's *none* column)."""

    name = "none"
    issue_overhead = 0.0

    def __init__(self) -> None:
        super().__init__()
        self._queue: Deque[Bio] = deque()

    def enqueue(self, bio: Bio) -> None:
        self._queue.append(bio)

    def pump(self) -> None:
        while self._queue and self.layer.inflight < self.layer.nr_slots:
            self.layer.dispatch(self._queue.popleft())
