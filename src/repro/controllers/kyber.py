"""Kyber: latency-goal token scheduler (no cgroup awareness).

Kyber splits IO into domains (reads, synchronous writes) and adjusts each
domain's allowed queue depth so that per-domain completion latencies meet
built-in targets (2 ms reads / 10 ms writes in the kernel).  Its fast path
is nearly free — Figure 9 shows it indistinguishable from no scheduler.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.block.bio import Bio
from repro.controllers.base import IOController


class KyberController(IOController):
    """Per-domain depth-throttling scheduler."""

    name = "kyber"
    issue_overhead = 0.05e-6

    READ_TARGET = 2e-3
    WRITE_TARGET = 10e-3
    ADJUST_INTERVAL = 0.1
    MIN_DEPTH = 1

    def __init__(self) -> None:
        super().__init__()
        self._reads: Deque[Bio] = deque()
        self._writes: Deque[Bio] = deque()
        self._read_inflight = 0
        self._write_inflight = 0
        self._read_depth = 0  # set at attach from device slots
        self._write_depth = 0
        self._timer = None

    def attach(self, layer) -> None:
        super().attach(layer)
        slots = layer.device.spec.nr_slots
        self._read_depth = slots
        self._write_depth = max(self.MIN_DEPTH, slots // 4)
        self._timer = layer.sim.schedule(self.ADJUST_INTERVAL, self._adjust)

    def detach(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def enqueue(self, bio: Bio) -> None:
        (self._writes if bio.is_write else self._reads).append(bio)

    def pump(self) -> None:
        layer = self.layer
        progressed = True
        while progressed and layer.inflight < layer.nr_slots:
            progressed = False
            if self._reads and self._read_inflight < self._read_depth:
                self._read_inflight += 1
                layer.dispatch(self._reads.popleft())
                progressed = True
            if layer.inflight >= layer.nr_slots:
                break
            if self._writes and self._write_inflight < self._write_depth:
                self._write_inflight += 1
                layer.dispatch(self._writes.popleft())
                progressed = True

    def on_complete(self, bio: Bio) -> None:
        if bio.is_write:
            self._write_inflight -= 1
        else:
            self._read_inflight -= 1
        self.pump()

    def _adjust(self) -> None:
        """Shrink a domain's depth when its latency target is missed."""
        layer = self.layer
        now = layer.sim.now
        slots = layer.device.spec.nr_slots
        read_p99 = layer.read_latency.percentile(now, 99)
        write_p99 = layer.write_latency.percentile(now, 99)
        if read_p99 is not None and read_p99 > self.READ_TARGET:
            self._read_depth = max(self.MIN_DEPTH, self._read_depth // 2)
        else:
            self._read_depth = min(slots, self._read_depth + max(1, self._read_depth // 4))
        if write_p99 is not None and write_p99 > self.WRITE_TARGET:
            self._write_depth = max(self.MIN_DEPTH, self._write_depth // 2)
        else:
            self._write_depth = min(slots, self._write_depth + max(1, self._write_depth // 4))
        self._timer = layer.sim.schedule(self.ADJUST_INTERVAL, self._adjust)
        self.pump()
