"""fio-style synthetic workloads (the generators behind Figures 9-13).

* :class:`ClosedLoopWorkload` — keep N IOs outstanding (saturation).
* :class:`PacedWorkload` — open-loop fixed issue rate.
* :class:`ThinkTimeWorkload` — serial IO with think time between requests
  (the Figure 11 high-priority workload: "a new IO is issued after 100 us
  has passed since the last IO's completion").
* :class:`LatencyGovernedWorkload` — a latency-sensitive service that
  load-sheds: it keeps issuing 4 KiB random reads *so long as* its observed
  p50 latency stays below a target (Figure 10: "simulate online services
  which may load-shed if request latencies climb too high").
"""

from __future__ import annotations

from repro.block.bio import Bio, IOOp
from repro.workloads.base import SectorPicker, Workload


class ClosedLoopWorkload(Workload):
    """Keeps ``depth`` IOs outstanding until ``stop_at`` (or stop())."""

    def __init__(
        self,
        sim,
        layer,
        cgroup,
        op: IOOp = IOOp.READ,
        size: int = 4096,
        depth: int = 16,
        sequential: bool = False,
        stop_at: float = None,
        seed: int = 0,
    ):
        super().__init__(sim, layer, cgroup, seed)
        self.op = op
        self.size = size
        self.depth = depth
        self.stop_at = stop_at
        # The workload rng feeds only the picker, so chunked pre-draws are
        # safe (and stream-equivalent — see SectorPicker).
        self.picker = SectorPicker(self.rng, sequential, chunk=256)

    def start(self):
        super().start()
        for _ in range(self.depth):
            self._issue()
        return self

    def _issue(self):
        bio = Bio(self.op, self.size, self.picker.next(self.size), self.cgroup)
        self.layer.submit(bio, on_done=self._done)

    def _done(self, bio):
        self._record(bio)
        if self.running and (self.stop_at is None or self.sim.now < self.stop_at):
            self._issue()


class PacedWorkload(Workload):
    """Open-loop issuance at a fixed rate (IOs per second)."""

    def __init__(
        self,
        sim,
        layer,
        cgroup,
        rate: float,
        op: IOOp = IOOp.READ,
        size: int = 4096,
        sequential: bool = False,
        stop_at: float = None,
        seed: int = 0,
    ):
        super().__init__(sim, layer, cgroup, seed)
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.interval = 1.0 / rate
        self.op = op
        self.size = size
        self.stop_at = stop_at
        self.picker = SectorPicker(self.rng, sequential, chunk=256)

    def start(self):
        super().start()
        self.sim.schedule(self.interval, self._tick)
        return self

    def _tick(self):
        if not self.running or (self.stop_at is not None and self.sim.now >= self.stop_at):
            return
        bio = Bio(self.op, self.size, self.picker.next(self.size), self.cgroup)
        self.layer.submit(bio, on_done=self._record)
        self.sim.schedule(self.interval, self._tick)


class ThinkTimeWorkload(Workload):
    """Serial requests with fixed think time after each completion."""

    def __init__(
        self,
        sim,
        layer,
        cgroup,
        think_time: float = 100e-6,
        op: IOOp = IOOp.READ,
        size: int = 4096,
        sequential: bool = False,
        stop_at: float = None,
        seed: int = 0,
    ):
        super().__init__(sim, layer, cgroup, seed)
        self.think_time = think_time
        self.op = op
        self.size = size
        self.stop_at = stop_at
        self.picker = SectorPicker(self.rng, sequential, chunk=256)

    def start(self):
        super().start()
        self._issue()
        return self

    def _issue(self):
        bio = Bio(self.op, self.size, self.picker.next(self.size), self.cgroup)
        self.layer.submit(bio, on_done=self._done)

    def _done(self, bio):
        self._record(bio)
        if self.running and (self.stop_at is None or self.sim.now < self.stop_at):
            self.sim.schedule(self.think_time, self._maybe_issue)

    def _maybe_issue(self):
        if self.running and (self.stop_at is None or self.sim.now < self.stop_at):
            self._issue()


class LatencyGovernedWorkload(Workload):
    """Load-shedding latency-sensitive reader (Figure 10's workloads).

    Maintains a closed loop whose concurrency adapts: while the recent p50
    completion latency is under ``latency_target`` the workload grows its
    outstanding depth (additively); when p50 exceeds the target it backs
    off (multiplicatively).  The result issues as much IO as it can without
    its own latency crossing the target — exactly the behaviour that lets a
    latency-unfair controller starve it (the BFQ/IOLatency 10:1 outcome).
    """

    ADJUST_EVERY = 64  # completions between depth adjustments

    def __init__(
        self,
        sim,
        layer,
        cgroup,
        latency_target: float = 200e-6,
        max_depth: int = 64,
        op: IOOp = IOOp.READ,
        size: int = 4096,
        stop_at: float = None,
        seed: int = 0,
    ):
        super().__init__(sim, layer, cgroup, seed)
        self.latency_target = latency_target
        self.max_depth = max_depth
        self.op = op
        self.size = size
        self.stop_at = stop_at
        self.picker = SectorPicker(self.rng, sequential=False, chunk=256)
        self.depth = 4
        self._outstanding = 0
        self._since_adjust = 0

    def start(self):
        super().start()
        self._top_up()
        return self

    def _top_up(self):
        while self._outstanding < self.depth:
            if self.stop_at is not None and self.sim.now >= self.stop_at:
                return
            self._outstanding += 1
            bio = Bio(self.op, self.size, self.picker.next(self.size), self.cgroup)
            self.layer.submit(bio, on_done=self._done)

    def _done(self, bio):
        self._outstanding -= 1
        self._record(bio)
        self._since_adjust += 1
        if self._since_adjust >= self.ADJUST_EVERY:
            self._since_adjust = 0
            self._adjust()
        if self.running and (self.stop_at is None or self.sim.now < self.stop_at):
            self._top_up()

    def _adjust(self):
        p50 = self.recent_percentile(50, last=self.ADJUST_EVERY)
        if p50 is None:
            return
        if p50 > self.latency_target:
            self.depth = max(1, self.depth // 2)
        elif self.depth < self.max_depth:
            self.depth += 1
