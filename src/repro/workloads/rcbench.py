"""ResourceControlBench analogue (paper §3.4).

"A highly configurable synthetic workload imitating the behavior of
latency-sensitive services at Meta": a request-serving loop with

* a resident anonymous working set, touched per request — so latency is
  paging-sensitive (faults swap back in through the block layer);
* optional direct block reads per request (storage-backed services);
* a CPU service time — so throughput caps at ``peak_rps`` even with
  perfect IO;
* a bounded worker pool — queueing delay appears under overload.

The same class powers the Figure 14/17 "web server" ( :class:`WebServer`
presets) and the Figure 15 load-ramp experiment via the ``load`` property.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.analysis.stats import RateMeter, TimeSeries
from repro.block.bio import Bio, IOOp
from repro.mm.memory import MemoryManager
from repro.obs.metrics import exact_percentile
from repro.workloads.base import SectorPicker, Workload

MB = 1024 * 1024


class ResourceControlBench(Workload):
    """Latency-sensitive request server with a paging-sensitive footprint."""

    def __init__(
        self,
        sim,
        layer,
        mm: MemoryManager,
        cgroup,
        peak_rps: float = 500.0,
        load: float = 0.5,
        workers: int = 8,
        working_set: int = 256 * MB,
        touch_per_request: int = 512 * 1024,
        io_reads_per_request: int = 1,
        io_read_size: int = 16 * 1024,
        cpu_time: float = 1e-3,
        queue_timeout: Optional[float] = None,
        stop_at: Optional[float] = None,
        seed: int = 0,
    ):
        super().__init__(sim, layer, cgroup, seed)
        self.mm = mm
        self.peak_rps = peak_rps
        self._load = load
        self.workers = workers
        self.working_set = working_set
        self.touch_per_request = touch_per_request
        self.io_reads_per_request = io_reads_per_request
        self.io_read_size = io_read_size
        self.cpu_time = cpu_time
        #: Requests still queued after this long are shed (load shedding of
        #: a latency-sensitive service); ``None`` queues indefinitely.
        self.queue_timeout = queue_timeout
        self.stop_at = stop_at
        self.picker = SectorPicker(self.rng, sequential=False)

        self._queue: Deque[float] = deque()  # request arrival timestamps
        self._busy_workers = 0
        self.requests_shed = 0
        self.requests_done = 0
        self.request_latencies = []
        self.rps_meter = RateMeter(window=1.0)
        self.rps_series = TimeSeries("rps")
        self.load_series = TimeSeries("load")
        self._sample_every = 0.5

    # -- load control (used by the Figure 15 PID ramp) ----------------------

    @property
    def load(self) -> float:
        return self._load

    @load.setter
    def load(self, value: float) -> None:
        self._load = max(0.0, min(1.0, value))

    @property
    def target_rps(self) -> float:
        return self.peak_rps * self._load

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        super().start()
        # Populate the working set, then begin serving.
        self.sim.process(self._warmup(), name=f"rcbench-warmup-{self.cgroup.path}")
        return self

    def _warmup(self):
        yield from self.mm.alloc(self.cgroup, self.working_set)
        self._schedule_arrival()
        self.sim.schedule(self._sample_every, self._sample)

    def _schedule_arrival(self):
        if not self.running or (self.stop_at is not None and self.sim.now >= self.stop_at):
            return
        rate = self.target_rps
        if rate <= 0:
            self.sim.schedule(0.1, self._schedule_arrival)
            return
        interval = float(self.rng.exponential(1.0 / rate))
        self.sim.schedule(interval, self._arrive)

    def _arrive(self):
        if not self.running:
            return
        self._queue.append(self.sim.now)
        self._maybe_serve()
        self._schedule_arrival()

    def _maybe_serve(self):
        while self._queue and self._busy_workers < self.workers:
            arrival = self._queue.popleft()
            if (
                self.queue_timeout is not None
                and self.sim.now - arrival > self.queue_timeout
            ):
                self.requests_shed += 1
                continue
            self._busy_workers += 1
            self.sim.process(self._serve(arrival), name="rcbench-request")

    def _serve(self, arrival: float):
        try:
            # Touch the working set (may fault swapped pages back in).
            if self.touch_per_request > 0:
                yield from self.mm.touch(self.cgroup, self.touch_per_request)
            # Direct storage reads.
            for _ in range(self.io_reads_per_request):
                bio = Bio(
                    IOOp.READ,
                    self.io_read_size,
                    self.picker.next(self.io_read_size),
                    self.cgroup,
                )
                signal = self.sim.signal()
                self.layer.submit(bio, on_done=signal.fire)
                if not signal.fired:
                    yield signal
                self._record(bio)
            # CPU service time.
            yield self.cpu_time
        finally:
            self._busy_workers -= 1
        latency = self.sim.now - arrival
        self.requests_done += 1
        self.request_latencies.append(latency)
        self.rps_meter.record(self.sim.now)
        self._maybe_serve()

    def _sample(self):
        if not self.running or (self.stop_at is not None and self.sim.now >= self.stop_at):
            return
        self.rps_series.record(self.sim.now, self.rps_meter.rate(self.sim.now))
        self.load_series.record(self.sim.now, self._load)
        self.sim.schedule(self._sample_every, self._sample)

    # -- measurements -----------------------------------------------------------

    def request_percentile(self, pct: float, last: int = 200) -> Optional[float]:
        """Nearest-rank percentile over the most recent ``last`` requests."""
        if not self.request_latencies:
            return None
        return exact_percentile(self.request_latencies[-last:], pct)


class WebServer(ResourceControlBench):
    """Figure 14's production web server stand-in: RCBench with web-ish
    defaults (larger worker pool, smaller per-request IO)."""

    def __init__(self, sim, layer, mm, cgroup, **kwargs):
        kwargs.setdefault("peak_rps", 800.0)
        kwargs.setdefault("load", 0.8)
        kwargs.setdefault("workers", 16)
        kwargs.setdefault("working_set", 384 * MB)
        kwargs.setdefault("touch_per_request", 256 * 1024)
        kwargs.setdefault("io_reads_per_request", 1)
        kwargs.setdefault("io_read_size", 8 * 1024)
        kwargs.setdefault("cpu_time", 0.5e-3)
        kwargs.setdefault("queue_timeout", 0.1)
        super().__init__(sim, layer, mm, cgroup, **kwargs)
