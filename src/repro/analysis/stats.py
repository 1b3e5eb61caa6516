"""Streaming statistics primitives.

The kernel implementation of IOCost maintains per-device completion-latency
percentiles over a sliding window to drive its QoS decisions; benchmarks in
the paper additionally report means, percentiles, and rates.  This module
provides the equivalents used throughout the reproduction:

* :class:`LatencyWindow` — sliding-window sample store with percentile query.
* :class:`TimeSeries` — append-only (time, value) recorder with window
  reductions, used for vrate traces, RPS curves, etc.
* :class:`RateMeter` — events/bytes per second over a sliding window.
* :class:`Summary` — one-shot aggregate over a closed sample set.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Deque, Iterable, List, Optional, Tuple

from repro.obs.metrics import exact_percentile


class LatencyWindow:
    """Sliding-window latency samples with percentile queries.

    Samples are (timestamp, latency, is_write) triples in time order;
    :meth:`record` drops what has left the window as it appends, so the
    store is bounded with or without a reader.  The block layer's device
    windows are the signal source for IOCost's saturation detection.
    """

    def __init__(self, window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._samples: Deque[Tuple[float, float, bool]] = deque()

    def record(self, now: float, latency: float, is_write: bool = False) -> None:
        samples = self._samples
        samples.append((now, latency, is_write))
        while samples[0][0] < now - self.window:
            samples.popleft()

    def _fresh(self, now: float, horizon: float) -> int:
        """How many of the newest samples are no older than ``horizon`` seconds."""
        return len(self._samples) - bisect.bisect_left(self._samples, (now - horizon,))

    def count(self, now: float) -> int:
        return self._fresh(now, self.window)

    def percentile(
        self,
        now: float,
        pct: float,
        horizon: Optional[float] = None,
        reads_only: bool = False,
    ) -> Optional[float]:
        """Percentile of the samples no older than ``horizon`` seconds (the
        whole window by default; a wider horizon raises), of the reads alone
        if ``reads_only``; None if there are none."""
        if horizon is None:
            horizon = self.window
        elif horizon > self.window:
            raise ValueError(f"horizon {horizon} exceeds the window ({self.window})")
        # Newest first; a nearest-rank percentile does not depend on order.
        fresh = islice(reversed(self._samples), self._fresh(now, horizon))
        latencies = [lat for _, lat, is_write in fresh if not (reads_only and is_write)]
        if not latencies:
            return None
        return exact_percentile(latencies, pct)


class RateMeter:
    """Events (optionally weighted, e.g. by bytes) per second over a window."""

    def __init__(self, window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._events: Deque[Tuple[float, float]] = deque()
        self.total = 0.0

    def record(self, now: float, amount: float = 1.0) -> None:
        self._events.append((now, amount))
        self.total += amount
        while self._events[0][0] < now - self.window:
            self._events.popleft()

    def rate(self, now: float) -> float:
        """Windowed rate in amount/second."""
        oldest = now - self.window
        return sum(amount for t, amount in self._events if t >= oldest) / self.window


class TimeSeries:
    """Append-only time series with monotone timestamps and window reductions."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("timestamps must be monotone non-decreasing")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def slice(self, start: float, end: float) -> List[float]:
        """Values with start <= t < end."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        return self.values[lo:hi]

    def mean(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        values = self.slice(start, end)
        if not values:
            raise ValueError("mean over empty slice")
        return sum(values) / len(values)

    def max(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        values = self.slice(start, end)
        if not values:
            raise ValueError("max over empty slice")
        return max(values)

    def last(self) -> float:
        if not self.values:
            raise ValueError("empty series")
        return self.values[-1]


@dataclass
class Summary:
    """Closed-form aggregate of a sample set (used in benchmark reports)."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    maximum: float

    @classmethod
    def of(cls, samples: Iterable[float]) -> "Summary":
        data = list(samples)
        if not data:
            raise ValueError("summary of empty sample set")
        return cls(
            count=len(data),
            mean=sum(data) / len(data),
            p50=exact_percentile(data, 50),
            p90=exact_percentile(data, 90),
            p99=exact_percentile(data, 99),
            maximum=max(data),
        )
