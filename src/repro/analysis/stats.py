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
from typing import Deque, Iterable, List, Optional, Tuple

from repro.obs.metrics import exact_percentile


class LatencyWindow:
    """Sliding-window latency samples with percentile queries.

    Samples are (timestamp, latency) pairs; queries prune samples older than
    ``window`` seconds before answering.  This is the signal source for
    IOCost's latency-target saturation detection.
    """

    def __init__(self, window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._samples: Deque[Tuple[float, float]] = deque()

    def record(self, now: float, latency: float) -> None:
        self._samples.append((now, latency))

    def _prune(self, now: float) -> None:
        horizon = now - self.window
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def count(self, now: float) -> int:
        self._prune(now)
        return len(self._samples)

    def percentile(self, now: float, pct: float) -> Optional[float]:
        """Window percentile, or None if the window is empty."""
        self._prune(now)
        if not self._samples:
            return None
        return exact_percentile([lat for _, lat in self._samples], pct)

    def mean(self, now: float) -> Optional[float]:
        self._prune(now)
        if not self._samples:
            return None
        return sum(lat for _, lat in self._samples) / len(self._samples)

    def clear(self) -> None:
        self._samples.clear()


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

    def rate(self, now: float) -> float:
        """Windowed rate in amount/second."""
        horizon = now - self.window
        while self._events and self._events[0][0] < horizon:
            self._events.popleft()
        return sum(amount for _, amount in self._events) / self.window


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
