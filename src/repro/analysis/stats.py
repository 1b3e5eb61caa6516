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

The layer records every completion in two latency windows, so the sliding
stores keep a sample as flat doubles in one ``array('d')``
(:class:`_SlidingStore`): 24 bytes, and no object for the cyclic GC.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.obs.metrics import exact_percentile


class _SlidingStore:
    """Time-ordered samples of ``_width`` doubles each (time first), flat in
    one ``array('d')``.  ``record`` appends with one ``fromlist`` (``extend``
    converts each double twice) and, once ``now`` reaches ``_due``, calls
    :meth:`_evict`, so a store holds its last window and at most
    ``window / EVICTIONS`` more, read or not.  Queries bisect the time column
    and slice the others, releasing the memoryview before they return (an
    exported buffer makes the next append raise ``BufferError``).  Samples
    are recorded in time order and queried at or after the newest.
    """

    _width: int
    #: Evictions per window: the store's slack is ``window / EVICTIONS``.
    EVICTIONS = 8

    def __init__(self, window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._data = array("d")
        self._due = float("-inf")

    def __len__(self) -> int:
        """The live samples: those no older than the window at the newest."""
        data = self._data
        return self._fresh(data[-self._width], self.window) if data else 0

    def _first(self, since: float) -> int:
        """Index of the first sample at or after time ``since``."""
        with memoryview(self._data) as flat, flat[:: self._width] as times:
            return bisect.bisect_left(times, since)

    def _fresh(self, now: float, horizon: float) -> int:
        """How many of the newest samples are no older than ``horizon`` seconds."""
        return len(self._data) // self._width - self._first(now - horizon)

    def _evict(self, now: float) -> None:
        del self._data[: self._width * self._first(now - self.window)]
        self._due = now + self.window / self.EVICTIONS


class LatencyWindow(_SlidingStore):
    """Sliding-window latency samples with percentile queries.

    A sample is (timestamp, latency, is_write) as three doubles.  The block
    layer's device windows are the signal source for IOCost's saturation
    detection.
    """

    _width = 3

    def record(self, now: float, latency: float, is_write: bool = False) -> None:
        self._data.fromlist([now, latency, is_write])
        if now >= self._due:
            self._evict(now)

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
        data = self._data
        start = len(data) - 3 * self._fresh(now, horizon)
        latencies: Sequence[float] = data[start + 1 :: 3]
        if reads_only:
            writes = data[start + 2 :: 3]
            latencies = [lat for lat, is_write in zip(latencies, writes) if not is_write]
        if not latencies:
            return None
        return exact_percentile(latencies, pct)


class RateMeter(_SlidingStore):
    """Events (optionally weighted, e.g. by bytes) per second over a window.

    A sample is (timestamp, amount) as two doubles."""

    _width = 2

    def __init__(self, window: float = 1.0) -> None:
        super().__init__(window)
        self.total = 0.0

    def record(self, now: float, amount: float = 1.0) -> None:
        self._data.fromlist([now, amount])
        self.total += amount
        if now >= self._due:
            self._evict(now)

    def rate(self, now: float) -> float:
        """Windowed rate in amount/second, summed oldest first."""
        data = self._data
        return sum(data[len(data) - 2 * self._fresh(now, self.window) + 1 :: 2]) / self.window


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
