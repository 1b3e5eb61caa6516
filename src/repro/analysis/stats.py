"""Streaming statistics primitives.

The kernel implementation of IOCost maintains per-device completion-latency
percentiles over a sliding window to drive its QoS decisions; benchmarks in
the paper additionally report means, percentiles, and rates.  This module
provides the equivalents used throughout the reproduction:

* :class:`LatencyLog` — one direction's sliding completion-latency samples,
  each tagged with the key of the cgroup that completed it, and its
  percentiles; :func:`keyed_percentiles` reads many keys' in one pass.
* :class:`TimeSeries` — append-only (time, value) recorder with window
  reductions, used for vrate traces, RPS curves, etc.
* :class:`RateMeter` — events/bytes per second over a sliding window.

The layer records every completion as one sample in one log, so the
sliding stores keep a sample as flat doubles in one ``array('d')``
(:class:`_SlidingStore`): 24 bytes, and no object for the cyclic GC.
Every latency read is a query on the log holding the samples: a device's
by :meth:`LatencyLog.percentiles`, a cgroup's by
:func:`keyed_percentiles` with its record's key.
"""

from __future__ import annotations

import bisect
from array import array
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import select_percentiles


class _SlidingStore:
    """Time-ordered samples of ``_width`` doubles each (time first), flat in
    one ``array('d')``.  ``record`` appends with one ``fromlist`` (``extend``
    converts each double twice) and, once ``now`` reaches ``_due``, calls
    :meth:`_evict`, so a store holds its last window and at most
    ``window / EVICTIONS`` more, read or not.  Queries bisect the time column
    and read the others (a slice, or a zero-copy numpy view), holding no
    export of the buffer when they return (an exported buffer makes the
    next append raise ``BufferError``).  Samples are recorded in time order
    and queried at or after the newest.
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


class LatencyLog(_SlidingStore):
    """One direction's completion latencies on a device, whoever issued
    them.  A sample is (timestamp, latency, key) as three doubles; ``key``
    names the cgroup record that completed it (``key`` defaults to 0 for a
    log fed outside a block layer).  Every read is a nearest-rank selection
    over a copy of the samples inside a horizon
    (:func:`~repro.obs.metrics.select_percentiles`): of every key by
    :meth:`percentiles`, per key by :func:`keyed_percentiles`."""

    _width = 3

    def record(self, now: float, latency: float, key: float = 0.0) -> None:
        self._data.fromlist([now, latency, key])
        if now >= self._due:
            self._evict(now)

    def _columns(self, now: float, horizon: float) -> Tuple[np.ndarray, np.ndarray]:
        """The latencies and keys of the samples no older than ``horizon``
        (a wider one than the window raises): strided views of the store, no
        copy.  They export the store's buffer: drop them before the next
        ``record``."""
        if horizon > self.window:
            raise ValueError(f"horizon {horizon} exceeds the window ({self.window})")
        fresh = self._fresh(now, horizon)
        flat = np.frombuffer(self._data, offset=8 * (len(self._data) - 3 * fresh))
        return flat[1::3], flat[2::3]

    def percentiles(
        self, now: float, pcts: Sequence[float], horizon: Optional[float] = None
    ) -> List[Optional[float]]:
        """Percentiles of every sample no older than ``horizon`` seconds (the
        whole window by default), by one selection; Nones if there are none."""
        latencies = self._columns(now, self.window if horizon is None else horizon)[0]
        if not len(latencies):
            return [None] * len(pcts)
        return select_percentiles(latencies.copy(), pcts)

    def percentile(
        self, now: float, pct: float, horizon: Optional[float] = None
    ) -> Optional[float]:
        """One of :meth:`percentiles`."""
        return self.percentiles(now, (pct,), horizon)[0]


def keyed_percentiles(
    logs: Sequence[LatencyLog],
    now: float,
    keys: Sequence[Optional[float]],
    pcts: Sequence[float],
    horizon: float = 1.0,
) -> List[List[Optional[float]]]:
    """Per key, the percentiles of its samples in ``logs`` no older than
    ``horizon`` seconds; Nones for a key with none (and for the key None: a
    cgroup record before its first completion).

    Each log's columns are read once, whatever the number of keys (and not
    at all when every key is None), as views with no copy; a key's answer
    is one selection over the copy its mask takes of them."""
    if all(key is None for key in keys):
        return [[None] * len(pcts) for _ in keys]
    parts = [log._columns(now, horizon) for log in logs]
    answers = []
    for key in keys:
        mine = () if key is None else np.concatenate(
            [latencies[tags == key] for latencies, tags in parts]
        )
        answers.append(select_percentiles(mine, pcts) if len(mine) else [None] * len(pcts))
    return answers


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
