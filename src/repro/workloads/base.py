"""Workload base classes and helpers."""

from __future__ import annotations

from array import array
from typing import List, Optional

import numpy as np

from repro.block.bio import Bio, IOOp
from repro.block.layer import BlockLayer
from repro.cgroup import Cgroup
from repro.obs.metrics import exact_percentile
from repro.sim import Simulator

PAGE = 4096


class SectorPicker:
    """Generates page-aligned sectors, random or sequential.

    Random sectors may be drawn from the generator in chunks (``chunk`` >
    1): numpy array draws consume the bit stream identically to repeated
    scalar draws, so chunking changes per-call cost, never the sector
    sequence.  Leave ``chunk`` at 1 when the generator is shared with other
    consumers — pre-drawing would reorder the stream interleaving.
    """

    #: Sectors are drawn from ``[0, SPAN_SECTORS)`` (1 TiB).
    SPAN_SECTORS = 1 << 31

    def __init__(
        self,
        rng: np.random.Generator,
        sequential: bool,
        chunk: int = 1,
    ):
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.rng = rng
        self.sequential = sequential
        self.chunk = chunk
        self._next = int(rng.integers(0, self.SPAN_SECTORS // 2)) // 8 * 8
        self._buf: List[int] = []
        self._i = 0

    def next(self, nbytes: int) -> int:
        if self.sequential:
            sector = self._next
            self._next += (nbytes + 511) // 512
            return sector
        if self.chunk == 1:
            return int(self.rng.integers(1, self.SPAN_SECTORS // 8)) * 8
        i = self._i
        if i == len(self._buf):
            self._buf = (self.rng.integers(1, self.SPAN_SECTORS // 8, size=self.chunk) * 8).tolist()
            i = 0
        self._i = i + 1
        return self._buf[i]


class Workload:
    """Base class: owns its cgroup, tracks completions and latencies."""

    def __init__(
        self,
        sim: Simulator,
        layer: BlockLayer,
        cgroup: Cgroup,
        seed: int = 0,
    ):
        self.sim = sim
        self.layer = layer
        self.cgroup = cgroup
        self.rng = np.random.default_rng(seed)
        self.completed = 0
        self.bytes_done = 0
        self.latencies = array("d")
        self.running = False

    def start(self) -> "Workload":
        self.running = True
        return self

    def stop(self) -> None:
        self.running = False

    def _record(self, bio: Bio) -> None:
        self.completed += 1
        self.bytes_done += bio.nbytes
        self.latencies.append(bio.latency)

    def iops(self, duration: float) -> float:
        return self.completed / duration

    def recent_percentile(self, pct: float, last: int = 200) -> Optional[float]:
        """Nearest-rank percentile over the most recent ``last`` completions."""
        if not self.latencies:
            return None
        return exact_percentile(self.latencies[-last:], pct)
