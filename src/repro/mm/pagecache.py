"""Page cache with dirty-page writeback (the Figure 2 "dirty page
writebacks" path).

Buffered writes don't reach the device synchronously: they dirty pages in
the page cache, and a background flusher writes them back later, charged to
the *dirtying* cgroup (cgroup writeback).  Two control points matter for
IO isolation:

* **background writeback** starts when a cgroup's dirty bytes exceed its
  background threshold — asynchronous, the writer keeps running;
* **dirty throttling** (``balance_dirty_pages``): a writer that pushes its
  dirty total past its hard limit is blocked until writeback drains below
  it — which makes buffered writers ultimately paced by how fast the IO
  controller lets *their* writeback proceed.  Under a proportional
  controller this is precisely how a low-weight bulk writer gets contained
  without touching its syscalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

import numpy as np

from repro.block.bio import Bio, BioFlags, IOOp
from repro.block.layer import BlockLayer
from repro.cgroup import Cgroup
from repro.sim import Simulator

#: Writeback IO is issued in clusters of this many bytes.
WRITEBACK_CLUSTER = 256 * 1024


@dataclass
class DirtyState:
    """Per-cgroup dirty accounting."""

    dirty: int = 0
    written_back_total: int = 0
    throttled_time: float = 0.0
    flusher_running: bool = False
    #: Where this cgroup's next writeback cluster lands.
    next_sector: int = 0


class PageCache:
    """Dirty-page tracking plus a per-cgroup background flusher."""

    def __init__(
        self,
        sim: Simulator,
        layer: BlockLayer,
        background_bytes: int = 16 * 1024 * 1024,
        limit_bytes: int = 64 * 1024 * 1024,
        seed: int = 0,
    ):
        if background_bytes <= 0 or limit_bytes <= background_bytes:
            raise ValueError("need 0 < background_bytes < limit_bytes")
        self.sim = sim
        self.layer = layer
        self.background_bytes = background_bytes
        self.limit_bytes = limit_bytes
        #: Keyed by the cgroup itself, like ``MemoryManager._states``.
        self._states: Dict[Cgroup, DirtyState] = {}
        self._rng = np.random.default_rng(seed)

    def state_of(self, cgroup: Cgroup) -> DirtyState:
        state = self._states.get(cgroup)
        if state is None:
            state = self._states[cgroup] = DirtyState(
                next_sector=int(self._rng.integers(0, 1 << 24)) * 8
            )
        return state

    # -- write path --------------------------------------------------------

    def buffered_write(self, cgroup: Cgroup, nbytes: int) -> Generator:
        """Dirty ``nbytes``; blocks only when over the hard dirty limit."""
        if nbytes <= 0:
            raise ValueError("write bytes must be positive")
        state = self.state_of(cgroup)
        state.dirty += nbytes
        if state.dirty > self.background_bytes:
            self._kick_flusher(cgroup, state)
        # balance_dirty_pages: block the writer while over the hard limit.
        start = self.sim.now
        while state.dirty > self.limit_bytes:
            self._kick_flusher(cgroup, state)
            yield 0.001  # re-check as writeback drains
        state.throttled_time += self.sim.now - start

    def sync(self, cgroup: Cgroup) -> Generator:
        """Write back everything the cgroup has dirtied (fsync of data)."""
        state = self.state_of(cgroup)
        while state.dirty > 0:
            yield from self._writeback_batch(cgroup, state)

    # -- flusher -----------------------------------------------------------

    def _kick_flusher(self, cgroup: Cgroup, state: DirtyState) -> None:
        if state.flusher_running:
            return
        state.flusher_running = True
        self.sim.process(self._flusher(cgroup, state), name=f"flusher-{cgroup.path}")

    #: Writeback keeps this many clusters in flight (flusher concurrency).
    WRITEBACK_DEPTH = 4

    def _flusher(self, cgroup: Cgroup, state: DirtyState) -> Generator:
        try:
            # Flush until comfortably below the background threshold.
            while state.dirty > self.background_bytes // 2:
                yield from self._writeback_batch(cgroup, state)
        finally:
            state.flusher_running = False

    def _writeback_batch(self, cgroup: Cgroup, state: DirtyState) -> Generator:
        """Submit up to WRITEBACK_DEPTH clusters concurrently, wait for all."""
        signals = []
        batched = 0
        while state.dirty - batched > 0 and len(signals) < self.WRITEBACK_DEPTH:
            chunk = min(state.dirty - batched, WRITEBACK_CLUSTER)
            bio = Bio(IOOp.WRITE, chunk, state.next_sector, cgroup)
            state.next_sector = bio.end_sector
            signal = self.sim.signal()
            self.layer.submit(bio, on_done=signal.fire)
            signals.append((signal, chunk))
            batched += chunk
        for signal, chunk in signals:
            if not signal.fired:
                yield signal
            state.dirty -= chunk
            state.written_back_total += chunk
