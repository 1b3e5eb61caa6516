"""Per-cgroup memory accounting, reclaim, swap, and OOM.

The model is byte-granular with page-cluster IO:

* Each cgroup owns ``resident`` and ``swapped`` anonymous bytes.
* :meth:`MemoryManager.alloc` charges new resident memory.  When the
  machine is full, the *allocating* process synchronously drives reclaim:
  victim pages (largest-resident cgroup first) are written to swap as
  SWAP-flagged bios charged to their **owner** — the §3.5 scenario.  The
  allocator waits for those writes, so how the IO controller treats them
  decides who pays:

  - ``SwapChargeMode.DEBT`` (production): writes dispatch immediately; the
    owner repays from future budget, and its allocation loop is slowed at
    the return-to-userspace boundary.
  - ``ROOT``: writes dispatch immediately and nobody pays — a leaker
    thrashes freely.
  - ``ORIGIN_THROTTLE``: writes queue behind the owner's exhausted budget —
    the innocent allocator blocks on them: the priority inversion.

* :meth:`MemoryManager.touch` models working-set access: a fraction of
  touched bytes proportional to the cgroup's swapped share faults, issuing
  SWAP reads charged to the *faulting* group, and swapping the bytes back
  in (possibly reclaiming someone else in turn).

* When swap fills and reclaim still cannot make room, the OOM killer
  removes the largest memory consumer (Figure 14's "eventually killed by
  the OOM killer").

All mutating entry points are generators to be driven inside simulation
processes (``yield from mm.alloc(...)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from typing import Callable, Dict, Generator, List, Optional, Union

from repro.block.bio import Bio, BioFlags, IOOp
from repro.block.layer import BlockLayer
from repro.cgroup import Cgroup
from repro.obs.trace import TRACE
from repro.sim import Simulator

PAGE = 4096
#: Swap-out IO is clustered (the kernel's swap allocator writes clusters).
SWAP_OUT_CLUSTER = 64 * 1024
#: Swap-in faults read ahead a small cluster around the faulting page.
SWAP_IN_CLUSTER = 8 * PAGE


@dataclass
class MemState:
    """One cgroup's anonymous memory."""

    resident: int = 0
    swapped: int = 0
    #: Cumulative counters for analysis.
    swapped_out_total: int = 0
    faulted_in_total: int = 0
    #: Bumped every time this cgroup is OOM-killed; in-flight allocations
    #: notice and abort (the process would be dead).
    kill_epoch: int = 0

    @property
    def total(self) -> int:
        return self.resident + self.swapped

    @property
    def swapped_fraction(self) -> float:
        if self.total == 0:
            return 0.0
        return self.swapped / self.total


@dataclass(frozen=True)
class OOMKill:
    """Record of one OOM kill."""

    time: float
    cgroup_path: str
    freed_bytes: int


class MemoryPressureError(RuntimeError):
    """Raised when an allocation cannot be satisfied even after OOM kills."""


class MemoryManager:
    """Machine-level memory with reclaim and swap via the block layer."""

    def __init__(
        self,
        sim: Simulator,
        layer: BlockLayer,
        total_bytes: int,
        swap_bytes: int,
        protected: Optional[Dict[str, int]] = None,
        limits: Optional[Dict[str, int]] = None,
        kswapd: bool = True,
        seed: Union[int, np.random.SeedSequence] = 0,
        swap_layer: Optional[BlockLayer] = None,
    ) -> None:
        self.sim = sim
        self.layer = layer
        #: Where swap IO goes.  Defaults to the data device, but real fleets
        #: often place swap on a different device than the workload's data
        #: (the swap-vs-data interference the paper controls for) — pass the
        #: swap device's layer to model that.  Debt/attribution decisions
        #: follow the *swap* device's controller, since that is the
        #: controller the swap bios flow through.
        self.swap_layer = swap_layer if swap_layer is not None else layer
        self.total_bytes = total_bytes
        self.swap_bytes = swap_bytes
        #: memory.low-style protection: reclaim skips a cgroup while its
        #: resident memory is at or below its protected bytes.
        self.protected = dict(protected or {})
        #: memory.max-style hard limits: a cgroup allocating past its limit
        #: reclaims its *own* pages first (cgroup-local reclaim) — which is
        #: exactly the reclaim-IO interference §5 says memory control alone
        #: cannot fix.
        self.limits = dict(limits or {})
        #: Keyed by the cgroup itself: one re-created at a dead one's path
        #: starts at zero.  (``protected``/``limits``/``on_oom`` are
        #: configuration, hence path-keyed.)
        self._states: Dict[Cgroup, MemState] = {}
        self.oom_kills: List[OOMKill] = []
        self.oom_callbacks: Dict[str, Callable[[], None]] = {}
        self._swap_sector = 1 << 34  # swap partition "location"
        self._rng = np.random.default_rng(seed)
        # Background reclaim (kswapd): wakes below the low watermark and
        # evicts asynchronously until the high watermark, so allocators
        # rarely block on direct reclaim — and the swap storm runs at
        # device speed rather than one allocator's synchronous pace.
        self.kswapd_enabled = kswapd
        self.low_watermark = int(total_bytes * 0.04)
        self.high_watermark = int(total_bytes * 0.08)
        self._kswapd_running = False
        self.kswapd_reclaimed_total = 0
        self._tp_reclaim = TRACE.points["reclaim_scan"]
        self._tp_swap_out = TRACE.points["swap_out"]

    # -- accounting -----------------------------------------------------------

    def state_of(self, cgroup: Cgroup) -> MemState:
        state = self._states.get(cgroup)
        if state is None:
            state = self._states[cgroup] = MemState()
        return state

    @property
    def resident_total(self) -> int:
        return sum(state.resident for state in self._states.values())

    @property
    def swapped_total(self) -> int:
        return sum(state.swapped for state in self._states.values())

    @property
    def free_bytes(self) -> int:
        return self.total_bytes - self.resident_total

    def on_oom(self, cgroup: Cgroup, callback: Callable[[], None]) -> None:
        """Register a callback fired if ``cgroup`` is OOM-killed."""
        self.oom_callbacks[cgroup.path] = callback

    # -- debt hook ---------------------------------------------------------------

    def _userspace_delay(self, cgroup: Cgroup) -> float:
        """§3.5 return-to-userspace throttle, if the controller provides it.

        Swap debt accrues on the swap device's controller, so that is the
        one asked for the delay.
        """
        hook = getattr(self.swap_layer.controller, "userspace_delay", None)
        if hook is None:
            return 0.0
        return hook(cgroup)

    # -- public operations (generators) -------------------------------------------

    def alloc(self, cgroup: Cgroup, nbytes: int) -> Generator:
        """Charge ``nbytes`` of new anonymous memory to ``cgroup``.

        Drives synchronous reclaim when the machine is full; applies the
        debt throttle before "returning to userspace".
        """
        if nbytes < 0:
            raise ValueError("cannot allocate negative bytes")
        state = self.state_of(cgroup)
        # Charge incrementally, like faulting pages in one by one: an
        # allocation larger than free memory reclaims as it grows (and can
        # end up reclaiming the allocator's own older pages).
        epoch = state.kill_epoch
        limit = self.limits.get(cgroup.path)
        remaining = nbytes
        while remaining > 0:
            chunk = min(remaining, 4 * SWAP_OUT_CLUSTER)
            # memory.max: local reclaim of the cgroup's own pages first.
            if limit is not None and state.resident + chunk > limit:
                overshoot = state.resident + chunk - limit
                yield from self._swap_out(cgroup, overshoot)
                if state.kill_epoch != epoch:
                    return
            yield from self._make_room(chunk, requester=cgroup)
            if state.kill_epoch != epoch:
                return  # OOM-killed mid-allocation: the process is gone
            state.resident += chunk
            remaining -= chunk
            # The §3.5 debt check runs at *every* return to userspace, i.e.
            # once per faulted-in chunk, so an indebted allocator is paced
            # continuously rather than once per large malloc.
            delay = self._userspace_delay(cgroup)
            if delay > 0:
                yield delay

    def touch(self, cgroup: Cgroup, nbytes: int) -> Generator:
        """Access ``nbytes`` of the cgroup's memory, faulting swapped pages.

        The faulted fraction equals the cgroup's swapped share — a uniform
        random-access approximation of LRU behaviour.
        """
        state = self.state_of(cgroup)
        fault_bytes = int(nbytes * state.swapped_fraction)
        fault_bytes = min(fault_bytes, state.swapped)
        if fault_bytes > 0:
            yield from self._swap_in(cgroup, fault_bytes)
        delay = self._userspace_delay(cgroup)
        if delay > 0:
            yield delay

    def free(self, cgroup: Cgroup, nbytes: Optional[int] = None) -> None:
        """Release memory (resident first, then swapped); None frees all."""
        state = self.state_of(cgroup)
        if nbytes is None:
            nbytes = state.total
        take_resident = min(nbytes, state.resident)
        state.resident -= take_resident
        state.swapped -= min(nbytes - take_resident, state.swapped)

    # -- reclaim ------------------------------------------------------------------

    def _victim(self, requester: Optional[Cgroup]) -> Optional[Cgroup]:
        """Pick a reclaim victim, weighted by reclaimable bytes.

        Approximates a global LRU: a randomly-chosen cold page belongs to a
        cgroup with probability proportional to its (unprotected) resident
        size, so every large consumer keeps losing pages while pressure
        lasts — the churn that makes thrashing continuous.
        """
        victims = []
        weights = []
        for cgroup, state in self._states.items():
            floor = self.protected.get(cgroup.path, 0)
            reclaimable = state.resident - floor
            if reclaimable > 0:
                victims.append(cgroup)
                weights.append(reclaimable)
        if not victims:
            return None
        total = float(sum(weights))
        draw = self._rng.random() * total
        acc = 0.0
        for cgroup, weight in zip(victims, weights):
            acc += weight
            if draw <= acc:
                return cgroup
        return victims[-1]

    def _maybe_wake_kswapd(self) -> None:
        if (
            self.kswapd_enabled
            and not self._kswapd_running
            and self.free_bytes < self.low_watermark
        ):
            self._kswapd_running = True
            self.sim.process(self._kswapd_loop(), name="kswapd")

    def _kswapd_loop(self) -> Generator:
        try:
            while self.free_bytes < self.high_watermark:
                need = self.high_watermark - self.free_bytes
                if self.swapped_total + need > self.swap_bytes:
                    return  # swap full; direct reclaim will OOM
                victim = self._victim(requester=None)
                if victim is None:
                    return
                victim_state = self._states[victim]
                floor = self.protected.get(victim.path, 0)
                # kswapd batches reclaim aggressively: a whole watermark gap
                # worth of clusters goes out concurrently per pass.
                chunk = min(need, victim_state.resident - floor, 64 * SWAP_OUT_CLUSTER)
                if chunk <= 0:
                    return
                if self._tp_reclaim.enabled:
                    self._tp_reclaim.emit(
                        self.sim.now,
                        requester="kswapd",
                        victim=victim.path,
                        nbytes=chunk,
                        free_bytes=self.free_bytes,
                    )
                yield from self._swap_out(victim, chunk)
                self.kswapd_reclaimed_total += chunk
        finally:
            self._kswapd_running = False

    def _make_room(self, nbytes: int, requester: Cgroup) -> Generator:
        self._maybe_wake_kswapd()
        attempts = 0
        while self.free_bytes < nbytes:
            need = nbytes - self.free_bytes
            if self.swapped_total + need > self.swap_bytes:
                self._oom_kill()
                attempts += 1
                if attempts > len(self._states) + 1:
                    raise MemoryPressureError("OOM killer cannot make room")
                continue
            victim = self._victim(requester)
            if victim is None:
                self._oom_kill()
                attempts += 1
                if attempts > len(self._states) + 1:
                    raise MemoryPressureError("no reclaimable memory")
                continue
            victim_state = self._states[victim]
            floor = self.protected.get(victim.path, 0)
            chunk = min(need, victim_state.resident - floor, 4 * SWAP_OUT_CLUSTER)
            if self._tp_reclaim.enabled:
                self._tp_reclaim.emit(
                    self.sim.now,
                    requester=requester.path,
                    victim=victim.path,
                    nbytes=chunk,
                    free_bytes=self.free_bytes,
                )
            yield from self._swap_out(victim, chunk)

    def _swap_attribution(self, owner: Cgroup) -> Cgroup:
        """Which cgroup swap-out writes are charged to.

        Memory-management-aware controllers (Table 1: iolatency, iocost)
        attribute reclaim writeback to the page *owner*; the others see it
        in the reclaim context — the root cgroup (kswapd) — which is
        precisely their isolation failure.
        """
        if self.swap_layer.controller.mm_aware:
            return owner
        root = owner
        while root.parent is not None:
            root = root.parent
        return root

    def _swap_out(self, owner: Cgroup, nbytes: int) -> Generator:
        """Write ``nbytes`` of the owner's pages to swap."""
        state = self.state_of(owner)
        nbytes = min(nbytes, state.resident)
        if nbytes <= 0:
            return
        charge_to = self._swap_attribution(owner)
        if self._tp_swap_out.enabled:
            self._tp_swap_out.emit(
                self.sim.now,
                dev=self.swap_layer.dev,
                owner=owner.path,
                charged_to=charge_to.path,
                nbytes=nbytes,
            )
        remaining = nbytes
        signals = []
        while remaining > 0:
            chunk = min(remaining, SWAP_OUT_CLUSTER)
            bio = Bio(IOOp.WRITE, chunk, self._swap_sector, charge_to, flags=BioFlags.SWAP)
            self._swap_sector += chunk // 512
            signal = self.sim.signal()
            self.swap_layer.submit(bio, on_done=signal.fire)
            signals.append(signal)
            remaining -= chunk
        # The reclaiming process waits for all swap-out writes (§3.5's
        # synchronous dependency).
        for signal in signals:
            if not signal.fired:
                yield signal
        state.resident -= nbytes
        state.swapped += nbytes
        state.swapped_out_total += nbytes

    def _swap_in(self, cgroup: Cgroup, nbytes: int) -> Generator:
        """Fault ``nbytes`` back in; reads charged to the faulting group."""
        state = self.state_of(cgroup)
        # Faulted pages need resident room first.
        yield from self._make_room(nbytes, requester=cgroup)
        remaining = nbytes
        signals = []
        while remaining > 0:
            chunk = min(remaining, SWAP_IN_CLUSTER)
            bio = Bio(IOOp.READ, chunk, self._swap_sector, cgroup, flags=BioFlags.SWAP)
            signal = self.sim.signal()
            self.swap_layer.submit(bio, on_done=signal.fire)
            signals.append(signal)
            remaining -= chunk
        for signal in signals:
            if not signal.fired:
                yield signal
        moved = min(nbytes, state.swapped)
        state.swapped -= moved
        state.resident += moved
        state.faulted_in_total += nbytes

    # -- OOM ---------------------------------------------------------------------

    def _oom_kill(self) -> None:
        """Kill the largest memory consumer and free everything it owns."""
        victim = None
        victim_size = 0
        for cgroup, state in self._states.items():
            if state.total > victim_size:
                victim, victim_size = cgroup, state.total
        if victim is None:
            raise MemoryPressureError("OOM with no memory consumers")
        state = self._states[victim]
        freed = state.total
        state.resident = 0
        state.swapped = 0
        state.kill_epoch += 1
        self.oom_kills.append(OOMKill(self.sim.now, victim.path, freed))
        callback = self.oom_callbacks.get(victim.path)
        if callback is not None:
            callback()
