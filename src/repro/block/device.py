"""Simulated block storage device.

The device is the hardware substitute for the paper's SSDs, spinning disks,
and cloud volumes.  It reproduces the *observable* behaviour IO control
reacts to:

* bounded internal parallelism (``parallelism`` service channels) — offered
  load beyond it queues inside the device, which is where completion-latency
  inflation under saturation comes from;
* per-request service times by operation class (read/write ×
  physically-sequential/random) plus a size-proportional transfer term, so
  4 KiB random IOPS and sequential bandwidth are independently calibratable;
* lognormal service-time noise with an optional stall tail — the
  "unpredictable SSD behaviours" of §5;
* a write-buffer/garbage-collection model: sustained writes beyond the
  drain rate accumulate *GC debt*; once debt exceeds the buffer, writes (and,
  mildly, reads) slow down until the debt drains — the burst-then-degrade
  behaviour the paper's QoS throttling exists to contain;
* provisioned-rate caps and a network round-trip for remote volumes
  (EBS / GCP-PD).

Service begins in FIFO order per the internal queue; scheduling policy
(reordering, fairness) is the job of the *controller* above the device.
A bio may arrive before its ``issue_time`` (the issue path's CPU cost, see
:mod:`repro.block.layer`); it neither starts nor competes for a channel
before then.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.block.bio import Bio, BioStatus
from repro.obs.trace import TRACE
from repro.sanitize import SANITIZE
from repro.sim import Event, Simulator, labeled_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults import FaultPlan


@dataclass(frozen=True)
class DeviceSpec:
    """Calibration parameters for one device model.

    ``srv_*`` are 4 KiB service times at queue depth 1 (seconds); transfer
    beyond 4 KiB is charged at the per-channel share of ``read_bw`` /
    ``write_bw`` (bytes per second, device aggregate).  Peak 4 KiB random
    read IOPS is therefore ``parallelism / srv_rand_read``.
    """

    name: str
    parallelism: int
    srv_rand_read: float
    srv_seq_read: float
    srv_rand_write: float
    srv_seq_write: float
    read_bw: float
    write_bw: float
    sigma: float = 0.2
    tail_prob: float = 0.0
    tail_scale: float = 1.0
    # Write-buffer / garbage-collection model (0 buffer disables it).
    gc_buffer_bytes: int = 0
    gc_drain_bps: float = 0.0
    gc_write_slowdown: float = 4.0
    gc_read_slowdown: float = 1.5
    # Remote-volume model.
    network_rtt: float = 0.0
    iops_limit: float = 0.0  # provisioned IOPS cap, 0 = uncapped
    #: Spinning disk: the internal queue is serviced shortest-seek-first
    #: (NCQ / firmware elevator) instead of read-priority FIFO.
    rotational: bool = False
    # Block-layer request slots available for this device (rq depletion
    # signal for IOCost saturation detection).
    nr_slots: int = 256

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        for attr in ("srv_rand_read", "srv_seq_read", "srv_rand_write", "srv_seq_write"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        if self.read_bw <= 0 or self.write_bw <= 0:
            raise ValueError("bandwidths must be positive")
        if self.nr_slots < 1:
            raise ValueError("nr_slots must be >= 1")

    # -- derived peak rates (used by profiling tests and benchmarks) ------

    @property
    def peak_rand_read_iops(self) -> float:
        return self.parallelism / self.srv_rand_read

    @property
    def peak_seq_read_iops(self) -> float:
        return self.parallelism / self.srv_seq_read

    @property
    def peak_rand_write_iops(self) -> float:
        return self.parallelism / self.srv_rand_write

    @property
    def peak_seq_write_iops(self) -> float:
        return self.parallelism / self.srv_seq_write

    def scaled(self, factor: float) -> "DeviceSpec":
        """A spec uniformly ``factor``× faster (used to down-scale heavy
        benchmarks while preserving relative behaviour)."""
        return replace(
            self,
            name=f"{self.name}-x{factor:g}",
            srv_rand_read=self.srv_rand_read / factor,
            srv_seq_read=self.srv_seq_read / factor,
            srv_rand_write=self.srv_rand_write / factor,
            srv_seq_write=self.srv_seq_write / factor,
            read_bw=self.read_bw * factor,
            write_bw=self.write_bw * factor,
            gc_drain_bps=self.gc_drain_bps * factor,
        )


#: Device id given to devices created outside a :class:`~repro.testbed.Testbed`
#: (single-device rigs, unit tests).  Matches the kernel's first SCSI disk.
DEFAULT_DEVNO = "8:0"


def devno_for_index(index: int) -> str:
    """The ``maj:min`` id of a machine's ``index``-th disk (``8:0``,
    ``8:16``, ...): Linux SCSI-disk numbering, major 8, 16 minors a disk."""
    return f"8:{index * 16}"


#: Service-noise draws pre-computed per refill (docs/PERF.md).  Chunk size
#: is a pure performance knob: numpy array draws consume the bit stream
#: identically to scalar draws, so the sampled sequence is chunk-invariant.
NOISE_CHUNK = 4096


def noise_stream(rng: np.random.Generator, label: str) -> np.random.Generator:
    """A label-keyed child stream of ``rng``'s seed material.

    Mirrors ``Testbed.rng_for``'s SeedSequence labeling: the child's spawn
    key extends the parent's with a hash of ``label``, so sub-streams are a
    pure function of (machine seed, device label, noise label) and never
    consume — or perturb — the parent stream.  Falls back to drawing one
    seed from ``rng`` when it carries no SeedSequence (hand-built
    generators in tests); that consumes parent draws, so catalogue devices
    always take the labeled path.
    """
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    entropy = getattr(seed_seq, "entropy", None)
    if entropy is None:
        return np.random.default_rng(int(rng.integers(0, 2 ** 63)))
    parent_key = getattr(seed_seq, "spawn_key", ())
    return np.random.default_rng(labeled_seed(entropy, label, parent_key))


class Device:
    """Discrete-event model of one block device.

    ``name`` is the machine-local block-device name (``vda``-style; defaults
    to the spec's catalogue name) and ``devno`` the stable ``maj:min`` id
    under which all per-device accounting — io.stat lines, per-cgroup
    :class:`~repro.cgroup.tree.IOStats` records, tracepoint ``dev`` fields —
    is keyed.  A :class:`~repro.testbed.Testbed` numbers its devices in
    order with :func:`devno_for_index`.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: DeviceSpec,
        rng: np.random.Generator,
        *,
        name: Optional[str] = None,
        devno: str = DEFAULT_DEVNO,
        faults: Optional["FaultPlan"] = None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.rng = rng
        self.name = name if name is not None else spec.name
        self.devno = devno
        # Cached: checked once per submitted bio.
        self._parallelism = spec.parallelism
        # Vectorized service-time noise (docs/PERF.md): scalar per-bio
        # rng.normal()/rng.random() draws are replaced by chunked pre-draws
        # from two label-keyed sub-streams of this device's seed material.
        # Streams are split by *label*, not draw order, so the sigma
        # sequence is identical whether or not the spec has a stall tail
        # (and vice versa), and fault plans — which draw from their own
        # stream — can never shift either.  The multipliers are
        # pre-exponentiated: one float multiply per bio replaces a scalar
        # normal draw plus math.exp.
        self._noise_mult: List[float] = []
        self._noise_i = 0
        self._tail_draws: List[float] = []
        self._tail_i = 0
        self._sigma_rng = noise_stream(rng, "noise:sigma") if spec.sigma > 0 else None
        self._tail_rng = noise_stream(rng, "noise:tail") if spec.tail_prob > 0 else None
        self.on_complete: Optional[Callable[[Bio], None]] = None
        # Internal queues: reads are serviced ahead of queued writes (flash
        # controllers buffer writes and prioritise reads), with a small
        # anti-starvation ratio for writes.
        self._read_queue: Deque[Bio] = deque()
        self._write_queue: Deque[Bio] = deque()
        self._reads_since_write = 0
        self._busy_channels = 0
        self._next_sector = 0  # physical-sequentiality tracker
        # Lazily-drained GC debt in bytes.
        self._gc_debt = 0.0
        self._gc_updated = 0.0
        # Provisioned-IOPS token clock (time the next request may start).
        self._token_time = 0.0
        # Fault injection (repro.faults): requests in service are tracked by
        # bio id so a hung or timed-out request can be aborted; hung bios
        # hold their channel with no completion scheduled.
        self.faults = faults
        self._inservice: Dict[int, Event] = {}
        self._hung: Dict[int, Tuple[Bio, float, float]] = {}
        # Statistics.
        self.completed_ios = 0
        self.completed_bytes = 0
        self.errored_ios = 0
        self.aborted_ios = 0
        self.gc_slow_ios = 0
        # Cached sanitizer: channel conservation checked at every
        # begin/complete/abort transition (repro.sanitize).
        self._san = SANITIZE
        # Cached tracepoints (single flag check when tracing is disabled).
        self._tp_complete = TRACE.points["bio_complete"]
        self._tp_fault_begin = TRACE.points["dev_fault_begin"]
        self._tp_fault_end = TRACE.points["dev_fault_end"]
        if faults is not None:
            self._schedule_fault_windows(faults)

    # -- public interface ---------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Requests handed to the device: in service or queued, issued or not."""
        return self._busy_channels + len(self._read_queue) + len(self._write_queue)

    #: Serve one queued write after at most this many priority reads.
    WRITE_STARVATION_LIMIT = 8

    def submit(self, bio: Bio) -> None:
        """Accept a dispatched bio; takes a free channel or queues internally.
        Service starts at ``bio.issue_time`` (unset: now), which may be ahead
        of the clock."""
        if bio.issue_time is None:
            bio.issue_time = self.sim.now
        if self._busy_channels < self._parallelism:
            self._begin(bio)
        elif bio.is_write:
            self._write_queue.append(bio)
        else:
            self._read_queue.append(bio)

    def _pop_next(self) -> Optional[Bio]:
        if self.spec.rotational:
            return self._pop_shortest_seek()
        # Each queue is in issue order, so a head still ahead of the clock
        # means the whole queue is not issued yet and does not compete.
        reads, writes = self._read_queue, self._write_queue
        now = self.sim.now
        read_issued = reads and reads[0].issue_time <= now
        write_issued = writes and writes[0].issue_time <= now
        if write_issued and (
            not read_issued or self._reads_since_write >= self.WRITE_STARVATION_LIMIT
        ):
            self._reads_since_write = 0
            return writes.popleft()
        if read_issued:
            self._reads_since_write += 1
            return reads.popleft()
        return self._pop_first_pending()

    def _pop_first_pending(self) -> Optional[Bio]:
        """Nothing issued waits: the channel goes to the first bio to be
        issued, which begins at its issue time as if it had found the
        channel free then (no pop, so no starvation count)."""
        reads, writes = self._read_queue, self._write_queue
        if reads and (not writes or reads[0].issue_time <= writes[0].issue_time):
            return reads.popleft()
        return writes.popleft() if writes else None

    #: A queued request older than this is serviced regardless of seek
    #: distance (anti-starvation aging, as real firmware elevators do).
    SEEK_AGE_LIMIT = 0.03

    def _pop_shortest_seek(self) -> Optional[Bio]:
        """NCQ-style selection among issued requests: nearest wins, bounded
        by aging."""
        now = self.sim.now
        best_queue, best_index, best_distance = None, -1, None
        oldest_queue, oldest_index, oldest_time = None, -1, None
        for queue in (self._read_queue, self._write_queue):
            for index, bio in enumerate(queue):
                issued = bio.issue_time
                if issued > now:
                    break  # this one and the rest of its queue are pending
                distance = abs(bio.sector - self._next_sector)
                if best_distance is None or distance < best_distance:
                    best_queue, best_index, best_distance = queue, index, distance
                if oldest_time is None or issued < oldest_time:
                    oldest_queue, oldest_index, oldest_time = queue, index, issued
        if best_queue is None:
            return self._pop_first_pending()
        if now - oldest_time > self.SEEK_AGE_LIMIT:
            bio = oldest_queue[oldest_index]
            del oldest_queue[oldest_index]
            return bio
        bio = best_queue[best_index]
        del best_queue[best_index]
        return bio

    # -- internals ------------------------------------------------------------

    def _drain_gc(self, now: float) -> None:
        if self.spec.gc_drain_bps > 0:
            elapsed = now - self._gc_updated
            if elapsed > 0:
                debt = self._gc_debt - elapsed * self.spec.gc_drain_bps
                self._gc_debt = debt if debt > 0.0 else 0.0
        self._gc_updated = now

    def _service_time(self, bio: Bio, start: float) -> float:
        spec = self.spec
        if bio.is_write:
            base = spec.srv_seq_write if bio.device_sequential else spec.srv_rand_write
            channel_bw = spec.write_bw / spec.parallelism
        else:
            base = spec.srv_seq_read if bio.device_sequential else spec.srv_rand_read
            channel_bw = spec.read_bw / spec.parallelism
        nbytes = bio.nbytes
        service = base if nbytes <= 4096 else base + (nbytes - 4096) / channel_bw

        # Garbage-collection degradation.
        if spec.gc_buffer_bytes > 0:
            self._drain_gc(start)
            if bio.is_write:
                self._gc_debt += bio.nbytes
            if self._gc_debt > spec.gc_buffer_bytes:
                service *= spec.gc_write_slowdown if bio.is_write else spec.gc_read_slowdown
                self.gc_slow_ios += 1

        # Service-time noise with optional stall tail, from the chunked
        # label-keyed sub-streams (see __init__ / docs/PERF.md).
        if self._sigma_rng is not None:
            i = self._noise_i
            if i == len(self._noise_mult):
                self._noise_mult = np.exp(
                    self._sigma_rng.normal(0.0, spec.sigma, NOISE_CHUNK)
                ).tolist()
                i = 0
            self._noise_i = i + 1
            service *= self._noise_mult[i]
        if self._tail_rng is not None:
            i = self._tail_i
            if i == len(self._tail_draws):
                self._tail_draws = self._tail_rng.random(NOISE_CHUNK).tolist()
                i = 0
            self._tail_i = i + 1
            if self._tail_draws[i] < spec.tail_prob:
                service *= spec.tail_scale
        return service + spec.network_rtt

    def _begin(self, bio: Bio) -> None:
        # Physical sequentiality is a property of *service* order (NCQ may
        # reorder queued requests), so it is decided here, not at submit.
        bio.device_sequential = bio.sector == self._next_sector
        self._next_sector = bio.end_sector
        self._busy_channels += 1
        if self._san.enabled:
            self._san.check_channels(self._busy_channels, self._parallelism, self.devno)
        # Service starts once the bio is issued; everything below — token
        # clock, GC drain, fault windows — happens at that instant.
        start = bio.issue_time
        now = self.sim.now
        if start < now:
            start = now
        delay = 0.0
        if self.spec.iops_limit > 0:
            interval = 1.0 / self.spec.iops_limit
            token = self._token_time if self._token_time > start else start
            self._token_time = token + interval
            delay = token - start
        # The service-time draw happens before the fault decision so the
        # noise stream consumed is identical with and without a fault plan.
        service = self._service_time(bio, start)
        if self.faults is not None:
            decision = self.faults.decide(start, bio)
            service *= decision.latency_mult
            delay += decision.delay
            if decision.error:
                bio.status = BioStatus.EIO
            if decision.hang:
                # Parked: channel held, no completion scheduled.  Resumes at
                # the end of the hang window ``start`` falls in, or is
                # reclaimed by abort().
                self._hung[bio.id] = (bio, delay + service, start)
                return
        self._inservice[bio.id] = self.sim.schedule_at(
            start + (delay + service), self._complete, bio
        )

    def _complete(self, bio: Bio) -> None:
        self._inservice.pop(bio.id, None)
        self._busy_channels -= 1
        if self._san.enabled:
            self._san.check_channels(self._busy_channels, self._parallelism, self.devno)
        if bio.status is BioStatus.OK:
            self.completed_ios += 1
            self.completed_bytes += bio.nbytes
        else:
            self.errored_ios += 1
        if self._read_queue or self._write_queue:
            nxt = self._pop_next()
            if nxt is not None:
                self._begin(nxt)
        if self.on_complete is not None:
            self.on_complete(bio)
        # Emitted after the block layer's completion hook so the bio's
        # complete_time / latency properties are populated.  Failed bios get
        # ``bio_error`` from the block layer instead (after retries).
        if self._tp_complete.enabled and bio.ok and bio.complete_time is not None:
            self._tp_complete.emit(
                self.sim.now,
                dev=self.devno,
                id=bio.id,
                cgroup=bio.cgroup.path,
                op=bio.op.value,
                nbytes=bio.nbytes,
                sector=bio.sector,
                flags=bio.flags.value,
                prio=bio.prio,
                submit_time=bio.submit_time,
                latency=bio.latency,
                device_latency=bio.device_latency,
            )

    # -- fault injection ------------------------------------------------------

    def abort(self, bio: Bio) -> bool:
        """Forget a dispatched bio without completing it (timeout reclaim).

        Covers every place the bio can be: parked in a hang, in service
        (its completion event is cancelled), or still in an internal queue.
        A freed service channel immediately begins the next queued request.
        Returns False when the device does not hold the bio.
        """
        parked = self._hung.pop(bio.id, None)
        if parked is not None:
            self.aborted_ios += 1
            self._free_channel()
            return True
        event = self._inservice.pop(bio.id, None)
        if event is not None:
            event.cancel()
            self.aborted_ios += 1
            self._free_channel()
            return True
        for queue in (self._read_queue, self._write_queue):
            try:
                queue.remove(bio)
            except ValueError:
                continue
            self.aborted_ios += 1
            return True
        return False

    def _free_channel(self) -> None:
        self._busy_channels -= 1
        if self._san.enabled:
            self._san.check_channels(self._busy_channels, self._parallelism, self.devno)
        nxt = self._pop_next()
        if nxt is not None:
            self._begin(nxt)

    def _schedule_fault_windows(self, plan: "FaultPlan") -> None:
        # Boundaries are scheduled unconditionally (not trace-gated) so a
        # finite hang resumes its parked bios whether or not anyone traces.
        # Batched through schedule_bulk: one heap restore for the whole
        # plan instead of one push per window boundary.
        now = self.sim.now
        entries = []
        for index, fault in enumerate(plan.faults):
            entries.append(
                (max(0.0, fault.start - now), self._fault_begin, (index, fault))
            )
            if math.isfinite(fault.end):
                entries.append(
                    (max(0.0, fault.end - now), self._fault_end, (index, fault))
                )
        self.sim.schedule_bulk(entries)

    def _fault_begin(self, index: int, fault: object) -> None:
        if self._tp_fault_begin.enabled:
            end = fault.end  # type: ignore[attr-defined]
            self._tp_fault_begin.emit(
                self.sim.now,
                dev=self.devno,
                kind=fault.kind,  # type: ignore[attr-defined]
                index=index,
                until=end if math.isfinite(end) else -1.0,
            )

    def _fault_end(self, index: int, fault: object) -> None:
        if self._tp_fault_end.enabled:
            self._tp_fault_end.emit(
                self.sim.now,
                dev=self.devno,
                kind=fault.kind,  # type: ignore[attr-defined]
                index=index,
            )
        if fault.kind == "hang":  # type: ignore[attr-defined]
            self._resume_hung()

    def _resume_hung(self) -> None:
        """Un-park hung bios (hang window ended — a controller reset)."""
        if self.faults is not None and self.faults.hang_active(self.sim.now):
            return  # another hang window still covers now
        now = self.sim.now
        for bio, remaining, start in list(self._hung.values()):
            if start > now:
                continue  # not issued yet: parked for a later window
            del self._hung[bio.id]
            self._inservice[bio.id] = self.sim.schedule(remaining, self._complete, bio)
