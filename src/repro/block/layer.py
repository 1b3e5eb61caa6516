"""The block layer: cgroup-attributed bios → controller → device.

Wires a :class:`~repro.block.device.Device` to an
:class:`~repro.controllers.base.IOController` and provides the services the
kernel block layer provides around them:

* bio lifecycle timestamps and the completion callback (``on_done``);
* request-slot accounting (``nr_slots``) — the depletion signal IOCost's
  saturation detection consumes;
* cgroup-relative sequentiality detection (the cost-model feature of §3.2);
* a completion-latency log per direction, read per device and per cgroup
  (QoS signals);
* per-cgroup accounting, all of it on the cgroup's one record for this
  device (``cgroup.stats.device(layer.dev)``, the kernel's ``blkg``), which
  ``submit`` looks up once and stores on the bio (``bio.blkg``) for the
  completion path and the controller: the layer keeps no per-cgroup state
  of its own;
* the serialized issue-path CPU-cost model for Figure 9 (see
  :mod:`repro.controllers.base`), charged as each bio's issue time;
* the error/timeout path (docs/FAULTS.md): a dispatched bio that the device
  fails (:mod:`repro.faults`) or that outlives ``io_timeout`` is requeued
  with exponential backoff up to ``max_retries``, then completed with its
  terminal non-OK status.  Every path — success, retry, final error,
  timeout — releases the bio's request slot exactly once, so queue depth
  never leaks; failed bios still feed the latency logs, which is how
  IOCost's QoS loop sees (and reacts to) device degradation.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional

from repro.analysis.stats import LatencyLog
from repro.block.bio import Bio, BioStatus
from repro.block.device import Device
from repro.cgroup import Cgroup
from repro.obs.prof import PROF
from repro.obs.trace import TRACE
from repro.sanitize import SANITIZE
from repro.sim import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controllers.base import IOController


class BlockLayerError(RuntimeError):
    """Raised on protocol violations (e.g. dispatch with no free slots)."""


class BlockLayer:
    """One device's block layer instance."""

    #: First-retry backoff; retry ``n`` waits ``RETRY_BACKOFF * 2**(n-1)``.
    RETRY_BACKOFF = 1e-3

    def __init__(
        self,
        sim: Simulator,
        device: Device,
        controller: IOController,
        io_timeout: Optional[float] = None,
        max_retries: int = 3,
    ) -> None:
        if io_timeout is not None and io_timeout <= 0:
            raise BlockLayerError("io_timeout must be positive (or None)")
        if max_retries < 0:
            raise BlockLayerError("max_retries must be >= 0")
        self.sim = sim
        self.device = device
        self.controller = controller
        #: Stable ``maj:min`` device id all per-device accounting keys on.
        self.dev = device.devno
        #: Request slots (``device.spec.nr_slots``, cached): a controller may
        #: dispatch while ``inflight < nr_slots`` — the one slot test, run
        #: several times per bio, so it must not chase three attributes.
        self.nr_slots = device.spec.nr_slots
        #: Abort a dispatched bio that has not completed after this many
        #: simulated seconds (None disables timeout detection).
        self.io_timeout = io_timeout
        # Without timeouts there is no timer to disarm: straight to _finish.
        device.on_complete = self._finish if io_timeout is None else self._device_completed
        # One sample per completion, in its direction's log under its
        # cgroup record's key.  Made before the controller attaches: iocost
        # reads the logs and widens them to its horizon.
        self.read_latency = LatencyLog()
        self.write_latency = LatencyLog()
        self._logs = (self.read_latency, self.write_latency)
        #: The last key given to a cgroup record; keys are never reused.
        self._last_key = 0.0
        controller.attach(self)

        self.max_retries = max_retries
        #: Armed timeout timers by bio id (io_timeout runs only).
        self._timeouts: Dict[int, Event] = {}
        #: Backed-off retries whose slot was not free when the backoff
        #: expired; drained ahead of controller dispatch as slots return.
        self._retryq: Deque[Bio] = deque()

        self.inflight = 0

        # CPU-time resource for the controller issue path (Fig 9 model).
        self._cpu_free_at = 0.0

        # Cached tracepoints: one flag check per hot-path site when tracing
        # is disabled (see repro.obs.trace).
        self._tp_submit = TRACE.points["bio_submit"]
        self._tp_issue = TRACE.points["bio_issue"]
        self._tp_error = TRACE.points["bio_error"]
        self._tp_requeue = TRACE.points["bio_requeue"]
        # Cached self-profiler (same zero-cost guard pattern, repro.obs.prof).
        self._prof = PROF
        # Cached sanitizer: slot conservation checked at the acquire and
        # release sites (repro.sanitize).
        self._san = SANITIZE

        # Statistics.  ``completed_ios`` counts every *finished* bio (OK or
        # terminally failed); ``completed_bytes`` and the per-cgroup
        # ``done_ios`` count successes only, so iops_of() is a success rate.
        self.submitted_ios = 0
        self.completed_ios = 0
        self.completed_bytes = 0
        self.depleted_events = 0
        self.errored_ios = 0
        self.timed_out_ios = 0
        self.requeued_ios = 0

    # -- submission ---------------------------------------------------------

    def submit(
        self, bio: Bio, on_done: Optional[Callable[[Bio], None]] = None
    ) -> None:
        """Enter a bio into the block layer.

        ``on_done(bio)``, if given, is invoked once when the bio completes
        for good (success or terminal error) — the only completion
        protocol (docs/PERF.md).  A generator that must wait makes its own
        :class:`~repro.sim.Signal` and passes ``on_done=sig.fire``; a
        fire-and-forget submitter passes nothing.
        """
        bio.submit_time = self.sim.now
        bio.on_done = on_done
        # The record is per (cgroup, devno), not per spec name: two devices
        # of the same model must not share a sequentiality cursor.
        try:
            record = bio.blkg = bio.cgroup.stats.per_device[self.dev]
        except KeyError:  # the cgroup's first bio here
            record = bio.blkg = bio.cgroup.stats.device(self.dev)
        bio.sequential = bio.sector == record.next_sector
        record.next_sector = bio.end_sector
        # Inlined IOStats.account(is_write, nbytes): the record is the
        # layer's hottest shared-state touch.
        if bio.is_write:
            record.wbytes += bio.nbytes
            record.wios += 1
        else:
            record.rbytes += bio.nbytes
            record.rios += 1
        self.submitted_ios += 1
        if self._prof.enabled:
            self._prof.bios_submitted += 1
        if self._tp_submit.enabled:
            self._tp_submit.emit(
                self.sim.now,
                dev=self.dev,
                id=bio.id,
                cgroup=bio.cgroup.path,
                op=bio.op.value,
                nbytes=bio.nbytes,
                sector=bio.sector,
                flags=bio.flags.value,
                prio=bio.prio,
            )
        if self.inflight >= self.nr_slots:
            self.depleted_events += 1
        self.controller.enqueue(bio)
        self.controller.pump()

    # -- dispatch (controller-facing) ----------------------------------------

    @property
    def slot_utilization(self) -> float:
        """Fraction of request slots in use (saturation signal)."""
        return self.inflight / self.nr_slots

    def dispatch(self, bio: Bio) -> None:
        """Send a bio to the device, charging the controller's CPU cost.

        The cost is the bio's issue time, not an event: the bio reaches the
        device once the issue path's one CPU is free, and the device starts
        it no earlier (:meth:`Device.submit`).  One CPU per layer makes
        issue order dispatch order.
        """
        if self.inflight >= self.nr_slots:
            raise BlockLayerError("dispatch with no free request slots")
        self.inflight += 1
        if self._san.enabled:
            self._san.check_slots(self.inflight, self.nr_slots, self.dev)
        now = self.sim.now
        overhead = self.controller.issue_overhead
        if overhead > 0:
            start = self._cpu_free_at if self._cpu_free_at > now else now
            self._cpu_free_at = start + overhead
            # ``now`` plus the backlog, not the bare ``_cpu_free_at``: the two
            # can be an ulp apart while the backlog exceeds ``now``.
            issue = bio.issue_time = now + (self._cpu_free_at - now)
        else:
            issue = bio.issue_time = now
        if self._prof.enabled:
            self._prof.bios_issued += 1
        if self._tp_issue.enabled:
            self._tp_issue.emit(
                issue,
                dev=self.dev,
                id=bio.id,
                cgroup=bio.cgroup.path,
                op=bio.op.value,
                nbytes=bio.nbytes,
                wait=issue - bio.submit_time,
            )
        self.device.submit(bio)
        if self.io_timeout is not None:
            self._timeouts[bio.id] = self.sim.schedule_at(
                issue + self.io_timeout, self._timed_out, bio
            )

    # -- completion / failure --------------------------------------------------

    def _device_completed(self, bio: Bio) -> None:
        """An ``io_timeout`` run's completion hook: disarm, then finish."""
        timer = self._timeouts.pop(bio.id, None)
        if timer is not None:
            timer.cancel()
        self._finish(bio)

    def _timed_out(self, bio: Bio) -> None:
        """Timeout timer fired: reclaim the bio from the device and fail it."""
        self._timeouts.pop(bio.id, None)
        bio.status = BioStatus.TIMEOUT
        self.timed_out_ios += 1
        if not self.device.abort(bio):
            raise BlockLayerError(
                f"timed-out bio #{bio.id} was not held by the device"
            )
        self._finish(bio)

    def _finish(self, bio: Bio) -> None:
        """Single exit for every completion path (success, error, timeout).

        Releases the request slot exactly once per dispatch, then either
        requeues the bio (retryable failure) or completes it for good.
        """
        if bio.submit_time is None:
            raise BlockLayerError("bio completed without passing submit()")
        self.inflight -= 1
        if self._san.enabled:
            self._san.check_slots(self.inflight, self.nr_slots, self.dev)
        if bio.status is not BioStatus.OK and bio.retries < self.max_retries:
            self._requeue(bio)
            if self._retryq:
                self._drain_retries()
            self.controller.pump()
            return

        now = bio.complete_time = self.sim.now
        self.completed_ios += 1
        if self._prof.enabled:
            self._prof.bios_completed += 1
        record = bio.blkg
        if bio.status is BioStatus.OK:
            self.completed_bytes += bio.nbytes
            record.done_ios += 1
            record.done_bytes += bio.nbytes
        else:
            self.errored_ios += 1
            record.errors += 1
            if self._tp_error.enabled:
                self._tp_error.emit(
                    self.sim.now,
                    dev=self.dev,
                    id=bio.id,
                    cgroup=bio.cgroup.path,
                    op=bio.op.value,
                    nbytes=bio.nbytes,
                    status=bio.status.value,
                    retries=bio.retries,
                )
        # io.stat wait accounting: wall time the bio spent above the device.
        record.wait_total += bio.issue_time - bio.submit_time

        # Failed bios feed the latency logs too: a timed-out bio records
        # its full io_timeout, which is exactly the degraded-latency signal
        # the QoS vrate loop must react to (graceful degradation).
        key = record.latency
        if key is None:  # the one place a record's key is given
            key = record.latency = self._last_key = self._last_key + 1.0
        self._logs[bio.is_write].record(now, now - bio.issue_time, key)

        # Requeued bios take the freed slot first, then the one controller call.
        if self._retryq:
            self._drain_retries()
        self.controller.on_complete(bio)
        # Off the bio before the call: a Signal's fire holds the signal, whose
        # value is the bio, a cycle only the cyclic GC frees.  (Not requeues.)
        on_done = bio.on_done
        if on_done is not None:
            bio.on_done = None
            on_done(bio)

    # -- retry ----------------------------------------------------------------

    def _requeue(self, bio: Bio) -> None:
        bio.retries += 1
        self.requeued_ios += 1
        bio.blkg.requeues += 1
        backoff = self.RETRY_BACKOFF * (2 ** (bio.retries - 1))
        if self._tp_requeue.enabled:
            self._tp_requeue.emit(
                self.sim.now,
                dev=self.dev,
                id=bio.id,
                cgroup=bio.cgroup.path,
                op=bio.op.value,
                nbytes=bio.nbytes,
                status=bio.status.value,
                retries=bio.retries,
                backoff=backoff,
            )
        self.sim.schedule(backoff, self._retry_ready, bio)

    def _retry_ready(self, bio: Bio) -> None:
        if self.inflight < self.nr_slots:
            self._redispatch(bio)
        else:
            self._retryq.append(bio)

    def _redispatch(self, bio: Bio) -> None:
        # The status resets per attempt; a terminal status is whatever the
        # *last* attempt left behind.
        bio.status = BioStatus.OK
        self.dispatch(bio)

    def _drain_retries(self) -> None:
        # Requeued bios take slot priority over fresh controller dispatches
        # (the kernel requeues to the front of the dispatch list).
        while self._retryq and self.inflight < self.nr_slots:
            self._redispatch(self._retryq.popleft())

    def iops_of(self, cgroup: Cgroup) -> int:
        """Successfully completed IO count for a cgroup on this device."""
        record = cgroup.stats.per_device.get(self.dev)
        return record.done_ios if record is not None else 0
