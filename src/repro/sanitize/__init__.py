"""Runtime sanitizers: TSan/ASan-style invariant checkers for the DES.

PR 8 rebuilt the engine's hot paths (callback completions, an inlined
dispatch loop, chunked draws) for a ~3.8x speedup; golden-trace tests
pin their behaviour, but only on the workloads they run.  This module
makes the *invariants themselves* checkable on any workload, the way a
sanitizer build does for C:

* **time monotonicity + heap integrity** — dispatched event times never go
  backwards; the heap is a valid binary heap of ``(time, seq, ...)``
  entries with unique sequence numbers (`repro.sim.engine`);
* **device slot conservation** — the block layer's ``inflight`` stays in
  ``[0, nr_slots]`` and the device's busy channels in ``[0, parallelism]``
  on every completion/error/timeout/abort path (`repro.block`);
* **iocost cost conservation** — every absolute cost priced at enqueue is
  eventually charged to exactly one group (or still queued): per period,
  incurred == charged + waitq-pending (`repro.core.controller`);
* **debt monotonicity** — a group's local vtime never moves backwards
  (debt is repaid by global vtime catching up, never by rollback);
* **span leaks** — an open bio span silently evicted from the tracker is
  an accounting hole (`repro.obs.spans`).

Cost model: every hook site is behind the same cached-object ``enabled``
flag pattern as :mod:`repro.obs.trace` tracepoints and
:mod:`repro.obs.prof` counters — one attribute check per site while
disabled, held to the existing overhead budgets (docs/SANITIZERS.md).

Enable with ``REPRO_SANITIZE=1`` in the environment (picked up at import,
which is how CI runs the whole tier-1 suite sanitized), the pytest
``--sanitize`` flag (tests/conftest.py), or programmatically::

    from repro.sanitize import SANITIZE

    SANITIZE.reset().enable()
    bed.run(1.0)
    SANITIZE.describe()        # checks performed per invariant

A check that fails raises :class:`SanitizeError` at the violating call
site — fail-stop, like a sanitizer, because continuing past corrupted
accounting produces wrong results with no further diagnostic value.
Deliberate-violation tests temporarily drop the flag with
:meth:`Sanitizer.suspended`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


class SanitizeError(AssertionError):
    """An engine/controller/device invariant was violated at runtime."""


#: Relative slack for float-sum comparisons (cost conservation): the same
#: costs are summed in different association orders on the two sides.
_REL_TOL = 1e-9


class Sanitizer:
    """Invariant checkers behind a single ``enabled`` flag.

    Mirrors :class:`repro.obs.prof.SimProfiler`: a process-global instance
    (:data:`SANITIZE`) that every instrumented component caches, with all
    per-site work gated on :attr:`enabled`.  ``checks`` counts performed
    checks per invariant so tests can assert a checker actually ran.
    """

    #: Check-counter keys, one per invariant family.
    CHECKS = (
        "time_monotonic",
        "heap_integrity",
        "slot_conservation",
        "channel_conservation",
        "cost_conservation",
        "vtime_monotonic",
        "span_leak",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.checks: Dict[str, int] = {name: 0 for name in self.CHECKS}

    # -- lifecycle ----------------------------------------------------------

    def enable(self) -> "Sanitizer":
        self.enabled = True
        return self

    def disable(self) -> "Sanitizer":
        self.enabled = False
        return self

    def reset(self) -> "Sanitizer":
        """Clear every check counter (does not change ``enabled``)."""
        for name in self.CHECKS:
            self.checks[name] = 0
        return self

    def __enter__(self) -> "Sanitizer":
        return self.enable()

    def __exit__(self, *exc: Any) -> None:
        self.disable()

    @contextmanager
    def suspended(self) -> Iterator["Sanitizer"]:
        """Temporarily drop the flag (deliberate-violation tests)."""
        was = self.enabled
        self.enabled = False
        try:
            yield self
        finally:
            self.enabled = was

    # -- engine: time + heap ------------------------------------------------

    def check_monotonic(self, now: float, event_time: float) -> None:
        """A dispatched event's time must never precede the clock."""
        self.checks["time_monotonic"] += 1
        if event_time < now:
            raise SanitizeError(
                f"time went backwards: dispatching event at t={event_time!r} "
                f"with clock at t={now!r}"
            )

    def check_heap(self, heap: Sequence[Tuple[float, int, Any]], now: float) -> None:
        """Full heap validation: shape, unique seqs, nothing in the past.

        O(heap) — called at batch boundaries (``schedule_bulk``) and from
        tests, never per event.
        """
        self.checks["heap_integrity"] += 1
        size = len(heap)
        seqs = set()
        for index, entry in enumerate(heap):
            time, seq = entry[0], entry[1]
            if time != time or time == float("inf"):
                raise SanitizeError(f"heap entry {index} has time {time!r}")
            if time < now:
                raise SanitizeError(
                    f"heap entry {index} is scheduled in the past "
                    f"(t={time!r} < now={now!r})"
                )
            if seq in seqs:
                raise SanitizeError(
                    f"duplicate heap sequence number {seq}: tie-break order "
                    "is ambiguous and comparison can reach the Event"
                )
            seqs.add(seq)
            child = 2 * index + 1
            for offset in (0, 1):
                if child + offset < size:
                    child_entry = heap[child + offset]
                    if (entry[0], entry[1]) > (child_entry[0], child_entry[1]):
                        raise SanitizeError(
                            f"heap invariant broken at index {index}: "
                            f"parent {(entry[0], entry[1])} > child "
                            f"{(child_entry[0], child_entry[1])}"
                        )

    # -- block layer / device: slot + channel conservation -------------------

    def check_slots(self, inflight: int, nr_slots: int, dev: str) -> None:
        """Request-slot balance after every acquire/release."""
        self.checks["slot_conservation"] += 1
        if inflight < 0:
            raise SanitizeError(
                f"device {dev}: request slot released twice "
                f"(inflight={inflight})"
            )
        if inflight > nr_slots:
            raise SanitizeError(
                f"device {dev}: {inflight} bios dispatched against "
                f"{nr_slots} request slots (slot leak)"
            )

    def check_channels(self, busy: int, parallelism: int, dev: str) -> None:
        """Device service-channel balance after every begin/complete/abort."""
        self.checks["channel_conservation"] += 1
        if busy < 0:
            raise SanitizeError(
                f"device {dev}: service channel freed twice (busy={busy})"
            )
        if busy > parallelism:
            raise SanitizeError(
                f"device {dev}: {busy} busy channels exceed parallelism "
                f"{parallelism} (channel leak)"
            )

    # -- iocost: cost conservation + debt monotonicity ------------------------

    def check_conservation(
        self, incurred: float, charged: float, pending: float, dev: str
    ) -> None:
        """Per-period: incurred == charged + still-queued (nothing vanishes,
        nothing is charged twice).  The controller keeps the two sums: the
        cost priced at enqueue and the cost charged to some group's
        ``abs_usage``, each since the sanitizer came on."""
        self.checks["cost_conservation"] += 1
        slack = _REL_TOL * max(1.0, incurred)
        if abs(incurred - (charged + pending)) > slack:
            raise SanitizeError(
                f"device {dev}: iocost cost conservation violated — "
                f"incurred {incurred!r} != charged {charged!r} + "
                f"pending {pending!r}"
            )

    def check_vtime(self, cgroup: str, last: Optional[float], local_vtime: float) -> None:
        """A group's local vtime never decreases: debt is repaid by global
        vtime catching up, never by rolling the charge back.  ``last`` is
        what the previous audit saw (kept on the group state, so a cgroup
        re-created at a dead one's path starts a new history)."""
        self.checks["vtime_monotonic"] += 1
        if last is not None and local_vtime < last:
            raise SanitizeError(
                f"cgroup {cgroup}: local vtime moved backwards "
                f"({last!r} -> {local_vtime!r}); debt must never be "
                "double-paid or rolled back"
            )

    # -- spans ---------------------------------------------------------------

    def span_evicted(self, dev: str, bio_id: int) -> None:
        """An open span was dropped at the pending bound: a latency
        attribution silently lost — fail-stop under sanitize."""
        self.checks["span_leak"] += 1
        raise SanitizeError(
            f"span leak: open span for bio #{bio_id} on {dev} evicted at "
            "the pending bound (raise max_pending or drain completions)"
        )

    def check_spans(self, tracker: Any, require_drained: bool = False) -> None:
        """Explicit tracker audit (tests): no evictions, and —
        when ``require_drained`` — no spans still open."""
        self.checks["span_leak"] += 1
        if tracker.evicted:
            raise SanitizeError(
                f"span leak: {tracker.evicted} open span(s) were evicted"
            )
        if require_drained and tracker.open_count:
            raise SanitizeError(
                f"span leak: {tracker.open_count} span(s) still open after "
                "the workload drained"
            )

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """JSON-able per-invariant check counts."""
        return dict(self.checks)

    def describe(self) -> str:
        parts: List[str] = [f"{name}={self.checks[name]}" for name in self.CHECKS]
        return " ".join(parts)


#: The process-global sanitizer every instrumented component caches — the
#: analogue of :data:`repro.obs.prof.PROF`.
SANITIZE = Sanitizer()

if os.environ.get("REPRO_SANITIZE", "").strip().lower() in {"1", "true", "yes", "on"}:
    SANITIZE.enable()


__all__ = [
    "SANITIZE",
    "SanitizeError",
    "Sanitizer",
]
