"""Kernel-style tracepoints for the simulated IO stack.

The kernel debugs IOCost through static tracepoints (``iocost_ioc_vrate_adj``,
``iocost_iocg_activate``, block events consumed by blktrace, ...): emitting
sites are compiled into the hot paths, cost one branch while nothing is
attached, and fan out to subscribers when enabled.  This module is the
simulator's equivalent:

* :data:`TRACE` — the global registry holding one :class:`TracePoint` per
  catalogued event.  Call sites cache the point object and guard emission
  with ``if point.enabled:`` — a single attribute check when tracing is off.
* :class:`TraceBuffer` — a bounded ring buffer subscriber with JSONL
  persistence (:meth:`TraceBuffer.save`, :func:`load_events`).  Its
  ``bio_complete`` events, live or loaded, replay directly through
  :class:`~repro.block.trace.TraceReplayer`.

Events are *typed*: each tracepoint declares its field names and emission
rejects unknown fields *and* missing required fields (everything declared
except :data:`OPTIONAL_FIELDS`), so subscribers can rely on the schema.
An enabled emit is cheap: keys equal to the declared or the required set
pass with one C-level comparison, and only any other key set takes the
checks that name the unknown or missing field.  The event itself is an
immutable ``(name, time, fields)`` tuple built by one C call.

The event catalogue::

    bio_submit       bio entered the block layer
    bio_throttle     a controller held a bio back (budget, tokens, depth)
    bio_issue        bio dispatched to the device (re-emitted per retry)
    bio_complete     device finished a bio successfully (replayable)
    bio_error        bio finished with a non-OK status after all retries
    bio_requeue      block layer requeued a failed/timed-out bio for retry
    dev_fault_begin  an injected device fault window opened (repro.faults)
    dev_fault_end    an injected device fault window closed
    vrate_adjust     IOCost planning path adjusted (or confirmed) vrate
    qos_period       one IOCost planning period ran
    donation_recalc  §3.6 donation pass rewrote weights
    debt_pay         §3.5 debt activity (charge / userspace throttle)
    reclaim_scan     memory reclaim picked a victim cgroup
    swap_out         reclaim wrote pages to swap
"""

from __future__ import annotations

import json
from collections import deque, namedtuple

from repro.obs.prof import PROF
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

#: The tracepoint catalogue: name -> declared field names.  ``time`` is
#: implicit on every event (simulated seconds).
#: Every device-scoped event also declares ``dev``, the ``maj:min`` id of
#: the block device the event happened on, so multi-device traces can be
#: demultiplexed.  Emitting it is optional (single-device unit rigs skip it).
#: Every bio-lifecycle event carries ``id``, the bio's process-unique
#: ordinal, so the four events of one bio stitch into a span keyed by
#: ``(dev, id)`` (:class:`repro.obs.spans.SpanTracker`).
EVENT_CATALOGUE: Dict[str, Tuple[str, ...]] = {
    "bio_submit": ("dev", "id", "cgroup", "op", "nbytes", "sector", "flags", "prio"),
    "bio_throttle": ("dev", "id", "cgroup", "op", "nbytes", "reason", "ctl"),
    "bio_issue": ("dev", "id", "cgroup", "op", "nbytes", "wait"),
    "bio_complete": (
        "dev", "id", "cgroup", "op", "nbytes", "sector", "flags", "prio",
        "submit_time", "latency", "device_latency",
    ),
    # Final failure: status is the bio's terminal BioStatus value
    # ("eio"/"timeout"), retries how many requeues it burned first.
    "bio_error": ("dev", "id", "cgroup", "op", "nbytes", "status", "retries"),
    # One retry decision: backoff is the exponential delay (seconds)
    # before the bio re-enters dispatch.
    "bio_requeue": (
        "dev", "id", "cgroup", "op", "nbytes", "status", "retries", "backoff",
    ),
    # Fault windows (repro.faults): index is the fault's position in its
    # plan; until the window's absolute end time (-1.0 = unbounded hang).
    "dev_fault_begin": ("dev", "kind", "index", "until"),
    "dev_fault_end": ("dev", "kind", "index"),
    "vrate_adjust": (
        "dev", "vrate", "busy_level", "saturated", "starved", "read_p", "write_p",
    ),
    "qos_period": ("dev", "period", "vrate", "active_groups", "budget_blocked"),
    "donation_recalc": ("dev", "donors", "donated_total"),
    "debt_pay": ("dev", "cgroup", "kind", "amount", "debt"),
    "reclaim_scan": ("requester", "victim", "nbytes", "free_bytes"),
    "swap_out": ("dev", "owner", "charged_to", "nbytes"),
}

#: Declared fields that :meth:`TracePoint.emit` may omit.  ``dev`` is the
#: only one: single-device unit rigs predate device ids and legitimately
#: emit without it.  Every other declared field is required — ``id`` (the
#: per-bio identity :class:`repro.obs.spans.SpanTracker` keys spans on)
#: and ``ctl`` (the throttling controller's name, separating iocost from
#: blk-throttle from device-queue blame in stacked configurations) among
#: them.  An emit that skips a required field raises :class:`TraceError`,
#: and the ``trace-catalogue`` simlint rule enforces the same contract
#: statically.
OPTIONAL_FIELDS: FrozenSet[str] = frozenset({"dev"})


class TraceError(ValueError):
    """Raised for unknown events, unknown fields, or missing required
    fields relative to a point's schema."""


class TraceEvent(namedtuple("TraceEvent", ("name", "time", "fields"))):
    """One emitted event: name, simulated timestamp, typed fields."""

    __slots__ = ()

    def __new__(
        cls, name: str, time: float, fields: Optional[Dict[str, Any]] = None
    ) -> "TraceEvent":
        return tuple.__new__(cls, (name, time, {} if fields is None else fields))

    def to_json(self) -> str:
        payload = {"event": self.name, "time": self.time}
        payload.update(self.fields)
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        payload = json.loads(line)
        name = payload.pop("event")
        time = payload.pop("time")
        return cls(name=name, time=time, fields=payload)


class TracePoint:
    """One named event source.

    ``enabled`` is a plain attribute kept in sync with the subscriber list;
    hot paths read it once and skip everything else while it is False.
    """

    __slots__ = ("name", "fields", "declared", "required", "enabled", "subscribers")

    def __init__(self, name: str, fields: Sequence[str]):
        self.name = name
        self.fields = tuple(fields)
        self.declared = frozenset(fields)
        #: Fields every emit must supply (declared minus OPTIONAL_FIELDS).
        self.required = self.declared - OPTIONAL_FIELDS
        self.enabled = False
        self.subscribers: List[Callable[[TraceEvent], None]] = []

    def emit(self, time: float, **fields: Any) -> None:
        """Deliver one event to every subscriber (call only when enabled)."""
        keys = fields.keys()
        if keys != self.declared and keys != self.required:
            self._check(keys)
        if PROF.enabled:
            PROF.note_emit(self.name)
        event = tuple.__new__(TraceEvent, (self.name, time, fields))  # one C call
        for subscriber in self.subscribers:
            subscriber(event)

    def _check(self, keys: Iterable[str]) -> None:
        """Raise for an unknown or missing field (other key sets are valid)."""
        unknown = set(keys) - self.declared
        if unknown:
            raise TraceError(
                f"tracepoint {self.name!r} has no field(s) {sorted(unknown)}"
            )
        missing = self.required - set(keys)
        if missing:
            raise TraceError(
                f"tracepoint {self.name!r} emitted without required "
                f"field(s) {sorted(missing)}"
            )

    def _attach(self, subscriber: Callable[[TraceEvent], None]) -> None:
        self.subscribers.append(subscriber)
        self.enabled = True

    def _detach(self, subscriber: Callable[[TraceEvent], None]) -> None:
        try:
            self.subscribers.remove(subscriber)
        except ValueError:
            return
        self.enabled = bool(self.subscribers)


class Subscription:
    """Handle returned by :meth:`TraceRegistry.subscribe`; ``close()`` detaches."""

    def __init__(self, points: List[TracePoint], callback: Callable[[TraceEvent], None]):
        self._points = points
        self._callback = callback
        self._open = True

    def close(self) -> None:
        if not self._open:
            return
        self._open = False
        for point in self._points:
            point._detach(self._callback)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class TraceRegistry:
    """A set of named tracepoints (the module-level :data:`TRACE` normally)."""

    def __init__(self, catalogue: Optional[Dict[str, Tuple[str, ...]]] = None):
        catalogue = EVENT_CATALOGUE if catalogue is None else catalogue
        self.points: Dict[str, TracePoint] = {
            name: TracePoint(name, fields) for name, fields in catalogue.items()
        }

    def point(self, name: str) -> TracePoint:
        try:
            return self.points[name]
        except KeyError:
            raise TraceError(f"unknown tracepoint {name!r}") from None

    @property
    def enabled(self) -> bool:
        """True while any tracepoint has a subscriber."""
        return any(point.enabled for point in self.points.values())

    def subscribe(
        self,
        callback: Callable[[TraceEvent], None],
        events: Optional[Iterable[str]] = None,
    ) -> Subscription:
        """Attach ``callback`` to the named events (all events by default)."""
        names = list(events) if events is not None else list(self.points)
        points = [self.point(name) for name in names]
        for point in points:
            point._attach(callback)
        return Subscription(points, callback)

    def reset(self) -> None:
        """Drop every subscriber (test/teardown helper)."""
        for point in self.points.values():
            point.subscribers.clear()
            point.enabled = False


#: The global registry all instrumented modules emit through — the analogue
#: of the kernel's static tracepoints being process-global.
TRACE = TraceRegistry()


class TraceBuffer:
    """Bounded ring buffer of :class:`TraceEvent` with JSONL persistence.

    Subscribe it to a registry (``with TraceBuffer().attach(...)``) to start
    collection; when the buffer is full the oldest events are dropped, as a
    kernel trace ring does.
    """

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.recorded = 0
        self._subscription: Optional[Subscription] = None

    def __call__(self, event: TraceEvent) -> None:
        self._events.append(event)
        self.recorded += 1

    # -- subscription ------------------------------------------------------

    def attach(
        self,
        registry: Optional[TraceRegistry] = None,
        events: Optional[Iterable[str]] = None,
    ) -> "TraceBuffer":
        if self._subscription is not None:
            raise TraceError("buffer already attached")
        registry = TRACE if registry is None else registry
        self._subscription = registry.subscribe(self, events)
        return self

    def detach(self) -> None:
        if self._subscription is not None:
            self._subscription.close()
            self._subscription = None

    def __enter__(self) -> "TraceBuffer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.detach()

    # -- access ------------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Events lost to ring overflow."""
        return self.recorded - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def select(self, name: str) -> List[TraceEvent]:
        return [event for event in self._events if event.name == name]

    # -- persistence ---------------------------------------------------------

    def save(self, stream: TextIO) -> int:
        """Write buffered events as JSON lines; returns the count."""
        count = 0
        for event in self._events:
            stream.write(event.to_json() + "\n")
            count += 1
        return count


def load_events(stream: TextIO) -> List[TraceEvent]:
    """Load a JSONL event stream written by :meth:`TraceBuffer.save`."""
    return [TraceEvent.from_json(line) for line in stream if line.strip()]
