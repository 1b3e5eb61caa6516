"""Bio-lifecycle spans: stitch tracepoints into latency attributions.

A bio's end-to-end latency is the sum of *stages* — time queued behind a
controller's policy, time waiting for a request slot or the issue-path CPU,
time being serviced by the device.  The raw tracepoints
(:mod:`repro.obs.trace`) record the boundary *events*; this module stitches
the four bio-lifecycle events of each bio into one :class:`Span` and
decomposes its latency so "p99 is X" becomes "p99 is X, of which Y was
iocost throttling":

* ``queue_wait`` — submit until the first throttle (or until issue when no
  controller ever held the bio back);
* ``throttle_wait:<ctl>`` — per *controller* wait segments.  Each
  ``bio_throttle`` event opens a segment attributed to its ``ctl`` field
  that runs until the next throttle (or issue), so stacked configurations
  separate iocost budget waits from blk-throttle token waits from
  device-queue depth waits on the same bio.  Consecutive same-``ctl``
  segments merge.
* ``service`` — issue until completion (device queue + media time).

Durations are integer *simulated microseconds* (timestamps are rounded to
usec at span assembly).  ``service`` is computed as the residual of the
end-to-end latency minus every wait stage, so the stages of any span sum to
its end-to-end latency **exactly** — integer arithmetic, no float drift —
which :meth:`SpanTracker.breakdown` relies on when it reports per-stage
shares.

``debt_pay`` and ``donation_recalc`` events that fire while a span is open
are attached to it as annotations: when a bio's latency spike coincides
with a debt payback or a donation-pass weight rewrite, the span says so.

Usage::

    tracker = SpanTracker().attach()      # subscribes to TRACE
    ... run the testbed ...
    tracker.detach()
    tracker.breakdown()                   # machine-wide stage rollup
    tracker.breakdown(cgroup="/ws", dev="8:0")
    tracker.spans                         # the raw Span objects
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import Histogram
from repro.obs.trace import TRACE, Subscription, TraceEvent, TraceRegistry
from repro.sanitize import SANITIZE

#: Stage names (the per-controller stages are ``THROTTLE_PREFIX + ctl``).
QUEUE_WAIT = "queue_wait"
SERVICE = "service"
THROTTLE_PREFIX = "throttle_wait:"
#: Retry attribution: first dispatch -> final dispatch (failed service
#: attempts plus exponential backoffs, docs/FAULTS.md).  Present only on
#: spans that were requeued at least once.
RETRY_WAIT = "retry_wait"

#: Events the tracker subscribes to.
SPAN_EVENTS: Tuple[str, ...] = (
    "bio_submit",
    "bio_throttle",
    "bio_issue",
    "bio_complete",
    "bio_error",
    "bio_requeue",
    "debt_pay",
    "donation_recalc",
    "dev_fault_begin",
    "dev_fault_end",
)


class SpanError(RuntimeError):
    """Raised on span-protocol violations (duplicate submit, bad event)."""


def _usec(time_sec: float) -> int:
    """Simulated seconds -> integer simulated microseconds."""
    return int(round(time_sec * 1e6))


@dataclass(frozen=True)
class Annotation:
    """A controller- or device-side event that fired while the span was open."""

    time_usec: int
    event: str  # "debt_pay", "donation_recalc", "dev_fault_begin/_end"
    detail: str  # e.g. "charge amount=..." / "donors=3" / "kind=hang index=0"


@dataclass(frozen=True)
class Span:
    """One bio's stitched lifecycle with its latency decomposition.

    ``stages`` is ordered — wait stages in occurrence order, ``service``
    last — and its durations sum to ``end_to_end_usec`` exactly.
    """

    dev: str
    bio_id: int
    cgroup: str
    op: str
    nbytes: int
    submit_usec: int
    issue_usec: int
    complete_usec: int
    stages: Tuple[Tuple[str, int], ...]
    annotations: Tuple[Annotation, ...] = ()
    #: Terminal outcome ("ok", "eio", "timeout") and requeue count.
    status: str = "ok"
    retries: int = 0

    @property
    def end_to_end_usec(self) -> int:
        return self.complete_usec - self.submit_usec

    def stage_usec(self, stage: str) -> int:
        """Total duration of one stage (0 when the span lacks it)."""
        return sum(dur for name, dur in self.stages if name == stage)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able view (used by the blkprof CLI)."""
        return {
            "dev": self.dev,
            "id": self.bio_id,
            "cgroup": self.cgroup,
            "op": self.op,
            "nbytes": self.nbytes,
            "submit_usec": self.submit_usec,
            "issue_usec": self.issue_usec,
            "complete_usec": self.complete_usec,
            "end_to_end_usec": self.end_to_end_usec,
            "status": self.status,
            "retries": self.retries,
            "stages": [[name, dur] for name, dur in self.stages],
            "annotations": [
                {"time_usec": ann.time_usec, "event": ann.event, "detail": ann.detail}
                for ann in self.annotations
            ],
        }


@dataclass
class _OpenSpan:
    """Mutable accumulator between ``bio_submit`` and ``bio_complete``."""

    dev: str
    bio_id: int
    cgroup: str
    op: str
    nbytes: int
    submit_usec: int
    #: Most recent dispatch (bio_issue re-fires per retry).
    issue_usec: Optional[int] = None
    #: First dispatch; retry_wait spans first_issue -> last issue.
    first_issue_usec: Optional[int] = None
    requeues: int = 0
    #: (time_usec, ctl) per bio_throttle event, in emission order.
    throttles: List[Tuple[int, str]] = field(default_factory=list)
    annotations: List[Annotation] = field(default_factory=list)


class SpanTracker:
    """Trace subscriber that assembles bios into :class:`Span` objects.

    Completed spans land in a bounded ring (oldest dropped, like a trace
    buffer) *and* in per-``(cgroup, dev)`` × per-stage latency histograms,
    so :meth:`breakdown` keeps working after the ring wraps.
    """

    def __init__(
        self,
        capacity: int = 65536,
        resolution: float = 0.02,
        max_pending: int = 65536,
    ):
        if capacity <= 0:
            raise SpanError("capacity must be positive")
        if max_pending <= 0:
            raise SpanError("max_pending must be positive")
        self.capacity = capacity
        self.resolution = resolution
        #: Bound on the open-span map: bios whose completion never arrives
        #: (hung devices, detached-mid-run rigs) would otherwise grow it
        #: without limit.  The oldest open span is evicted past the bound.
        self.max_pending = max_pending
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self._pending: Dict[Tuple[str, int], _OpenSpan] = {}
        #: (cgroup, dev, stage) -> Histogram of stage durations in usec.
        self._stage_hist: Dict[Tuple[str, str, str], Histogram] = {}
        #: (cgroup, dev) -> Histogram of end-to-end latencies in usec.
        self._e2e_hist: Dict[Tuple[str, str], Histogram] = {}
        self.completed = 0
        #: Completed spans whose terminal status was not "ok".
        self.errored = 0
        #: Open spans dropped because the pending map hit ``max_pending``
        #: (their bio_complete/bio_error never arrived in time).
        self.evicted = 0
        #: Lifecycle events for bios whose submit was never seen (tracker
        #: attached mid-run); counted, not an error.
        self.orphan_events = 0
        self._subscription: Optional[Subscription] = None
        # Cached sanitizer: evicting an open span silently loses a latency
        # attribution, which is fail-stop under sanitize (repro.sanitize).
        self._san = SANITIZE

    # -- subscription ------------------------------------------------------

    def attach(self, registry: Optional[TraceRegistry] = None) -> "SpanTracker":
        if self._subscription is not None:
            raise SpanError("tracker already attached")
        registry = TRACE if registry is None else registry
        self._subscription = registry.subscribe(self, SPAN_EVENTS)
        return self

    def detach(self) -> None:
        if self._subscription is not None:
            self._subscription.close()
            self._subscription = None

    def __enter__(self) -> "SpanTracker":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.detach()

    # -- event intake ------------------------------------------------------

    def __call__(self, event: TraceEvent) -> None:
        name = event.name
        if name == "bio_submit":
            self._on_submit(event)
        elif name == "bio_throttle":
            self._on_throttle(event)
        elif name == "bio_issue":
            self._on_issue(event)
        elif name == "bio_complete":
            self._on_complete(event)
        elif name == "bio_error":
            self._on_error(event)
        elif name == "bio_requeue":
            self._on_requeue(event)
        elif name == "debt_pay":
            self._on_debt(event)
        elif name == "donation_recalc":
            self._on_donation(event)
        elif name in ("dev_fault_begin", "dev_fault_end"):
            self._on_fault(event)
        # Other events (a caller subscribed us too broadly) are ignored.

    @staticmethod
    def _key(fields: Dict[str, Any]) -> Tuple[str, int]:
        # ``dev`` is the catalogue's one optional field; single-device unit
        # rigs omit it consistently across all four events, so "" keys match.
        return (str(fields.get("dev", "")), int(fields["id"]))

    def _on_submit(self, event: TraceEvent) -> None:
        fields = event.fields
        key = self._key(fields)
        if key in self._pending:
            raise SpanError(f"duplicate bio_submit for dev={key[0]!r} id={key[1]}")
        if len(self._pending) >= self.max_pending:
            # Evict the oldest open span (dict preserves insertion order):
            # its completion never arrived — a hung bio or a torn-down rig.
            victim = next(iter(self._pending))
            if self._san.enabled:
                self._san.span_evicted(victim[0], victim[1])
            del self._pending[victim]
            self.evicted += 1
        self._pending[key] = _OpenSpan(
            dev=key[0],
            bio_id=key[1],
            cgroup=str(fields["cgroup"]),
            op=str(fields["op"]),
            nbytes=int(fields["nbytes"]),
            submit_usec=_usec(event.time),
        )

    def _on_throttle(self, event: TraceEvent) -> None:
        open_span = self._pending.get(self._key(event.fields))
        if open_span is None:
            self.orphan_events += 1
            return
        open_span.throttles.append((_usec(event.time), str(event.fields["ctl"])))

    def _on_issue(self, event: TraceEvent) -> None:
        open_span = self._pending.get(self._key(event.fields))
        if open_span is None:
            self.orphan_events += 1
            return
        issue_usec = _usec(event.time)
        open_span.issue_usec = issue_usec
        if open_span.first_issue_usec is None:
            open_span.first_issue_usec = issue_usec

    def _on_requeue(self, event: TraceEvent) -> None:
        open_span = self._pending.get(self._key(event.fields))
        if open_span is None:
            self.orphan_events += 1
            return
        open_span.requeues += 1

    def _on_complete(self, event: TraceEvent) -> None:
        self._close(event, status="ok")

    def _on_error(self, event: TraceEvent) -> None:
        self._close(event, status=str(event.fields["status"]))

    def _close(self, event: TraceEvent, status: str) -> None:
        key = self._key(event.fields)
        open_span = self._pending.pop(key, None)
        if open_span is None:
            self.orphan_events += 1
            return
        span = self._finalise(open_span, _usec(event.time), status=status)
        self._spans.append(span)
        self.completed += 1
        if status != "ok":
            self.errored += 1
        self._record(span)

    def _on_debt(self, event: TraceEvent) -> None:
        fields = event.fields
        dev = str(fields.get("dev", ""))
        cgroup = str(fields["cgroup"])
        annotation = Annotation(
            time_usec=_usec(event.time),
            event="debt_pay",
            detail=f"kind={fields['kind']} amount={fields['amount']}",
        )
        for open_span in self._pending.values():
            if open_span.dev == dev and open_span.cgroup == cgroup:
                open_span.annotations.append(annotation)

    def _on_donation(self, event: TraceEvent) -> None:
        fields = event.fields
        dev = str(fields.get("dev", ""))
        annotation = Annotation(
            time_usec=_usec(event.time),
            event="donation_recalc",
            detail=f"donors={fields['donors']}",
        )
        for open_span in self._pending.values():
            if open_span.dev == dev:
                open_span.annotations.append(annotation)

    def _on_fault(self, event: TraceEvent) -> None:
        fields = event.fields
        dev = str(fields.get("dev", ""))
        annotation = Annotation(
            time_usec=_usec(event.time),
            event=event.name,
            detail=f"kind={fields['kind']} index={fields['index']}",
        )
        for open_span in self._pending.values():
            if open_span.dev == dev:
                open_span.annotations.append(annotation)

    # -- span assembly -----------------------------------------------------

    @staticmethod
    def _finalise(
        open_span: _OpenSpan, complete_usec: int, status: str = "ok"
    ) -> Span:
        issue_usec = (
            open_span.issue_usec
            if open_span.issue_usec is not None
            else complete_usec  # never issued: the whole span is wait
        )
        # Wait stages are bounded by the *first* dispatch; retries own the
        # stretch from there to the final dispatch (retry_wait below).
        first_issue_usec = (
            open_span.first_issue_usec
            if open_span.first_issue_usec is not None
            else issue_usec
        )
        end_to_end = complete_usec - open_span.submit_usec
        stages: List[Tuple[str, int]] = []
        waited = 0

        # queue_wait: submit -> first throttle (or issue when unthrottled).
        first_boundary = (
            open_span.throttles[0][0] if open_span.throttles else first_issue_usec
        )
        queue_wait = first_boundary - open_span.submit_usec
        stages.append((QUEUE_WAIT, queue_wait))
        waited += queue_wait

        # throttle_wait:<ctl>: each throttle event owns the segment until
        # the next throttle (or issue); consecutive same-ctl segments merge.
        throttles = open_span.throttles
        for position, (start_usec, ctl) in enumerate(throttles):
            next_usec = (
                throttles[position + 1][0]
                if position + 1 < len(throttles)
                else first_issue_usec
            )
            segment = next_usec - start_usec
            stage_name = THROTTLE_PREFIX + ctl
            if stages[-1][0] == stage_name:
                stages[-1] = (stage_name, stages[-1][1] + segment)
            else:
                stages.append((stage_name, segment))
            waited += segment

        # retry_wait: first dispatch -> final dispatch (failed service
        # attempts + exponential backoffs); absent on first-try spans.
        if issue_usec > first_issue_usec:
            retry_wait = issue_usec - first_issue_usec
            stages.append((RETRY_WAIT, retry_wait))
            waited += retry_wait

        # service is the residual, so the integer stage durations sum to
        # end_to_end exactly by construction.
        stages.append((SERVICE, end_to_end - waited))

        return Span(
            dev=open_span.dev,
            bio_id=open_span.bio_id,
            cgroup=open_span.cgroup,
            op=open_span.op,
            nbytes=open_span.nbytes,
            submit_usec=open_span.submit_usec,
            issue_usec=issue_usec,
            complete_usec=complete_usec,
            stages=tuple(stages),
            annotations=tuple(open_span.annotations),
            status=status,
            retries=open_span.requeues,
        )

    def _record(self, span: Span) -> None:
        scope = (span.cgroup, span.dev)
        e2e = self._e2e_hist.get(scope)
        if e2e is None:
            e2e = self._e2e_hist[scope] = Histogram(
                f"e2e:{span.cgroup}:{span.dev}", self.resolution
            )
        e2e.record(span.end_to_end_usec)
        for stage_name, duration_usec in span.stages:
            key = (span.cgroup, span.dev, stage_name)
            hist = self._stage_hist.get(key)
            if hist is None:
                hist = self._stage_hist[key] = Histogram(
                    f"{stage_name}:{span.cgroup}:{span.dev}", self.resolution
                )
            hist.record(duration_usec)

    # -- access ------------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Completed spans still in the ring (oldest first)."""
        return list(self._spans)

    @property
    def open_count(self) -> int:
        """Bios submitted but not yet completed."""
        return len(self._pending)

    @property
    def dropped(self) -> int:
        """Completed spans lost to ring overflow (histograms keep them)."""
        return self.completed - len(self._spans)

    def select(
        self, cgroup: Optional[str] = None, dev: Optional[str] = None
    ) -> List[Span]:
        """Ring spans filtered by cgroup and/or device."""
        return [
            span
            for span in self._spans
            if (cgroup is None or span.cgroup == cgroup)
            and (dev is None or span.dev == dev)
        ]

    def scopes(self) -> List[Tuple[str, str]]:
        """Every (cgroup, dev) pair with at least one completed span."""
        return sorted(self._e2e_hist)

    # -- rollup ------------------------------------------------------------

    def breakdown(
        self, cgroup: Optional[str] = None, dev: Optional[str] = None
    ) -> Dict[str, Any]:
        """Latency-attribution rollup over completed spans.

        Filters by ``cgroup`` / ``dev`` (None = all), merges the matching
        histograms, and reports per-stage totals, percentiles, and the
        share of summed end-to-end time each stage accounts for::

            {"count": ..., "end_to_end": {usec summary},
             "stages": {"queue_wait": {..., "total_usec": T, "share": T/E},
                        "throttle_wait:iocost": {...}, "service": {...}}}

        Because span stages sum exactly, the stage ``total_usec`` values
        sum exactly to the end-to-end ``total_usec``.
        """

        def matches(scope_cgroup: str, scope_dev: str) -> bool:
            return (cgroup is None or scope_cgroup == cgroup) and (
                dev is None or scope_dev == dev
            )

        e2e = Histogram("end_to_end", self.resolution)
        for (scope_cgroup, scope_dev), hist in self._e2e_hist.items():
            if matches(scope_cgroup, scope_dev):
                e2e.merge(hist)

        merged: Dict[str, Histogram] = {}
        for (scope_cgroup, scope_dev, stage_name), hist in self._stage_hist.items():
            if not matches(scope_cgroup, scope_dev):
                continue
            into = merged.get(stage_name)
            if into is None:
                into = merged[stage_name] = Histogram(stage_name, self.resolution)
            into.merge(hist)

        total_usec = e2e.sum
        stages: Dict[str, Dict[str, float]] = {}
        for stage_name in sorted(merged, key=_stage_order):
            hist = merged[stage_name]
            summary = hist.summary()
            summary["total_usec"] = hist.sum
            summary["share"] = hist.sum / total_usec if total_usec > 0 else 0.0
            stages[stage_name] = summary

        e2e_summary = e2e.summary()
        e2e_summary["total_usec"] = e2e.sum
        return {"count": e2e.count, "end_to_end": e2e_summary, "stages": stages}

    def describe(self, cgroup: Optional[str] = None, dev: Optional[str] = None) -> str:
        """Human-readable one-scope breakdown (blkprof's default output)."""
        rollup = self.breakdown(cgroup, dev)
        if rollup["count"] == 0:
            if self.evicted:
                return f"no completed spans (evicted={self.evicted} open spans)"
            return "no completed spans"
        e2e = rollup["end_to_end"]
        lines = [
            f"spans: {rollup['count']}  "
            f"p50={e2e['p50']:.0f}us p99={e2e['p99']:.0f}us "
            f"mean={e2e['mean']:.0f}us"
        ]
        for stage_name, summary in rollup["stages"].items():
            lines.append(
                f"  {stage_name:<24} {summary['share']:>6.1%}  "
                f"mean={summary['mean']:.0f}us p99={summary['p99']:.0f}us"
            )
        if self.errored or self.evicted:
            lines.append(
                f"  errored={self.errored} evicted={self.evicted} "
                f"(pending bound {self.max_pending})"
            )
        return "\n".join(lines)


def _stage_order(stage_name: str) -> Tuple[int, str]:
    """Sort key: queue_wait, throttle_wait:* (alphabetical), retry_wait,
    service."""
    if stage_name == QUEUE_WAIT:
        return (0, stage_name)
    if stage_name == RETRY_WAIT:
        return (2, stage_name)
    if stage_name == SERVICE:
        return (3, stage_name)
    return (1, stage_name)


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """Serialise spans as JSON lines (blkprof ``spans`` subcommand)."""
    return "\n".join(
        json.dumps(span.to_dict(), separators=(",", ":")) for span in spans
    )
