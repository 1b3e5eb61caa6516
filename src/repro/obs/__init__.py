"""Observability: tracepoints, histograms, io.stat, spans and the self-profiler.

The real IOCost is debugged in production through three surfaces this
package reproduces for the simulated stack:

* :mod:`repro.obs.trace` — a kernel-style tracepoint registry.  Emitting
  sites are compiled into the hot paths but cost a single flag check while
  no subscriber is attached; a bounded ring buffer collects typed events
  and round-trips them through JSONL (``bio_complete`` events replay
  through :class:`repro.block.trace.TraceReplayer`).
* :mod:`repro.obs.metrics` — log-bucketed HDR-style latency histograms
  and the exact nearest-rank percentile that :mod:`repro.analysis.stats`
  delegates to.
* :mod:`repro.obs.iostat` — the cgroup2 ``io.stat`` surface: per-cgroup,
  per-device rbytes/wbytes/rios/wios/dbytes plus iocost's ``cost.*`` keys,
  aggregated hierarchically and surviving cgroup removal.
* :mod:`repro.obs.spans` — bio-lifecycle spans: the four bio tracepoints
  stitched into per-bio latency decompositions (queue wait, per-controller
  throttle wait, service) with per-cgroup × per-device stage histograms
  and a :meth:`~repro.obs.spans.SpanTracker.breakdown` rollup.
* :mod:`repro.obs.timeline` — Chrome trace-event JSON export of spans
  (loads in Perfetto: a process per cgroup, a row per device).
* :mod:`repro.obs.prof` — the deterministic engine self-profiler: counts
  events dispatched, heap operations, bios moved, and tracepoint
  emissions behind the same zero-cost guard pattern as tracepoints.
* :mod:`repro.obs.snapshot` — the per-period monitor snapshot format
  shared by the live monitor (:mod:`repro.tools.monitor`) and its CLI.

See ``docs/OBSERVABILITY.md`` for the tracepoints → spans → breakdown →
Perfetto walk-through.
"""

from repro.obs.iostat import IOStat
from repro.obs.metrics import Histogram, exact_percentile
from repro.obs.prof import PROF, SimProfiler
from repro.obs.snapshot import MonitorSnapshot, load_snapshots, render_snapshot
from repro.obs.spans import Annotation, Span, SpanTracker
from repro.obs.timeline import to_chrome_trace, validate_chrome_trace, write_chrome_trace
from repro.obs.trace import TRACE, TraceBuffer, TraceEvent, TracePoint, TraceRegistry

__all__ = [
    "PROF",
    "TRACE",
    "Annotation",
    "Histogram",
    "IOStat",
    "MonitorSnapshot",
    "SimProfiler",
    "Span",
    "SpanTracker",
    "TraceBuffer",
    "TraceEvent",
    "TracePoint",
    "TraceRegistry",
    "exact_percentile",
    "load_snapshots",
    "render_snapshot",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
