"""Deterministic self-profiler: how much work did the engine itself do?

ROADMAP item 2 ("make the event engine the fastest Python DES it can be")
needs a denominator before any optimisation: *what* does the engine spend
its event budget on?  Wall-clock profilers (``cProfile``, folded by layer
in ``bench/run.py``) answer that in seconds but are non-deterministic;
this module counts the engine's own operations in simulation-exact
integers, so two runs with the same seeds produce the same profile and a
regression in per-bio work shows up as a counter delta, not a noisy
timing.

Instrumented components (each site pays one ``enabled`` flag check while
profiling is off — the same zero-cost guard pattern as
:mod:`repro.obs.trace` tracepoints):

* :class:`repro.sim.Simulator` — events dispatched, heap pushes/pops;
* :class:`repro.block.layer.BlockLayer` — bios submitted, issued, completed;
* :class:`repro.core.controller.IOCost` — pump calls and planning ticks;
* :class:`repro.obs.trace.TracePoint` — emissions per tracepoint site.

Usage::

    from repro.obs.prof import PROF

    PROF.reset()
    with PROF:                  # or PROF.enable() / PROF.disable()
        bed.run(1.0)
    PROF.snapshot()             # JSON-able counter dict
    PROF.per_bio()              # work amplification: ops per completed bio
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class SimProfiler:
    """Counter bundle behind a single ``enabled`` flag.

    Counters are plain integer attributes so enabled-path increments stay
    cheap; ``emits_by_point`` maps tracepoint name -> emission count (only
    populated while tracing is *also* enabled, since disabled tracepoints
    never reach ``emit``).
    """

    __slots__ = (
        "enabled",
        "events_dispatched",
        "heap_pushes",
        "heap_pops",
        "bios_submitted",
        "bios_issued",
        "bios_completed",
        "pump_calls",
        "plan_ticks",
        "emits_by_point",
    )

    #: Plain-integer counter attribute names (everything but the flag and
    #: the per-point emission map).
    COUNTERS = (
        "events_dispatched",
        "heap_pushes",
        "heap_pops",
        "bios_submitted",
        "bios_issued",
        "bios_completed",
        "pump_calls",
        "plan_ticks",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.emits_by_point: Dict[str, int] = {}
        self.events_dispatched = 0
        self.heap_pushes = 0
        self.heap_pops = 0
        self.bios_submitted = 0
        self.bios_issued = 0
        self.bios_completed = 0
        self.pump_calls = 0
        self.plan_ticks = 0

    # -- lifecycle ----------------------------------------------------------

    def enable(self) -> "SimProfiler":
        self.enabled = True
        return self

    def disable(self) -> "SimProfiler":
        self.enabled = False
        return self

    def reset(self) -> "SimProfiler":
        """Zero every counter (does not change ``enabled``)."""
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.emits_by_point.clear()
        return self

    def __enter__(self) -> "SimProfiler":
        return self.enable()

    def __exit__(self, *exc: Any) -> None:
        self.disable()

    # -- enabled-path helpers ------------------------------------------------

    def note_emit(self, point_name: str) -> None:
        """Count one tracepoint emission (called from ``TracePoint.emit``)."""
        self.emits_by_point[point_name] = self.emits_by_point.get(point_name, 0) + 1

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able counter view (stable key order irrelevant: plain dict)."""
        out: Dict[str, Any] = {name: getattr(self, name) for name in self.COUNTERS}
        out["emits_by_point"] = dict(self.emits_by_point)
        return out

    def per_bio(self) -> Optional[Dict[str, float]]:
        """Work amplification: engine ops per completed bio, or ``None``
        when nothing completed."""
        if self.bios_completed == 0:
            return None
        done = float(self.bios_completed)
        return {
            name: getattr(self, name) / done
            for name in self.COUNTERS
            if name != "bios_completed"
        }

    def describe(self) -> str:
        parts = [f"{name}={getattr(self, name)}" for name in self.COUNTERS]
        if self.emits_by_point:
            emitted = sum(self.emits_by_point.values())
            parts.append(f"trace_emits={emitted}")
        return " ".join(parts)


#: The process-global profiler every instrumented component caches — the
#: analogue of :data:`repro.obs.trace.TRACE` being process-global.
PROF = SimProfiler()
