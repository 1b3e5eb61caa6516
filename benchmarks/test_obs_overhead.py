"""Tracing-disabled overhead of the observability layer.

Kernel tracepoints sell themselves on being free when nobody listens: a
compiled-in call site costs one predictable branch.  The simulator's
equivalents must hold the same bar, or every benchmark in this directory
silently pays for instrumentation it never asked for.

Measurement, on a fixed 50K-bio deterministic run:

* wall-clock the run with tracing disabled (best of 3);
* count the tracepoint guard checks the run performs — equal to the
  emission count of the identical run with every point enabled, since each
  enabled site emits exactly once per passed guard;
* microbenchmark the per-check cost of the disabled ``if point.enabled:``
  guard in isolation;
* assert checks x per-check cost stays under 5% of the run's wall time.
"""

from repro.analysis.report import Table, format_si
from repro.obs.overhead import (
    OverheadReport,
    count_emissions,
    disabled_check_cost,
    disabled_prof_check_cost,
    wall_time,
)
from repro.obs.prof import PROF
from repro.obs.spans import SPAN_EVENTS
from repro.obs.trace import TRACE
from repro.tools.engine_bench import run_fixed_load

from benchmarks.conftest import run_experiment

TARGET_BIOS = 50_000
DEPTH = 64
#: Hard ceiling on the disabled-tracing overhead fraction.
OVERHEAD_LIMIT = 0.05


def run_fixed() -> int:
    """Exactly 50K 4KiB random reads, closed-loop at depth 64, under iocost
    (the ``engine_bench`` rig); returns the simulator's event count."""
    return run_fixed_load(TARGET_BIOS, DEPTH).events_processed


def measure() -> OverheadReport:
    TRACE.reset()
    events_processed = run_fixed()          # warm caches / count sim events
    wall = wall_time(run_fixed, repeat=3)   # tracing disabled
    checks = count_emissions(run_fixed)     # tracing enabled, same run
    cost = disabled_check_cost()
    return OverheadReport(
        wall_sec=wall,
        events_processed=events_processed,
        trace_checks=checks,
        check_cost=cost,
    )


def test_obs_disabled_overhead(benchmark):
    report = run_experiment(benchmark, measure)

    table = Table(
        f"Observability overhead on a fixed {format_si(TARGET_BIOS)}-bio run "
        "(tracing disabled)",
        ["metric", "value"],
    )
    table.add_row("wall time", f"{report.wall_sec * 1e3:.1f} ms")
    table.add_row("sim events", format_si(report.events_processed))
    table.add_row("guard checks", format_si(report.trace_checks))
    table.add_row("checks / sim event", f"{report.checks_per_event:.2f}")
    table.add_row("per-check cost", f"{report.check_cost * 1e9:.1f} ns")
    table.add_row("overhead", f"{report.overhead_fraction:.4%}")
    table.print()

    benchmark.extra_info.update(
        wall_ms=round(report.wall_sec * 1e3, 2),
        guard_checks=report.trace_checks,
        check_cost_ns=round(report.check_cost * 1e9, 2),
        overhead_fraction=round(report.overhead_fraction, 6),
    )

    # Sanity: the run really is instrumented (one check per submit, issue,
    # and complete at minimum), and really is traced when enabled.
    assert report.trace_checks >= 3 * TARGET_BIOS
    # The headline claim: disabled tracing costs < 5% of the run.
    assert report.overhead_fraction < OVERHEAD_LIMIT, report.describe()


def measure_span_tracking() -> OverheadReport:
    """Span tracking rides entirely on the bio-lifecycle tracepoints, so an
    unattached SpanTracker costs exactly the guard checks of those events."""
    TRACE.reset()
    events_processed = run_fixed()          # warm caches / count sim events
    wall = wall_time(run_fixed, repeat=3)   # nothing attached

    counter = {"n": 0}

    def count(_event) -> None:
        counter["n"] += 1

    subscription = TRACE.subscribe(count, events=SPAN_EVENTS)
    try:
        run_fixed()
    finally:
        subscription.close()

    return OverheadReport(
        wall_sec=wall,
        events_processed=events_processed,
        trace_checks=counter["n"],
        check_cost=disabled_check_cost(),
    )


def test_span_tracking_disabled_overhead(benchmark):
    report = run_experiment(benchmark, measure_span_tracking)

    benchmark.extra_info.update(
        wall_ms=round(report.wall_sec * 1e3, 2),
        span_guard_checks=report.trace_checks,
        overhead_fraction=round(report.overhead_fraction, 6),
    )

    # Every bio passes its submit, issue, and complete guards.
    assert report.trace_checks >= 3 * TARGET_BIOS
    assert report.overhead_fraction < OVERHEAD_LIMIT, report.describe()


def measure_self_profiler() -> OverheadReport:
    """The self-profiler's disabled cost: one flag check per counter site.

    ``PROF.total_checks`` of an enabled run counts exactly the guard
    passes the identical disabled run performs (each instrumented site
    increments exactly one plain counter per pass).
    """
    TRACE.reset()
    events_processed = run_fixed()          # warm caches / count sim events
    PROF.disable().reset()
    wall = wall_time(run_fixed, repeat=3)   # profiler disabled

    with PROF:
        run_fixed()
    checks = PROF.total_checks
    PROF.disable().reset()

    return OverheadReport(
        wall_sec=wall,
        events_processed=events_processed,
        trace_checks=checks,
        check_cost=disabled_prof_check_cost(),
    )


def test_self_profiler_disabled_overhead(benchmark):
    report = run_experiment(benchmark, measure_self_profiler)

    benchmark.extra_info.update(
        wall_ms=round(report.wall_sec * 1e3, 2),
        prof_guard_checks=report.trace_checks,
        overhead_fraction=round(report.overhead_fraction, 6),
    )

    # Every bio passes its submitted/issued/completed counter guards, and
    # the engine its dispatch/heap guards.
    assert report.trace_checks >= 3 * TARGET_BIOS
    assert report.overhead_fraction < OVERHEAD_LIMIT, report.describe()
