"""One workload in one fresh process (``python3 -m bench.child``).

run.py starts this module once per measurement so that no workload sees
another's warmed caches, grown heap or leftover module state.  Three modes:

* ``probe`` — import, build the workload once, report ``setup_s``, exit.
  run.py starts several probes and reports the fastest, because one
  process start is too noisy a sample.
* ``timed`` — the end-to-end measurement, everything observable off: one
  discarded warm-up at a fifth of the size, then timed repeats, each on a
  freshly built workload.
* ``traced`` — the per-layer measurement: one untraced reference repeat,
  then one repeat under ``cProfile`` + ``PROF`` + ``SpanTracker``, all
  switched on after set-up; plus the ladder (``solo_randread``) or the
  pool probe (``fleet_region``).  Traced times compare only with traced
  times.

The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.exp.runner import run_sweep
from repro.exp.spec import ExperimentSpec
from repro.obs.prof import PROF
from repro.obs.spans import SPAN_EVENTS, SpanTracker
from repro.obs.trace import TRACE

from bench import checks
from bench.ladder import run_ladder
from bench.layers import fold_profile
from bench.spans import SpanLog, duration
from bench.workloads import WORKLOADS, make_store

WARMUP_SCALE = 0.2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("probe", "timed", "traced"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed mode: repeat while the next repeat still fits")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed mode: exactly this many repeats")
    parser.add_argument("--t0", type=float, required=True,
                        help="the parent's time.perf_counter() when it started us")
    parser.add_argument("--spans-out", default=None)
    return parser


def repeat_once(
    workload: Any, seed: int, scale: float, spans: Any, is_last: Callable[[float], bool]
) -> Dict[str, Any]:
    """Build, time ``run``, finish; returns the repeat's record.  ``is_last``
    is asked once, with the timed section's seconds, when that is over."""
    gc.collect()
    with spans.span("build"):
        state = workload.build(seed, scale)
    with spans.span("timed") as timed:
        workload.run(state, spans)
    slices = [s for s in spans.spans[timed["id"]:] if s.get("slice")]
    # The slices tile the calls into the library; the calibration loops
    # between them are not part of the section.
    wall = sum(duration(s) for s in slices)
    last = is_last(wall)
    with spans.span("finish"):
        outcome = workload.finish(state, spans, last)
    return {
        "wall_s": wall,
        "last": last,
        "slices": [duration(s) for s in slices],
        "spins": [s["spin"] for s in slices],
        "bios": outcome.bios,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": checks.digest(outcome.stats),
        "check_failures": checks.failures(workload.name, outcome, scale == 1.0),
    }


def never_last(_wall: float) -> bool:
    return False


def run_timed(workload: Any, args: argparse.Namespace, spans: Any) -> Dict[str, Any]:
    spans.run_id = f"{workload.name}:warmup"
    repeat_once(workload, args.seed, args.scale * WARMUP_SCALE, spans, never_last)
    repeats: List[Dict[str, Any]] = []

    def is_last(wall: float) -> bool:
        done = len(repeats) + 1
        if args.repeats is not None:
            return done >= args.repeats
        if done == 1:
            # A second repeat is what lets the noise filter choose; give it
            # up only when the first already used two thirds of the budget.
            return wall > args.seconds * 2 / 3
        # Stop once another repeat of the usual length would overrun.
        spent = wall + sum(repeat["wall_s"] for repeat in repeats)
        return spent + spent / done > args.seconds

    while not (repeats and repeats[-1]["last"]):
        spans.run_id = f"{workload.name}:{args.seed}:{len(repeats)}"
        repeats.append(repeat_once(workload, args.seed, args.scale, spans, is_last))
    return {"repeats": repeats}


class TraceTap:
    """The two numbers no counter carries: mean vrate and timeouts."""

    EVENTS = ("vrate_adjust", "bio_error")

    def __init__(self) -> None:
        self.vrates: List[float] = []
        self.timeouts = 0

    def __call__(self, event: Any) -> None:
        if event.name == "vrate_adjust":
            self.vrates.append(float(event.fields["vrate"]))
        elif event.fields["status"] == "timeout":
            self.timeouts += 1


class MachineSpans:
    """Feeds ``SpanTracker`` one simulated machine at a time.

    A tracker keys open spans by ``(dev, bio id)`` and every ``Testbed``
    restarts bio ids, so a tracker that outlives a machine would see the
    next machine's bios as duplicates of the bios the last one left in
    flight.  Ids only grow within a machine; an id that does not is the
    next machine, and gets a fresh tracker.  Stage totals are summed.
    """

    def __init__(self) -> None:
        self._tracker = SpanTracker()
        self._last_id = -1
        self.machines = 1
        self.total_usec = 0.0
        self.stage_usec: Dict[str, float] = {}
        self._subscription = TRACE.subscribe(self, SPAN_EVENTS)

    def __call__(self, event: Any) -> None:
        if event.name == "bio_submit":
            bio_id = int(event.fields["id"])
            if bio_id <= self._last_id:
                self._fold()
                self._tracker = SpanTracker()
                self.machines += 1
            self._last_id = bio_id
        self._tracker(event)

    def _fold(self) -> None:
        rollup = self._tracker.breakdown()
        self.total_usec += rollup["end_to_end"]["total_usec"]
        for stage, summary in rollup["stages"].items():
            self.stage_usec[stage] = self.stage_usec.get(stage, 0.0) + summary["total_usec"]

    def close(self) -> Dict[str, float]:
        """Detach; the share of summed bio latency each stage accounts for."""
        self._subscription.close()
        self._fold()
        total = self.total_usec or 1.0
        throttle = sum(
            usec for stage, usec in self.stage_usec.items()
            if stage.startswith("throttle_wait:")
        )
        return {
            "block.layer.throttle_wait_share": throttle / total,
            "block.layer.queue_wait_share": self.stage_usec.get("queue_wait", 0.0) / total,
            "block.device.service_share": self.stage_usec.get("service", 0.0) / total,
        }


def pool_ms_per_run(cells: int = 64) -> float:
    """What a second worker costs or saves per run on cells that do nothing:
    64 no-op runs at ``workers=2`` minus the same at ``workers=1``."""
    spec = ExperimentSpec(
        name="bench-pool", kind="bench.workloads.noop_cell",
        zip_axes={"cell": tuple(range(cells))},
    )
    walls = {}
    for workers in (1, 2):
        start = time.perf_counter()
        report = run_sweep(spec, make_store(), workers=workers, clock=time.perf_counter)
        walls[workers] = time.perf_counter() - start
        if report.failures or report.executed != cells:
            raise RuntimeError(f"pool probe: {report.failures} of {cells} no-op runs failed")
    return (walls[2] - walls[1]) / cells * 1e3


def run_traced(workload: Any, args: argparse.Namespace, spans: Any) -> Dict[str, Any]:
    spans.run_id = f"{workload.name}:warmup"
    repeat_once(workload, args.seed, args.scale * WARMUP_SCALE, spans, never_last)
    spans.run_id = f"{workload.name}:{args.seed}:untraced"
    untraced = repeat_once(workload, args.seed, args.scale, spans, never_last)

    spans.run_id = f"{workload.name}:{args.seed}:traced"
    gc.collect()
    with spans.span("build"):
        state = workload.build(args.seed, args.scale)
    machine_spans = MachineSpans()
    tap = TraceTap()
    tap_subscription = TRACE.subscribe(tap, TraceTap.EVENTS)
    profiler = cProfile.Profile()
    PROF.reset()
    PROF.enable()
    profiler.enable()
    try:
        with spans.span("timed") as timed:
            workload.run(state, spans)
    finally:
        profiler.disable()
        PROF.disable()
        tap_subscription.close()
        shares = machine_spans.close()
    with spans.span("finish"):
        outcome = workload.finish(state, spans, last=True)
    traced_wall = sum(duration(s) for s in spans.spans[timed["id"]:] if s.get("slice"))

    failures = list(untraced["check_failures"])
    failures += checks.failures(workload.name, outcome, args.scale == 1.0)
    traced_digest = checks.digest(outcome.stats)
    if traced_digest != untraced["digest"]:
        failures.append(
            f"{workload.name}: tracing changed the simulated statistics "
            f"({untraced['digest']} untraced, {traced_digest} traced)"
        )

    prof = PROF.snapshot()
    PROF.reset()
    emits = prof.pop("emits_by_point")
    bios = prof["bios_completed"]
    pushes = prof["heap_pushes"]
    metrics: Dict[str, float] = {}
    for layer, entry in fold_profile(pstats.Stats(profiler)).items():
        metrics[f"{layer}.self_us_per_bio"] = entry["self_s"] * 1e6 / bios
        metrics[f"{layer}.calls_per_bio"] = entry["calls"] / bios
    metrics.update({
        "sim.events_per_bio": prof["events_dispatched"] / bios,
        "sim.heap_pushes_per_bio": pushes / bios,
        # Timers armed and never fired, as a share of all timers armed.
        "sim.cancelled_share": (pushes - prof["events_dispatched"]) / pushes,
        "core.pump_calls_per_bio": prof["pump_calls"] / bios,
        "core.throttle_notes_per_bio": emits.get("bio_throttle", 0) / bios,
        "core.plan_ticks": prof["plan_ticks"],
        "core.donation_passes": emits.get("donation_recalc", 0),
        "core.vrate_mean": sum(tap.vrates) / len(tap.vrates) if tap.vrates else 0.0,
        "block.layer.requeues": emits.get("bio_requeue", 0),
        "block.layer.errors": emits.get("bio_error", 0),
        "block.layer.timeouts": tap.timeouts,
        "obs.traced_slowdown": traced_wall / untraced["wall_s"],
    })
    metrics.update(shares)
    metrics.update(outcome.counters)

    if workload.name == "solo_randread" and args.scale == 1.0:
        with spans.span("ladder"):
            metrics.update(run_ladder())
    if workload.name == "fleet_region":
        with spans.span("pool_probe"):
            metrics["exp.pool.ms_per_run_w2"] = pool_ms_per_run()

    return {
        "metrics": metrics,
        "traced": {
            "bios": bios,
            "machines": machine_spans.machines,
            "untraced_wall_s": untraced["wall_s"],
            "traced_wall_s": traced_wall,
            "digest": traced_digest,
        },
        "attempted": untraced["attempted"] + outcome.attempted,
        "failed": untraced["failed"] + outcome.failed,
        "check_failures": failures,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.mode == "timed" and (args.seconds is None) == (args.repeats is None):
        raise SystemExit("timed mode needs exactly one of --seconds / --repeats")

    # Set-up runs from the parent's --t0 to the end of this first build; the
    # imports above are the larger part of it.
    workload = WORKLOADS[args.workload]
    # Calibrated slices for the end-to-end times; the traced run's times are
    # raw (its profile must not be full of calibration loops).
    spans = SpanLog(calibrate=args.mode == "timed")
    spans.run_id = f"{workload.name}:setup"
    with spans.span("setup"):
        workload.build(args.seed, args.scale)
    result: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": time.perf_counter() - args.t0,
    }
    if args.mode == "timed":
        result.update(run_timed(workload, args, spans))
    elif args.mode == "traced":
        result.update(run_traced(workload, args, spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.spans_out:
        spans.write_jsonl(Path(args.spans_out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
