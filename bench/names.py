"""Every name the benchmark emits, with its unit — and BENCHMARK.json.

This module is the one list of workload and metric names.  run.py emits
exactly these, ``python3 -m bench.names`` prints the ``BENCHMARK.json``
they imply, and ``bench/tests`` fails when the committed file differs.
Later issues cite the names verbatim; bench/README.md is the glossary.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from bench.layers import LAYERS

RUN_SECONDS = 15

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("solo_randread",
     "one cgroup, budget never binds: engine, device and block layer do the work, "
     "iocost is one enqueue and one issue per bio"),
    ("contended_tree",
     "4x4 weighted tree held back by budget: iocost retries, wake timers, donation, "
     "planning, the cgroup tree and the event heap dominate; reads beside writes, open beside closed loop"),
    ("mechanisms_2to1",
     "all seven Table 1 mechanisms on the shared block layer: shows a layer change "
     "tuned for iocost costing the baselines"),
    ("memleak_web",
     "Fig 14 web server under a memory leak: generator processes, Signal completions, "
     "mm and swap IO, the path the callback fast path bypasses"),
    ("fleet_region",
     "900 short host simulations through placement, cache, store and rollup: "
     "orchestration is about half the profile"),
)

#: (name, unit, better, bound).  The time bounds are the widest the contract
#: allows because of the machine, not the code: see README, "Noise protocol".
#: ``fail_share`` and ``sim_drift`` are not
#: here because they are 0 on a healthy run and a bound that is a share of
#: 0 bounds nothing: they travel as ``failed`` / ``attempted`` / ``correct``
#: in the result line, and by name in the ``--out`` file.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("wall_s", "s", "lower", 0.25),
    ("bios_per_sec", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: ``setup_s`` may also move by this many seconds before it counts: a
#: quarter of a 0.1 s set-up is inside one process start's noise.
ABSOLUTE_SLACK = {"setup_s": 0.05}

#: The two end-to-end metrics that are zero when all is well; "no increase".
ZERO_METRICS: Tuple[Tuple[str, str], ...] = (("fail_share", "share"), ("sim_drift", "count"))

#: Counts and shares that repeat exactly for a seed: a change that only
#: speeds the simulator up must leave each of them where it was.
WORK_COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events_per_bio", "1/bio", "lower"),
    ("sim.heap_pushes_per_bio", "1/bio", "lower"),
    ("sim.cancelled_share", "share", "lower"),
    ("core.pump_calls_per_bio", "1/bio", "lower"),
    ("core.throttle_notes_per_bio", "1/bio", "lower"),
    ("core.plan_ticks", "count", "lower"),
    ("core.donation_passes", "count", "lower"),
    ("core.vrate_mean", "ratio", "higher"),
    ("block.layer.requeues", "count", "lower"),
    ("block.layer.errors", "count", "lower"),
    ("block.layer.timeouts", "count", "lower"),
    ("block.layer.depleted_events", "count", "lower"),
    ("mm.kswapd_reclaimed", "bytes", "lower"),
    ("block.layer.throttle_wait_share", "share", "lower"),
    ("block.layer.queue_wait_share", "share", "lower"),
    ("block.device.service_share", "share", "higher"),
)

LADDER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.null_event_us", "us", "lower"),
    ("sim.schedule_bulk_us_per_timer", "us", "lower"),
    ("block.device.rung_us_per_bio", "us/bio", "lower"),
    ("block.layer.rung_us_per_bio", "us/bio", "lower"),
    ("core.rung_us_per_bio", "us/bio", "lower"),
    ("workloads.rung_us_per_bio", "us/bio", "lower"),
    ("obs.trace_rung_us_per_bio", "us/bio", "lower"),
    ("obs.spans_rung_us_per_bio", "us/bio", "lower"),
    ("obs.prof_rung_us_per_bio", "us/bio", "lower"),
    ("sanitize.rung_us_per_bio", "us/bio", "lower"),
    ("core.cost_model.cost_ns", "ns", "lower"),
)

FLEET: Tuple[Tuple[str, str, str], ...] = (
    ("fleet.scheduler.place_ms", "ms", "lower"),
    ("fleet.spec.expand_ms", "ms", "lower"),
    ("exp.runner.overhead_ms_per_run", "ms/run", "lower"),
    ("exp.cache.hit_ms_per_run", "ms/run", "lower"),
    ("exp.cache.hit_rate", "share", "higher"),
    ("exp.store.bytes_per_run", "bytes/run", "lower"),
    ("exp.pool.ms_per_run_w2", "ms/run", "lower"),
    ("fleet.rollup.ms", "ms", "lower"),
)


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric: (name, unit, better), in emission order."""
    rows: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        rows.append((f"{layer}.self_us_per_bio", "us/bio", "lower"))
        rows.append((f"{layer}.calls_per_bio", "1/bio", "lower"))
    rows += WORK_COUNTS
    rows.append(("obs.traced_slowdown", "ratio", "lower"))
    rows += LADDER
    rows += FLEET
    return rows


def benchmark_document() -> Dict[str, Any]:
    """What ``BENCHMARK.json`` must say."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_document(), indent=2))
