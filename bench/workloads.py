"""The five benchmark workloads.

Each workload is three steps, so set-up, the timed section and the
bookkeeping after it can be timed apart:

* ``build(seed, scale)`` — set-up: spec / ``Testbed`` construction and
  workload attach.  ``seed`` feeds ``Testbed(seed=)`` (the fleet spec's
  ``seed`` for ``fleet_region``); the shape never depends on it.  ``scale``
  multiplies the simulated duration (the host count for ``fleet_region``):
  1.0 is the benchmark, smaller values are the warm-up and the smoke test.
* ``run(state, spans)`` — the timed section, nothing else, cut into
  consecutive *slices*: one span per call into the library.  A slice is the
  same work on every repeat, so run.py can keep each slice's fastest time
  (see README, "Noise protocol").
* ``finish(state, spans, last)`` — untimed: read the simulated statistics
  at the stop instant, drain what is still queued, tear down.  ``last`` is
  true on the final repeat, where the once-per-run checks are paid for.

Why these five: ``bench/names.py`` has one line each, the README the
layer table.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.block.bio import IOOp
from repro.core.qos import QoSParams
from repro.exp.experiments import run_mechanism_2to1
from repro.exp.spec import canonical_json
from repro.fleet.rollup import fleet_rollup
from repro.fleet.runner import run_fleet_sweep
from repro.fleet.scheduler import FleetScheduler, group_capacities
from repro.fleet.spec import FleetSpec
from repro.testbed import Testbed
from repro.workloads.memleak import MemoryLeaker
from repro.workloads.rcbench import WebServer

from bench.spans import SpanLog, duration

MB = 1024 * 1024
#: Slices a single-machine timed section is cut into (~0.1-0.25 s each).
SLICES = 25
#: Everything the benchmark writes: inside the checkout, ignored by git.
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Outcome:
    """What one repeat produced, as read by checks.py and run.py."""

    #: Simulated bios completed inside the timed section.
    bios: int
    #: Operations: submitted bios plus exp / fleet runs.
    attempted: int
    #: Operations that errored, timed out, never completed, or runs whose
    #: status is not ok.
    failed: int
    #: Simulated statistics at the stop instant; digested for ``sim_drift``.
    stats: Dict[str, Any]
    #: Inputs of the conservation and paper-shape checks.
    facts: Dict[str, Any] = field(default_factory=dict)
    #: Counters only the held objects expose (reported by the traced run).
    counters: Dict[str, float] = field(default_factory=dict)


# -- shared Testbed bookkeeping ----------------------------------------------


def _vrate_mean(bed: Testbed) -> Optional[float]:
    vrate_ctl = getattr(bed.controller, "vrate_ctl", None)
    if vrate_ctl is None:
        return None
    values = vrate_ctl.vrate_series.slice(0.0, bed.sim.now)
    return float(sum(values) / len(values)) if values else None


def _bed_stats(bed: Testbed, groups: Sequence[Any]) -> Dict[str, Any]:
    """The simulated statistics of one machine at its stop instant."""
    layer = bed.layer
    now = bed.sim.now
    per_cgroup = {}
    for group in groups:
        record = group.stats.device(layer.dev)
        per_cgroup[group.path] = {
            "completed": layer.iops_of(group),
            "rios": record.rios, "wios": record.wios,
            "rbytes": record.rbytes, "wbytes": record.wbytes,
        }
    return {
        "submitted": layer.submitted_ios,
        "finished": layer.completed_ios,
        "events_processed": bed.sim.events_processed,
        "read_p50": layer.read_latency.percentile(now, 50),
        "read_p99": layer.read_latency.percentile(now, 99),
        "write_p50": layer.write_latency.percentile(now, 50),
        "write_p99": layer.write_latency.percentile(now, 99),
        "vrate_mean": _vrate_mean(bed),
        "cgroups": per_cgroup,
    }


def _run_sliced(bed: Testbed, duration: float, slices: int, spans: SpanLog, name: str) -> None:
    """``bed.run`` to ``duration`` in ``slices`` equal steps, a span each.
    Steps aim at absolute instants, so the last one ends on ``duration``."""
    start = bed.sim.now
    for index in range(1, slices + 1):
        with spans.slice(name):
            bed.run(start + duration * index / slices - bed.sim.now)


def _drain(bed: Testbed, limit: float = 2.0, step: float = 0.05) -> Dict[str, int]:
    """Let queued and in-flight bios finish (the generators have stopped),
    then tear the controller down.  Returns the conservation facts."""
    layer = bed.layer
    at_stop = {
        "submitted_at_stop": layer.submitted_ios,
        "finished_at_stop": layer.completed_ios,
    }
    waited = 0.0
    while layer.completed_ios < layer.submitted_ios and waited < limit:
        bed.sim.run(until=bed.sim.now + step)
        waited += step
    bed.detach()
    return {
        **at_stop,
        "submitted": layer.submitted_ios,
        "finished": layer.completed_ios,
        "inflight": layer.inflight,
        "errored": layer.errored_ios,
        "timed_out": layer.timed_out_ios,
    }


def _bed_outcome(
    bed: Testbed,
    groups: Sequence[Any],
    generators: Optional[Sequence[Any]] = None,
) -> Outcome:
    """Stats, drain, conservation facts and failure count for one machine.

    ``generators`` are the synthetic workload objects when every bio of the
    machine comes from them: their own completion-callback counts are then
    an independent witness of the layer's counters.
    """
    stats = _bed_stats(bed, groups)
    counters = {"block.layer.depleted_events": float(bed.layer.depleted_events)}
    conservation = _drain(bed)
    if generators is not None:
        conservation["callbacks"] = sum(g.completed for g in generators)
    never_completed = conservation["submitted"] - conservation["finished"]
    return Outcome(
        bios=stats["finished"],
        attempted=conservation["submitted"],
        failed=never_completed + conservation["errored"],
        stats=stats,
        facts={"conservation": [conservation]},
        counters=counters,
    )


# -- solo_randread -----------------------------------------------------------


class SoloRandread:
    name = "solo_randread"
    duration = 0.5

    def build(self, seed: int, scale: float) -> Dict[str, Any]:
        duration = self.duration * scale
        bed = Testbed("ssd_new", "iocost", seed=seed)
        group = bed.add_cgroup("workload.slice/solo")
        generator = bed.saturate(group, depth=64, stop_at=duration)
        return {"bed": bed, "group": group, "generator": generator, "duration": duration}

    def run(self, state: Dict[str, Any], spans: SpanLog) -> None:
        _run_sliced(state["bed"], state["duration"], SLICES, spans, "bed.run")

    def finish(self, state: Dict[str, Any], spans: SpanLog, last: bool) -> Outcome:
        bed = state["bed"]
        iops = bed.layer.iops_of(state["group"]) / state["duration"]
        outcome = _bed_outcome(bed, [state["group"]], [state["generator"]])
        outcome.facts["iops"] = iops
        outcome.facts["peak_iops"] = bed.spec.peak_rand_read_iops
        return outcome


# -- contended_tree ----------------------------------------------------------


class ContendedTree:
    name = "contended_tree"
    duration = 1.0
    tenant_weights = (400, 200, 100, 50)
    container_weights = (100, 100, 200, 50)

    def build(self, seed: int, scale: float) -> Dict[str, Any]:
        duration = self.duration * scale
        qos = QoSParams(
            read_lat_target=1e-3, read_pct=95, write_lat_target=5e-3, write_pct=95,
            vrate_min=0.25, vrate_max=1.5, period=0.02,
        )
        bed = Testbed("ssd_old", "iocost", seed=seed, qos=qos)
        groups: List[Any] = []
        generators: List[Any] = []
        readers: List[Any] = []
        for tenant, tenant_weight in enumerate(self.tenant_weights):
            groups.append(bed.add_cgroup(f"workload.slice/t{tenant}", weight=tenant_weight))
            reader, writer, paced, thinker = (
                bed.add_cgroup(f"workload.slice/t{tenant}/c{index}", weight=weight)
                for index, weight in enumerate(self.container_weights)
            )
            groups += [reader, writer, paced, thinker]
            readers.append(reader)
            generators += [
                bed.saturate(reader, depth=32, stop_at=duration),
                bed.saturate(
                    writer, op=IOOp.WRITE, size=64 * 1024, depth=16,
                    sequential=True, stop_at=duration,
                ),
                bed.paced(paced, 2000.0, stop_at=duration),
                bed.think_time(
                    thinker, think_time=200e-6, op=IOOp.WRITE, stop_at=duration
                ),
            ]
        system = bed.cgroups.lookup("system.slice")
        groups.append(system)
        generators.append(
            bed.saturate(system, op=IOOp.WRITE, size=256 * 1024, depth=64, stop_at=duration)
        )
        return {
            "bed": bed, "groups": groups, "generators": generators,
            "readers": readers, "duration": duration,
        }

    def run(self, state: Dict[str, Any], spans: SpanLog) -> None:
        _run_sliced(state["bed"], state["duration"], SLICES, spans, "bed.run")

    def finish(self, state: Dict[str, Any], spans: SpanLog, last: bool) -> Outcome:
        bed = state["bed"]
        reader_ios = [bed.layer.iops_of(group) for group in state["readers"]]
        outcome = _bed_outcome(bed, state["groups"], state["generators"])
        outcome.facts["reader_ios"] = reader_ios
        outcome.facts["reader_weights"] = list(self.tenant_weights)
        return outcome


# -- mechanisms_2to1 ---------------------------------------------------------


class Mechanisms2to1:
    name = "mechanisms_2to1"
    #: Simulated seconds per mechanism, run as ``windows`` calls of
    #: ``duration / windows`` on seeds ``seed``, ``seed + 1``, ...: a call
    #: cannot be cut from outside, and short slices are what lets the noise
    #: filter see through a burst (README, "Noise protocol").
    duration = 0.5
    windows = 5
    mechanisms = (
        "none", "mq-deadline", "kyber", "bfq", "blk-throttle", "iolatency", "iocost",
    )

    def build(self, seed: int, scale: float) -> Dict[str, Any]:
        window = self.duration * scale / self.windows
        cells = [
            ({"mechanism": name, "device": "ssd_old", "depth": 32, "duration": window}, seed + index)
            for name in self.mechanisms for index in range(self.windows)
        ]
        return {"cells": cells, "window": window, "results": []}

    def run(self, state: Dict[str, Any], spans: SpanLog) -> None:
        for params, seed in state["cells"]:
            with spans.slice(f"run_mechanism_2to1:{params['mechanism']}"):
                state["results"].append(run_mechanism_2to1(params, seed))

    def finish(self, state: Dict[str, Any], spans: SpanLog, last: bool) -> Outcome:
        results = state["results"]
        # The kind reports rates over its window; the bios behind them are
        # whole numbers, so rounding recovers the exact count.
        ios = {name: [0, 0] for name in self.mechanisms}
        for cell in results:
            ios[cell["mechanism"]][0] += round(cell["high_iops"] * state["window"])
            ios[cell["mechanism"]][1] += round(cell["low_iops"] * state["window"])
        bios = sum(high + low for high, low in ios.values())
        return Outcome(
            bios=bios,
            attempted=bios + len(state["cells"]),
            failed=len(state["cells"]) - len(results),
            stats={"windows": results},
            facts={"ratios": {name: high / low if low else None for name, (high, low) in ios.items()}},
        )


# -- memleak_web -------------------------------------------------------------


class MemleakWeb:
    name = "memleak_web"
    duration = 20.0
    #: (device, with_leak) — the Fig 14 cell, its leak-free baseline, and
    #: the same cell on the faster device.
    cells = (("ssd_old", True), ("ssd_old", False), ("ssd_new", True))
    slices_per_machine = 20

    def _machine(self, device: str, with_leak: bool, seed: int, duration: float) -> Dict[str, Any]:
        qos = QoSParams(
            read_lat_target=5e-3, read_pct=90, vrate_min=0.4, vrate_max=2.0, period=0.05
        )
        bed = Testbed(
            device=device, controller="iocost", qos=qos, seed=seed,
            mem_bytes=1024 * MB, swap_bytes=8192 * MB,
            protected={"workload.slice/web": 320 * MB},
        )
        group = bed.add_cgroup("workload.slice/web", weight=500)
        web = WebServer(
            bed.sim, bed.layer, bed.mm, group,
            working_set=640 * MB, load=0.9, workers=8,
            touch_per_request=512 * 1024, stop_at=duration, seed=seed,
        ).start()
        system = bed.cgroups.lookup("system.slice")
        if with_leak:
            for index in range(3):
                MemoryLeaker(
                    bed.sim, bed.layer, bed.mm, system,
                    rate_bps=1024 * MB, chunk=8 * MB,
                    stop_at=duration, seed=seed + 100 + index,
                ).start()
        return {"bed": bed, "web": web, "groups": [group, system]}

    def build(self, seed: int, scale: float) -> Dict[str, Any]:
        duration = self.duration * scale
        machines = [
            self._machine(device, with_leak, seed, duration)
            for device, with_leak in self.cells
        ]
        return {"machines": machines, "duration": duration}

    def run(self, state: Dict[str, Any], spans: SpanLog) -> None:
        for (device, with_leak), machine in zip(self.cells, state["machines"]):
            _run_sliced(
                machine["bed"], state["duration"], self.slices_per_machine, spans,
                f"bed.run:{device}:{'leak' if with_leak else 'baseline'}",
            )

    def finish(self, state: Dict[str, Any], spans: SpanLog, last: bool) -> Outcome:
        duration = state["duration"]
        merged = Outcome(bios=0, attempted=0, failed=0, stats={}, facts={"conservation": []})
        rps = []
        kswapd = 0
        for (device, with_leak), machine in zip(self.cells, state["machines"]):
            web = machine["web"]
            # Fig 14 reads steady-state RPS, after the working set is in.
            rps.append(web.rps_series.mean(0.4 * duration, duration))
            kswapd += machine["bed"].mm.kswapd_reclaimed_total
            outcome = _bed_outcome(machine["bed"], machine["groups"])
            key = f"{device}:{'leak' if with_leak else 'baseline'}"
            merged.bios += outcome.bios
            merged.attempted += outcome.attempted
            merged.failed += outcome.failed
            merged.stats[key] = {**outcome.stats, "requests_done": web.requests_done}
            merged.facts["conservation"] += outcome.facts["conservation"]
            for name, value in outcome.counters.items():
                merged.counters[name] = merged.counters.get(name, 0.0) + value
        merged.facts["rps_retained"] = rps[0] / rps[1] if rps[1] else 0.0
        merged.counters["mm.kswapd_reclaimed"] = float(kswapd)
        return merged


# -- fleet_region ------------------------------------------------------------


def fleet_document(seed: int, multiplier: int) -> Dict[str, Any]:
    """``examples/specs/fleet_smoke.toml``'s shape, ``multiplier`` times
    over, as the in-memory document ``FleetSpec.from_dict`` reads."""
    return {
        "name": "fleet-region",
        "seed": seed,
        "policy": "best_fit",
        "capacity": "rated",
        "duration": 0.05,
        "percentiles": [50, 95, 99],
        "hosts": {
            "web": {"count": 6 * multiplier, "device": "ssd_new",
                    "device_scale": 0.05, "controller": "iocost"},
            "db": {"count": 3 * multiplier, "device": "ssd_old",
                   "device_scale": 0.05, "controller": "iocost"},
        },
        "workloads": [
            {"name": "frontend", "count": 8 * multiplier, "cgroup": "workload.slice/fe",
             "weight": 200, "type": "paced", "rate": 300},
            {"name": "batch", "count": 4 * multiplier, "cgroup": "workload.slice/batch",
             "weight": 50, "type": "paced", "rate": 150},
            {"name": "db-shard", "count": 2 * multiplier, "cgroup": "workload.slice/db",
             "weight": 100, "type": "paced", "rate": 200},
        ],
    }


#: Artifact stores (about 15 MB on disk and 2,700 files each at full size)
#: are kept, and removed together once the oldest is this many seconds old.
KEEP_STORES_SECONDS = 2 * 3600
STORES_DIR = OUT_DIR / "stores"


def make_store() -> Path:
    """A new, empty artifact store under ``bench/out`` (in the checkout).

    Stores are not removed after use.  The ext4 this was built on is
    mounted with ``discard``: the thousands of small extents a removed
    store frees are trimmed in the background for the next minute, and
    file creation meanwhile — the sweep's commit phase — takes four times
    as long, so tidying up after each repeat, or each run, would have every
    later run time the file system's clean-up (measured: commit phase
    0.5 s with no removal pending, 1.4-2.9 s otherwise).  Instead the stores
    pile up, and are removed together (:func:`remove_stores`) by the first
    run that finds them older than any benchmarking session lasts.
    """
    STORES_DIR.mkdir(parents=True, exist_ok=True)
    oldest = min((entry.stat().st_mtime for entry in STORES_DIR.iterdir()), default=None)
    if oldest is not None and time.time() - oldest > KEEP_STORES_SECONDS:
        remove_stores()
        STORES_DIR.mkdir(parents=True)
    return Path(tempfile.mkdtemp(prefix="store-", dir=STORES_DIR))


def remove_stores() -> None:
    shutil.rmtree(STORES_DIR, ignore_errors=True)


def store_bytes(store: Path) -> int:
    return sum(path.stat().st_size for path in store.rglob("*") if path.is_file())


def noop_cell(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """An experiment kind that does nothing: what is left of a sweep over
    it is the runner's own per-run cost (``exp.pool.ms_per_run_w2``)."""
    return {"ok": True}


class MarkingClock:
    """The clock ``run_sweep`` is given.  The runner reads it at the sweep's
    start and end and around every host run; the reads listed in
    ``boundaries`` (by ordinal) become slice bounds (``SpanLog.mark``)."""

    def __init__(self, spans: SpanLog, boundaries: Set[int]) -> None:
        self.spans = spans
        self.boundaries = boundaries
        self.reads = 0
        self.marks: List[Tuple[float, Optional[float], float]] = []

    def __call__(self) -> float:
        ordinal = self.reads
        self.reads += 1
        if ordinal not in self.boundaries:
            return time.perf_counter()
        self.marks.append(self.spans.mark())
        return self.marks[-1][2]


class FleetRegion:
    name = "fleet_region"
    multiplier = 100
    hosts_per_slice = 30

    def build(self, seed: int, scale: float) -> Dict[str, Any]:
        multiplier = max(1, round(self.multiplier * scale))
        start = time.perf_counter()
        spec = FleetSpec.from_dict(fleet_document(seed, multiplier))
        expand_ms = (time.perf_counter() - start) * 1e3
        return {"spec": spec, "expand_ms": expand_ms}

    def run(self, state: Dict[str, Any], spans: SpanLog) -> None:
        state["store"] = make_store()
        # One call, cut into slices where the runner reads its clock: sweep
        # start, first host's start (the cache lookups lie between), every
        # ``hosts_per_slice``-th host's start, last host's end, sweep end
        # (the store commits lie between).  Placement comes before the
        # first read, the rollup after the last.
        hosts = state["spec"].host_count
        chunk_starts = range(1, 2 * hosts, 2 * self.hosts_per_slice)
        clock = MarkingClock(spans, {0, *chunk_starts, 2 * hosts, 2 * hosts + 1})
        clock.marks.append(spans.mark())
        with spans.span("run_fleet_sweep") as whole:
            state["report"] = run_fleet_sweep(
                state["spec"], state["store"], workers=1, clock=clock
            )
        clock.marks.append(spans.mark())
        names = ["place", "lookup", *(f"hosts[{at // 2}:]" for at in chunk_starts), "commit", "rollup"]
        spans.add_slices(whole, [f"run_fleet_sweep:{name}" for name in names], clock.marks)

    def finish(self, state: Dict[str, Any], spans: SpanLog, last: bool) -> Outcome:
        spec, report = state["spec"], state["report"]
        sweep = report.sweep
        bios = round(sum(
            cell["iops"] * result["duration"]
            for result in report.results.values()
            for cell in result["cgroups"].values()
        ))
        events = sum(result["events_processed"] for result in report.results.values())
        rollup_json = canonical_json(report.rollup)
        facts: Dict[str, Any] = {
            "runs": sweep.runs_total,
            "runs_failed": sweep.failures,
            "hosts": spec.host_count,
        }
        counters: Dict[str, float] = {
            "fleet.spec.expand_ms": state["expand_ms"],
            "exp.runner.overhead_ms_per_run": (
                (sweep.elapsed_wall_sec - sweep.executed_wall_sec) / sweep.runs_total * 1e3
            ),
        }
        if last:
            # Once per run, not per repeat: the identical sweep again must
            # be all cache hits, and the rollup must recompute to the same
            # bytes from the stored results.
            with spans.span("run_fleet_sweep:cached") as cached:
                again = run_fleet_sweep(
                    spec, state["store"], workers=1, clock=time.perf_counter
                )
            with spans.span("fleet_rollup") as rollup:
                recomputed = fleet_rollup(report.plan, again.results, spec.percentiles)
            with spans.span("place") as place:
                FleetScheduler(spec, group_capacities(spec)).place()
            facts["cached_hit_rate"] = again.sweep.hit_rate
            facts["rollup_identical"] = canonical_json(recomputed) == rollup_json
            counters.update({
                "exp.cache.hit_ms_per_run": duration(cached) / sweep.runs_total * 1e3,
                "exp.cache.hit_rate": again.sweep.hit_rate,
                "exp.store.bytes_per_run": store_bytes(state["store"]) / sweep.runs_total,
                "fleet.rollup.ms": duration(rollup) * 1e3,
                "fleet.scheduler.place_ms": duration(place) * 1e3,
            })
        return Outcome(
            bios=bios,
            attempted=bios + sweep.runs_total,
            failed=sweep.failures,
            stats={"rollup": rollup_json, "events_processed": events, "bios": bios},
            facts=facts,
            counters=counters,
        )


WORKLOADS: Dict[str, Any] = {
    workload.name: workload
    for workload in (
        SoloRandread(), ContendedTree(), Mechanisms2to1(), MemleakWeb(), FleetRegion(),
    )
}
