"""The cost ladder: one fixed load, layers added a rung at a time.

ROADMAP item 1 (a)-(f).  The load is ``engine_bench``'s: 4 KiB random
reads, depth 64, the calibrated new-generation SSD, 50,000 bios, device
rng 0 and sector rng 1.  Every rung runs it to completion, asserts its bio
count, and is timed untraced, fastest of a few repeats; a rung's metric is
the *delta* to the rung below, i.e. what the layer it adds costs per bio:

====  ===============================  ================================
rung  what runs                        metric
====  ===============================  ================================
a     engine only, null handlers       ``sim.null_event_us``,
                                       ``sim.schedule_bulk_us_per_timer``
b     + device (no block layer)        ``block.device.rung_us_per_bio``
c     + block layer, ``none``          ``block.layer.rung_us_per_bio``
d     + iocost                         ``core.rung_us_per_bio``
e     + ``ClosedLoopWorkload``         ``workloads.rung_us_per_bio``
f     d with one observer switched on  ``obs.trace_`` / ``obs.spans_`` /
                                       ``obs.prof_`` / ``sanitize.``
                                       ``rung_us_per_bio``
====  ===============================  ================================

Rung b is absolute (it includes the engine events the device schedules),
so b + c + d + e is rung e's total: the same path ``solo_randread`` takes
through ``Testbed``, and the two must agree within 15%.  Rung d is
``engine_bench.run_fixed_load``'s rig rebuilt here; its event count is
asserted equal to that function's, so ladder numbers stay comparable with
``BENCH_engine.json`` while neither file is touched.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.block.bio import Bio, IOOp
from repro.block.device import Device
from repro.block.device_models import SSD_NEW
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.obs.prof import PROF
from repro.obs.spans import SpanTracker
from repro.obs.trace import TraceBuffer
from repro.sanitize import SANITIZE
from repro.sim import Simulator
from repro.testbed import make_controller
from repro.workloads.synthetic import ClosedLoopWorkload

BIOS = 50_000
DEPTH = 64
SECTOR_CHUNK = 4096


class LadderError(AssertionError):
    """A rung did not do the work it is defined by."""


def _noop() -> None:
    pass


class _ClosedLoop:
    """The inline driver: ``depth`` bios outstanding until ``bios`` were
    issued, then drain.  ``submit`` is the layer under test."""

    def __init__(self, submit: Callable[[Bio], Any], group: Any, bios: int,
                 on_drained: Callable[[], None]) -> None:
        self.submit = submit
        self.group = group
        self.bios = bios
        self.on_drained = on_drained
        self.issued = 0
        self.done = 0
        self._rng = np.random.default_rng(1)
        self._sectors: List[int] = []
        self._next = 0

    def start(self) -> None:
        for _ in range(min(DEPTH, self.bios)):
            self.issue()

    def issue(self) -> None:
        if self._next == len(self._sectors):
            self._sectors = (self._rng.integers(0, 1 << 30, size=SECTOR_CHUNK) * 8).tolist()
            self._next = 0
        sector = self._sectors[self._next]
        self._next += 1
        self.issued += 1
        self.submit(Bio(IOOp.READ, 4096, sector, self.group))

    def completed(self, bio: Bio) -> None:
        self.done += 1
        if self.issued < self.bios:
            self.issue()
        elif self.done >= self.bios:
            self.on_drained()


def _expect(what: str, got: int, want: int) -> None:
    if got != want:
        raise LadderError(f"{what}: {got}, expected {want}")


# -- rung drivers: each returns the drained simulator --------------------------


def run_null_events(events: int = BIOS, batch: int = DEPTH) -> Simulator:
    """Rung a: ``schedule`` + dispatch of null handlers.  Timers are armed
    ``batch`` at a time and run before the next batch, so the heap holds
    what a depth-64 load keeps in it, not all 50,000."""
    sim = Simulator()
    for first in range(0, events, batch):
        for index in range(min(batch, events - first)):
            sim.schedule(index * 1e-6, _noop)
        sim.run()
    _expect("null events dispatched", sim.events_processed, events)
    return sim


def run_bulk_timers(timers: int = BIOS, batch: int = DEPTH) -> Simulator:
    """Rung a: the same timers armed through ``schedule_bulk``."""
    sim = Simulator()
    for first in range(0, timers, batch):
        sim.schedule_bulk(
            [(index * 1e-6, _noop, ()) for index in range(min(batch, timers - first))]
        )
        sim.run()
    _expect("bulk timers dispatched", sim.events_processed, timers)
    return sim


def run_device(bios: int = BIOS) -> Simulator:
    """Rung b: the driver straight on ``Device.submit`` / ``on_complete``."""
    sim = Simulator()
    device = Device(sim, SSD_NEW, np.random.default_rng(0))
    driver = _ClosedLoop(device.submit, CgroupTree().create("bench"), bios, _noop)
    device.on_complete = driver.completed
    driver.start()
    sim.run()
    _expect("device-rung bios", device.completed_ios, bios)
    return sim


def run_layer(controller_name: str, bios: int = BIOS) -> Simulator:
    """Rungs c (``none``) and d (``iocost``): the driver on ``BlockLayer``."""
    sim = Simulator()
    device = Device(sim, SSD_NEW, np.random.default_rng(0))
    controller = make_controller(controller_name, SSD_NEW)
    layer = BlockLayer(sim, device, controller)
    driver = _ClosedLoop(
        lambda bio: layer.submit(bio, on_done=driver.completed),
        CgroupTree().create("bench"), bios,
        # iocost's plan timer re-arms forever; stop it so the heap drains.
        controller.detach,
    )
    driver.start()
    sim.run()
    _expect(f"{controller_name}-rung bios", layer.completed_ios, bios)
    return sim


def run_workload_class(simulated_seconds: float, bios: int = BIOS) -> int:
    """Rung e: rung d's stack driven by ``ClosedLoopWorkload`` for the
    simulated time rung d needed; returns the bios it completed (the class
    stops on time, not on a count, so the count is asserted within 2%)."""
    sim = Simulator()
    device = Device(sim, SSD_NEW, np.random.default_rng(0))
    controller = make_controller("iocost", SSD_NEW)
    layer = BlockLayer(sim, device, controller)
    ClosedLoopWorkload(
        sim, layer, CgroupTree().create("bench"), depth=DEPTH,
        stop_at=simulated_seconds, seed=1,
    ).start()
    sim.run(until=simulated_seconds)
    controller.detach()
    sim.run()
    if abs(layer.completed_ios - bios) > 0.02 * bios:
        raise LadderError(
            f"workload-rung bios: {layer.completed_ios}, expected {bios} within 2%"
        )
    return layer.completed_ios


def check_engine_bench_parity(sim: Simulator, bios: int = BIOS) -> Optional[bool]:
    """Rung d against ``engine_bench.run_fixed_load``: same event count.

    Returns None when the tool is not importable (a later issue may fold it
    into this benchmark); raises when it is there and disagrees.
    """
    try:
        from repro.tools.engine_bench import run_fixed_load
    except ImportError:
        return None
    _expect(
        "rung d events vs engine_bench.run_fixed_load",
        sim.events_processed, run_fixed_load(bios, DEPTH).events_processed,
    )
    return True


# -- timing ------------------------------------------------------------------


def _timed(fn: Callable[[], Any], repeats: int) -> float:
    """Fastest host seconds of ``fn`` over ``repeats`` runs.  A rung is a
    difference of two such times, so interference in either would swamp it
    (stats.py: noise here only ever adds time)."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def cost_model_ns(calls: int = 200_000) -> float:
    """``LinearCostModel.cost`` per call, in ns, net of the empty loop."""
    model = LinearCostModel(ModelParams.from_device_spec(SSD_NEW))
    bio = Bio(IOOp.READ, 4096, 8, CgroupTree().create("bench"))
    cost = model.cost
    start = time.perf_counter()
    for _ in range(calls):
        cost(bio)
    priced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        pass
    empty = time.perf_counter() - start
    return max(0.0, priced - empty) / calls * 1e9


def run_ladder(repeats: int = 3, observer_repeats: int = 2, bios: int = BIOS) -> Dict[str, float]:
    """Every rung metric, by the names BENCHMARK.json lists.  The four
    observer rungs are the slow ones (a traced bio costs several plain
    ones) and get fewer repeats."""
    per = 1e6 / bios  # seconds per run -> us per bio (or per event)
    null_us = _timed(lambda: run_null_events(bios), repeats) * per
    bulk_us = _timed(lambda: run_bulk_timers(bios), repeats) * per

    device_us = _timed(lambda: run_device(bios), repeats) * per
    none_us = _timed(lambda: run_layer("none", bios), repeats) * per
    reference = run_layer("iocost", bios)  # warm, and the parity witness
    check_engine_bench_parity(reference, bios)
    iocost_s = _timed(lambda: run_layer("iocost", bios), repeats)
    iocost_us = iocost_s * per

    class_bios = run_workload_class(reference.now, bios)
    class_us = _timed(
        lambda: run_workload_class(reference.now, bios), repeats
    ) / class_bios * 1e6

    def observed(enter: Callable[[], Any], leave: Callable[[Any], None]) -> float:
        handle = enter()
        try:
            return _timed(lambda: run_layer("iocost", bios), observer_repeats) * per - iocost_us
        finally:
            leave(handle)

    def prof_on() -> None:
        PROF.reset()
        PROF.enable()

    def prof_off(_handle: Any) -> None:
        PROF.disable()
        PROF.reset()

    def sanitize_off(_handle: Any) -> None:
        SANITIZE.disable()
        SANITIZE.reset()

    return {
        "sim.null_event_us": null_us,
        "sim.schedule_bulk_us_per_timer": bulk_us,
        "block.device.rung_us_per_bio": device_us,
        "block.layer.rung_us_per_bio": none_us - device_us,
        "core.rung_us_per_bio": iocost_us - none_us,
        "workloads.rung_us_per_bio": class_us - iocost_us,
        "obs.trace_rung_us_per_bio": observed(
            lambda: TraceBuffer().attach(), lambda buffer: buffer.detach()
        ),
        "obs.spans_rung_us_per_bio": observed(
            lambda: SpanTracker().attach(), lambda tracker: tracker.detach()
        ),
        "obs.prof_rung_us_per_bio": observed(prof_on, prof_off),
        "sanitize.rung_us_per_bio": observed(SANITIZE.enable, sanitize_off),
        "core.cost_model.cost_ns": cost_model_ns(),
    }

