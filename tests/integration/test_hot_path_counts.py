"""How much work one bio costs, in counts that do not depend on the runner.

Wall time is measured by ``bench/run.py``; what tier-1 pins is the fixed
rig's work in exact integers, on any machine: the self-profiler's event,
heap and pump counts, and the number of Python calls ``cProfile`` sees
per additional bio while TRACE, PROF and SANITIZE are all off.  The fixed
rig is :func:`tests.conftest.run_count_rig`, ``solo_randread``'s closed
loop on a :class:`~repro.testbed.Testbed`.  A solo bio is one simulator
event — its completion; the issue path's CPU cost is its start time on the
device, not an event.  Run this file after touching anything between
``BlockLayer.submit`` and ``_finish``.  A change that removes work lowers
the numbers here.

A second, *contended* rig sits beside the solo one: a small weighted tree
whose budget binds, so most heads wait.  What it pins is that a held head
costs no timer traffic while it waits (``IOController.hold``): heap pushes
per bio stay under two and almost no pushed timer is cancelled.
A third, a fleet ``db`` host of paced cgroups, pins that a sibling's
activation re-evaluates no held head: it can only move deadlines later.
A fourth, the density rig, pins that idle cgroups beside a busy one cost
nothing per bio once they have deactivated: a pump visits only the groups
that can issue.
Beside the calls ceiling sits a memory one: the bytes a completion leaves
behind in tracemalloc's peak, and no collection by the cyclic GC.
"""

import cProfile
import gc
import pstats
import sys
import tracemalloc
from collections import deque

import pytest

from repro.analysis.stats import LatencyLog
from repro.block.bio import Bio, IOOp
from repro.block.layer import BlockLayer
from repro.controllers import BlkThrottleController, ThrottleLimits
from repro.controllers.base import IOController
from repro.core.qos import QoSParams
from repro.exp.experiments import build_machine
from repro.obs.prof import PROF
from repro.obs.trace import TRACE
from repro.sanitize import SANITIZE
from repro.testbed import Testbed
from tests.conftest import run_count_rig

#: Simulated seconds of the count rig: 5,305 bios, no plan tick.
WINDOW = 0.02
BIOS = 5305

#: ``PROF.snapshot()`` of ``run_count_rig(WINDOW)``, exactly.  A bio's one
#: event is its completion; the issue path's CPU cost is its start time.
PROF_COUNTS = {
    "events_dispatched": 5867,
    "heap_pushes": 5868,
    "heap_pops": 5868,
    "pump_calls": 6360,
    "bios_submitted": BIOS,
    "bios_issued": BIOS,
    "bios_completed": BIOS,
    "plan_ticks": 0,
    "emits_by_point": {},
}

#: ``PROF.snapshot()`` of :func:`run_contended_tree`, exactly.  Where every
#: pump re-armed every blocked group's wake the same rig made 283,073 heap
#: pushes (24.4 per bio) and cancelled 0.896 of them, on 29,459 events;
#: with an issue event per bio it read 29,722 events and 34,213 pushes.
CONTENDED_PROF_COUNTS = {
    "events_dispatched": 18144,
    "heap_pushes": 22635,
    "heap_pops": 22634,
    "pump_calls": 29721,
    "bios_submitted": 11578,
    "bios_issued": 11578,
    "bios_completed": 11578,
    "plan_ticks": 12,
    "emits_by_point": {},
}
#: The storm's signature, bounded loosely enough to survive a retuned rig
#: (1.95 per bio today).
HEAP_PUSHES_PER_BIO_CEILING = 3.0
CANCELLED_SHARE_CEILING = 0.3

#: Python + C calls per additional bio with every guard off: 38.029 on
#: CPython 3.11 (the .029 is one sector-chunk refill per 256 bios).  Three
#: of the thirty-eight are the workload's ``_record`` of its own completion;
#: two are the one latency sample (``LatencyLog.record`` and its
#: ``fromlist``).  While the device and the cgroup window each took the
#: sample it read 40.029.
CALLS_PER_BIO_CEILING = 38.042

#: Bytes each additional bio adds to tracemalloc's peak: 25.7 on CPython
#: 3.11 — the three doubles it leaves in its direction's latency log and
#: the one in the workload's latency log, less what the log evicts.  While
#: the device and the cgroup window each kept the sample it was 45.5, and
#: while a sample was a tuple 188.
PEAK_BYTES_PER_BIO_CEILING = 28

#: cProfile's C-call accounting and the allocator's sizes differ between
#: minor versions.
needs_cpython_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the call and byte ceilings were counted on CPython 3.11",
)


@pytest.fixture(autouse=True)
def everything_off():
    TRACE.reset()
    PROF.disable().reset()
    with SANITIZE.suspended():
        yield
    PROF.disable().reset()


def _calls(seconds):
    """``(calls, bios)`` of a count-rig run of ``seconds``."""
    profiler = cProfile.Profile()
    # A collection inside the profile would count whatever sits in
    # gc.callbacks (hypothesis installs one) as calls of the run.
    gc.disable()
    try:
        profiler.enable()
        bed = run_count_rig(seconds)
        profiler.disable()
    finally:
        gc.enable()
    return pstats.Stats(profiler).total_calls, bed.layer.completed_ios


def marginal(measure):
    """``measure`` of a 2×WINDOW run minus a WINDOW run, per additional
    bio: set-up and drain cancel."""
    run_count_rig(WINDOW / 10)  # first-use imports and caches
    short, short_bios = measure(WINDOW)
    long, long_bios = measure(2 * WINDOW)
    return (long - short) / (long_bios - short_bios)


def marginal_calls_per_bio():
    return marginal(_calls)


def test_prof_counts_are_exact():
    with PROF:
        run_count_rig(WINDOW)
    assert PROF.snapshot() == PROF_COUNTS


def run_contended_tree():
    """0.2 s of nine saturating readers (depth 8) in a 3 x 3 weighted tree on
    ``ssd_old``, vrate capped at 0.6 of the device: every group waits on
    budget most of the time.  Drained and detached before it returns."""
    qos = QoSParams(
        read_lat_target=1e-3, read_pct=95, vrate_min=0.25, vrate_max=0.6, period=0.02
    )
    bed = Testbed("ssd_old", "iocost", seed=3, qos=qos)
    for tenant, tenant_weight in enumerate((400, 200, 100)):
        bed.add_cgroup(f"workload.slice/t{tenant}", weight=tenant_weight)
        for index, weight in enumerate((200, 100, 50)):
            group = bed.add_cgroup(f"workload.slice/t{tenant}/c{index}", weight=weight)
            bed.saturate(group, depth=8, stop_at=0.2)
    bed.run(0.25)
    bed.detach()
    return bed


def test_contended_prof_counts_are_exact_and_no_storm():
    with PROF:
        bed = run_contended_tree()
    counts = PROF.snapshot()
    assert bed.layer.completed_ios == bed.layer.submitted_ios
    assert counts == CONTENDED_PROF_COUNTS
    pushes = counts["heap_pushes"]
    assert pushes / counts["bios_completed"] <= HEAP_PUSHES_PER_BIO_CEILING
    assert (pushes - counts["events_dispatched"]) / pushes <= CANCELLED_SHARE_CEILING


#: ``hold`` calls on :func:`run_db_host`, and how many of them re-evaluated
#: the bio already held and kept its timer, exactly.  Where every activation
#: re-evaluated every held head the rig made 329 calls, 105 of them kept.
DB_HOST_HOLDS = {"hold": 224, "kept": 0}


def run_db_host():
    """A ``fleet_region`` ``db`` host: 15 paced cgroups on ``ssd_old`` x 0.05
    for 0.05 s, their first bios arriving one after another, each new
    sibling lowering every held head's hweight."""
    paths = [f"workload.slice/fe-{index}" for index in range(15)]
    bed, _, duration = build_machine({
        "device": "ssd_old", "device_scale": 0.05, "controller": "iocost", "duration": 0.05,
        "cgroups": {path: 200 for path in paths},
        "workloads": [{"cgroup": path, "type": "paced", "rate": 300} for path in paths],
    }, seed=1)
    bed.run(duration)
    bed.detach()
    return bed


def test_a_sibling_activation_re_evaluates_no_held_head(monkeypatch):
    counts = {"hold": 0, "kept": 0}
    hold = IOController.hold

    def counting_hold(self, group, bio, reason, delay, key):
        now = self.layer.sim.now
        counts["hold"] += 1
        if group.held is bio and group.wake is not None and now < group.wake.time <= now + delay:
            counts["kept"] += 1
        hold(self, group, bio, reason, delay, key)

    monkeypatch.setattr(IOController, "hold", counting_hold)
    bed = run_db_host()
    assert bed.layer.completed_ios > 150
    assert counts == DB_HOST_HOLDS


def heap_census(sim):
    """``(live, cancelled)`` entries on the event heap."""
    cancelled = sum(event.cancelled for _time, _seq, event in sim._heap)
    return len(sim._heap) - cancelled, cancelled


def submit_one_read_each(bed, groups):
    for index, group in enumerate(groups):
        bed.layer.submit(Bio(IOOp.READ, 4096, 8 * index, group))


@pytest.mark.parametrize("cgroups", (100, 200, 400))
class TestActivationStormIsLinear:
    """N cgroups each hold one bio: N timers, none cancelled.  Every new
    sibling lowers every held group's hweight, so every deadline moves —
    later, and a timer is never postponed.  (Re-arming every blocked group
    on every pump left N(N-1)/2 cancelled entries: 79,800 at N = 400.)
    N stops at 400 to keep the suite short, not for cost: the iocost rig's
    set-up took 0.023 s at N = 400 and 0.062 s at N = 800, with the 0.5 s
    run 0.058 s and 0.161 s (one CPU of a 2-CPU Xeon) — under 3x per
    doubling, not the 8x of a cubic.  That N idle groups cost nothing per
    bio once they deactivate is ``test_idle_groups_cost_no_bytecodes_per_bio``."""

    def test_iocost(self, cgroups):
        bed = Testbed("ssd_new", "iocost")
        # A newly active group has no budget: its first bio is held.
        submit_one_read_each(
            bed, [bed.add_cgroup(f"workload.slice/c{index}") for index in range(cgroups)]
        )
        assert heap_census(bed.sim) == (cgroups + 1, 0)  # + the plan timer
        bed.run(0.5)
        bed.detach()
        assert bed.layer.completed_ios == cgroups

    def test_blk_throttle(self, cgroups):
        paths = [f"workload.slice/c{index}" for index in range(cgroups)]
        bed = Testbed(
            "ssd_new",
            BlkThrottleController({path: ThrottleLimits(riops=10) for path in paths}),
        )
        groups = [bed.add_cgroup(path) for path in paths]
        # A full bucket grants the first read; the second waits 0.09 s.
        submit_one_read_each(bed, groups)
        bed.run(0.01)
        assert bed.layer.completed_ios == cgroups
        submit_one_read_each(bed, groups)
        assert heap_census(bed.sim) == (cgroups, 0)
        bed.run(0.5)
        bed.detach()
        assert bed.layer.completed_ios == 2 * cgroups


#: Idle cgroups beside the busy one in the density rig.
IDLE_GROUPS = (0, 200, 2000)
#: How far each N may read from N = 0 in bytecodes per bio.  While every
#: pump walked every group, N = 200 read 2,391 against 1,187 and N = 2,000
#: read 13,221; with the ready set they read 1,211 / 1,215 / 1,245.
DENSITY_TOLERANCE = 0.05


def run_density_rig(idle, window):
    """One ``ssd_new`` cgroup keeps 16 random reads outstanding beside
    ``idle`` cgroups that each issued one read at the start.  Plan ticks
    fall every 0.05 s: by 0.16 s every idle group has had a full period
    without IO and is inactive.  ``window(bed)`` then runs the machine for
    0.02 s, which holds no plan tick, and its value is returned."""
    bed = Testbed("ssd_new", "iocost", seed=0)
    submit_one_read_each(
        bed, [bed.add_cgroup(f"workload.slice/idle{index}") for index in range(idle)]
    )
    busy = bed.add_cgroup("workload.slice/busy")
    bed.saturate(busy, depth=16, stop_at=1.0)
    bed.run(0.16)
    assert [state.cgroup for state in bed.controller.groups if state.active] == [busy]
    try:
        return window(bed)
    finally:
        bed.detach()


def window_bytecodes_per_bio(bed):
    """Bytecodes the interpreter runs per completed bio over the window."""
    count = 0

    def tracer(frame, event, _arg):
        nonlocal count
        if event == "opcode":
            count += 1
        else:
            frame.f_trace_opcodes = True
        return tracer

    done = bed.layer.completed_ios
    gc.disable()  # see _calls
    sys.settrace(tracer)
    try:
        bed.run(0.02)
    finally:
        sys.settrace(None)
        gc.enable()
    return count / (bed.layer.completed_ios - done)


def window_prof_per_bio(bed):
    """Pump calls and events per completed bio over the window."""
    with PROF.reset():
        bed.run(0.02)
    counts = PROF.snapshot()
    assert counts["plan_ticks"] == 0 and counts["bios_completed"] > 1000
    return [counts[key] / counts["bios_completed"] for key in ("pump_calls", "events_dispatched")]


def test_idle_groups_add_no_pumps_or_events_per_bio():
    per_bio = [run_density_rig(idle, window_prof_per_bio) for idle in IDLE_GROUPS]
    assert per_bio[1:] == per_bio[:1] * (len(IDLE_GROUPS) - 1)


@needs_cpython_311
def test_idle_groups_cost_no_bytecodes_per_bio():
    """ROADMAP item 2: a deactivated cgroup costs nothing per bio.  Opcodes
    counted over a window, not calls: the full walk cost a loop iteration
    per idle group per pump and called nothing."""
    baseline, *others = [run_density_rig(idle, window_bytecodes_per_bio) for idle in IDLE_GROUPS]
    for idle, per_bio in zip(IDLE_GROUPS[1:], others):
        assert abs(per_bio / baseline - 1) <= DENSITY_TOLERANCE, (idle, per_bio, baseline)


@needs_cpython_311
def test_calls_per_bio_with_everything_disabled():
    assert marginal_calls_per_bio() <= CALLS_PER_BIO_CEILING


@needs_cpython_311
def test_ceiling_catches_a_payload_built_before_the_guard(monkeypatch):
    """The guard has a subject (cf. tests/tools/test_simlint_seeded.py):
    ``submit`` building its ``bio_submit`` payload before checking
    ``enabled`` — the mistake a disabled-overhead bound is named for —
    slows the rig by a quarter and is caught here."""
    submit = BlockLayer.submit

    def eager_submit(self, bio, on_done=None):
        _payload = {  # the tracepoint's fields, built although nobody listens
            "dev": self.dev,
            "id": bio.id,
            "cgroup": bio.cgroup.path,
            "op": bio.op.value,
            "nbytes": bio.nbytes,
            "sector": bio.sector,
            "flags": bio.flags.value,
            "prio": bio.prio,
        }
        submit(self, bio, on_done)

    monkeypatch.setattr(BlockLayer, "submit", eager_submit)
    assert marginal_calls_per_bio() > CALLS_PER_BIO_CEILING


def _peak_bytes(seconds):
    """``(peak bytes, bios)`` of a count-rig run of ``seconds``."""
    gc.collect()
    tracemalloc.start()
    try:
        bed = run_count_rig(seconds)
        return tracemalloc.get_traced_memory()[1], bed.layer.completed_ios
    finally:
        tracemalloc.stop()


def marginal_peak_bytes_per_bio():
    return marginal(_peak_bytes)


def young_collections():
    """Generation-0 collections during a 2×WINDOW run started from an
    empty young generation: each one means bios left GC-tracked objects
    behind."""
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    run_count_rig(2 * WINDOW)
    return gc.get_stats()[0]["collections"] - before


@needs_cpython_311
def test_a_completion_leaves_a_few_doubles_and_nothing_to_collect():
    assert marginal_peak_bytes_per_bio() <= PEAK_BYTES_PER_BIO_CEILING
    assert young_collections() == 0


@needs_cpython_311
def test_memory_guard_catches_a_tuple_per_sample(monkeypatch):
    """The guard has a subject: a latency log that keeps each sample as a
    ``(time, latency, key)`` tuple — what every window did before the flat
    arrays — makes the cyclic GC collect every few hundred bios and leaves
    more bytes per bio than the ceiling."""

    def tuple_record(self, now, latency, key):
        samples = self.__dict__.setdefault("samples", deque())
        samples.append((now, latency, key))
        while samples[0][0] < now - self.window:
            samples.popleft()

    monkeypatch.setattr(LatencyLog, "record", tuple_record)
    assert marginal_peak_bytes_per_bio() > PEAK_BYTES_PER_BIO_CEILING
    assert young_collections() > 0
