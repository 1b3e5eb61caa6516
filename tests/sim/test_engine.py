"""Unit tests for the discrete-event engine."""

import io

import pytest

from repro.block.bio import reset_bio_ids
from repro.core.qos import QoSParams
from repro.obs.prof import PROF
from repro.obs.trace import TRACE, TraceBuffer
from repro.sanitize import SANITIZE
from repro.sim import CancelledError, Signal, SimulationError, Simulator
from repro.testbed import Testbed
from repro.tools.engine_bench import run_fixed_load


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, lambda: seen.append("b"))
    sim.schedule(1.0, lambda: seen.append("a"))
    sim.schedule(3.0, lambda: seen.append("c"))
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    seen = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    hits = []
    sim.schedule_at(5.0, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [5.0]


def test_schedule_at_fires_at_exactly_the_time_given():
    """The heap gets the time itself: ``now + (time - now)`` from 1/3 to
    0.9 is 0.8999999999999999."""
    sim = Simulator()
    sim.run(until=1 / 3)
    hits = []
    sim.schedule_at(0.9, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [0.9]


@pytest.mark.parametrize("time", [float("nan"), float("inf"), 0.25])
def test_schedule_at_rejects_nan_infinity_and_the_past(time):
    sim = Simulator()
    sim.run(until=0.5)
    with pytest.raises(SimulationError):
        sim.schedule_at(time, lambda: None)
    assert sim.peek() is None


def test_cancelled_event_does_not_run():
    sim = Simulator()
    hits = []
    event = sim.schedule(1.0, lambda: hits.append(1))
    event.cancel()
    sim.run()
    assert hits == []


def test_run_until_advances_clock_without_events():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_does_not_run_later_events():
    sim = Simulator()
    hits = []
    sim.schedule(5.0, lambda: hits.append("early"))
    sim.schedule(15.0, lambda: hits.append("late"))
    sim.run(until=10.0)
    assert hits == ["early"]
    assert sim.now == 10.0
    sim.run(until=20.0)
    assert hits == ["early", "late"]


def test_run_backwards_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_peek_skips_cancelled():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    assert sim.peek() == 2.0


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    hits = []

    def chain():
        hits.append(sim.now)
        if len(hits) < 3:
            sim.schedule(1.0, chain)

    sim.schedule(0.0, chain)
    sim.run()
    assert hits == [0.0, 1.0, 2.0]


class TestSignal:
    def test_fire_resumes_waiters_with_value(self):
        sim = Simulator()
        sig = sim.signal()
        got = []
        sig.wait(got.append)
        sig.fire(42)
        assert got == [42]

    def test_wait_after_fire_resumes_immediately(self):
        sim = Simulator()
        sig = sim.signal()
        sig.fire("x")
        got = []
        sig.wait(got.append)
        assert got == ["x"]

    def test_double_fire_rejected(self):
        sim = Simulator()
        sig = sim.signal()
        sig.fire()
        with pytest.raises(SimulationError):
            sig.fire()

    def test_multiple_waiters_in_order(self):
        sim = Simulator()
        sig = sim.signal()
        got = []
        sig.wait(lambda v: got.append(("a", v)))
        sig.wait(lambda v: got.append(("b", v)))
        sig.fire(1)
        assert got == [("a", 1), ("b", 1)]


class TestProcess:
    def test_yield_delay_sleeps(self):
        sim = Simulator()
        trace = []

        def worker():
            trace.append(sim.now)
            yield 1.5
            trace.append(sim.now)

        sim.process(worker())
        sim.run()
        assert trace == [0.0, 1.5]

    def test_return_value_captured(self):
        sim = Simulator()

        def worker():
            yield 1.0
            return "done"

        proc = sim.process(worker())
        sim.run()
        assert proc.done
        assert proc.result == "done"

    def test_yield_signal_receives_value(self):
        sim = Simulator()
        sig = sim.signal()
        got = []

        def worker():
            value = yield sig
            got.append(value)

        sim.process(worker())
        sim.schedule(2.0, sig.fire, "payload")
        sim.run()
        assert got == ["payload"]
        assert sim.now == 2.0

    def test_yield_process_waits_for_completion(self):
        sim = Simulator()

        def child():
            yield 3.0
            return 7

        def parent():
            result = yield sim.process(child())
            return result * 2

        proc = sim.process(parent())
        sim.run()
        assert proc.result == 14

    def test_cancel_interrupts_sleep(self):
        sim = Simulator()
        trace = []

        def worker():
            try:
                yield 100.0
            except CancelledError:
                trace.append(("cancelled", sim.now))

        proc = sim.process(worker())
        sim.schedule(1.0, proc.cancel)
        sim.run()
        assert trace == [("cancelled", 1.0)]
        assert proc.done

    def test_cancel_is_idempotent(self):
        sim = Simulator()

        def worker():
            yield 100.0

        proc = sim.process(worker())
        sim.schedule(1.0, proc.cancel)
        sim.schedule(1.0, proc.cancel)
        sim.run()
        assert proc.done

    def test_cancel_after_done_is_noop(self):
        sim = Simulator()

        def worker():
            yield 1.0

        proc = sim.process(worker())
        sim.run()
        proc.cancel()
        assert proc.done

    def test_bad_yield_raises(self):
        sim = Simulator()

        def worker():
            yield "nonsense"

        sim.process(worker())
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_delay_raises(self):
        sim = Simulator()

        def worker():
            yield -1.0

        sim.process(worker())
        with pytest.raises(SimulationError):
            sim.run()

    def test_many_processes_interleave_deterministically(self):
        sim = Simulator()
        trace = []

        def worker(tag, period):
            for _ in range(3):
                yield period
                trace.append((tag, sim.now))

        sim.process(worker("a", 1.0))
        sim.process(worker("b", 1.5))
        sim.run()
        # At t=3.0 both wake; b's event was inserted earlier (scheduled at
        # t=1.5 vs a's at t=2.0), so insertion order puts b first.
        assert trace == [
            ("a", 1.0),
            ("b", 1.5),
            ("a", 2.0),
            ("b", 3.0),
            ("a", 3.0),
            ("b", 4.5),
        ]


def test_schedule_nan_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


def test_schedule_inf_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("inf"), lambda: None)


class TestScheduleBulk:
    def test_matches_sequential_schedule_order(self):
        # Bulk entries get consecutive sequence numbers in iteration
        # order, so ties against each other and against earlier
        # singly-scheduled timers resolve exactly as schedule() would.
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "single")
        sim.schedule_bulk(
            [
                (1.0, seen.append, ("bulk-a",)),
                (0.5, seen.append, ("bulk-b",)),
                (1.0, seen.append, ("bulk-c",)),
            ]
        )
        sim.run()
        assert seen == ["bulk-b", "single", "bulk-a", "bulk-c"]

    def test_returns_cancellable_events(self):
        sim = Simulator()
        seen = []
        events = sim.schedule_bulk(
            [(1.0, seen.append, ("x",)), (2.0, seen.append, ("y",))]
        )
        assert len(events) == 2
        events[0].cancel()
        sim.run()
        assert seen == ["y"]

    def test_rejects_nan_inf_and_negative_delays(self):
        sim = Simulator()
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(SimulationError):
                sim.schedule_bulk([(bad, lambda: None, ())])

    def test_empty_batch_is_noop(self):
        sim = Simulator()
        assert sim.schedule_bulk([]) == []
        assert not sim.step()


class TestInstrumentedRun:
    """``run`` is one dispatch loop: the profiler and sanitizer observe it
    identically through every entry point and never change what it does."""

    @pytest.fixture(autouse=True)
    def ambient_instrumentation(self):
        prof_was, san_was = PROF.enabled, SANITIZE.enabled
        PROF.reset()
        yield
        PROF.reset()
        PROF.enabled, SANITIZE.enabled = prof_was, san_was

    @pytest.mark.parametrize("until", [None, 2.0])
    def test_every_pop_is_counted(self, until):
        PROF.enable()
        sim = Simulator()
        timers = [sim.schedule(0.1 * (i + 1), lambda: None) for i in range(10)]
        for timer in timers[::2]:
            timer.cancel()
        sim.run(until)
        assert (PROF.heap_pushes, PROF.heap_pops, PROF.events_dispatched) == (10, 10, 5)

    def test_cancelled_head_past_until_is_popped_and_counted(self):
        PROF.enable()
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None).cancel()
        sim.schedule(6.0, lambda: None)
        sim.run(2.0)
        assert (PROF.heap_pops, PROF.events_dispatched) == (2, 1)
        assert sim.now == 2.0 and sim.peek() == 6.0

    def test_instrumentation_does_not_change_a_tiled_run(self):
        def tiled_run(instrumented):
            SANITIZE.reset()
            PROF.enabled = SANITIZE.enabled = instrumented
            bed = Testbed(device="ssd_new", controller="iocost", seed=3)
            high = bed.add_cgroup("high", weight=200)
            low = bed.add_cgroup("low", weight=100)
            buffer = TraceBuffer().attach(TRACE)
            try:
                bed.saturate(high, depth=16)
                bed.think_time(low)
                for _ in range(4):
                    bed.run(0.013)
            finally:
                buffer.detach()
                bed.detach()
            stream = io.StringIO()
            buffer.save(stream)
            return bed.sim.events_processed, bed.sim.now, stream.getvalue()

        plain = tiled_run(False)
        assert plain[0] > 1000 and plain[2]
        assert tiled_run(True) == plain

    def test_instrumentation_does_not_change_the_fixed_rig(self):
        # 44,000 bios at depth 64 run 0.16 simulated seconds: three plan
        # ticks, so what a per-period check does to the controller shows in
        # the trace that follows it.
        bios, depth = 44_000, 64

        def traced_run(instrumented):
            reset_bio_ids()  # the trace carries bio ids
            SANITIZE.reset()
            PROF.enabled = SANITIZE.enabled = instrumented
            buffer = TraceBuffer(capacity=4 * bios).attach(TRACE)
            try:
                sim = run_fixed_load(bios, depth)
            finally:
                buffer.detach()
            assert not buffer.dropped
            stream = io.StringIO()
            buffer.save(stream)
            return sim.events_processed, sim.now, stream.getvalue()

        plain = traced_run(False)
        assert plain[1] > 3 * QoSParams().period
        assert traced_run(True) == plain
        assert SANITIZE.checks["cost_conservation"] > 0
