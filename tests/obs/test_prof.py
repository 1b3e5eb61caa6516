"""The deterministic engine self-profiler (repro.obs.prof)."""

import pytest

from repro.obs.prof import PROF, SimProfiler
from repro.obs.trace import TRACE
from repro.tools.engine_bench import run_fixed_load

BIOS = 500
DEPTH = 16


@pytest.fixture(autouse=True)
def clean_profiler():
    """PROF is process-global; never leak state across tests."""
    PROF.disable().reset()
    yield
    PROF.disable().reset()


def run_rig(bios=BIOS):
    """Small deterministic closed-loop run; returns the drained simulator."""
    return run_fixed_load(bios, DEPTH)


class TestLifecycle:
    def test_disabled_by_default_and_counts_nothing(self):
        run_rig(bios=50)
        assert PROF.total_checks == 0
        assert PROF.snapshot()["bios_completed"] == 0

    def test_context_manager_enables_and_disables(self):
        with PROF as prof:
            assert prof.enabled
        assert not PROF.enabled

    def test_reset_zeroes_counters_not_flag(self):
        PROF.enable()
        PROF.bios_submitted = 7
        PROF.note_emit("bio_submit")
        PROF.reset()
        assert PROF.enabled
        assert PROF.bios_submitted == 0
        assert PROF.emits_by_point == {}


class TestCounting:
    def test_counts_engine_work(self):
        with PROF:
            run_rig()
        snap = PROF.snapshot()
        assert snap["bios_submitted"] == BIOS
        assert snap["bios_issued"] == BIOS
        assert snap["bios_completed"] == BIOS
        # Every bio needs at least one device-completion event, plus the
        # controller timers.
        assert snap["events_dispatched"] >= BIOS
        assert snap["heap_pushes"] >= snap["events_dispatched"]
        assert snap["heap_pops"] >= snap["events_dispatched"]
        assert snap["pump_calls"] >= BIOS  # one per submit at minimum

    def test_deterministic_across_runs(self):
        with PROF:
            run_rig()
        first = PROF.snapshot()
        PROF.reset()
        with PROF:
            run_rig()
        assert PROF.snapshot() == first

    def test_emits_counted_when_tracing_enabled(self):
        events = []
        subscription = TRACE.subscribe(events.append)
        try:
            with PROF:
                run_rig(bios=50)
        finally:
            subscription.close()
        emitted = sum(PROF.emits_by_point.values())
        assert emitted == len(events)
        assert PROF.emits_by_point["bio_submit"] == 50
        # Emissions are not part of total_checks (separate guard flag).
        assert PROF.total_checks == sum(
            PROF.snapshot()[name] for name in SimProfiler.COUNTERS
        )

    def test_no_emit_counts_while_tracing_disabled(self):
        with PROF:
            run_rig(bios=50)
        assert PROF.emits_by_point == {}


class TestReporting:
    def test_per_bio_amplification(self):
        with PROF:
            run_rig()
        per_bio = PROF.per_bio()
        assert per_bio is not None
        assert per_bio["bios_submitted"] == pytest.approx(1.0)
        assert per_bio["events_dispatched"] >= 1.0
        assert "bios_completed" not in per_bio

    def test_per_bio_none_when_idle(self):
        assert PROF.per_bio() is None

    def test_describe_lists_counters(self):
        with PROF:
            run_rig(bios=50)
        text = PROF.describe()
        assert "bios_completed=50" in text
        assert "heap_pushes=" in text

    def test_snapshot_is_json_able(self):
        import json

        with PROF:
            run_rig(bios=50)
        assert json.loads(json.dumps(PROF.snapshot()))["bios_submitted"] == 50

    def test_profiling_does_not_change_results(self):
        baseline = run_rig()
        with PROF:
            tracked = run_rig()
        assert tracked.events_processed == baseline.events_processed
        assert tracked.now == baseline.now
