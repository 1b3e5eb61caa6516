"""The deterministic engine self-profiler (repro.obs.prof)."""

import pytest

from repro.obs.prof import PROF, SimProfiler
from repro.obs.trace import TRACE
from tests.conftest import run_count_rig

#: Simulated seconds of a run (509 bios at depth 16) and of a short one.
SECONDS = 0.003
SHORT = 0.0005
SHORT_BIOS = 92
DEPTH = 16


@pytest.fixture(autouse=True)
def clean_profiler():
    """PROF is process-global; never leak state across tests."""
    PROF.disable().reset()
    yield
    PROF.disable().reset()


def run_rig(seconds=SECONDS):
    """Small deterministic closed-loop run; returns the drained testbed."""
    return run_count_rig(seconds, DEPTH)


class TestLifecycle:
    def test_disabled_by_default_and_counts_nothing(self):
        run_rig(SHORT)
        assert all(PROF.snapshot()[name] == 0 for name in SimProfiler.COUNTERS)
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
            bios = run_rig().layer.completed_ios
        snap = PROF.snapshot()
        assert bios > 500
        assert snap["bios_submitted"] == bios
        assert snap["bios_issued"] == bios
        assert snap["bios_completed"] == bios
        # Every bio needs at least one device-completion event, plus the
        # controller timers.
        assert snap["events_dispatched"] >= bios
        assert snap["heap_pushes"] >= snap["events_dispatched"]
        assert snap["heap_pops"] >= snap["events_dispatched"]
        assert snap["pump_calls"] >= bios  # one per submit at minimum

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
                run_rig(SHORT)
        finally:
            subscription.close()
        emitted = sum(PROF.emits_by_point.values())
        assert emitted == len(events)
        assert PROF.emits_by_point["bio_submit"] == SHORT_BIOS

    def test_no_emit_counts_while_tracing_disabled(self):
        with PROF:
            run_rig(SHORT)
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
            run_rig(SHORT)
        text = PROF.describe()
        assert f"bios_completed={SHORT_BIOS}" in text
        assert "heap_pushes=" in text

    def test_snapshot_is_json_able(self):
        import json

        with PROF:
            run_rig(SHORT)
        assert json.loads(json.dumps(PROF.snapshot()))["bios_submitted"] == SHORT_BIOS

    def test_profiling_does_not_change_results(self):
        baseline = run_rig().sim
        with PROF:
            tracked = run_rig().sim
        assert tracked.events_processed == baseline.events_processed
        assert tracked.now == baseline.now
