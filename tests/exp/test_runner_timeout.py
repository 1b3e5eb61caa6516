"""Per-run wall-clock timeouts: worker kill, structured status, cache misses.

These tests use a real clock by necessity (deadlines are wall time); they
keep the limits small so the suite stays fast.
"""

import os
import time

import pytest

from repro.exp.cache import MISS_TIMEOUT, ResultCache
from repro.exp.grid import expand
from repro.exp.runner import RunnerError, run_sweep
from repro.exp.spec import ExperimentSpec
from repro.exp.store import ArtifactStore

QUICK = "tests.exp.helpers.quick"
HANG = "tests.exp.helpers.hang_forever"
PID = "tests.exp.helpers.worker_pid"


class TestValidation:
    def test_nonpositive_timeout_rejected(self, tmp_path):
        spec = ExperimentSpec(name="s", kind=QUICK)
        with pytest.raises(RunnerError, match="timeout_sec"):
            run_sweep(spec, tmp_path, clock=time.perf_counter, timeout_sec=0.0)  # simlint: disable=no-wallclock

    def test_timeout_requires_real_clock(self, tmp_path):
        spec = ExperimentSpec(name="s", kind=QUICK)
        with pytest.raises(RunnerError, match="real clock"):
            run_sweep(spec, tmp_path, timeout_sec=1.0)


class TestTimeoutPath:
    def test_hung_run_killed_and_recorded(self, tmp_path):
        spec = ExperimentSpec(name="s", kind=HANG)
        store = ArtifactStore(tmp_path)
        report = run_sweep(
            spec, store, workers=1, clock=time.perf_counter, timeout_sec=0.5  # simlint: disable=no-wallclock
        )
        (outcome,) = report.outcomes
        assert outcome.status == "timeout" and not outcome.ok
        assert outcome.error["type"] == "TimeoutError"
        assert outcome.result is None
        assert report.timeouts == 1 and report.failures == 1
        assert report.to_bench_dict()["totals"]["timeouts"] == 1

    def test_timeout_lands_in_meta_json(self, tmp_path):
        spec = ExperimentSpec(name="s", kind=HANG)
        store = ArtifactStore(tmp_path)
        run_sweep(spec, store, workers=1, clock=time.perf_counter, timeout_sec=0.5)  # simlint: disable=no-wallclock
        (run,) = expand(spec)
        record = store.read_json(run.run_hash)
        assert "result" not in record
        meta = record["meta"]
        assert meta["status"] == "timeout"
        assert meta["error"]["type"] == "TimeoutError"

    def test_cache_reports_timed_out_previously(self, tmp_path):
        spec = ExperimentSpec(name="s", kind=HANG)
        store = ArtifactStore(tmp_path)
        run_sweep(spec, store, workers=1, clock=time.perf_counter, timeout_sec=0.5)  # simlint: disable=no-wallclock
        cache = ResultCache(store)
        (run,) = expand(spec)
        decision = cache.decide([run])[0]
        assert not decision.hit and decision.reason == MISS_TIMEOUT

    def test_quick_runs_unaffected_by_timeout_manager(self, tmp_path):
        spec = ExperimentSpec(name="s", kind=QUICK, grid={"value": (3, 1, 2)})
        plain = run_sweep(spec, ArtifactStore(tmp_path / "a"), workers=1)
        timed = run_sweep(
            spec,
            ArtifactStore(tmp_path / "b"),
            workers=2,
            clock=time.perf_counter,  # simlint: disable=no-wallclock
            timeout_sec=30.0,
        )
        assert [o.status for o in timed.outcomes] == ["ok", "ok", "ok"]
        # Sweep order and results identical to the pool path.
        assert [o.result for o in timed.outcomes] == [
            o.result for o in plain.outcomes
        ]

    def test_mixed_sweep_survives_a_hung_cell(self, tmp_path):
        # zip a hung cell between two quick ones via a dotted-kind axis.
        spec = ExperimentSpec(
            name="s",
            kind=QUICK,
            grid={"value": (1,)},
        )
        hang_spec = ExperimentSpec(name="h", kind=HANG)
        store = ArtifactStore(tmp_path)
        ok = run_sweep(
            spec, store, workers=2, clock=time.perf_counter, timeout_sec=5.0  # simlint: disable=no-wallclock
        )
        bad = run_sweep(
            hang_spec, store, workers=2, clock=time.perf_counter, timeout_sec=0.5  # simlint: disable=no-wallclock
        )
        assert ok.failures == 0 and bad.timeouts == 1

    def test_workers_outlive_their_runs(self, tmp_path):
        # A deadline limits each run, not each worker: eight cells at two
        # workers run in at most two processes, none of them the parent.
        spec = ExperimentSpec(name="s", kind=PID, grid={"value": tuple(range(8))})
        report = run_sweep(
            spec, ArtifactStore(tmp_path), workers=2,
            clock=time.perf_counter, timeout_sec=30.0,  # simlint: disable=no-wallclock
        )
        assert report.failures == 0
        pids = {o.result["pid"] for o in report.outcomes}
        assert len(pids) <= 2 and os.getpid() not in pids
