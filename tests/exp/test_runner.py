"""Runner semantics: pool determinism, failures/retries, report, speedup."""

import json
import os
import sys

import pytest

from repro.block.device_models import SSD_NEW
from repro.block.trace import TraceReplayer
from repro.exp import spec as spec_module
from repro.exp.grid import expand
from repro.exp.runner import RunnerError, run_sweep, write_bench_json
from repro.exp.spec import ExperimentSpec
from repro.exp.store import ArtifactStore
from repro.obs.trace import load_events
from repro.testbed import Testbed

from tests.exp import helpers

QUICK = "tests.exp.helpers.quick"

#: A small but real simulated sweep: 2 devices x 2 controllers x 2 weights.
ACCEPTANCE_SPEC = ExperimentSpec(
    name="acceptance-2x2x2",
    kind="testbed",
    base={
        "device_scale": 0.05,
        "duration": 0.3,
        "cgroups": {"high": 200, "low": 100},
        "workloads": [
            {"cgroup": "high", "type": "saturate", "depth": 16},
            {"cgroup": "low", "type": "saturate", "depth": 16},
        ],
    },
    grid={
        "device": ("ssd_new", "ssd_old"),
        "controller": ("iocost", "bfq"),
        "cgroups.high": (200, 400),
    },
)


class TestRunnerBasics:
    def test_outcomes_in_expansion_order(self, tmp_path):
        spec = ExperimentSpec(name="s", kind=QUICK, grid={"value": (3, 1, 2)})
        report = run_sweep(spec, ArtifactStore(tmp_path), workers=1)
        assert [o.run.axes["value"] for o in report.outcomes] == [3, 1, 2]
        assert [o.run.run_hash for o in report.outcomes] == [
            run.run_hash for run in expand(spec)
        ]

    def test_store_accepts_path(self, tmp_path):
        spec = ExperimentSpec(name="s", kind=QUICK)
        report = run_sweep(spec, tmp_path, workers=1)
        assert report.runs_total == 1
        assert (tmp_path / "runs").is_dir()

    def test_results_use_derived_seed(self, tmp_path):
        spec = ExperimentSpec(name="s", kind=QUICK, grid={"value": (1, 2)})
        report = run_sweep(spec, ArtifactStore(tmp_path), workers=1)
        for outcome in report.outcomes:
            assert outcome.result["seed"] == outcome.run.derived_seed

    def test_zero_clock_default(self, tmp_path):
        spec = ExperimentSpec(name="s", kind=QUICK)
        report = run_sweep(spec, ArtifactStore(tmp_path), workers=1)
        assert report.elapsed_wall_sec == 0.0
        assert all(o.wall_sec == 0.0 for o in report.outcomes)
        assert report.speedup_vs_serial is None

    def test_bad_workers(self, tmp_path):
        spec = ExperimentSpec(name="s", kind=QUICK)
        with pytest.raises(RunnerError):
            run_sweep(spec, ArtifactStore(tmp_path), workers=0)
        with pytest.raises(RunnerError):
            run_sweep(spec, ArtifactStore(tmp_path), retries=-1)

    def test_bench_json(self, tmp_path):
        spec = ExperimentSpec(name="s", kind=QUICK, grid={"value": (1, 2)})
        report = run_sweep(spec, ArtifactStore(tmp_path), workers=1)
        path = write_bench_json(report, tmp_path / "BENCH_sweep.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.exp.sweep/1"
        assert payload["totals"]["runs"] == 2
        assert payload["totals"]["cache_hits"] == 0
        assert len(payload["runs"]) == 2


class TestFailures:
    def test_failures_do_not_abort_sweep(self, tmp_path):
        spec = ExperimentSpec(
            name="s", kind="tests.exp.helpers.always_fail",
            base={"tag": "t"}, grid={"value": (1, 2)},
        )
        store = ArtifactStore(tmp_path)
        report = run_sweep(spec, store, workers=1, retries=1)
        assert report.failures == 2
        for outcome in report.outcomes:
            assert outcome.status == "failed"
            assert outcome.attempts == 2  # one retry
            assert outcome.error == {"type": "RuntimeError", "message": "boom-t"}
            record = store.read_json(outcome.run.run_hash)
            assert record["meta"]["status"] == "failed"
            assert record["meta"]["error"]["type"] == "RuntimeError"
            assert "result" not in record

    def test_failed_runs_reattempted_next_sweep(self, tmp_path):
        spec = ExperimentSpec(name="s", kind="tests.exp.helpers.always_fail")
        store = ArtifactStore(tmp_path)
        run_sweep(spec, store, workers=1)
        report = run_sweep(spec, store, workers=1)
        assert report.cache_hits == 0
        assert report.outcomes[0].cache_reason == "failed-previously"

    def test_retry_recovers_transient_failure(self, tmp_path):
        helpers.CALLS.clear()
        spec = ExperimentSpec(
            name="s", kind="tests.exp.helpers.fail_once_then_ok",
            base={"tag": "transient"},
        )
        report = run_sweep(spec, ArtifactStore(tmp_path), workers=1, retries=1)
        outcome = report.outcomes[0]
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.result["recovered"] is True

    def test_no_retries_records_first_failure(self, tmp_path):
        helpers.CALLS.clear()
        spec = ExperimentSpec(
            name="s", kind="tests.exp.helpers.fail_once_then_ok",
            base={"tag": "once"},
        )
        report = run_sweep(spec, ArtifactStore(tmp_path), workers=1, retries=0)
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 1
        assert outcome.error["type"] == "ValueError"

    def test_unknown_kind_is_structured_failure(self, tmp_path):
        spec = ExperimentSpec(name="s", kind="no-such-kind")
        report = run_sweep(spec, ArtifactStore(tmp_path), workers=1)
        assert report.failures == 1
        assert report.outcomes[0].error["type"] == "ExperimentError"

    def test_dead_worker_is_a_structured_failure(self, tmp_path):
        # The middle cell's worker exits without a verdict: only that cell
        # fails, a fresh worker takes the next one, and the sweep still
        # returns and commits every cell.
        spec = ExperimentSpec(
            name="s", kind="tests.exp.helpers.die_on",
            base={"die": 2}, grid={"value": (1, 2, 3)},
        )
        store = ArtifactStore(tmp_path)
        report = run_sweep(spec, store, workers=2)
        assert [o.status for o in report.outcomes] == ["ok", "failed", "ok"]
        assert report.outcomes[1].error == {
            "type": "WorkerDied", "message": "worker exited without a verdict",
        }
        for outcome in report.outcomes:
            meta = store.read_json(outcome.run.run_hash)["meta"]
            assert meta["status"] == outcome.status


    def test_dying_cell_fails_alone(self, tmp_path):
        # The third of eight slow cells kills its worker while the fourth
        # runs on the other one and four more wait: only the third fails,
        # and a fresh worker takes the rest.
        spec = ExperimentSpec(
            name="s", kind="tests.exp.helpers.nap_then_die_on",
            base={"die": 2, "nap": 0.1}, grid={"value": tuple(range(8))},
        )
        report = run_sweep(spec, ArtifactStore(tmp_path), workers=2)
        assert [o.status for o in report.outcomes] == ["ok"] * 2 + ["failed"] + ["ok"] * 5
        assert report.outcomes[2].error["type"] == "WorkerDied"
        assert [o.result["value"] for o in report.outcomes if o.ok] == [0, 1, 3, 4, 5, 6, 7]


class TestPoolDeterminism:
    def test_worker_pools_produce_byte_identical_results(self, tmp_path):
        """The acceptance determinism contract: 2-worker and 8-worker pools
        store byte-identical results for every cell of the sweep."""
        store_a = ArtifactStore(tmp_path / "a")
        store_b = ArtifactStore(tmp_path / "b")
        report_a = run_sweep(ACCEPTANCE_SPEC, store_a, workers=2)
        report_b = run_sweep(ACCEPTANCE_SPEC, store_b, workers=8)
        assert report_a.runs_total == report_b.runs_total == 8
        assert report_a.failures == report_b.failures == 0
        for outcome in report_a.outcomes:
            run_hash = outcome.run.run_hash
            assert store_a.result_bytes(run_hash) == store_b.result_bytes(run_hash)

    def test_second_invocation_full_cache_hit_identical_results(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = run_sweep(ACCEPTANCE_SPEC, store, workers=2)
        before = {
            o.run.run_hash: store.result_bytes(o.run.run_hash)
            for o in first.outcomes
        }
        second = run_sweep(ACCEPTANCE_SPEC, store, workers=2)
        assert second.hit_rate == 1.0
        assert second.executed == 0
        after = {
            o.run.run_hash: store.result_bytes(o.run.run_hash)
            for o in second.outcomes
        }
        assert before == after
        assert [o.result for o in second.outcomes] == [o.result for o in first.outcomes]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup needs >= 4 cores",
)
def test_parallel_speedup_vs_serial(tmp_path):
    """A 2x2x2 sweep with --workers 4 is >= 2x faster than --workers 1."""
    import time

    clock = time.perf_counter  # wall-clock speedup under test - simlint: disable=no-wallclock
    serial_store = ArtifactStore(tmp_path / "serial")
    parallel_store = ArtifactStore(tmp_path / "parallel")
    start = clock()
    run_sweep(ACCEPTANCE_SPEC, serial_store, workers=1, clock=clock)
    serial_sec = clock() - start
    start = clock()
    run_sweep(ACCEPTANCE_SPEC, parallel_store, workers=4, clock=clock)
    parallel_sec = clock() - start
    assert parallel_sec * 2 <= serial_sec, (
        f"workers=4 took {parallel_sec:.2f}s vs workers=1 {serial_sec:.2f}s"
    )


class TestTraceCapture:
    def test_trace_jsonl_artifact(self, tmp_path):
        spec = ExperimentSpec(
            name="traced",
            kind="testbed",
            base={
                "device_scale": 0.05,
                "duration": 0.1,
                "cgroups": {"solo": 100},
                "workloads": [{"cgroup": "solo", "type": "saturate", "depth": 4}],
                "trace_events": ["bio_complete"],
            },
        )
        store = ArtifactStore(tmp_path)
        report = run_sweep(spec, store, workers=1)
        outcome = report.outcomes[0]
        assert outcome.ok
        # The reserved key never reaches the stored result.
        result = store.read_json(outcome.run.run_hash)["result"]
        assert "_trace_jsonl" not in result
        lines = store.trace_path(outcome.run.run_hash).read_text().splitlines()
        assert lines
        event = json.loads(lines[0])
        assert event["event"] == "bio_complete"

    def test_trace_artifact_replays(self, tmp_path):
        """A stored ``trace.jsonl`` is a replayable bio trace as it stands."""
        spec = ExperimentSpec(
            name="replayed",
            kind="testbed",
            base={
                "device_scale": 0.05,
                "duration": 0.1,
                "cgroups": {"solo": 100},
                "workloads": [{"cgroup": "solo", "type": "saturate", "depth": 4}],
                "trace_events": ["bio_complete"],
            },
        )
        store = ArtifactStore(tmp_path)
        outcome = run_sweep(spec, store, workers=1).outcomes[0]
        with open(store.trace_path(outcome.run.run_hash)) as stream:
            events = load_events(stream)
        assert events

        bed = Testbed(SSD_NEW.scaled(0.05), "none", seed=1)
        replayer = TraceReplayer(bed.sim, bed.layer, bed.cgroups, events).start()
        bed.run(1.0)
        bed.detach()
        assert replayer.submitted == replayer.completed == len(events)
        assert bed.layer.completed_bytes == sum(e.fields["nbytes"] for e in events)

    def test_trace_spans_breakdown_in_result(self, tmp_path):
        spec = ExperimentSpec(
            name="spanned",
            kind="testbed",
            base={
                "device_scale": 0.05,
                "duration": 0.1,
                "cgroups": {"solo": 100},
                "workloads": [{"cgroup": "solo", "type": "saturate", "depth": 4}],
                "trace_spans": True,
            },
        )
        store = ArtifactStore(tmp_path)
        report = run_sweep(spec, store, workers=1)
        outcome = report.outcomes[0]
        assert outcome.ok
        spans = store.read_json(outcome.run.run_hash)["result"]["spans"]
        assert spans["completed"] > 0
        rollup = spans["breakdown"]
        assert rollup["count"] == spans["completed"]
        stage_total = sum(
            stage["total_usec"] for stage in rollup["stages"].values()
        )
        assert stage_total == rollup["end_to_end"]["total_usec"]


def test_a_cell_renders_its_canonical_json_at_most_twice(tmp_path, monkeypatch):
    # Once for its hash and seed, once for its record; a cached cell only
    # for its hash.  The constant is the spec's validation and sweep hash.
    original = spec_module.canonical_json
    calls = []

    def counting(obj):
        calls.append(obj)
        return original(obj)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "canonical_json", None) is original:
            monkeypatch.setattr(module, "canonical_json", counting)
    spec = ExperimentSpec(name="s", kind=QUICK, grid={"value": tuple(range(50))})
    report = run_sweep(spec, ArtifactStore(tmp_path))
    assert report.executed == 50 and len(calls) <= 2 * 50 + 2
    calls.clear()
    again = run_sweep(spec, ArtifactStore(tmp_path))
    assert again.cache_hits == 50 and len(calls) <= 50 + 1
