"""The chaos experiment kind: isolation under device faults (docs/FAULTS.md).

The acceptance scenario is the issue's headline figure: a mid-run firmware
GC stall on the shared device, a latency-sensitive protected cgroup, and a
saturating best-effort neighbor.  iocost must hold the protected cgroup's
fault-phase read p99 within the QoS target while the best-effort cgroup
absorbs the degradation.
"""

import json
import time

import pytest

from repro.exp.experiments import ExperimentError, run_chaos
from repro.exp.grid import expand
from repro.exp.runner import run_sweep
from repro.exp.spec import ExperimentSpec
from repro.exp.store import ArtifactStore

PROTECTED = "workload.slice/protected"
BESTEFFORT = "workload.slice/besteffort"

#: The acceptance scenario: GC stall at t=0.4s on a scaled-down ssd_new,
#: paced protected reader vs saturating best-effort neighbor, iocost QoS.
ACCEPTANCE = {
    "device": "ssd_new",
    "device_scale": 0.05,
    "controller": "iocost",
    "qos": {
        "read_lat_target": 5e-3,
        "read_pct": 95,
        "vrate_min": 0.25,
        "vrate_max": 2.0,
        "period": 0.05,
    },
    "cgroups": {PROTECTED: 500, BESTEFFORT: 100},
    "workloads": [
        {"cgroup": PROTECTED, "type": "paced", "rate": 300},
        {"cgroup": BESTEFFORT, "type": "saturate", "depth": 16},
    ],
    "duration": 1.2,
    "faults": [{"kind": "gc_stall", "start": 0.4, "duration": 0.02}],
    "protected": PROTECTED,
    "latency_target": 0.05,
    "settle": 0.08,
    "io_timeout": 0.25,
    "max_retries": 2,
}

#: A short error-burst scenario for the counter/determinism tests.
BURST = {
    "device": "ssd_new",
    "device_scale": 0.05,
    "controller": "iocost",
    "cgroups": {PROTECTED: 500, BESTEFFORT: 100},
    "workloads": [
        {"cgroup": PROTECTED, "type": "paced", "rate": 200},
        {"cgroup": BESTEFFORT, "type": "saturate", "depth": 8},
    ],
    "duration": 0.3,
    "faults": [
        {"kind": "error_burst", "start": 0.1, "duration": 0.05, "error_rate": 0.5}
    ],
    "settle": 0.02,
    "max_retries": 1,
}


class TestAcceptance:
    def test_iocost_holds_protected_p99_through_gc_stall(self):
        result = run_chaos(dict(ACCEPTANCE), seed=7)
        isolation = result["isolation"]
        assert isolation["protected"] == PROTECTED
        assert isolation["within_target"] is True
        assert isolation["fault_read_p99"] <= 0.05
        pre = result["phases"]["pre"]["cgroups"]
        fault = result["phases"]["fault"]["cgroups"]
        # The paced protected reader keeps its rate through the stall...
        assert fault[PROTECTED]["iops"] == pytest.approx(
            pre[PROTECTED]["iops"], rel=0.15
        )
        # ...while the best-effort neighbor absorbs the degradation.
        assert fault[BESTEFFORT]["iops"] < pre[BESTEFFORT]["iops"]
        # Phase envelope: [0, 0.4) pre, [0.4, 0.42 + settle) fault.
        assert result["phases"]["fault"]["start"] == pytest.approx(0.4)
        assert result["phases"]["fault"]["end"] == pytest.approx(0.5)
        assert result["phases"]["post"]["end"] == pytest.approx(1.2)

    def test_identical_seed_reproduces_exactly(self):
        first = run_chaos(dict(ACCEPTANCE), seed=7)
        second = run_chaos(dict(ACCEPTANCE), seed=7)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )


class TestErrorAccounting:
    def test_error_burst_shows_up_in_totals(self):
        result = run_chaos(dict(BURST), seed=11)
        totals = result["totals"]
        assert totals["requeues"] > 0
        # iocost's graceful-degradation accounting: failed bios keep their
        # cost (never refunded), surfaced alongside the error counters.
        if totals["errors"]:
            assert totals["failed_cost"] > 0.0
        fault = result["phases"]["fault"]
        assert fault["requeues"] == totals["requeues"]

    def test_fault_at_time_zero_has_no_pre_phase(self):
        params = dict(BURST)
        params["faults"] = [
            {"kind": "error_burst", "start": 0.0, "duration": 0.05}
        ]
        result = run_chaos(params, seed=3)
        assert result["phases"]["pre"] is None
        assert result["phases"]["fault"]["start"] == 0.0


class TestValidation:
    def test_missing_faults_rejected(self):
        params = dict(BURST)
        del params["faults"]
        with pytest.raises(ExperimentError, match="faults"):
            run_chaos(params, seed=0)

    def test_unknown_protected_cgroup_rejected(self):
        params = dict(BURST)
        params["protected"] = "nope"
        with pytest.raises(ExperimentError, match="protected"):
            run_chaos(params, seed=0)

    def test_negative_settle_rejected(self):
        params = dict(BURST)
        params["settle"] = -0.1
        with pytest.raises(ExperimentError, match="settle"):
            run_chaos(params, seed=0)


class TestSweepDeterminism:
    def test_result_json_byte_identical_across_worker_counts(self, tmp_path):
        spec = ExperimentSpec(
            name="chaos-det",
            kind="chaos",
            base=dict(BURST),
            grid={"seed_offset": (0, 1), "max_retries": (1, 2)},
            seed=5,
        )
        store_a = ArtifactStore(tmp_path / "w1")
        store_b = ArtifactStore(tmp_path / "w4")
        report_a = run_sweep(spec, store_a, workers=1)
        report_b = run_sweep(spec, store_b, workers=4)
        assert report_a.failures == 0 and report_b.failures == 0
        for run in expand(spec):
            assert store_a.result_bytes(run.run_hash) == store_b.result_bytes(
                run.run_hash
            )

    def test_result_json_byte_identical_under_a_deadline(self, tmp_path):
        # Two workers under a deadline each run two of the four cells: a
        # reused worker stores the bytes an in-process sweep stores.
        spec = ExperimentSpec(
            name="chaos-det",
            kind="chaos",
            base=dict(BURST),
            grid={"seed_offset": (0, 1), "max_retries": (1, 2)},
            seed=5,
        )
        store_a = ArtifactStore(tmp_path / "w1")
        store_b = ArtifactStore(tmp_path / "w2-deadline")
        report_a = run_sweep(spec, store_a, workers=1)
        report_b = run_sweep(
            spec, store_b, workers=2,
            clock=time.perf_counter, timeout_sec=300.0,  # simlint: disable=no-wallclock
        )
        assert report_a.failures == 0 and report_b.failures == 0
        for run in expand(spec):
            assert store_a.result_bytes(run.run_hash) == store_b.result_bytes(
                run.run_hash
            )
