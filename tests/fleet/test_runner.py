"""Sharded fleet execution: ISSUE acceptance determinism at >= 200 hosts.

The load-bearing guarantee: a fleet sweep's stored result bytes — and
therefore its rollup bytes — are identical whether the hosts run on one
worker or eight, and a re-run over the same store is 100% cache hits.
"""

import itertools

import pytest

from repro.exp.spec import canonical_json
from repro.exp.store import ArtifactStore
from repro.fleet.runner import (
    FleetRunnerError,
    host_params,
    run_fleet_sweep,
    run_staged_migration,
)
from repro.fleet.scheduler import FleetScheduler, group_capacities
from repro.fleet.spec import FleetSpec

from tests.fleet.conftest import fleet_doc

#: The acceptance fleet: 210 hosts across two device generations, enough
#: paced workload instances that best-fit actually has to pack.
ACCEPTANCE_DOC = {
    "name": "determinism-210",
    "seed": 3,
    "policy": "best_fit",
    "capacity": "rated",
    "duration": 0.02,
    "hosts": {
        "web": {"count": 120, "device": "ssd_new", "device_scale": 0.05},
        "db": {"count": 90, "device": "ssd_old", "device_scale": 0.05},
    },
    "workloads": [
        {"name": "fe", "count": 150, "cgroup": "workload.slice/fe",
         "weight": 200, "type": "paced", "rate": 250},
        {"name": "bg", "count": 60, "cgroup": "workload.slice/bg",
         "weight": 50, "type": "paced", "rate": 150},
    ],
}


def placed_scheduler(spec):
    scheduler = FleetScheduler(spec, group_capacities(spec))
    scheduler.place()
    return scheduler


class TestHostParams:
    def test_shape(self):
        spec = FleetSpec.from_dict(fleet_doc())
        params = host_params(spec, placed_scheduler(spec))
        assert len(params) == 4
        assert [p["id"] for p in params] == [f"web/{i}" for i in range(4)]
        placed = [p for p in params if p["cgroups"]]
        for entry in placed:
            assert entry["controller"] == "iocost"
            assert all(w["type"] == "paced" for w in entry["workloads"])
            assert set(entry["cgroups"]) == {w["cgroup"] for w in entry["workloads"]}


class TestFleetSweepAcceptance:
    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        spec = FleetSpec.from_dict(ACCEPTANCE_DOC)
        store_serial = ArtifactStore(tmp_path_factory.mktemp("serial"))
        store_pooled = ArtifactStore(tmp_path_factory.mktemp("pooled"))
        ticks = itertools.count()
        fake_clock = lambda: next(ticks) * 1e-3  # noqa: E731
        serial = run_fleet_sweep(spec, store_serial, workers=1, clock=fake_clock)
        pooled = run_fleet_sweep(spec, store_pooled, workers=4)
        return spec, store_serial, store_pooled, serial, pooled

    def test_fleet_is_big_enough(self, reports):
        _, _, _, serial, _ = reports
        assert serial.hosts_total == 210  # ISSUE floor: >= 200 hosts
        assert serial.sweep.failures == 0

    def test_result_bytes_identical_across_worker_counts(self, reports):
        spec, store_serial, store_pooled, serial, pooled = reports
        hashes_serial = sorted(o.run.run_hash for o in serial.sweep.outcomes)
        hashes_pooled = sorted(o.run.run_hash for o in pooled.sweep.outcomes)
        assert hashes_serial == hashes_pooled
        for run_hash in hashes_serial:
            assert store_serial.result_bytes(run_hash) == store_pooled.result_bytes(run_hash)

    def test_rollup_bytes_identical_across_worker_counts(self, reports):
        _, _, _, serial, pooled = reports
        assert canonical_json(serial.rollup) == canonical_json(pooled.rollup)
        assert canonical_json(serial.plan) == canonical_json(pooled.plan)

    def test_rerun_is_all_cache_hits(self, reports):
        spec, store_serial, _, serial, _ = reports
        again = run_fleet_sweep(spec, store_serial, workers=4)
        assert again.sweep.hit_rate == 1.0
        assert canonical_json(again.rollup) == canonical_json(serial.rollup)

    def test_rollup_reports_every_host(self, reports):
        _, _, _, serial, _ = reports
        assert serial.rollup["hosts"]["reporting"] == 210
        assert serial.rollup["hosts"]["missing"] == []
        workloads = serial.rollup["workloads"]
        assert set(workloads) == {"fe", "bg"}
        for name, count in (("fe", 150), ("bg", 60)):
            assert workloads[name]["placements_reporting"] == count
            p99 = workloads[name]["read_latency"]["p99"]
            assert p99["pooled"] is not None
            assert p99["pooled"] <= p99["host_max"]


class TestRunnerErrors:
    def test_migration_requires_plan(self, tmp_path):
        spec = FleetSpec.from_dict(fleet_doc())
        with pytest.raises(FleetRunnerError, match="migration"):
            run_staged_migration(spec, tmp_path)

