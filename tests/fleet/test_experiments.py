"""The fleet experiment kinds: host cells, duration cells, the nested kind."""

import pytest

from repro.exp.experiments import ExperimentError, resolve, run_testbed
from repro.exp.spec import canonical_json
from repro.fleet.experiments import (
    HIST_RESOLUTION,
    run_fleet_host,
    run_fleet_task_durations,
)
from repro.fleet.runner import run_fleet_sweep
from repro.fleet.spec import FleetSpec

from tests.fleet.conftest import FLEETDEV, fleet_doc


def host_cell(**overrides):
    cell = {
        "id": "web/0",
        "group": "web",
        "device": "ssd_new",
        "device_scale": 0.05,
        "controller": "iocost",
        "duration": 0.05,
        "percentiles": [50, 99],
        "cgroups": {"workload.slice/fe": 200},
        "workloads": [
            {"cgroup": "workload.slice/fe", "type": "paced", "rate": 300},
        ],
    }
    cell.update(overrides)
    return cell


class TestHostKind:
    def test_result_shape(self):
        result = run_fleet_host({"host": host_cell()}, seed=11)
        assert result["host"] == "web/0"
        assert result["controller"] == "iocost"
        cell = result["cgroups"]["workload.slice/fe"]
        assert cell["iops"] > 0
        assert cell["read_p99"] is None or cell["read_p99"] > 0
        hist = result["latency_hist"]["workload.slice/fe"]
        assert hist["resolution"] == HIST_RESOLUTION
        assert result["events_processed"] > 0
        assert "" in result["iostat"]  # the recursive root

    def test_deterministic_per_seed(self):
        first = run_fleet_host({"host": host_cell()}, seed=11)
        second = run_fleet_host({"host": host_cell()}, seed=11)
        other = run_fleet_host({"host": host_cell()}, seed=12)
        assert canonical_json(first) == canonical_json(second)
        assert canonical_json(first) != canonical_json(other)

    def test_host_is_a_testbed_cell(self):
        # The property that makes one machine builder legal: for the same
        # tables and seed a fleet host measures what the testbed kind does.
        host = host_cell()
        tables = {key: host[key] for key in host if key not in ("id", "group")}
        as_host = run_fleet_host({"host": host}, seed=11)
        as_testbed = run_testbed(tables, 11)
        assert as_host["cgroups"] == as_testbed["cgroups"]
        assert as_host["events_processed"] == as_testbed["events_processed"]

    def test_idle_host_is_cheap_and_explicit(self):
        result = run_fleet_host(
            {"host": host_cell(cgroups={}, workloads=[])}, seed=1
        )
        assert result["cgroups"] == {}
        assert result["events_processed"] == 0

    def test_unknown_qos_field_rejected(self):
        with pytest.raises(ExperimentError, match="qos"):
            run_fleet_host(
                {"host": host_cell(qos={"warp_speed": 9})}, seed=1
            )

    def test_params_must_be_mapping(self):
        with pytest.raises(ExperimentError, match="mapping"):
            run_fleet_host({"host": 42}, seed=1)


class TestDurationKind:
    def test_sample_shape(self):
        result = run_fleet_task_durations(
            {
                "cell": {
                    "id": "web:iocost:0",
                    "group": "web",
                    "device": dict(FLEETDEV),
                    "controller": "iocost",
                    "task": {
                        "name": "cleanup_small",
                        "cgroup": "hostcritical.slice",
                        "small_ios": 200,
                        "op": "write",
                        "deadline": 1.0,
                    },
                    "sample": 0,
                    "settle": 0.2,
                }
            },
            seed=4,
        )
        assert result["group"] == "web"
        assert result["controller"] == "iocost"
        assert result["task"] == "cleanup_small"
        assert 8 <= result["workload_depth"] < 64
        assert 0 < result["duration_sec"] <= result["deadline"]


NESTED_KIND = "repro.fleet.experiments.run_fleet"


class TestNestedFleetKind:
    def test_matches_pooled_rollup_bytes(self, tmp_path):
        doc = fleet_doc(name="parity", seed=21)
        inline = resolve(NESTED_KIND)({"fleet": doc}, seed=21)
        pooled = run_fleet_sweep(FleetSpec.from_dict(doc), tmp_path, workers=2)
        assert inline["fleet_hash"] == pooled.fleet_hash
        assert canonical_json(inline["plan"]) == canonical_json(pooled.plan)
        assert canonical_json(inline["rollup"]) == canonical_json(pooled.rollup)

    def test_needs_fleet_document(self):
        with pytest.raises(ExperimentError, match="fleet"):
            resolve(NESTED_KIND)({}, seed=0)
