"""Workload-table validation in the built-in experiment kinds."""

import pytest

from repro.exp.experiments import ExperimentError, run_testbed

#: One minimal valid table per workload type.
TABLES = {
    "saturate": {"depth": 4},
    "paced": {"rate": 200},
    "think_time": {"think_time": 1e-3},
    "latency_governed": {"max_depth": 8},
}


def _params(table):
    return {
        "device_scale": 0.05,
        "duration": 0.02,
        "cgroups": {"a": 100},
        "workloads": [dict(table, cgroup="a")],
    }


@pytest.mark.parametrize("wl_type", sorted(TABLES))
class TestWorkloadTableKeys:
    def test_valid_table_runs(self, wl_type):
        result = run_testbed(_params(dict(TABLES[wl_type], type=wl_type)), seed=0)
        assert result["events_processed"] > 0

    def test_unknown_key_is_a_typed_error(self, wl_type):
        table = dict(TABLES[wl_type], type=wl_type, dept=8)
        with pytest.raises(ExperimentError) as raised:
            run_testbed(_params(table), seed=0)
        message = str(raised.value)
        # Names the key, the workload type, and what would have been accepted.
        assert "'dept'" in message and repr(wl_type) in message
        assert "'stop_at'" in message and "'seed'" in message


def test_paced_without_rate_is_a_typed_error():
    with pytest.raises(ExperimentError, match="rate"):
        run_testbed(_params({"type": "paced"}), seed=0)
