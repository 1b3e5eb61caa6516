"""Workload-table validation in the built-in experiment kinds."""

import json

import pytest

from repro.exp.experiments import (
    TRACE_KEY,
    ExperimentError,
    build_machine,
    run_testbed,
)

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


#: Spec tables naming a device the machine cannot have or does not have:
#: (the name, the edit to a valid table).
BAD_DEVICES = {
    "empty": ("", {"devices": {"": "ssd_new"}}),
    "path": ("a/b", {"devices": {"a/b": "ssd_new"}}),
    "swap_device": ("vdz", {"mem_bytes": 1 << 26, "swap_device": "vdz"}),
    "fault_device": ("vdz", {
        "faults": [{"kind": "gc_stall", "start": 0.0, "duration": 0.01}],
        "fault_device": "vdz",
    }),
    "workload_device": ("vdz", {"workloads": [{"cgroup": "a", "device": "vdz"}]}),
}


@pytest.mark.parametrize("name, edit", BAD_DEVICES.values(), ids=list(BAD_DEVICES))
def test_a_bad_device_name_is_one_value_error_naming_it(name, edit):
    with pytest.raises(ValueError) as raised:
        build_machine(dict(_params(TABLES["saturate"]), **edit), seed=0)
    assert type(raised.value) is ValueError
    message = str(raised.value)
    assert repr(name) in message and "the machine has [" in message


def test_read_percentiles_are_of_reads():
    """``read_p<pct>`` is the cgroup's read latency: a cgroup that only
    writes has none (it used to report its write latency under that name)."""
    params = {
        "device_scale": 0.05,
        "duration": 0.05,
        "cgroups": {"reader": 100, "writer": 100},
        "workloads": [
            {"cgroup": "reader", "type": "saturate", "depth": 4},
            {"cgroup": "writer", "type": "saturate", "depth": 4, "op": "write"},
        ],
    }
    cgroups = run_testbed(params, seed=0)["cgroups"]
    assert cgroups["writer"]["iops"] > 0 and cgroups["reader"]["iops"] > 0
    assert cgroups["writer"]["read_p99"] is None
    assert cgroups["reader"]["read_p99"] > 0


class TestWorkloadOp:
    """A table's ``op`` arrives as a string: TOML and JSON have nothing else."""

    WRITER = {"type": "saturate", "depth": 4, "op": "write"}

    def test_write_issues_writes(self):
        bed, groups, duration = build_machine(_params(self.WRITER), seed=0)
        try:
            bed.run(duration)
        finally:
            bed.detach()
        ((_dev, record),) = groups["a"].stats.devices()
        assert record.wios > 0 and record.rios == 0

    def test_write_is_traceable(self):
        params = dict(_params(self.WRITER), trace_events=["bio_submit"])
        events = [json.loads(line) for line in run_testbed(params, seed=0)[TRACE_KEY]]
        assert events and {event["op"] for event in events} == {"write"}

    def test_unknown_op_is_a_typed_error(self):
        with pytest.raises(ExperimentError, match=r"'wirte' must be read\|write"):
            run_testbed(_params(dict(self.WRITER, op="wirte")), seed=0)
