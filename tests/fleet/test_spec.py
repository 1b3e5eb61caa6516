"""Fleet spec loading, validation, round-tripping, and content hashing."""

import json

import pytest

from repro.block.device import DeviceSpec
from repro.exp.experiments import ExperimentError, device_spec_for, run_testbed
from repro.fleet.spec import (
    FleetSpec,
    FleetSpecError,
    HostGroup,
    MigrationPlan,
    WorkloadTemplate,
    load_fleet_spec,
    task_from_config,
)
from repro.workloads.fleet import TASKS

from tests.fleet.conftest import FLEETDEV, fleet_doc


class TestLoading:
    def test_load_toml(self, tmp_path):
        path = tmp_path / "fleet.toml"
        path.write_text(
            'name = "toml-fleet"\n'
            "seed = 3\n"
            '[hosts.web]\n'
            "count = 2\n"
            'device = "ssd_new"\n'
            "device_scale = 0.05\n"
            "[[workloads]]\n"
            'name = "fe"\n'
            "count = 2\n"
            'cgroup = "workload.slice/fe"\n'
            'type = "paced"\n'
            "rate = 100\n"
        )
        spec = load_fleet_spec(path)
        assert spec.name == "toml-fleet"
        assert spec.seed == 3
        assert spec.host_count == 2
        assert spec.workloads[0].demand() == 100.0

    def test_load_json(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(fleet_doc()))
        spec = load_fleet_spec(path)
        assert spec.host_count == 4

    def test_round_trip(self):
        doc = fleet_doc(
            migration={
                "schedule": [0.0, 0.5, 1.0],
                "task": "container_cleanup",
                "samples": 2,
            }
        )
        spec = FleetSpec.from_dict(doc)
        again = FleetSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.fleet_hash == spec.fleet_hash


class TestContentHash:
    def test_name_excluded(self):
        a = FleetSpec.from_dict(fleet_doc(name="alpha"))
        b = FleetSpec.from_dict(fleet_doc(name="beta"))
        assert a.fleet_hash == b.fleet_hash

    def test_seed_changes_hash(self):
        a = FleetSpec.from_dict(fleet_doc(seed=1))
        b = FleetSpec.from_dict(fleet_doc(seed=2))
        assert a.fleet_hash != b.fleet_hash

    def test_host_table_order_irrelevant(self):
        groups = {
            "web": {"count": 2, "device": "ssd_new", "device_scale": 0.05},
            "db": {"count": 3, "device": "ssd_old", "device_scale": 0.05},
        }
        forward = FleetSpec.from_dict(fleet_doc(hosts=dict(groups)))
        reversed_doc = fleet_doc(
            hosts={k: groups[k] for k in reversed(list(groups))}
        )
        backward = FleetSpec.from_dict(reversed_doc)
        assert forward == backward
        # Groups come out sorted by name regardless of insertion order.
        assert [g.name for g in forward.hosts] == ["db", "web"]


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(FleetSpecError, match="unknown fleet spec keys"):
            FleetSpec.from_dict(fleet_doc(frobnicate=1))

    def test_unknown_host_group_key(self):
        doc = fleet_doc()
        doc["hosts"]["web"]["typo"] = True
        with pytest.raises(FleetSpecError, match="unknown host group"):
            FleetSpec.from_dict(doc)

    def test_missing_hosts(self):
        doc = fleet_doc()
        del doc["hosts"]
        with pytest.raises(FleetSpecError, match="hosts"):
            FleetSpec.from_dict(doc)

    def test_bad_policy(self):
        with pytest.raises(FleetSpecError, match="policy"):
            FleetSpec.from_dict(fleet_doc(policy="worst_fit"))

    def test_bad_capacity_mode(self):
        with pytest.raises(FleetSpecError, match="capacity"):
            FleetSpec.from_dict(fleet_doc(capacity="vibes"))

    @pytest.mark.parametrize("key, value, message", [
        ("policy", "first_fit", "unknown policy 'first_fit' (want 'best_fit')"),
        ("policy", "spread", "unknown policy 'spread' (want 'best_fit')"),
        ("capacity", "profiled", "unknown capacity mode 'profiled' (want 'rated')"),
    ])
    def test_removed_choices_are_one_line_errors(self, key, value, message):
        with pytest.raises(FleetSpecError) as info:
            FleetSpec.from_dict(fleet_doc(**{key: value}))
        assert str(info.value) == message

    def test_policy_and_capacity_default_to_their_one_value(self):
        doc = fleet_doc()
        del doc["policy"], doc["capacity"]
        spec = FleetSpec.from_dict(doc)
        assert (spec.policy, spec.capacity) == ("best_fit", "rated")
        assert spec.fleet_hash == FleetSpec.from_dict(fleet_doc()).fleet_hash

    def test_duplicate_workload_names(self):
        wl = fleet_doc()["workloads"][0]
        with pytest.raises(FleetSpecError, match="duplicate workload"):
            FleetSpec.from_dict(fleet_doc(workloads=[wl, dict(wl)]))

    def test_workload_needs_positive_demand(self):
        with pytest.raises(FleetSpecError, match="demand_iops"):
            WorkloadTemplate(name="x", count=1, cgroup="w", type="saturate")

    def test_workload_unknown_type(self):
        with pytest.raises(FleetSpecError, match="unknown workload type"):
            WorkloadTemplate(
                name="x", count=1, cgroup="w", type="mystery", demand_iops=1
            )

    def test_host_group_count(self):
        with pytest.raises(FleetSpecError, match="count"):
            HostGroup(name="web", count=0, device="ssd_new")

    def test_host_group_bad_device(self):
        with pytest.raises(FleetSpecError):
            HostGroup(name="web", count=1, device="floppy_drive_9000")

    @pytest.mark.parametrize(
        "where, key, value, match",
        [
            ("host", "count", "many", "malformed value.*'many'"),
            ("host", "qos", "fast", "malformed value"),
            ("host", "faults", "boom", "malformed value"),
            ("top", "seed", "abc", "malformed value.*'abc'"),
            ("top", "percentiles", 5, "malformed value.*not iterable"),
            # Well-typed but meaningless: rejected once at load, with the
            # validators the workers use, not once per host in a worker.
            ("host", "qos", {"bogus": 1}, "unknown qos fields"),
            ("host", "qos", {"period": -1.0}, "period must be positive"),
            ("host", "faults", [{"kind": "nope"}], "unknown fault kind"),
            ("host", "faults", [{"kind": "hang", "frobnicate": 1}], "bad parameters"),
            ("workload", "op", "wirte", r"'fe'.*'wirte' must be read\|write"),
            # Each once loaded and then failed on every host: CgroupError in
            # the worker, or ValueError from the percentile of its reads.
            ("workload", "weight", 0, r"'fe': weight 0 out of range \[1, 10000\]"),
            ("workload", "weight", 10001, r"'fe': weight 10001 out of range"),
            ("top", "percentiles", [50, 120], "percentile 120.0 out of range"),
            ("top", "percentiles", [-1], "percentile -1.0 out of range"),
            # Integer fields: not silently truncated, not an OverflowError.
            ("top", "seed", float("inf"), "seed must be an int, got inf"),
            ("top", "seed", 1.7, "seed must be an int, got 1.7"),
            ("host", "count", 2.5, "'web': count must be an int, got 2.5"),
            ("workload", "weight", 150.5, "'fe': weight must be an int, got 150.5"),
        ],
    )
    def test_malformed_values_are_spec_errors(self, where, key, value, match):
        """Never a bare ValueError/TypeError: the CLI catches SpecError only."""
        doc = fleet_doc()
        target = {"top": doc, "host": doc["hosts"]["web"], "workload": doc["workloads"][0]}
        target[where][key] = value
        with pytest.raises(FleetSpecError, match=match):
            FleetSpec.from_dict(doc)

    def test_weight_and_percentile_bounds_are_inclusive(self):
        doc = fleet_doc(percentiles=[0, 100])
        doc["workloads"][0]["weight"] = 10000
        doc["workloads"].append(dict(doc["workloads"][0], name="tiny", weight=1))
        spec = FleetSpec.from_dict(doc)
        assert spec.percentiles == (0.0, 100.0)
        assert [t.weight for t in spec.workloads] == [10000, 1]

    def test_valid_qos_and_faults_still_load(self):
        doc = fleet_doc()
        doc["hosts"]["web"]["qos"] = {"read_lat_target": 5e-3, "period": 0.05}
        doc["hosts"]["web"]["faults"] = [
            {"kind": "brownout", "start": 0.01, "duration": 0.01, "latency_mult": 4}
        ]
        group = FleetSpec.from_dict(doc).group("web")
        assert group.qos == {"read_lat_target": 5e-3, "period": 0.05}
        assert group.faults[0]["kind"] == "brownout"


class TestDeviceResolution:
    def test_catalogue_name(self):
        spec = device_spec_for("ssd_new")
        assert isinstance(spec, DeviceSpec)

    def test_scale_applied(self):
        full = device_spec_for("ssd_new")
        scaled = device_spec_for("ssd_new", 0.5)
        assert scaled.read_bw == pytest.approx(full.read_bw * 0.5)

    def test_inline_table(self):
        spec = device_spec_for(FLEETDEV)
        assert spec.parallelism == 4
        assert spec.name == "inline"  # auto-filled default

    def test_inline_table_bad_field(self):
        bad = {**FLEETDEV, "warp_factor": 9}
        with pytest.raises(ExperimentError, match="inline device"):
            device_spec_for(bad)  # the shared resolver's own error...
        doc = fleet_doc()
        doc["hosts"]["web"] = {"count": 2, "device": bad}
        with pytest.raises(FleetSpecError, match="inline device"):
            FleetSpec.from_dict(doc)  # ...is a spec error at the spec boundary

    def test_inline_device_in_host_group(self):
        doc = fleet_doc()
        doc["hosts"]["web"] = {"count": 2, "device": dict(FLEETDEV)}
        spec = FleetSpec.from_dict(doc)
        assert spec.fleet_hash  # content-addressable with an inline table


class TestTaskConfig:
    def test_catalogue_name(self):
        task = task_from_config("container_cleanup")
        assert task is TASKS["container_cleanup"]

    def test_unknown_name(self):
        with pytest.raises(FleetSpecError, match="unknown system task"):
            task_from_config("defrag_the_cloud")

    def test_inline_table(self):
        task = task_from_config(
            {
                "name": "tiny",
                "cgroup": "system.slice",
                "small_ios": 10,
                "op": "read",
                "deadline": 2.0,
            }
        )
        assert task.name == "tiny"
        assert task.deadline == 2.0
        assert task.small_io_op.value == "read"

    def test_inline_table_bad_op(self):
        with pytest.raises(FleetSpecError, match="read|write"):
            task_from_config({"name": "t", "op": "scribble", "deadline": 1.0})

    def test_inline_table_needs_deadline(self):
        with pytest.raises(FleetSpecError, match="deadline"):
            task_from_config({"name": "t"})


@pytest.mark.parametrize(
    "table, match",
    [
        ({"type": "saturate", "dept": 8}, r"unknown key 'dept' in a 'saturate'"),
        ({"type": "paced"}, "paced workloads need a 'rate'"),
        ({"type": "paced", "rate": "fast"}, "could not convert"),
        ({"type": "mystery"}, "unknown workload type 'mystery'"),
        ({"type": "saturate", "op": "wirte"}, r"'wirte' must be read\|write"),
    ],
)
class TestOneWorkloadTableValidator:
    """The same bad table is the same error at both entry points: in a
    testbed run, and at fleet-spec load — not once per host in a worker."""

    def test_testbed_run(self, table, match):
        params = {"cgroups": {"a": 100}, "workloads": [dict(table, cgroup="a")]}
        with pytest.raises(ValueError, match=match):
            run_testbed(params, seed=0)

    def test_fleet_template_load(self, table, match):
        doc = fleet_doc()
        doc["workloads"][0] = dict(
            table, name="fe", count=2, cgroup="workload.slice/fe", demand_iops=100
        )
        with pytest.raises(FleetSpecError, match=f"'fe'.*{match}"):
            FleetSpec.from_dict(doc)


class TestMigrationPlan:
    def test_defaults(self):
        plan = MigrationPlan(schedule=(0.0, 1.0))
        assert plan.from_controller == "iolatency"
        assert plan.to_controller == "iocost"
        assert plan.system_task().name == "container_cleanup"

    def test_empty_schedule(self):
        with pytest.raises(FleetSpecError, match="schedule"):
            MigrationPlan(schedule=())

    def test_fraction_out_of_range(self):
        with pytest.raises(FleetSpecError, match=r"\[0, 1\]"):
            MigrationPlan(schedule=(0.0, 1.5))

    def test_unknown_key(self):
        with pytest.raises(FleetSpecError, match="unknown migration"):
            MigrationPlan.from_dict({"schedule": [0.0], "surprise": 1})

    def test_bad_task_rejected_early(self):
        with pytest.raises(FleetSpecError, match="unknown system task"):
            MigrationPlan(schedule=(0.0,), task="nope")

    @pytest.mark.parametrize("settle", [-1, float("nan"), float("inf")])
    def test_settle_rejected_at_load(self, settle):
        """Once loaded, it failed every duration cell ('cannot run backwards')."""
        doc = fleet_doc()
        doc["migration"] = {"schedule": [0.0, 1.0], "settle": settle}
        with pytest.raises(FleetSpecError, match="settle must be finite and >= 0"):
            FleetSpec.from_dict(doc)

    def test_zero_settle_loads(self):
        assert MigrationPlan(schedule=(0.0,), settle=0.0).settle == 0.0
