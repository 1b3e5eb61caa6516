"""Scheduler semantics: packing policies, determinism, rebalancing, rollout.

The determinism contract under test: placements and migration order are
functions of the spec *content* (label-keyed streams, ordinal tie-breaks),
never of host-table dict ordering or of which other hosts exist.
"""

import pytest

from repro.exp.spec import canonical_json
from repro.fleet.scheduler import FleetScheduler, SchedulerError, group_capacities
from repro.fleet.spec import FleetSpec

from tests.fleet.conftest import fleet_doc


def scheduled(doc):
    spec = FleetSpec.from_dict(doc)
    scheduler = FleetScheduler(spec, group_capacities(spec))
    scheduler.place()
    return scheduler


def capacity_doc(**overrides):
    """A doc with explicit capacities: no profiling, exact arithmetic."""
    doc = fleet_doc(
        hosts={
            "web": {
                "count": 3,
                "device": "ssd_new",
                "device_scale": 0.05,
                "capacity_iops": 1000,
            },
        },
        workloads=[],
    )
    doc.update(overrides)
    return doc


def workload(name, count, demand, weight=100):
    return {
        "name": name,
        "count": count,
        "cgroup": f"workload.slice/{name}",
        "weight": weight,
        "type": "saturate",
        "demand_iops": demand,
    }


class TestCapacities:
    def test_explicit_override_wins(self):
        spec = FleetSpec.from_dict(capacity_doc())
        assert group_capacities(spec) == {"web": 1000.0}

    def test_rated_uses_spec_peak(self):
        spec = FleetSpec.from_dict(fleet_doc(capacity="rated"))
        device = spec.hosts[0]
        from repro.exp.experiments import device_spec_for

        peak = device_spec_for(device.device, device.device_scale).peak_rand_read_iops
        assert group_capacities(spec)["web"] == pytest.approx(peak)

    def test_profiled_is_deterministic(self):
        spec = FleetSpec.from_dict(fleet_doc(capacity="profiled"))
        first = group_capacities(spec, read_duration=0.02, write_duration=0.02)
        second = group_capacities(spec, read_duration=0.02, write_duration=0.02)
        assert first == second
        assert first["web"] > 0

    def test_missing_group_capacity_raises(self):
        spec = FleetSpec.from_dict(capacity_doc())
        with pytest.raises(SchedulerError, match="no capacity"):
            FleetScheduler(spec, {})


class TestPlacementPolicies:
    def test_first_fit_packs_low_ordinals(self):
        sched = scheduled(capacity_doc(workloads=[workload("a", 4, 300)]))
        loads = [host.load_iops for host in sched.hosts]
        assert loads == [900.0, 300.0, 0.0]

    def test_best_fit_packs_tightest(self):
        doc = capacity_doc(
            policy="best_fit",
            workloads=[workload("big", 1, 700), workload("small", 2, 300)],
        )
        sched = scheduled(doc)
        # big -> web/0 (700); small#0 -> web/0 has 300 headroom = tightest
        # fit; small#1 no longer fits web/0, ties break by ordinal -> web/1.
        loads = [host.load_iops for host in sched.hosts]
        assert loads == [1000.0, 300.0, 0.0]

    def test_spread_is_deterministic_and_fits(self):
        doc = capacity_doc(policy="spread", workloads=[workload("a", 5, 200)])
        first = scheduled(doc).plan()
        second = scheduled(doc).plan()
        assert canonical_json(first) == canonical_json(second)
        for entry in first["hosts"].values():
            assert entry["load_iops"] <= entry["capacity_iops"]

    def test_oversubscription_flagged_not_fatal(self):
        doc = capacity_doc(workloads=[workload("huge", 1, 2500)])
        sched = scheduled(doc)
        placed = [h for h in sched.hosts if h.placements]
        assert len(placed) == 1
        assert placed[0].oversubscribed
        assert sched.plan()["hosts"][placed[0].id]["oversubscribed"]

    def test_single_instance_keeps_bare_cgroup(self):
        sched = scheduled(capacity_doc(workloads=[workload("solo", 1, 100)]))
        cgroups = [p.cgroup for h in sched.hosts for p in h.placements]
        assert cgroups == ["workload.slice/solo"]

    def test_multi_instance_cgroups_suffixed(self):
        sched = scheduled(capacity_doc(workloads=[workload("fe", 3, 100)]))
        cgroups = sorted(p.cgroup for h in sched.hosts for p in h.placements)
        assert cgroups == [f"workload.slice/fe-{i}" for i in range(3)]


class TestDeterminism:
    def test_plan_invariant_under_host_table_order(self):
        groups = {
            "web": {"count": 2, "device": "ssd_new", "device_scale": 0.05,
                    "capacity_iops": 1000},
            "db": {"count": 2, "device": "ssd_old", "device_scale": 0.05,
                   "capacity_iops": 800},
        }
        workloads = [workload("a", 3, 400), workload("b", 2, 250)]
        forward = scheduled(
            fleet_doc(hosts=dict(groups), workloads=workloads)
        ).plan()
        backward = scheduled(
            fleet_doc(
                hosts={k: groups[k] for k in reversed(list(groups))},
                workloads=workloads,
            )
        ).plan()
        assert canonical_json(forward) == canonical_json(backward)

    def test_place_is_idempotent(self):
        sched = scheduled(capacity_doc(workloads=[workload("a", 2, 100)]))
        before = canonical_json(sched.plan())
        sched.place()  # second call must not double-place
        assert canonical_json(sched.plan()) == before

    def test_migration_order_stable_under_fleet_growth(self):
        base = scheduled(capacity_doc())
        grown_doc = capacity_doc()
        grown_doc["hosts"]["db"] = {
            "count": 3, "device": "ssd_old", "device_scale": 0.05,
            "capacity_iops": 500,
        }
        grown = scheduled(grown_doc)
        base_order = base.migration_order()
        grown_order = [
            h for h in grown.migration_order() if h.startswith("web/")
        ]
        # Each web host's rank comes from its own labeled stream, so adding
        # the db group cannot reorder the web hosts relative to each other.
        assert grown_order == base_order


class TestStagedRollout:
    def test_fraction_extremes(self):
        sched = scheduled(capacity_doc())
        all_old = sched.staged_controllers(0.0, "iolatency", "iocost")
        assert set(all_old.values()) == {"iolatency"}
        all_new = sched.staged_controllers(1.0, "iolatency", "iocost")
        assert set(all_new.values()) == {"iocost"}

    def test_fraction_rounds_half_up(self):
        sched = scheduled(capacity_doc())  # 3 hosts
        assignment = sched.staged_controllers(0.5, "old", "new")
        assert sum(1 for c in assignment.values() if c == "new") == 2

    def test_rollout_is_cumulative(self):
        sched = scheduled(capacity_doc())
        early = sched.staged_controllers(1 / 3, "old", "new")
        late = sched.staged_controllers(2 / 3, "old", "new")
        migrated_early = {h for h, c in early.items() if c == "new"}
        migrated_late = {h for h, c in late.items() if c == "new"}
        assert migrated_early <= migrated_late


class TestRebalancing:
    def test_consolidate_drains_low_util_host(self):
        doc = capacity_doc(
            hosts={"web": {"count": 2, "device": "ssd_new",
                           "device_scale": 0.05, "capacity_iops": 1000}},
            workloads=[workload("main", 1, 950), workload("tiny", 2, 100)],
        )
        sched = scheduled(doc)
        # first_fit: main fills web/0; the tinies spill to web/1 (util 0.2).
        assert [h.load_iops for h in sched.hosts] == [950.0, 200.0]
        moves = sched.consolidate(low_util=0.4, target_util=1.2)
        assert len(moves) == 2
        assert all(m.reason == "consolidate" for m in moves)
        assert [h.load_iops for h in sched.hosts] == [1150.0, 0.0]
        assert len(sched.plan()["migrations"]) == 2

    def test_consolidate_rolls_back_partial_drains(self):
        doc = capacity_doc(
            hosts={"web": {"count": 2, "device": "ssd_new",
                           "device_scale": 0.05, "capacity_iops": 1000}},
            workloads=[workload("main", 1, 950), workload("tiny", 1, 100),
                       workload("mid", 1, 300)],
        )
        sched = scheduled(doc)
        assert [h.load_iops for h in sched.hosts] == [950.0, 400.0]
        # tiny would fit under 1.06 target, but mid would not: all-or-nothing
        # means web/1 must keep both placements.
        moves = sched.consolidate(low_util=0.5, target_util=1.06)
        assert moves == []
        assert [h.load_iops for h in sched.hosts] == [950.0, 400.0]

    def test_balance_narrows_spread(self):
        doc = capacity_doc(
            hosts={"web": {"count": 2, "device": "ssd_new",
                           "device_scale": 0.05, "capacity_iops": 1000}},
            workloads=[workload("u", 4, 200)],
        )
        sched = scheduled(doc)
        assert [h.load_iops for h in sched.hosts] == [800.0, 0.0]
        moves = sched.balance(tolerance=0.1)
        assert len(moves) == 2
        assert all(m.reason == "balance" for m in moves)
        assert [h.load_iops for h in sched.hosts] == [400.0, 400.0]
