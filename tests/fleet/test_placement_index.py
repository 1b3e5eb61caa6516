"""Placement is an index, not a scan.

``FleetScheduler`` stores each host's load and chooses among the heads of
the ``(capacity_iops, load_iops)`` classes instead of among all hosts.  The
optimisation's own correctness check is differential, in the style of
``tests/controllers/test_hold_skip.py``: :class:`ScanScheduler` below is the
scan it replaced — every choice a list comprehension plus ``min``
over all hosts, every load read a new fold over the host's placements — and
the shipped scheduler must produce the same plan and the same host params,
byte for byte, over generated fleets and over the benchmark's shape.  The
second check is the scaling one: Python calls per placed unit do not grow
with the fleet.
"""

import cProfile
import gc
import pstats
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp.spec import canonical_json
from repro.fleet.runner import host_params
from repro.fleet.scheduler import _EPS, FleetScheduler, Placement, group_capacities
from repro.fleet.spec import FleetSpec

from tests.fleet.conftest import fleet_doc
from tests.fleet.test_scheduler import workload


# -- the reference: the scan, kept here and nowhere else -----------------------


class ScanHost:
    def __init__(self, id, group, order, capacity_iops):
        self.id, self.group, self.order = id, group, order
        self.capacity_iops = capacity_iops
        self.placements = []
        self.oversubscribed = False

    @property
    def load_iops(self):
        # sum() up to CPython 3.11; 3.12's compensates, a fold does not.
        return reduce(add, (p.demand_iops for p in self.placements), 0)

    @property
    def utilization(self):
        return self.load_iops / self.capacity_iops if self.capacity_iops else 0.0

    def fits(self, demand_iops):
        return self.load_iops + demand_iops <= self.capacity_iops * (1.0 + _EPS)


class ScanScheduler:
    """``FleetScheduler`` as it was before the index."""

    def __init__(self, spec, capacities):
        self.spec = spec
        slots = [(group.name, index) for group in spec.hosts for index in range(group.count)]
        self.hosts = [
            ScanHost(f"{group}/{index}", group, order, float(capacities[group]))
            for order, (group, index) in enumerate(slots)
        ]

    def place(self):
        for template in self.spec.workloads:
            for instance in range(template.count):
                self._place_unit(template, instance)

    def _place_unit(self, template, instance):
        demand = template.demand()
        cgroup = template.cgroup if template.count == 1 else f"{template.cgroup}-{instance}"
        fitting = [host for host in self.hosts if host.fits(demand)]
        if not fitting:
            host = min(self.hosts, key=lambda h: (h.utilization, h.order))
            host.oversubscribed = True
        else:
            host = min(
                fitting, key=lambda h: (h.capacity_iops - h.load_iops - demand, h.order)
            )
        host.placements.append(
            Placement(template.name, instance, cgroup, template.weight, demand)
        )

    plan = FleetScheduler.plan  # serialisation only: reads hosts


def assert_same(spec, shipped, reference):
    assert canonical_json(shipped.plan()) == canonical_json(reference.plan())
    assert canonical_json(host_params(spec, shipped)) == canonical_json(
        host_params(spec, reference)
    )
    # The index itself: every host filed once, under the load it has now.
    filed = sorted(order for members in shipped._classes.values() for order in members)
    assert filed == list(range(len(shipped.hosts)))
    for (capacity, load), members in shipped._classes.items():
        assert members == sorted(members)
        for order in members:
            host = shipped.hosts[order]
            assert (host.capacity_iops, host.load_iops) == (capacity, load)


def run_both(doc):
    """Place ``doc`` with both schedulers and compare."""
    spec = FleetSpec.from_dict(doc)
    capacities = group_capacities(spec)
    shipped, reference = FleetScheduler(spec, capacities), ScanScheduler(spec, capacities)
    shipped.place()
    reference.place()
    assert_same(spec, shipped, reference)
    return shipped, reference


def host_group(count, capacity):
    return {"count": count, "device": "ssd_new", "device_scale": 0.05,
            "capacity_iops": capacity}


# -- generated fleets ----------------------------------------------------------

#: Few enough values that groups share a capacity and demands tie; 0.1, 33.3
#: and 250.7 do not add exactly, so the order of a load's fold shows.
CAPACITIES = (400, 1000, 1000.5, 2500)
DEMANDS = (0.1, 33.3, 100, 150, 250.7, 300, 900, 3000)

GROUPS = st.lists(
    st.tuples(st.integers(1, 5), st.sampled_from(CAPACITIES)), min_size=1, max_size=4
)
TEMPLATES = st.lists(
    st.tuples(st.integers(1, 12), st.sampled_from(DEMANDS)), min_size=1, max_size=4
)


@settings(max_examples=300, deadline=None)
@given(groups=GROUPS, templates=TEMPLATES)
def test_generated_fleets_plan_alike(groups, templates):
    doc = fleet_doc(
        hosts={f"g{i}": host_group(count, capacity) for i, (count, capacity) in enumerate(groups)},
        workloads=[workload(f"w{i}", count, demand) for i, (count, demand) in enumerate(templates)],
    )
    run_both(doc)


def test_the_generator_reaches_the_hard_cases():
    """Oversubscription, and a tightest fit on a bigger, fuller host than an
    emptier one, are within the strategies' reach (so the property above
    exercises them)."""
    over, _ = run_both(fleet_doc(
        hosts={"g0": host_group(2, 400)}, workloads=[workload("w0", 3, 300)],
    ))
    assert [h.oversubscribed for h in over.hosts] == [True, False]
    tight, _ = run_both(fleet_doc(
        hosts={"g0": host_group(1, 400), "g1": host_group(1, 1000)},
        workloads=[workload("w0", 1, 900), workload("w1", 1, 100)],
    ))
    assert [h.load_iops for h in tight.hosts] == [0, 1000]


# -- the benchmark's shape -----------------------------------------------------


def region_doc(multiplier):
    """``examples/specs/fleet_smoke.toml``'s shape (what ``fleet_region``
    runs at 100), written out here."""
    return {
        "name": "fleet-region", "seed": 1, "policy": "best_fit", "capacity": "rated",
        "duration": 0.05, "percentiles": [50, 95, 99],
        "hosts": {
            "web": {"count": 6 * multiplier, "device": "ssd_new", "device_scale": 0.05,
                    "controller": "iocost"},
            "db": {"count": 3 * multiplier, "device": "ssd_old", "device_scale": 0.05,
                   "controller": "iocost"},
        },
        "workloads": [
            {"name": "frontend", "count": 8 * multiplier, "cgroup": "workload.slice/fe",
             "weight": 200, "type": "paced", "rate": 300},
            {"name": "batch", "count": 4 * multiplier, "cgroup": "workload.slice/batch",
             "weight": 50, "type": "paced", "rate": 150},
            {"name": "db-shard", "count": 2 * multiplier, "cgroup": "workload.slice/db",
             "weight": 100, "type": "paced", "rate": 200},
        ],
    }


@pytest.mark.parametrize("multiplier", (1, 10))
def test_region_shape_plans_alike(multiplier):
    run_both(region_doc(multiplier))


def test_region_shape_plans_alike_at_900_hosts():
    """The benchmark's own fleet (the scan takes a second)."""
    run_both(region_doc(100))


# -- placement scales with units, not with units x hosts -----------------------


def calls_per_unit(multiplier):
    spec = FleetSpec.from_dict(region_doc(multiplier))
    scheduler = FleetScheduler(spec, group_capacities(spec))
    profiler = cProfile.Profile()
    gc.disable()  # hypothesis leaves a gc callback: its calls are not place()'s
    try:
        profiler.enable()
        scheduler.place()
        profiler.disable()
    finally:
        gc.enable()
    units = sum(template.count for template in spec.workloads)
    assert sum(len(host.placements) for host in scheduler.hosts) == units
    return pstats.Stats(profiler).total_calls / units


def test_calls_per_placed_unit_do_not_grow_with_the_fleet():
    """90, 900 and 2,997 hosts (1,400 units at 900; 4,662 at 2,997): the
    fleet has five classes at each size, so a unit costs the same 23 calls.
    The scan made 790, 7,748 and 25,758 per unit."""
    small, region, large = (calls_per_unit(m) for m in (10, 100, 333))
    assert region == pytest.approx(small, rel=0.05)
    assert large == pytest.approx(small, rel=0.05)
