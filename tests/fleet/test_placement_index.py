"""Placement is an index, not a scan.

``FleetScheduler`` stores each host's load and chooses among the heads of
the ``(capacity_iops, load_iops)`` classes instead of among all hosts.  The
optimisation's own correctness check is differential, in the style of
``tests/controllers/test_hold_skip.py``: :class:`ScanScheduler` below is the
scan it replaced — every choice a list comprehension plus ``min`` / ``max``
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
from repro.fleet.scheduler import (
    _EPS,
    FleetScheduler,
    Migration,
    Placement,
    group_capacities,
)
from repro.fleet.spec import PLACEMENT_POLICIES, FleetSpec
from repro.workloads.fleet import rng_for

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
    """``FleetScheduler`` as it was before the index, with one fix: a drain
    that is rolled back gives the donor its prior list back."""

    def __init__(self, spec, capacities):
        self.spec, self.seed = spec, spec.seed
        slots = [(group.name, index) for group in spec.hosts for index in range(group.count)]
        self.hosts = [
            ScanHost(f"{group}/{index}", group, order, float(capacities[group]))
            for order, (group, index) in enumerate(slots)
        ]
        self.migrations = []

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
        elif self.spec.policy == "first_fit":
            host = fitting[0]
        elif self.spec.policy == "best_fit":
            host = min(
                fitting, key=lambda h: (h.capacity_iops - h.load_iops - demand, h.order)
            )
        else:
            rng = rng_for(f"fleet:place:{template.name}:{instance}", self.seed)
            host = fitting[int(rng.integers(len(fitting)))]
        host.placements.append(
            Placement(template.name, instance, cgroup, template.weight, demand)
        )

    def consolidate(self, low_util=0.4, target_util=0.9):
        moves = []
        donors = sorted(
            (h for h in self.hosts if h.placements and h.utilization < low_util),
            key=lambda h: (h.utilization, h.order),
        )
        for donor in donors:
            staged, before = [], list(donor.placements)
            for placement in before:
                receiver = self._receiver_for(donor, placement, target_util)
                if receiver is None:
                    break
                donor.placements.remove(placement)
                receiver.placements.append(placement)
                staged.append((receiver, placement))
            if donor.placements:
                for receiver, placement in staged:
                    receiver.placements.remove(placement)
                donor.placements[:] = before
            else:
                moves.extend(
                    Migration(p.workload, p.instance, donor.id, receiver.id, "consolidate")
                    for receiver, p in staged
                )
        self.migrations.extend(moves)
        return moves

    def _receiver_for(self, donor, placement, target_util):
        candidates = [
            h
            for h in self.hosts
            if h is not donor
            and h.utilization > donor.utilization
            and h.capacity_iops > 0
            and (h.load_iops + placement.demand_iops) / h.capacity_iops
            <= target_util * (1.0 + _EPS)
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda h: (h.utilization, -h.order))

    def balance(self, tolerance=0.1, max_moves=None):
        if max_moves is None:
            max_moves = 4 * len(self.hosts)
        moves = []
        for _ in range(max_moves):
            loaded = [h for h in self.hosts if h.placements]
            if not loaded:
                break
            busiest = max(loaded, key=lambda h: (h.utilization, -h.order))
            idlest = min(self.hosts, key=lambda h: (h.utilization, h.order))
            if busiest is idlest or busiest.utilization - idlest.utilization <= tolerance:
                break
            candidate = None
            for placement in sorted(
                busiest.placements, key=lambda p: (p.demand_iops, p.workload, p.instance)
            ):
                if idlest.capacity_iops <= 0:
                    break
                new_idle = (idlest.load_iops + placement.demand_iops) / idlest.capacity_iops
                if new_idle < busiest.utilization:
                    candidate = placement
                    break
            if candidate is None:
                break
            busiest.placements.remove(candidate)
            idlest.placements.append(candidate)
            moves.append(
                Migration(candidate.workload, candidate.instance, busiest.id, idlest.id, "balance")
            )
        self.migrations.extend(moves)
        return moves

    plan = FleetScheduler.plan  # serialisation only: reads hosts and migrations


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


def run_both(doc, passes=()):
    """Place ``doc`` and apply ``passes`` (``(method, kwargs)`` pairs) with
    both schedulers, comparing after every step."""
    spec = FleetSpec.from_dict(doc)
    capacities = group_capacities(spec)  # explicit or rated: nothing is profiled
    shipped, reference = FleetScheduler(spec, capacities), ScanScheduler(spec, capacities)
    shipped.place()
    reference.place()
    assert_same(spec, shipped, reference)
    for method, kwargs in passes:
        moves = getattr(shipped, method)(**kwargs)
        assert moves == getattr(reference, method)(**kwargs)
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
PASSES = st.lists(
    st.one_of(
        st.tuples(
            st.just("consolidate"),
            st.fixed_dictionaries({
                "low_util": st.sampled_from((0.2, 0.4, 0.7, 1.1)),
                "target_util": st.sampled_from((0.6, 0.9, 1.0, 1.5)),
            }),
        ),
        st.tuples(
            st.just("balance"),
            st.fixed_dictionaries({
                "tolerance": st.sampled_from((0.0, 0.05, 0.1, 0.3)),
                "max_moves": st.sampled_from((None, 3)),
            }),
        ),
    ),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(
    groups=GROUPS, templates=TEMPLATES, policy=st.sampled_from(PLACEMENT_POLICIES),
    passes=PASSES, seed=st.integers(0, 3),
)
def test_generated_fleets_plan_alike(groups, templates, policy, passes, seed):
    doc = fleet_doc(
        seed=seed,
        policy=policy,
        hosts={f"g{i}": host_group(count, capacity) for i, (count, capacity) in enumerate(groups)},
        workloads=[workload(f"w{i}", count, demand) for i, (count, demand) in enumerate(templates)],
    )
    run_both(doc, passes)


def test_the_generator_reaches_the_hard_cases():
    """Oversubscription, a rolled-back drain and a committed one are all
    within the strategies' reach (so the property above exercises them)."""
    over, _ = run_both(fleet_doc(
        hosts={"g0": host_group(2, 400)}, workloads=[workload("w0", 3, 300)],
    ))
    assert [h.oversubscribed for h in over.hosts] == [True, False]
    doc = fleet_doc(
        hosts={"g0": host_group(1, 1000), "g1": host_group(1, 2500)},
        workloads=[workload("w0", 1, 900), workload("w1", 3, 250.7)],
    )
    rolled, _ = run_both(doc, [("consolidate", {"low_util": 0.4, "target_util": 1.2})])
    assert rolled.migrations == [] and rolled.hosts[1].load_iops == 250.7 + 250.7 + 250.7
    drained, _ = run_both(doc, [("consolidate", {"low_util": 0.4, "target_util": 1.7})])
    assert len(drained.migrations) == 3 and drained.hosts[1].load_iops == 0


# -- the benchmark's shape -----------------------------------------------------


def region_doc(multiplier, policy):
    """``examples/specs/fleet_smoke.toml``'s shape (what ``fleet_region``
    runs at 100), written out here."""
    return {
        "name": "fleet-region", "seed": 1, "policy": policy, "capacity": "rated",
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


BOTH_PASSES = [("consolidate", {}), ("balance", {})]


@pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
@pytest.mark.parametrize("multiplier", (1, 10))
def test_region_shape_plans_alike(multiplier, policy):
    run_both(region_doc(multiplier, policy), BOTH_PASSES)


def test_region_shape_plans_alike_at_900_hosts():
    """The benchmark's own fleet; placement only (the scan takes a second)."""
    run_both(region_doc(100, "best_fit"))


# -- a rolled-back drain leaves no trace ---------------------------------------


def test_rolled_back_drain_restores_the_donor_exactly():
    """Three placements on the donor, a receiver with room for two: the
    drain is rolled back, and the donor must come back as ``[0, 1, 2]`` —
    it used to come back as ``[2, 0, 1]``: another ``workloads`` order in
    its host params (another run hash) and its load summed in another
    order."""
    doc = fleet_doc(
        hosts={"web": host_group(2, 1000)},
        workloads=[workload("main", 1, 950), workload("tiny", 3, 100.1)],
    )
    spec = FleetSpec.from_dict(doc)
    tried, untouched = (FleetScheduler(spec, {"web": 1000.0}) for _ in range(2))
    tried.place()
    untouched.place()
    donor = tried.hosts[1]
    assert [p.instance for p in donor.placements] == [0, 1, 2]
    assert tried.consolidate(low_util=0.4, target_util=1.16) == []
    assert tried.migrations == []
    assert [p.instance for p in donor.placements] == [0, 1, 2]
    assert donor.load_iops.hex() == untouched.hosts[1].load_iops.hex()
    assert host_params(spec, tried) == host_params(spec, untouched)
    assert canonical_json(tried.plan()) == canonical_json(untouched.plan())


# -- placement scales with units, not with units x hosts -----------------------


def calls_per_unit(multiplier, policy):
    spec = FleetSpec.from_dict(region_doc(multiplier, policy))
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


@pytest.mark.parametrize("policy", ("first_fit", "best_fit"))
def test_calls_per_placed_unit_do_not_grow_with_the_fleet(policy):
    """90, 900 and 2,997 hosts (1,400 units at 900; 4,662 at 2,997): the
    fleet has five classes at each size, so a unit costs the same 23 calls.
    The scan made 436, 4,306 and 14,325 per unit under ``first_fit`` and 790,
    7,748 and 25,758 under ``best_fit``."""
    small, region, large = (calls_per_unit(m, policy) for m in (10, 100, 333))
    assert region == pytest.approx(small, rel=0.05)
    assert large == pytest.approx(small, rel=0.05)
