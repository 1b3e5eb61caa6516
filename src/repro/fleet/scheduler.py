"""The cluster scheduler: best-fit placement and the staged rollout.

Places each workload instance of a :class:`~repro.fleet.spec.FleetSpec`
onto a host, packing against each group's rated capacity
(:func:`group_capacities`): every unit goes to the fitting host left with
the least headroom, and a unit that fits nowhere oversubscribes the
least-utilised host.  The paper's §4.8 staged IOLatency→IOCost rollout is
the other policy: :meth:`FleetScheduler.migration_order` assigns every host
a label-keyed random rank, and :meth:`FleetScheduler.staged_controllers`
migrates the first ``fraction`` of that order each week.

No choice scans the fleet.  A host's load is stored, and hosts are filed by
``(capacity_iops, load_iops)``: hosts of one such class fit the same
demands, leave the same headroom and are equally utilised, and every
tie-break is by ordinal, so placement chooses among the lowest-ordinal host
of each class — a handful, whatever the fleet's size.

Determinism contract: hosts are created in sorted-group order (the spec
sorts its host table), every tie-break is by host ordinal, and every
random decision draws from a stream keyed by a *label* (host id) — never
by iteration order.  Placements are therefore invariant under host-table
dict ordering, and a host's migration rank never changes when other hosts
are added or removed.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.exp.experiments import device_spec_for
from repro.fleet.spec import FleetSpec, WorkloadTemplate
from repro.workloads.fleet import rng_for


class SchedulerError(RuntimeError):
    """Raised for unplaceable specs or malformed scheduler state."""


#: Relative slack on capacity comparisons.
_EPS = 1e-9


def group_capacities(spec: FleetSpec) -> Dict[str, float]:
    """Per-host IOPS capacity of every host group: the group's
    ``capacity_iops`` override, else its device's rated random-read peak."""
    return {
        group.name: float(
            group.capacity_iops
            if group.capacity_iops is not None
            else device_spec_for(group.device, group.device_scale).peak_rand_read_iops
        )
        for group in spec.hosts
    }


@dataclass
class Placement:
    """One workload instance pinned to a host."""

    workload: str
    instance: int
    cgroup: str
    weight: int
    demand_iops: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "instance": self.instance,
            "cgroup": self.cgroup,
            "weight": self.weight,
            "demand_iops": self.demand_iops,
        }


@dataclass
class Host:
    """One schedulable host: capacity, current placements, provenance.

    ``load_iops`` is state, not a sum on every read: it is always the left
    fold ``((0 + d0) + d1) + ...`` of the demands in ``placements`` order,
    to the bit.  Only :meth:`add` changes either field.
    """

    id: str
    group: str
    order: int
    capacity_iops: float
    placements: List[Placement] = field(default_factory=list, init=False)
    oversubscribed: bool = False
    load_iops: float = field(default=0, init=False)

    def add(self, placement: Placement) -> None:
        self.placements.append(placement)
        self.load_iops += placement.demand_iops

    @property
    def utilization(self) -> float:
        return self.load_iops / self.capacity_iops if self.capacity_iops else 0.0

    def fits(self, demand_iops: float) -> bool:
        return (
            self.load_iops + demand_iops
            <= self.capacity_iops * (1.0 + _EPS)
        )


class FleetScheduler:
    """Places a :class:`FleetSpec`'s workloads and stages its rollout."""

    def __init__(self, spec: FleetSpec, capacities: Dict[str, float]):
        self.spec = spec
        self.seed = spec.seed
        missing = [g.name for g in spec.hosts if g.name not in capacities]
        if missing:
            raise SchedulerError(f"no capacity for host group(s) {missing}")
        self.hosts: List[Host] = []
        order = 0
        for group in spec.hosts:  # already sorted by group name
            for index in range(group.count):
                self.hosts.append(
                    Host(
                        id=f"{group.name}/{index}",
                        group=group.name,
                        order=order,
                        capacity_iops=float(capacities[group.name]),
                    )
                )
                order += 1
        # The placement index: the ordinals, ascending, of the hosts of each
        # (capacity, load) class.  Kept by _add, read through _heads.
        self._classes: Dict[Tuple[float, float], List[int]] = {}
        for host in self.hosts:
            self._classes.setdefault((host.capacity_iops, 0), []).append(host.order)
        self._placed = False

    # -- the placement index -------------------------------------------------

    def _heads(self) -> List[Host]:
        """The lowest-ordinal host of every class: the only hosts a choice
        keyed by capacity, load and ordinal can make."""
        return [self.hosts[members[0]] for members in self._classes.values()]

    def _add(self, host: Host, placement: Placement) -> None:
        """``Host.add``, and file the host under its new load."""
        members = self._classes[host.capacity_iops, host.load_iops]
        del members[bisect_left(members, host.order)]
        if not members:
            del self._classes[host.capacity_iops, host.load_iops]
        host.add(placement)
        insort(
            self._classes.setdefault((host.capacity_iops, host.load_iops), []),
            host.order,
        )

    # -- placement -----------------------------------------------------------

    def place(self) -> List[Host]:
        """Place every workload instance; idempotent per scheduler."""
        if self._placed:
            return self.hosts
        for template in self.spec.workloads:
            for instance in range(template.count):
                self._place_unit(template, instance)
        self._placed = True
        return self.hosts

    def _place_unit(self, template: WorkloadTemplate, instance: int) -> None:
        demand = template.demand()
        cgroup = (
            template.cgroup
            if template.count == 1
            else f"{template.cgroup}-{instance}"
        )
        heads = self._heads()
        fitting = [host for host in heads if host.fits(demand)]
        if fitting:
            host = min(
                fitting,
                key=lambda h: (h.capacity_iops - h.load_iops - demand, h.order),
            )
        else:
            # Oversubscribe the least-utilised host rather than failing the
            # whole spec — the rollup flags these hosts.
            host = min(heads, key=lambda h: (h.utilization, h.order))
            host.oversubscribed = True
        self._add(
            host, Placement(template.name, instance, cgroup, template.weight, demand)
        )

    # -- staged controller migration (paper §4.8) ----------------------------

    def migration_order(self) -> List[str]:
        """Host ids in rollout order: label-keyed random rank, tie by id.

        Each host's rank comes from its **own** stream
        (``fleet:migrate:<host id>``), so adding or removing hosts never
        reorders the survivors relative to each other.
        """
        ranks = {
            host.id: float(rng_for(f"fleet:migrate:{host.id}", self.seed).random())
            for host in self.hosts
        }
        return [
            host.id
            for host in sorted(self.hosts, key=lambda h: (ranks[h.id], h.id))
        ]

    def staged_controllers(
        self, fraction: float, from_controller: str, to_controller: str
    ) -> Dict[str, str]:
        """Per-host controller assignment at one rollout ``fraction``."""
        order = self.migration_order()
        migrated = int(min(1.0, max(0.0, fraction)) * len(order) + 0.5)
        assignment = {host_id: from_controller for host_id in order}
        for host_id in order[:migrated]:
            assignment[host_id] = to_controller
        return assignment

    # -- the placement plan (JSON-able) --------------------------------------

    def plan(self) -> Dict[str, Any]:
        """The whole placement as canonical-JSON-able data.

        This is what determinism tests compare: same spec → same plan,
        regardless of host-table ordering or worker counts.
        """
        return {
            "fleet": self.spec.name,
            "fleet_hash": self.spec.fleet_hash,
            "policy": self.spec.policy,
            "capacity": self.spec.capacity,
            "hosts": {
                host.id: {
                    "group": host.group,
                    "capacity_iops": host.capacity_iops,
                    "load_iops": host.load_iops,
                    "utilization": host.utilization,
                    "oversubscribed": host.oversubscribed,
                    "workloads": [p.to_dict() for p in host.placements],
                }
                for host in self.hosts
            },
        }


__all__ = [
    "FleetScheduler",
    "Host",
    "Placement",
    "SchedulerError",
    "group_capacities",
]
