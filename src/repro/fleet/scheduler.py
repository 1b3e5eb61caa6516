"""The cluster scheduler: bin-packing placement, rebalancing, migration.

Places each workload instance of a :class:`~repro.fleet.spec.FleetSpec`
onto a host, packing against **profiled device capacity** (IOPS from
:func:`repro.core.profiler.profile_device`, or the spec's rated peak —
:func:`group_capacities`).  Three placement policies:

* ``first_fit``  — lowest-numbered host with room (classic bin-packing);
* ``best_fit``   — the fitting host left with the least headroom
  (tightest pack, frees whole hosts for consolidation);
* ``spread``     — a label-keyed random choice among fitting hosts
  (load-spreading à la rendezvous hashing).

Plus two Serifos-style rebalancing passes (:meth:`FleetScheduler.consolidate`
drains low-utilisation hosts onto busier ones; :meth:`FleetScheduler.balance`
narrows the utilisation spread), and the paper's §4.8 staged
IOLatency→IOCost rollout as a policy: :meth:`FleetScheduler.migration_order`
assigns every host a label-keyed random rank, and
:meth:`FleetScheduler.staged_controllers` migrates the first ``fraction``
of that order each week.

No choice scans the fleet.  A host's load is stored, and hosts are filed by
``(capacity_iops, load_iops)``: hosts of one such class fit the same
demands, leave the same headroom and are equally utilised, and every
tie-break is by ordinal, so placement and both passes choose among the
lowest-ordinal host of each class — a handful, whatever the fleet's size.

Determinism contract: hosts are created in sorted-group order (the spec
sorts its host table), every tie-break is by host ordinal, and every
random decision draws from a stream keyed by a *label* (placement unit or
host id) — never by iteration order.  Placements are therefore invariant
under host-table dict ordering, and a host's migration rank never changes
when other hosts are added or removed.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.profiler import profile_device
from repro.exp.experiments import device_spec_for
from repro.fleet.spec import FleetSpec, WorkloadTemplate
from repro.workloads.fleet import rng_for


class SchedulerError(RuntimeError):
    """Raised for unplaceable specs or malformed scheduler state."""


#: Relative slack on capacity comparisons (floats from profiling).
_EPS = 1e-9


def group_capacities(
    spec: FleetSpec,
    read_duration: float = 0.05,
    write_duration: float = 0.1,
) -> Dict[str, float]:
    """Per-host IOPS capacity of every host group, by the spec's model.

    ``profiled`` runs :func:`repro.core.profiler.profile_device` on the
    group's device (once per group — hosts in a group are identical) and
    uses its random-read IOPS; ``rated`` trusts the catalogue spec's
    analytic peak.  An explicit ``capacity_iops`` on the group wins either
    way.  The profiling seed is drawn from a label-keyed stream, so a
    group's capacity never depends on which other groups exist.
    """
    capacities: Dict[str, float] = {}
    for group in spec.hosts:
        if group.capacity_iops is not None:
            capacities[group.name] = float(group.capacity_iops)
            continue
        device = device_spec_for(group.device, group.device_scale)
        if spec.capacity == "rated":
            capacities[group.name] = float(device.peak_rand_read_iops)
            continue
        profile_seed = int(
            rng_for(f"fleet:profile:{group.name}", spec.seed).integers(1 << 32)
        )
        profile = profile_device(
            device,
            seed=profile_seed,
            read_duration=read_duration,
            write_duration=write_duration,
        )
        capacities[group.name] = float(profile.rrandiops)
    return capacities


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
    to the bit.  Appending adds one term to that fold; float subtraction
    would not undo one, so a removal folds the survivors again.  Only
    :meth:`add` and :meth:`remove` change either field.
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

    def remove(self, placement: Placement) -> None:
        self.placements.remove(placement)
        load: float = 0  # not sum(): CPython 3.12's compensates, add() cannot
        for survivor in self.placements:
            load += survivor.demand_iops
        self.load_iops = load

    @property
    def utilization(self) -> float:
        return self.load_iops / self.capacity_iops if self.capacity_iops else 0.0

    def fits(self, demand_iops: float) -> bool:
        return (
            self.load_iops + demand_iops
            <= self.capacity_iops * (1.0 + _EPS)
        )


@dataclass(frozen=True)
class Migration:
    """One workload move recorded by a rebalancing pass."""

    workload: str
    instance: int
    from_host: str
    to_host: str
    reason: str  # "consolidate" | "balance"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "instance": self.instance,
            "from": self.from_host,
            "to": self.to_host,
            "reason": self.reason,
        }


class FleetScheduler:
    """Places and migrates a :class:`FleetSpec`'s workloads across hosts."""

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
        self._by_id = {host.id: host for host in self.hosts}
        # The placement index: the ordinals, ascending, of the hosts of each
        # (capacity, load) class.  Kept by _change, read through _heads.
        self._classes: Dict[Tuple[float, float], List[int]] = {}
        for host in self.hosts:
            self._classes.setdefault((host.capacity_iops, 0), []).append(host.order)
        self.migrations: List[Migration] = []
        self._placed = False

    def host(self, host_id: str) -> Host:
        try:
            return self._by_id[host_id]
        except KeyError:
            raise SchedulerError(f"no such host {host_id!r}") from None

    # -- the placement index -------------------------------------------------

    def _members(self, host: Host) -> List[int]:
        return self._classes[host.capacity_iops, host.load_iops]

    def _heads(self) -> List[Host]:
        """The lowest-ordinal host of every class: the only hosts a choice
        keyed by capacity, load and ordinal can make."""
        return [self.hosts[members[0]] for members in self._classes.values()]

    def _change(
        self, host: Host, mutate: Callable[[Host, Placement], None], placement: Placement
    ) -> None:
        """Apply ``Host.add`` or ``Host.remove`` and file the host under its new load."""
        members = self._members(host)
        del members[bisect_left(members, host.order)]
        if not members:
            del self._classes[host.capacity_iops, host.load_iops]
        mutate(host, placement)
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
        if not fitting:
            # Oversubscribe the least-utilised host rather than failing the
            # whole spec — the rollup flags these hosts.
            host = min(heads, key=lambda h: (h.utilization, h.order))
            host.oversubscribed = True
        elif self.spec.policy == "first_fit":
            host = min(fitting, key=lambda h: h.order)
        elif self.spec.policy == "best_fit":
            host = min(
                fitting,
                key=lambda h: (h.capacity_iops - h.load_iops - demand, h.order),
            )
        else:  # spread: a draw over every fitting host, in ordinal order
            rng = rng_for(f"fleet:place:{template.name}:{instance}", self.seed)
            ordinals = sorted(chain.from_iterable(map(self._members, fitting)))
            host = self.hosts[ordinals[int(rng.integers(len(ordinals)))]]
        self._change(
            host,
            Host.add,
            Placement(template.name, instance, cgroup, template.weight, demand),
        )

    # -- Serifos-style rebalancing -------------------------------------------

    def consolidate(self, low_util: float = 0.4, target_util: float = 0.9) -> List[Migration]:
        """Drain hosts below ``low_util`` onto busier hosts (bin-pack down).

        A donor host is emptied only if **every** placement finds a busier
        receiver that stays at or under ``target_util``; partial drains are
        rolled back, since a half-empty host frees nothing.  Returns (and
        records) the committed migrations.
        """
        moves: List[Migration] = []
        donors = sorted(
            (h for h in self.hosts if h.placements and h.utilization < low_util),
            key=lambda h: (h.utilization, h.order),
        )
        for donor in donors:
            staged: List[Migration] = []
            before = list(donor.placements)
            for placement in before:
                receiver = self._receiver_for(donor, placement, target_util)
                if receiver is None:
                    break
                self._change(donor, Host.remove, placement)
                self._change(receiver, Host.add, placement)
                staged.append(
                    Migration(
                        placement.workload, placement.instance,
                        donor.id, receiver.id, "consolidate",
                    )
                )
            if donor.placements:  # partial drain: roll back
                for migration, placement in zip(staged, before):
                    self._change(self.host(migration.to_host), Host.remove, placement)
                # Empty the donor and refill it, so that it gets back its
                # prior order (hence its prior load and host_params entry),
                # not the survivors followed by the returned.
                for placement in list(donor.placements):
                    self._change(donor, Host.remove, placement)
                for placement in before:
                    self._change(donor, Host.add, placement)
            else:
                moves.extend(staged)
        self.migrations.extend(moves)
        return moves

    def _receiver_for(
        self, donor: Host, placement: Placement, target_util: float
    ) -> Optional[Host]:
        # The donor's own class is no busier than the donor, so neither the
        # donor nor a head standing in for it is ever a candidate.
        candidates = [
            h
            for h in self._heads()
            if h.utilization > donor.utilization
            and h.capacity_iops > 0
            and (h.load_iops + placement.demand_iops) / h.capacity_iops
            <= target_util * (1.0 + _EPS)
        ]
        if not candidates:
            return None
        # Busiest-first: pack the fullest receiver tighter.
        return max(candidates, key=lambda h: (h.utilization, -h.order))

    def balance(
        self, tolerance: float = 0.1, max_moves: Optional[int] = None
    ) -> List[Migration]:
        """Narrow the utilisation spread by moving work busiest → idlest.

        Greedy: repeatedly move the smallest placement off the busiest host
        onto the idlest host, while the move strictly helps and the spread
        exceeds ``tolerance``.  Returns (and records) the migrations.
        """
        if max_moves is None:
            max_moves = 4 * len(self.hosts)
        moves: List[Migration] = []
        for _ in range(max_moves):
            heads = self._heads()
            loaded = [h for h in heads if h.placements]
            if not loaded:
                break
            busiest = max(loaded, key=lambda h: (h.utilization, -h.order))
            idlest = min(heads, key=lambda h: (h.utilization, h.order))
            if busiest is idlest:
                break
            if busiest.utilization - idlest.utilization <= tolerance:
                break
            candidate = None
            for placement in sorted(
                busiest.placements,
                key=lambda p: (p.demand_iops, p.workload, p.instance),
            ):
                if idlest.capacity_iops <= 0:
                    break
                new_idle = (
                    idlest.load_iops + placement.demand_iops
                ) / idlest.capacity_iops
                if new_idle < busiest.utilization:
                    candidate = placement
                    break
            if candidate is None:
                break
            self._change(busiest, Host.remove, candidate)
            self._change(idlest, Host.add, candidate)
            moves.append(
                Migration(
                    candidate.workload, candidate.instance,
                    busiest.id, idlest.id, "balance",
                )
            )
        self.migrations.extend(moves)
        return moves

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
            "migrations": [m.to_dict() for m in self.migrations],
        }


__all__ = [
    "FleetScheduler",
    "Host",
    "Migration",
    "Placement",
    "SchedulerError",
    "group_capacities",
]
