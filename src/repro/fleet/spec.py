"""Declarative cluster specs: host groups, workload templates, migration.

A :class:`FleetSpec` is to a *cluster* what
:class:`repro.exp.spec.ExperimentSpec` is to a sweep: a TOML/JSON document
describing host groups (count, catalogue device, controller, optional
fault plans), the container-workload templates to place on them, and —
optionally — a staged controller migration
(the paper's §4.8 IOLatency→IOCost rollout).  The document form::

    name = "smoke-fleet"
    seed = 0
    policy = "best_fit"         # the only placement policy (the default)
    capacity = "rated"          # the only capacity model: spec peaks (the default)
    duration = 0.2              # per-host measurement window, seconds

    [hosts.web]                 # one host group
    count = 6
    device = "ssd_new"          # catalogue name (repro.block.device_models)
    device_scale = 0.05
    controller = "iocost"

    [[workloads]]               # one workload template
    name = "frontend"
    count = 8
    cgroup = "workload.slice/fe"
    weight = 200
    type = "paced"
    rate = 2000                 # demand_iops defaults to rate for paced

    [migration]                 # optional staged migration (Figures 18/19)
    schedule = [0.0, 0.25, 0.5, 1.0]
    task = "container_cleanup"  # or an inline task table

Like experiment specs, fleet specs are content-addressed: ``fleet_hash``
digests the canonical document (name excluded), and each *host*'s resolved
parameters are hashed independently by the runner, which is what makes
unchanged hosts free on re-sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.cgroup import MAX_WEIGHT, MIN_WEIGHT
from repro.exp.experiments import device_spec_for, io_op, qos_from, workload_kwargs
from repro.exp.spec import SpecError, canonical_json, content_hash, load_document, parse_int
from repro.faults import plan_from_config
from repro.obs.metrics import exact_percentile
from repro.workloads.fleet import TASKS, SystemTask


class FleetSpecError(SpecError):
    """Raised for malformed fleet specs."""


def _require(data: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in data:
        raise FleetSpecError(f"{where} needs a {key!r}")
    return data[key]


def _check_known(data: Mapping[str, Any], known: Tuple[str, ...], where: str) -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise FleetSpecError(f"unknown {where} keys: {sorted(unknown)}")


def _check_tables(
    where: str, qos: Optional[Mapping[str, Any]], faults: Sequence[Mapping[str, Any]] = ()
) -> None:
    """Reject at load, with the workers' own validators, what would
    otherwise fail once per affected host inside a worker."""
    try:
        qos_from({"qos": qos})
        plan_from_config(faults)
    except (TypeError, ValueError) as exc:
        raise FleetSpecError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class HostGroup:
    """One homogeneous set of hosts (a partition, in cluster-speak).

    ``device`` is a catalogue name (:mod:`repro.block.device_models`) or an
    inline :class:`~repro.block.device.DeviceSpec` field table — the latter
    is how the Figures 18/19 fleet device rides through the scheduler.
    """

    name: str
    count: int
    device: Union[str, Dict[str, Any]]
    device_scale: Optional[float] = None
    controller: str = "iocost"
    qos: Optional[Dict[str, Any]] = None
    faults: Tuple[Dict[str, Any], ...] = ()
    capacity_iops: Optional[float] = None  # overrides the device's rated peak

    def __post_init__(self) -> None:
        if not self.name:
            raise FleetSpecError("host groups need a non-empty name")
        if self.count < 1:
            raise FleetSpecError(f"host group {self.name!r}: count must be >= 1")
        if self.capacity_iops is not None and self.capacity_iops <= 0:
            raise FleetSpecError(
                f"host group {self.name!r}: capacity_iops must be positive"
            )
        try:
            device_spec_for(self.device, self.device_scale)
        except Exception as exc:
            raise FleetSpecError(
                f"host group {self.name!r}: bad device {self.device!r}: {exc}"
            ) from None
        _check_tables(f"host group {self.name!r}", self.qos, self.faults)

    @classmethod
    def from_dict(cls, name: str, data: Mapping[str, Any]) -> "HostGroup":
        where = f"host group {name!r}"
        _check_known(
            data,
            ("count", "device", "device_scale", "controller", "qos", "faults",
             "capacity_iops"),
            where,
        )
        scale = data.get("device_scale")
        capacity = data.get("capacity_iops")
        device = _require(data, "device", where)
        return cls(
            name=name,
            count=parse_int(_require(data, "count", where), f"{where}: count"),
            device=device if isinstance(device, str) else dict(device),
            device_scale=None if scale is None else float(scale),
            controller=str(data.get("controller", "iocost")),
            qos=dict(data["qos"]) if data.get("qos") is not None else None,
            faults=tuple(dict(f) for f in data.get("faults", ())),
            capacity_iops=None if capacity is None else float(capacity),
        )

    def to_dict(self) -> Dict[str, Any]:
        device = self.device if isinstance(self.device, str) else dict(self.device)
        out: Dict[str, Any] = {"count": self.count, "device": device}
        if self.device_scale is not None:
            out["device_scale"] = self.device_scale
        out["controller"] = self.controller
        if self.qos is not None:
            out["qos"] = dict(self.qos)
        if self.faults:
            out["faults"] = [dict(f) for f in self.faults]
        if self.capacity_iops is not None:
            out["capacity_iops"] = self.capacity_iops
        return out


@dataclass(frozen=True)
class WorkloadTemplate:
    """One container workload class, instantiated ``count`` times."""

    name: str
    count: int
    cgroup: str
    weight: int = 100
    type: str = "saturate"
    demand_iops: Optional[float] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise FleetSpecError("workload templates need a non-empty name")
        if self.count < 1:
            raise FleetSpecError(f"workload {self.name!r}: count must be >= 1")
        if not self.cgroup:
            raise FleetSpecError(f"workload {self.name!r} needs a cgroup path")
        if not MIN_WEIGHT <= self.weight <= MAX_WEIGHT:
            raise FleetSpecError(
                f"workload {self.name!r}: weight {self.weight} out of range "
                f"[{MIN_WEIGHT}, {MAX_WEIGHT}]"
            )
        try:  # at load, not once per host inside a worker
            workload_kwargs(self.type, self.params)
        except (TypeError, ValueError) as exc:
            raise FleetSpecError(f"workload {self.name!r}: {exc}") from None
        if self.demand() <= 0:
            raise FleetSpecError(
                f"workload {self.name!r} needs a positive demand_iops "
                "(defaults to 'rate' for paced workloads)"
            )

    def demand(self) -> float:
        """IOPS demand used for bin-packing (defaults to ``rate`` if paced)."""
        if self.demand_iops is not None:
            return float(self.demand_iops)
        if self.type == "paced":
            return float(self.params.get("rate", 0.0))
        return 0.0

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadTemplate":
        data = dict(data)
        name = str(_require(data, "name", "workload template"))
        demand = data.pop("demand_iops", None)
        return cls(
            name=name,
            count=parse_int(data.pop("count", 1), f"workload {name!r}: count"),
            cgroup=str(_require(data, "cgroup", f"workload {name!r}")),
            weight=parse_int(data.pop("weight", 100), f"workload {name!r}: weight"),
            type=str(data.pop("type", "saturate")),
            demand_iops=None if demand is None else float(demand),
            params={
                key: value
                for key, value in data.items()
                if key not in ("name", "cgroup")
            },
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "count": self.count,
            "cgroup": self.cgroup,
            "weight": self.weight,
            "type": self.type,
        }
        if self.demand_iops is not None:
            out["demand_iops"] = self.demand_iops
        out.update(self.params)
        return out


def task_from_config(value: Union[str, Mapping[str, Any]]) -> SystemTask:
    """Resolve a migration task: a catalogue name or an inline table."""
    if isinstance(value, str):
        try:
            return TASKS[value]
        except KeyError:
            raise FleetSpecError(
                f"unknown system task {value!r} (have {sorted(TASKS)})"
            ) from None
    if not isinstance(value, Mapping):
        raise FleetSpecError("migration task must be a name or a table")
    _check_known(
        value,
        ("name", "cgroup", "seq_write_bytes", "small_ios", "small_io_size",
         "op", "deadline"),
        "migration task",
    )
    try:
        op = io_op(value.get("op", "write"))
    except ValueError as exc:
        raise FleetSpecError(f"migration task: {exc}") from None
    return SystemTask(
        name=str(_require(value, "name", "migration task")),
        cgroup_path=str(value.get("cgroup", "system.slice")),
        seq_write_bytes=parse_int(value.get("seq_write_bytes", 0), "seq_write_bytes"),
        small_ios=parse_int(value.get("small_ios", 0), "small_ios"),
        small_io_size=parse_int(value.get("small_io_size", 4096), "small_io_size"),
        small_io_op=op,
        deadline=float(_require(value, "deadline", "migration task")),
    )


@dataclass(frozen=True)
class MigrationPlan:
    """A staged controller rollout across the fleet (paper §4.8).

    ``schedule[w]`` is the fraction of hosts running ``to_controller`` in
    week ``w``; the scheduler picks *which* hosts from a label-keyed
    migration order.  Task durations under each controller are measured by
    the :mod:`repro.workloads.fleet` backend (``samples`` machine
    simulations per (host group, controller) cell, sharded and cached like
    any other run), then the weekly failure Monte Carlo draws from them.
    """

    schedule: Tuple[float, ...]
    task: Union[str, Dict[str, Any]] = "container_cleanup"
    from_controller: str = "iolatency"
    to_controller: str = "iocost"
    tasks_per_host_week: int = 20
    samples: int = 8
    settle: float = 0.5
    iolatency: Dict[str, float] = field(default_factory=dict)
    qos: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if not self.schedule:
            raise FleetSpecError("migration needs a non-empty schedule")
        for fraction in self.schedule:
            if not 0.0 <= fraction <= 1.0:
                raise FleetSpecError(
                    f"migration fractions must be in [0, 1], got {fraction}"
                )
        if self.samples < 1:
            raise FleetSpecError("migration samples must be >= 1")
        if self.tasks_per_host_week < 1:
            raise FleetSpecError("tasks_per_host_week must be >= 1")
        if not (math.isfinite(self.settle) and self.settle >= 0):
            raise FleetSpecError(f"migration settle must be finite and >= 0, got {self.settle}")
        task_from_config(self.task)  # validate early
        _check_tables("migration", self.qos)

    def system_task(self) -> SystemTask:
        return task_from_config(self.task)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MigrationPlan":
        _check_known(
            data,
            ("schedule", "task", "from_controller", "to_controller",
             "tasks_per_host_week", "samples", "settle", "iolatency", "qos"),
            "migration",
        )
        task: Union[str, Dict[str, Any]]
        raw_task = data.get("task", "container_cleanup")
        task = raw_task if isinstance(raw_task, str) else dict(raw_task)
        return cls(
            schedule=tuple(float(f) for f in _require(data, "schedule", "migration")),
            task=task,
            from_controller=str(data.get("from_controller", "iolatency")),
            to_controller=str(data.get("to_controller", "iocost")),
            tasks_per_host_week=parse_int(data.get("tasks_per_host_week", 20), "tasks_per_host_week"),
            samples=parse_int(data.get("samples", 8), "samples"),
            settle=float(data.get("settle", 0.5)),
            iolatency={
                str(path): float(target)
                for path, target in dict(data.get("iolatency", {})).items()
            },
            qos=dict(data["qos"]) if data.get("qos") is not None else None,
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schedule": list(self.schedule),
            "task": self.task if isinstance(self.task, str) else dict(self.task),
            "from_controller": self.from_controller,
            "to_controller": self.to_controller,
            "tasks_per_host_week": self.tasks_per_host_week,
            "samples": self.samples,
            "settle": self.settle,
        }
        if self.iolatency:
            out["iolatency"] = dict(self.iolatency)
        if self.qos is not None:
            out["qos"] = dict(self.qos)
        return out


@dataclass(frozen=True)
class FleetSpec:
    """One declarative cluster: host groups + workloads (+ migration)."""

    name: str
    hosts: Tuple[HostGroup, ...]
    workloads: Tuple[WorkloadTemplate, ...] = ()
    seed: int = 0
    policy: str = "best_fit"
    capacity: str = "rated"
    duration: float = 0.25
    percentiles: Tuple[float, ...] = (50.0, 95.0, 99.0)
    migration: Optional[MigrationPlan] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise FleetSpecError("fleet spec needs a non-empty name")
        if not self.hosts:
            raise FleetSpecError("fleet spec needs at least one host group")
        if not isinstance(self.seed, int):
            raise FleetSpecError("seed must be an int")
        # Document keys (they enter fleet_hash) with one value each.
        if self.policy != "best_fit":
            raise FleetSpecError(f"unknown policy {self.policy!r} (want 'best_fit')")
        if self.capacity != "rated":
            raise FleetSpecError(f"unknown capacity mode {self.capacity!r} (want 'rated')")
        if self.duration <= 0:
            raise FleetSpecError("duration must be positive")
        for pct in self.percentiles:
            try:  # the range the hosts' own percentile enforces
                exact_percentile((0.0,), pct)
            except ValueError as exc:
                raise FleetSpecError(f"percentiles: {exc}") from None
        names = [group.name for group in self.hosts]
        if len(set(names)) != len(names):
            raise FleetSpecError(f"duplicate host group names: {names}")
        wl_names = [template.name for template in self.workloads]
        if len(set(wl_names)) != len(wl_names):
            raise FleetSpecError(f"duplicate workload names: {wl_names}")
        # Fail early if any part cannot be content-addressed.
        canonical_json(self.to_dict())

    @property
    def host_count(self) -> int:
        return sum(group.count for group in self.hosts)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetSpec":
        """Parse a document; a value that does not convert (``count =
        "many"``, ``percentiles = 5``) is malformed input like any other,
        not a bare ValueError/TypeError."""
        try:
            return cls._parse(data)
        except FleetSpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise FleetSpecError(f"malformed value in fleet spec: {exc}") from None

    @classmethod
    def _parse(cls, data: Mapping[str, Any]) -> "FleetSpec":
        if not isinstance(data, Mapping):
            raise FleetSpecError(
                f"fleet document must be a mapping, got {type(data).__name__}"
            )
        _check_known(
            data,
            ("name", "seed", "policy", "capacity", "duration", "percentiles",
             "hosts", "workloads", "migration"),
            "fleet spec",
        )
        host_table = _require(data, "hosts", "fleet spec")
        if not isinstance(host_table, Mapping) or not host_table:
            raise FleetSpecError("'hosts' must be a non-empty {name: group} table")
        groups = tuple(
            HostGroup.from_dict(str(name), group)
            for name, group in sorted(host_table.items())
        )
        workload_list = data.get("workloads", [])
        if not isinstance(workload_list, (list, tuple)):
            raise FleetSpecError("'workloads' must be a list of templates")
        templates = tuple(WorkloadTemplate.from_dict(entry) for entry in workload_list)
        migration = data.get("migration")
        return cls(
            name=str(_require(data, "name", "fleet spec")),
            hosts=groups,
            workloads=templates,
            seed=parse_int(data.get("seed", 0), "seed"),
            policy=str(data.get("policy", "best_fit")),
            capacity=str(data.get("capacity", "rated")),
            duration=float(data.get("duration", 0.25)),
            percentiles=tuple(float(p) for p in data.get("percentiles", (50, 95, 99))),
            migration=None if migration is None else MigrationPlan.from_dict(migration),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The round-trippable document form."""
        out: Dict[str, Any] = {
            "name": self.name,
            "seed": self.seed,
            "policy": self.policy,
            "capacity": self.capacity,
            "duration": self.duration,
            "percentiles": list(self.percentiles),
            "hosts": {group.name: group.to_dict() for group in self.hosts},
            "workloads": [template.to_dict() for template in self.workloads],
        }
        if self.migration is not None:
            out["migration"] = self.migration.to_dict()
        return out

    @property
    def fleet_hash(self) -> str:
        """Content hash of the whole cluster (name excluded, like sweeps)."""
        doc = self.to_dict()
        del doc["name"]
        return content_hash(doc)

    def group(self, name: str) -> HostGroup:
        for candidate in self.hosts:
            if candidate.name == name:
                return candidate
        raise FleetSpecError(f"no host group {name!r}")


def load_fleet_spec(path: Union[str, Path]) -> FleetSpec:
    """Load a fleet spec from a ``.toml`` or ``.json`` document."""
    document = load_document(path)
    try:
        return FleetSpec.from_dict(document)
    except FleetSpecError as exc:
        raise FleetSpecError(f"{path}: {exc}") from None


__all__ = [
    "FleetSpec",
    "FleetSpecError",
    "HostGroup",
    "MigrationPlan",
    "WorkloadTemplate",
    "load_fleet_spec",
    "task_from_config",
]
