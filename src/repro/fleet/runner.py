"""Fleet execution: shard host simulations across the repro.exp pool.

The fleet layer does not grow its own executor.  A fleet run is compiled
into an ordinary :class:`repro.exp.spec.ExperimentSpec` — one zip-axis
cell per host, the kind given by dotted path so any worker process can
resolve it — and handed to :func:`repro.exp.runner.run_sweep`.  Everything
the sweep runner guarantees is therefore inherited wholesale:

* **content-addressed caching** — a host cell's hash covers its device,
  controller, placements and seed, so re-running a fleet after editing one
  host group re-simulates only that group's hosts (unchanged hosts are
  cache hits);
* **per-host deterministic seeds** — each host's RNG entropy derives from
  its cell content (:attr:`repro.exp.grid.RunSpec.derived_seed`), never
  from scheduling;
* **worker-count independence** — a host's stored result bytes, and
  therefore rollup bytes, are identical for 1 worker and 8.

:func:`placed` is the one place a spec becomes a placement (rated
capacity, best-fit packing); :func:`run_fleet_sweep` and the CLI's
``status`` / ``rollup`` both plan through it, so they agree on every host's
content hash.

:func:`run_staged_migration` drives the Figures 18/19 reproduction the
same way: the per-(group, controller, sample) task-duration simulations
are sharded through the pool, then each week's failures are drawn by
:func:`repro.workloads.fleet.sample_failures` from label-keyed streams,
with the scheduler's staged rollout deciding how many hosts of each group
sit in the old and the new cohort.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.exp.runner import Clock, RunnerError, SweepReport, run_sweep
from repro.exp.spec import ExperimentSpec
from repro.exp.store import ArtifactStore
from repro.fleet.rollup import fleet_rollup
from repro.fleet.scheduler import FleetScheduler, group_capacities
from repro.fleet.spec import FleetSpec, MigrationPlan
from repro.workloads.fleet import sample_failures

#: Dotted-path kinds: resolvable in any worker without pre-registration.
HOST_KIND = "repro.fleet.experiments.run_fleet_host"
TASK_KIND = "repro.fleet.experiments.run_fleet_task_durations"


class FleetRunnerError(RunnerError):
    """Raised for unrunnable fleet configurations."""


def placed(spec: FleetSpec) -> FleetScheduler:
    """The fleet, placed."""
    scheduler = FleetScheduler(spec, group_capacities(spec))
    scheduler.place()
    return scheduler


def host_params(spec: FleetSpec, scheduler: FleetScheduler) -> List[Dict[str, Any]]:
    """One self-contained param dict per host, in host-ordinal order.

    Each dict fully determines its host's simulation — the content hash
    and derived seed digest it — and carries the host id, so two
    otherwise-identical hosts still get distinct seeds (per-host variance,
    as in a real fleet).
    """
    groups = {group.name: group for group in spec.hosts}
    templates = {template.name: template for template in spec.workloads}
    params: List[Dict[str, Any]] = []
    for host in scheduler.hosts:
        group = groups[host.group]
        entry: Dict[str, Any] = {
            "id": host.id,
            "group": host.group,
            "device": group.device,
            "controller": group.controller,
            "duration": spec.duration,
            "percentiles": list(spec.percentiles),
            "cgroups": {p.cgroup: p.weight for p in host.placements},
            "workloads": [
                {
                    "cgroup": p.cgroup,
                    "type": templates[p.workload].type,
                    **templates[p.workload].params,
                }
                for p in host.placements
            ],
        }
        if group.device_scale is not None:
            entry["device_scale"] = group.device_scale
        if group.qos is not None:
            entry["qos"] = dict(group.qos)
        if group.faults:
            entry["faults"] = [dict(f) for f in group.faults]
        params.append(entry)
    return params


def fleet_sweep_spec(
    spec: FleetSpec,
    scheduler: FleetScheduler,
    controllers: Optional[Dict[str, str]] = None,
) -> ExperimentSpec:
    """Compile a placed fleet into a one-cell-per-host experiment sweep.

    ``controllers`` optionally overrides the per-host controller — this is
    how the staged-migration policy runs a mixed fleet (some hosts on the
    old stack, some on the new) through the same pipeline.
    """
    hosts = host_params(spec, scheduler)
    if controllers is not None:
        for entry in hosts:
            override = controllers.get(entry["id"])
            if override is not None:
                entry["controller"] = override
    return ExperimentSpec(
        name=f"{spec.name}:hosts",
        kind=HOST_KIND,
        base={},
        zip_axes={"host": tuple(hosts)},
        seed=spec.seed,
    )


@dataclass
class FleetReport:
    """One fleet run: the placement plan, the sweep, and the rollup."""

    fleet: str
    fleet_hash: str
    plan: Dict[str, Any]
    sweep: SweepReport
    rollup: Dict[str, Any]
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def hosts_total(self) -> int:
        return len(self.plan.get("hosts", {}))


def run_fleet_sweep(
    spec: FleetSpec,
    store: Union[ArtifactStore, str, Path],
    workers: int = 1,
    clock: Optional[Clock] = None,
    force: bool = False,
    retries: int = 1,
    timeout_sec: Optional[float] = None,
) -> FleetReport:
    """Place the fleet (:func:`placed`), shard host simulations over the
    pool, roll up."""
    scheduler = placed(spec)
    sweep = run_sweep(
        fleet_sweep_spec(spec, scheduler),
        store,
        workers=workers,
        clock=clock,
        force=force,
        retries=retries,
        timeout_sec=timeout_sec,
    )
    results = {
        str(outcome.run.params["host"]["id"]): outcome.result
        for outcome in sweep.outcomes
        if outcome.ok and outcome.result is not None
    }
    plan = scheduler.plan()
    return FleetReport(
        fleet=spec.name,
        fleet_hash=spec.fleet_hash,
        plan=plan,
        sweep=sweep,
        rollup=fleet_rollup(plan, results, spec.percentiles),
        results=results,
    )


# -- the staged migration policy (Figures 18/19) ------------------------------


@dataclass
class MigrationWeek:
    """One week of the staged rollout: who migrated, what failed."""

    week: int
    scheduled_fraction: float
    migrated_hosts: int
    attempts: int
    failures: int

    @property
    def failure_rate(self) -> float:
        return self.failures / self.attempts if self.attempts else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "failure_rate": self.failure_rate}


@dataclass
class MigrationReport:
    """The Figures 18/19 reproduction: durations + weekly failure curve."""

    fleet: str
    task: str
    deadline: float
    from_controller: str
    to_controller: str
    durations: Dict[str, List[float]]
    weeks: List[MigrationWeek]
    sweep: SweepReport

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.fleet.migration/1",
            "fleet": self.fleet,
            "task": self.task,
            "deadline": self.deadline,
            "from_controller": self.from_controller,
            "to_controller": self.to_controller,
            "durations": {key: list(values) for key, values in self.durations.items()},
            "weeks": [week.to_dict() for week in self.weeks],
        }


def duration_cells(spec: FleetSpec, plan: MigrationPlan) -> List[Dict[str, Any]]:
    """One sweep cell per (host group, controller, sample index)."""
    cells: List[Dict[str, Any]] = []
    for group in spec.hosts:
        for controller in (plan.from_controller, plan.to_controller):
            for sample in range(plan.samples):
                cell: Dict[str, Any] = {
                    "id": f"{group.name}:{controller}:{sample}",
                    "group": group.name,
                    "device": group.device,
                    "controller": controller,
                    "task": (
                        plan.task
                        if isinstance(plan.task, str)
                        else dict(plan.task)
                    ),
                    "sample": sample,
                    "settle": plan.settle,
                }
                if group.device_scale is not None:
                    cell["device_scale"] = group.device_scale
                if plan.iolatency and controller == "iolatency":
                    cell["iolatency"] = dict(plan.iolatency)
                if plan.qos is not None and controller == "iocost":
                    cell["qos"] = dict(plan.qos)
                cells.append(cell)
    return cells


def run_staged_migration(
    spec: FleetSpec,
    store: Union[ArtifactStore, str, Path],
    workers: int = 1,
    clock: Optional[Clock] = None,
    force: bool = False,
    retries: int = 1,
    timeout_sec: Optional[float] = None,
) -> MigrationReport:
    """Reproduce Figures 18/19 through the scheduler's rollout policy.

    Per-(group, controller) task-duration distributions are measured by
    sharded, cached machine simulations; the scheduler's label-keyed
    migration order decides **which** hosts are on the new stack each
    week; the weekly failure Monte Carlo draws every (week, group, cohort)
    from its own labeled substream.
    """
    plan = spec.migration
    if plan is None:
        raise FleetRunnerError(
            f"fleet spec {spec.name!r} has no [migration] section"
        )
    task = plan.system_task()
    sweep_spec = ExperimentSpec(
        name=f"{spec.name}:durations",
        kind=TASK_KIND,
        base={},
        zip_axes={"cell": tuple(duration_cells(spec, plan))},
        seed=spec.seed,
    )
    sweep = run_sweep(
        sweep_spec,
        store,
        workers=workers,
        clock=clock,
        force=force,
        retries=retries,
        timeout_sec=timeout_sec,
    )
    durations: Dict[str, List[float]] = {}
    for outcome in sweep.outcomes:
        if not outcome.ok or outcome.result is None:
            cell = outcome.run.params["cell"]
            raise FleetRunnerError(
                f"duration cell {cell['id']!r} failed: {outcome.error}"
            )
        result = outcome.result
        key = f"{result['group']}:{result['controller']}"
        durations.setdefault(key, []).append(float(result["duration_sec"]))

    # Plans without placing: the rollout order needs the host list only.
    scheduler = FleetScheduler(spec, group_capacities(spec))
    group_of = {host.id: host.group for host in scheduler.hosts}
    per_week = plan.tasks_per_host_week
    weeks: List[MigrationWeek] = []
    for week, fraction in enumerate(plan.schedule):
        assignment = scheduler.staged_controllers(
            fraction, plan.from_controller, plan.to_controller
        )
        on_new = Counter(
            group_of[host_id]
            for host_id, controller in assignment.items()
            if controller == plan.to_controller
        )
        failures = 0
        for group in spec.hosts:
            cohorts = (
                ("old", plan.from_controller, group.count - on_new[group.name]),
                ("new", plan.to_controller, on_new[group.name]),
            )
            for cohort, controller, hosts in cohorts:
                failures += sample_failures(
                    f"week:{week}:group:{group.name}:{cohort}",
                    durations[f"{group.name}:{controller}"],
                    hosts * per_week,
                    task.deadline,
                    spec.seed,
                )
        weeks.append(
            MigrationWeek(
                week=week,
                scheduled_fraction=float(fraction),
                migrated_hosts=sum(on_new.values()),
                attempts=spec.host_count * per_week,
                failures=failures,
            )
        )
    return MigrationReport(
        fleet=spec.name,
        task=task.name,
        deadline=float(task.deadline),
        from_controller=plan.from_controller,
        to_controller=plan.to_controller,
        durations=durations,
        weeks=weeks,
        sweep=sweep,
    )


__all__ = [
    "FleetReport",
    "FleetRunnerError",
    "HOST_KIND",
    "MigrationReport",
    "MigrationWeek",
    "TASK_KIND",
    "duration_cells",
    "fleet_sweep_spec",
    "host_params",
    "placed",
    "run_fleet_sweep",
    "run_staged_migration",
]
