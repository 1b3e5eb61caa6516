"""Experiment kinds for the fleet layer.

Three kinds, all plain ``fn(params, seed) -> result`` functions (the
:mod:`repro.exp` contract) so the fork pool can run them by dotted path
(``"repro.fleet.experiments.run_fleet_host"``) without pre-registration:

* ``run_fleet_host`` — **one host simulation**: the scheduler's per-host
  placement (cgroups + workload instances) run on that host's device and
  controller, reporting per-cgroup throughput/latency percentiles, the
  recursive ``io.stat`` snapshot, per-cgroup device-latency histograms
  (shipped via :meth:`repro.obs.metrics.Histogram.to_dict` so the fleet
  rollup can :meth:`~repro.obs.metrics.Histogram.merge` them), and the
  controller's mean vrate.
* ``run_fleet_task_durations`` — **one Figures 18/19 sample**: a machine
  simulation measuring how long a system task takes under a given
  controller (the :func:`repro.workloads.fleet.run_task_once` backend),
  sharded one sample per run so the pool parallelises and caches the
  expensive cells individually.
* ``run_fleet`` (registered as kind ``"fleet"``) — a whole fleet inline:
  schedule, simulate every host in-process, roll up.  This is the nestable
  form — a ``repro.exp`` sweep can grid over fleet seeds/policies — and it
  reuses the sharded path's per-host seed derivation, so its per-host
  results are identical to a pooled run of the same spec.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.controllers.base import IOController
from repro.controllers.iolatency import IOLatencyController
from repro.core.qos import QoSParams
from repro.exp.experiments import (
    ExperimentError,
    attach_workload,
    experiment,
    qos_from,
)
from repro.exp.grid import expand
from repro.faults import plan_from_config
from repro.fleet.scheduler import FleetScheduler, group_capacities
from repro.fleet.spec import FleetSpec, device_spec_for, task_from_config
from repro.obs.metrics import Histogram
from repro.obs.trace import TRACE
from repro.testbed import Testbed, make_controller
from repro.workloads.fleet import rng_for, run_task_once

#: Bucket resolution of the per-cgroup latency histograms.  Fixed so every
#: host's histograms are mergeable fleet-wide (Histogram.merge requires it).
HIST_RESOLUTION = 0.02


def _idle_result(host: Mapping[str, Any], duration: float) -> Dict[str, Any]:
    return {
        "host": str(host.get("id", "")),
        "group": str(host.get("group", "")),
        "controller": str(host.get("controller", "iocost")),
        "duration": duration,
        "cgroups": {},
        "iostat": {},
        "latency_hist": {},
        "vrate_mean": None,
        "events_processed": 0,
    }


def run_fleet_host(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Simulate one fleet host: its placements on its device + controller.

    ``params["host"]`` (or ``params`` itself) is the host config the fleet
    runner generates::

        id, group              provenance (also salt the per-host seed)
        device, device_scale   catalogue name or inline DeviceSpec table
        controller             Table 1 name
        qos                    QoSParams fields (optional)
        faults                 repro.faults fault tables (optional)
        cgroups                {path: weight} from the placements
        workloads              [{cgroup, type, ...}] workload tables
        duration, percentiles  measurement window / reported percentiles
    """
    host = params.get("host", params)
    if not isinstance(host, Mapping):
        raise ExperimentError("fleet host params must be a mapping")
    duration = float(host.get("duration", 0.25))
    cgroup_table = host.get("cgroups") or {}
    workload_table = host.get("workloads") or []
    if not cgroup_table or not workload_table:
        # An idle host: nothing placed here.  Cheap and explicit.
        return _idle_result(host, duration)

    device = device_spec_for(host["device"], host.get("device_scale"))
    fault_tables = host.get("faults")
    bed = Testbed(
        device=device,
        controller=str(host.get("controller", "iocost")),
        seed=seed,
        qos=qos_from(host),
        faults=plan_from_config(fault_tables) if fault_tables else None,
    )
    groups = {
        path: bed.add_cgroup(path, weight=int(weight))
        for path, weight in cgroup_table.items()
    }
    for entry in workload_table:
        attach_workload(bed, groups, dict(entry), duration)

    hists = {
        path: Histogram(path, resolution=HIST_RESOLUTION) for path in groups
    }

    def on_complete(event: Any) -> None:
        fields = event.fields
        if fields["op"] != "read":
            return
        hist = hists.get(fields["cgroup"])
        if hist is not None:
            hist.record(float(fields["device_latency"]))

    subscription = TRACE.subscribe(on_complete, events=("bio_complete",))
    try:
        bed.run(duration)
    finally:
        subscription.close()
        bed.detach()

    percentiles = [float(p) for p in host.get("percentiles", [50, 95, 99])]
    cgroup_results: Dict[str, Any] = {}
    for path, group in groups.items():
        latencies: Dict[str, Optional[float]] = {}
        for pct in percentiles:
            value = bed.latency_percentile(group, pct)
            latencies[f"read_p{pct:g}"] = None if value is None else float(value)
        cgroup_results[path] = {"iops": float(bed.iops(group)), **latencies}

    from repro.obs.iostat import IOStat

    iostat = IOStat(bed.cgroups, controller=bed.controller).snapshot()

    vrate_mean: Optional[float] = None
    vrate_ctl = getattr(bed.controller, "vrate_ctl", None)
    if vrate_ctl is not None:
        values = vrate_ctl.vrate_series.slice(0.0, bed.sim.now)
        if values:
            vrate_mean = float(sum(values) / len(values))

    return {
        "host": str(host.get("id", "")),
        "group": str(host.get("group", "")),
        "controller": str(host.get("controller", "iocost")),
        "duration": duration,
        "cgroups": cgroup_results,
        "iostat": {
            path: {key: float(value) for key, value in entry.items()}
            for path, entry in iostat.items()
        },
        "latency_hist": {path: hist.to_dict() for path, hist in hists.items()},
        "vrate_mean": vrate_mean,
        "events_processed": int(bed.sim.events_processed),
    }


def _task_controller_factory(
    cell: Mapping[str, Any], device: Any
) -> Callable[[], IOController]:
    """Controller factory for a Figures 18/19 duration cell.

    Defaults mirror the paper's production tunings: IOCost with a relaxed
    5 ms p90 read target; IOLatency protecting the main workload at 0.5 ms
    with the system slices unprotected (which is exactly what starves
    them).
    """
    name = str(cell.get("controller", "iocost"))
    if name == "iolatency":
        targets = {
            str(path): float(target)
            for path, target in (
                cell.get("iolatency") or {"workload.slice/main": 0.5e-3}
            ).items()
        }
        return lambda: IOLatencyController(targets)
    qos = qos_from(cell)
    if name == "iocost" and qos is None:
        qos = QoSParams(read_lat_target=5e-3, read_pct=90, period=0.05)
    return lambda: make_controller(name, device, qos=qos)


def run_fleet_task_durations(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Measure one system-task duration sample (Figures 18/19 backend).

    One cell = one (host group, controller, sample index) machine
    simulation, so the pool shards and caches the expensive simulations
    individually.  Streams are labeled per sample exactly like
    :func:`repro.workloads.fleet.measure_task_durations`.
    """
    cell = params.get("cell", params)
    if not isinstance(cell, Mapping):
        raise ExperimentError("fleet duration params must be a mapping")
    device = device_spec_for(cell["device"], cell.get("device_scale"))
    task = task_from_config(cell.get("task", "container_cleanup"))
    sample = int(cell.get("sample", 0))
    depth = int(rng_for(f"fleet:depth:{sample}", seed).integers(8, 64))
    run_seed = int(rng_for(f"fleet:sample:{sample}", seed).integers(1 << 62))
    duration_sec = run_task_once(
        device,
        _task_controller_factory(cell, device),
        task,
        workload_depth=depth,
        seed=run_seed,
        settle=float(cell.get("settle", 0.5)),
    )
    return {
        "group": str(cell.get("group", "")),
        "controller": str(cell.get("controller", "iocost")),
        "sample": sample,
        "task": task.name,
        "deadline": float(task.deadline),
        "workload_depth": depth,
        "duration_sec": float(duration_sec),
    }


@experiment("fleet")
def run_fleet(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A whole fleet as one experiment cell: schedule, simulate, roll up.

    ``params["fleet"]`` is a fleet spec document
    (:meth:`repro.fleet.spec.FleetSpec.from_dict` shape); ``params["seed"]``
    (default: the cell seed) overrides the document seed so sweeps can grid
    over fleet seeds.  Hosts run serially in-process — use
    :func:`repro.fleet.runner.run_fleet_sweep` for the pooled form; both
    derive per-host seeds identically, so per-host results match
    byte-for-byte.
    """
    document = params.get("fleet")
    if not isinstance(document, Mapping):
        raise ExperimentError("fleet params need a 'fleet' spec document")
    document = dict(document)
    document["seed"] = int(params.get("seed", document.get("seed", seed)))
    spec = FleetSpec.from_dict(document)

    from repro.fleet.rollup import fleet_rollup
    from repro.fleet.runner import fleet_sweep_spec

    scheduler = FleetScheduler(spec, group_capacities(spec))
    scheduler.place()
    results: Dict[str, Dict[str, Any]] = {}
    for run in expand(fleet_sweep_spec(spec, scheduler)):
        result = run_fleet_host(run.params, run.derived_seed)
        results[result["host"]] = result
    plan = scheduler.plan()
    return {
        "fleet": spec.name,
        "fleet_hash": spec.fleet_hash,
        "hosts": len(plan["hosts"]),
        "plan": plan,
        "rollup": fleet_rollup(plan, results, spec.percentiles),
    }


__all__ = [
    "HIST_RESOLUTION",
    "run_fleet",
    "run_fleet_host",
    "run_fleet_task_durations",
]
