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
* ``run_fleet`` — a whole fleet inline: schedule, simulate every host
  in-process, roll up.  This is the nestable form — a ``repro.exp`` sweep
  names it by dotted path like the other two
  (``kind = "repro.fleet.experiments.run_fleet"``) and grids over fleet
  seeds/policies — and it plans through the sharded path's
  :func:`repro.fleet.runner.placed` and per-host seed derivation, so its
  per-host results are identical to a pooled run of the same spec.

A fleet host is a ``testbed`` cell: ``run_fleet_host`` builds its machine
with :func:`repro.exp.experiments.build_machine` and reports its cgroups
with :func:`~repro.exp.experiments.cgroup_report`, adding only what the
rollup needs on top (histograms, ``io.stat``, vrate).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

from repro.controllers.base import IOController
from repro.controllers.iolatency import IOLatencyController
from repro.core.qos import QoSParams
from repro.exp.experiments import (
    ExperimentError,
    build_machine,
    cgroup_report,
    device_spec_for,
    qos_from,
)
from repro.exp.grid import expand
from repro.fleet.rollup import fleet_rollup
from repro.fleet.runner import fleet_sweep_spec, placed
from repro.fleet.spec import FleetSpec, task_from_config
from repro.obs.iostat import IOStat
from repro.obs.metrics import Histogram
from repro.obs.trace import TRACE
from repro.testbed import make_controller
from repro.workloads.fleet import rng_for, run_task_once

#: Bucket resolution of the per-cgroup latency histograms.  Fixed so every
#: host's histograms are mergeable fleet-wide (Histogram.merge requires it).
HIST_RESOLUTION = 0.02


def run_fleet_host(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Simulate one fleet host: its placements on its device + controller.

    ``params["host"]`` (or ``params`` itself) is the host config the fleet
    runner generates — a :func:`repro.exp.experiments.build_machine` param
    table plus provenance::

        id, group              provenance (also salt the per-host seed)
        device, device_scale   catalogue name or inline DeviceSpec table
        controller             Table 1 name
        qos                    QoSParams fields (optional)
        faults                 repro.faults fault tables (optional)
        cgroups                {path: weight} from the placements
        workloads              [{cgroup, type, ...}] workload tables
        duration, percentiles  measurement window / reported percentiles

    The result is the ``testbed`` kind's ``cgroups`` / ``events_processed``
    for the same tables and seed, plus its device's recursive ``io.stat``
    entries, the mergeable per-cgroup read-latency histograms and the mean
    vrate.
    """
    host = params.get("host", params)
    if not isinstance(host, Mapping):
        raise ExperimentError("fleet host params must be a mapping")
    duration = float(host.get("duration", 0.25))
    result: Dict[str, Any] = {
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
    if not host.get("cgroups") or not host.get("workloads"):
        return result  # an idle host: nothing placed here, nothing to run

    bed, groups, _ = build_machine({**host, "duration": duration}, seed)
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

    dev = bed.layer.dev
    iostat = IOStat(bed.cgroups, {dev: bed.controller}).device_snapshot()
    result.update(
        cgroups=cgroup_report(bed, groups, host),
        iostat={
            path: {key: float(value) for key, value in devices[dev].items()}
            for path, devices in iostat.items()
        },
        latency_hist={path: hist.to_dict() for path, hist in hists.items()},
        events_processed=int(bed.sim.events_processed),
    )
    vrate_ctl = getattr(bed.controller, "vrate_ctl", None)
    if vrate_ctl is not None:
        values = vrate_ctl.vrate_series.slice(0.0, bed.sim.now)
        if values:
            result["vrate_mean"] = float(sum(values) / len(values))
    return result


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
    individually.  Each sample owns two labeled substreams — one for its
    workload depth, one seeding its machine simulation — so raising
    ``samples`` extends the distribution without re-rolling earlier ones.
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


def run_fleet(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A whole fleet as one experiment cell: schedule, simulate, roll up.

    ``params["fleet"]`` is a fleet spec document
    (:meth:`repro.fleet.spec.FleetSpec.from_dict` shape); ``params["seed"]``
    (default: the cell seed) overrides the document seed so sweeps can grid
    over fleet seeds.  Hosts run serially in-process — use
    :func:`repro.fleet.runner.run_fleet_sweep` for the pooled form; both
    plan through :func:`repro.fleet.runner.placed` and derive per-host
    seeds identically, so per-host results match byte-for-byte.
    """
    document = params.get("fleet")
    if not isinstance(document, Mapping):
        raise ExperimentError("fleet params need a 'fleet' spec document")
    document = dict(document)
    document["seed"] = int(params.get("seed", document.get("seed", seed)))
    spec = FleetSpec.from_dict(document)

    scheduler = placed(spec)
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
