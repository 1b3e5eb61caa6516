"""Cluster-scale simulation: specs, scheduler, sharded execution, rollups.

The fleet layer turns the one-machine simulator into the paper's §4.8
setting — hundreds of hosts, placed best-fit and migrated in stages, run
through the :mod:`repro.exp` fork pool with content-addressed caching,
and rolled up into fleet-wide percentile dashboards.  It is a spec, a
scheduler and a rollup in front of :mod:`repro.exp`: the machine builder,
the runner, the report writer and the CLI skeleton are that package's.
See docs/FLEET.md.

Import surface (kept light — worker processes import submodules lazily):

* :mod:`repro.fleet.spec` — declarative cluster specs (TOML/JSON);
* :mod:`repro.fleet.scheduler` — best-fit placement on rated capacity,
  the staged IOLatency→IOCost rollout;
* :mod:`repro.fleet.experiments` — the per-host / per-sample experiment
  kinds (both named by dotted path);
* :mod:`repro.fleet.runner` — the placement plan (``placed``), sharded
  execution + Figures 18/19 driver;
* :mod:`repro.fleet.rollup` — p99-of-p99 vs pooled-percentile rollups;
* :mod:`repro.fleet.cli` — ``python -m repro.fleet`` (run/status/rollup/
  migrate).
"""

from repro.fleet.spec import (
    FleetSpec,
    FleetSpecError,
    HostGroup,
    MigrationPlan,
    WorkloadTemplate,
    load_fleet_spec,
)

__all__ = [
    "FleetSpec",
    "FleetSpecError",
    "HostGroup",
    "MigrationPlan",
    "WorkloadTemplate",
    "load_fleet_spec",
]
