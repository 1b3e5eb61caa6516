"""Figure 18 — Package-fetching failures across a region migration.

A 3000-host region migrates from IOLatency to IOCost over eight weeks,
driven through the fleet scheduler (`docs/FLEET.md`): per-controller task
durations are measured by sharded, content-addressed machine simulations
(`repro.fleet.experiments.run_fleet_task_durations`), the scheduler's
label-keyed migration order decides *which* hosts flip each week, and the
weekly failure Monte Carlo draws every (week, cohort) from its own
labeled substream.  Package fetches (a sequential package write plus
metadata reads in ``system.slice``, under a saturating main workload)
fail when they exceed their deadline.

Paper shape: roughly 10x fewer package-fetching errors once the region is
fully on IOCost.
"""

import pytest

from repro.analysis.report import Table
from repro.fleet.runner import run_staged_migration
from repro.fleet.spec import FleetSpec
from repro.workloads.fleet import PACKAGE_FETCH

from benchmarks.conftest import STORE, WORKERS

#: The fleet device as an inline spec table, so it rides through the
#: content-addressed duration cells like any other parameter.
FLEETDEV = {
    "parallelism": 4,
    "srv_rand_read": 100e-6,
    "srv_seq_read": 100e-6,
    "srv_rand_write": 100e-6,
    "srv_seq_write": 100e-6,
    "read_bw": 500e6,
    "write_bw": 500e6,
    "sigma": 0.1,
    "nr_slots": 64,
}

# Fraction of the region on IOCost per week (two-month staged rollout).
MIGRATION_SCHEDULE = [0.0, 0.05, 0.15, 0.3, 0.5, 0.7, 0.9, 1.0]


def region_spec(name, task, seed):
    """A one-group 3000-host region with the staged rollout attached."""
    return FleetSpec.from_dict({
        "name": name,
        "seed": seed,
        "capacity": "rated",
        "hosts": {"region": {"count": 3000, "device": dict(FLEETDEV)}},
        "workloads": [],
        "migration": {
            "schedule": list(MIGRATION_SCHEDULE),
            "task": task,
            "samples": 10,
            "tasks_per_host_week": 10,
            "settle": 0.5,
        },
    })


def print_migration_table(title, report):
    table = Table(
        title, ["week", "on iocost", "attempts", "failures", "rate"],
    )
    for week in report.weeks:
        table.add_row(
            week.week,
            f"{week.scheduled_fraction:.0%}",
            week.attempts,
            week.failures,
            f"{week.failure_rate:.2%}",
        )
    table.print()
    old = sorted(report.durations[f"region:{report.from_controller}"])
    new = sorted(report.durations[f"region:{report.to_controller}"])
    print(
        f"task duration medians: {report.from_controller}={old[len(old) // 2]:.1f}s "
        f"{report.to_controller}={new[len(new) // 2]:.1f}s "
        f"(deadline {report.deadline:g}s)"
    )


def test_fig18_package_fetch_failures(benchmark):
    spec = region_spec("fig18-region", "package_fetch", seed=42)
    report = benchmark.pedantic(
        run_staged_migration, args=(spec, STORE), kwargs={"workers": WORKERS},
        rounds=1, iterations=1,
    )

    print_migration_table(
        "Figure 18: package-fetching failures during IOLatency -> IOCost migration",
        report,
    )

    first, last = report.weeks[0], report.weeks[-1]
    assert report.task == PACKAGE_FETCH.name
    assert first.failures > 0
    # Roughly an order of magnitude fewer failures after full migration.
    assert last.failures < first.failures / 5
    # Monotone-ish decline as the migration ramps.
    rates = [week.failure_rate for week in report.weeks]
    assert all(b <= a * 1.25 for a, b in zip(rates, rates[1:]))
