"""Figure 19 — Container-cleanup failures across a region migration.

Same scheduler-driven migration as Figure 18, for the btrfs
container-cleanup task: metadata IO from ``hostcritical.slice`` under a
saturating main workload, counted as a failure when it takes longer than
5 seconds.

Paper shape: an immediate ~3x reduction in cleanup stalls as the region
moves to IOCost.
"""

import pytest

from repro.fleet.runner import run_staged_migration
from repro.workloads.fleet import CONTAINER_CLEANUP

from benchmarks.conftest import STORE, WORKERS
from benchmarks.test_fig18_package_fetch import (
    print_migration_table,
    region_spec,
)


def test_fig19_container_cleanup_failures(benchmark):
    spec = region_spec("fig19-region", "container_cleanup", seed=43)
    report = benchmark.pedantic(
        run_staged_migration, args=(spec, STORE), kwargs={"workers": WORKERS},
        rounds=1, iterations=1,
    )

    print_migration_table(
        "Figure 19: container-cleanup failures (>5s) during the migration",
        report,
    )

    first, last = report.weeks[0], report.weeks[-1]
    assert report.task == CONTAINER_CLEANUP.name
    assert first.failures > 0
    # Paper: roughly a 3x reduction in stalls.
    assert last.failures < first.failures / 2.5
    rates = [week.failure_rate for week in report.weeks]
    assert all(b <= a * 1.25 for a, b in zip(rates, rates[1:]))
