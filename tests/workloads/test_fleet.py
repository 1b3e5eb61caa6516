"""Tests for the fleet-migration model."""

import pytest

from repro.block.device import DeviceSpec
from repro.controllers.iolatency import IOLatencyController
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.qos import QoSParams
from repro.workloads.fleet import (
    CONTAINER_CLEANUP,
    PACKAGE_FETCH,
    run_task_once,
    sample_failures,
)

FLEET_SPEC = DeviceSpec(
    name="fleetdev",
    parallelism=4,
    srv_rand_read=100e-6,
    srv_seq_read=100e-6,
    srv_rand_write=100e-6,
    srv_seq_write=100e-6,
    read_bw=500e6,
    write_bw=500e6,
    sigma=0.1,
    nr_slots=64,
)


def iocost_factory():
    return IOCost(
        LinearCostModel(ModelParams.from_device_spec(FLEET_SPEC)),
        qos=QoSParams(read_lat_target=5e-3, read_pct=90, period=0.05),
    )


def iolatency_factory():
    # Tuned the way production was: protect the main workload's latency
    # aggressively; system/hostcritical slices are unprotected and get
    # their queue depth crushed whenever the workload misses its target.
    return IOLatencyController({"workload.slice/main": 0.5e-3})


class TestRunTaskOnce:
    def test_task_completes_under_iocost(self):
        duration = run_task_once(
            FLEET_SPEC, iocost_factory, CONTAINER_CLEANUP, workload_depth=32, seed=1
        )
        assert 0 < duration < CONTAINER_CLEANUP.deadline

    def test_iolatency_starves_system_task(self):
        ours = run_task_once(
            FLEET_SPEC, iocost_factory, CONTAINER_CLEANUP, workload_depth=32, seed=1
        )
        theirs = run_task_once(
            FLEET_SPEC, iolatency_factory, CONTAINER_CLEANUP, workload_depth=32, seed=1
        )
        assert theirs > 2 * ours

    def test_package_fetch_runs(self):
        duration = run_task_once(
            FLEET_SPEC, iocost_factory, PACKAGE_FETCH, workload_depth=16, seed=2
        )
        assert duration > 0


class TestFleetMigration:
    """The region Monte Carlo, one cohort at a time (``sample_failures``);
    the week-rate arithmetic on top is tests/fleet/test_migration.py's."""

    def test_failures_fall_with_migration(self):
        # Old stack durations straddle the deadline; new stack is fast.
        old = [3.0, 6.0, 8.0, 4.5, 7.0, 5.5]
        new = [0.5, 0.8, 1.2, 0.6, 0.9, 0.7]
        machines, per_week = 500, 20
        failures = []
        for week, fraction in enumerate([0.0, 0.25, 0.5, 0.75, 1.0]):
            migrated = int(machines * fraction)
            failures.append(
                sample_failures(
                    f"week:{week}:old", old, (machines - migrated) * per_week,
                    deadline=5.0, seed=3,
                )
                + sample_failures(
                    f"week:{week}:new", new, migrated * per_week,
                    deadline=5.0, seed=3,
                )
            )
        assert failures[0] > 0
        assert failures[-1] < failures[0] / 3
        # Failures should be (weakly) monotone decreasing.
        assert all(b <= a * 1.2 for a, b in zip(failures, failures[1:]))

    def test_empty_distributions_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sample_failures("week:0:old", [], 10, deadline=1.0, seed=0)

    def test_zero_attempts_draw_nothing(self):
        assert sample_failures("week:0:new", [9.0], 0, deadline=1.0, seed=0) == 0
