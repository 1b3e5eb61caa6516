"""Workload generators for the paper's experiments."""

from repro.workloads.base import SectorPicker, Workload
from repro.workloads.synthetic import (
    ClosedLoopWorkload,
    LatencyGovernedWorkload,
    PacedWorkload,
    ThinkTimeWorkload,
)
from repro.workloads.profiles import MixedWorkload, WORKLOAD_PROFILES, WorkloadProfile
from repro.workloads.rcbench import ResourceControlBench, WebServer
from repro.workloads.memleak import MemoryLeaker, StressWorkload
from repro.workloads.pid import LoadRamp, PIDController
from repro.workloads.zookeeper import ZooKeeperEnsemble, run_fig16
from repro.workloads.fleet import (
    CONTAINER_CLEANUP,
    PACKAGE_FETCH,
    SystemTask,
    run_task_once,
    sample_failures,
)

__all__ = [
    "CONTAINER_CLEANUP",
    "ClosedLoopWorkload",
    "LatencyGovernedWorkload",
    "LoadRamp",
    "MemoryLeaker",
    "MixedWorkload",
    "PACKAGE_FETCH",
    "PIDController",
    "PacedWorkload",
    "ResourceControlBench",
    "SectorPicker",
    "StressWorkload",
    "SystemTask",
    "ThinkTimeWorkload",
    "WORKLOAD_PROFILES",
    "WebServer",
    "Workload",
    "WorkloadProfile",
    "ZooKeeperEnsemble",
    "run_fig16",
    "run_task_once",
    "sample_failures",
]
