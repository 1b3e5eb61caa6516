"""Fleet-migration model for package fetching and container cleanup
(paper §4.8, Figures 18/19).

The paper reports region-wide failure-rate telemetry as hundreds of
thousands of machines migrate from IOLatency to IOCost over two months.  We
reproduce the *generating process*:

1. **Per-machine task durations are simulated, not assumed.**
   :func:`run_task_once` runs a machine-scale simulation — a heavy main
   workload in ``workload.slice`` contending with a system task (package
   fetch: a sequential package write plus metadata reads in
   ``system.slice``; container cleanup: random metadata IO in
   ``hostcritical.slice``) — and returns how long the task took under a
   given controller.

2. **Region Monte Carlo.** :func:`sample_failures` draws one cohort's
   weekly task attempts from the empirical duration distribution of the
   controller that cohort runs and counts those past the deadline.  Summed
   over (week, host group, old/new cohort) as the migration fraction ramps,
   that is the Figures 18/19 series.

This module is the *backend*.  Which hosts exist, which of them have
migrated in a given week, and how the samples are sharded over the worker
pool are :mod:`repro.fleet`'s business
(:func:`repro.fleet.runner.run_staged_migration`).

Every random draw here comes from a **label-keyed stream** rooted at the
caller's seed (:func:`rng_for`, the :meth:`repro.testbed.Testbed.rng_for`
pattern): each (week, cohort) of the Monte Carlo and each component of the
per-machine simulation owns its own ``SeedSequence`` substream, so changing
the machine count, the migration schedule, or the sample count never
perturbs draws that other consumers have already taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

from repro.block.bio import Bio, IOOp
from repro.block.device import DeviceSpec
from repro.controllers.base import IOController
from repro.sim import labeled_seed

MB = 1024 * 1024

#: Machine-to-machine variance applied to every Monte Carlo attempt.
JITTER_SIGMA = 0.35


def rng_for(label: str, entropy: int) -> np.random.Generator:
    """A dedicated generator for one named substream of ``entropy``.

    Keyed by ``label`` — not by spawn order — so a stream's draws are
    identical no matter which other streams exist (the
    :meth:`repro.testbed.Testbed.rng_for` determinism contract).
    """
    return np.random.default_rng(labeled_seed(entropy, label))


@dataclass(frozen=True)
class SystemTask:
    """A host-management task that must finish within a deadline."""

    name: str
    cgroup_path: str
    seq_write_bytes: int
    small_ios: int
    small_io_size: int
    small_io_op: IOOp
    deadline: float


#: Figure 18: fetch a package (sequential payload write + metadata reads)
#: from the system slice; failure breaks container updates.
PACKAGE_FETCH = SystemTask(
    name="package_fetch",
    cgroup_path="system.slice",
    seq_write_bytes=24 * MB,
    small_ios=400,
    small_io_size=4096,
    small_io_op=IOOp.READ,
    deadline=20.0,
)

#: Figure 19: clean up an old container's btrfs subvolume (metadata IO)
#: from the host-critical slice; > 5 s counts as a stall/failure.
CONTAINER_CLEANUP = SystemTask(
    name="container_cleanup",
    cgroup_path="hostcritical.slice",
    seq_write_bytes=0,
    small_ios=1500,
    small_io_size=4096,
    small_io_op=IOOp.WRITE,
    deadline=5.0,
)

#: The named system tasks the fleet layer's specs can reference.
TASKS: Dict[str, SystemTask] = {
    PACKAGE_FETCH.name: PACKAGE_FETCH,
    CONTAINER_CLEANUP.name: CONTAINER_CLEANUP,
}

#: Metadata IOs kept in flight at once by the system task.
META_BATCH = 8


def run_task_once(
    spec: DeviceSpec,
    controller_factory: Callable[[], IOController],
    task: SystemTask,
    workload_depth: int,
    seed: int,
    settle: float = 0.5,
) -> float:
    """Run one machine simulation; return the task's duration in seconds.

    The main workload saturates the device with mixed reads/writes at
    ``workload_depth`` outstanding IOs while the task runs in its slice.
    """
    from repro.testbed import Testbed

    bed = Testbed(device=spec, controller=controller_factory(), seed=seed)
    sim, layer = bed.sim, bed.layer
    busy = bed.add_cgroup("workload.slice/main", weight=100)
    task_group = bed.cgroups.lookup(task.cgroup_path)
    bed.saturate(busy, op=IOOp.READ, depth=workload_depth)
    bed.saturate(busy, op=IOOp.WRITE, depth=max(2, workload_depth // 2))
    bed.run(settle)

    rng = bed.rng_for("fleet:task")
    done = {"at": None}
    seq = {
        "sector": int(rng.integers(1 << 22, 1 << 23)) * 8,
        "remaining": task.seq_write_bytes,
    }
    meta = {"issued": 0, "inflight": 0}

    def issue_seq() -> None:
        # Sequential payload write, 1 MiB at a time, one chunk in flight.
        if seq["remaining"] <= 0:
            issue_meta_batch()
            return
        size = min(1 * MB, seq["remaining"])
        bio = Bio(IOOp.WRITE, size, seq["sector"], task_group)
        seq["sector"] += size // 512
        seq["remaining"] -= size
        layer.submit(bio, on_done=seq_done)

    def seq_done(bio: Bio) -> None:
        issue_seq()

    def issue_meta_batch() -> None:
        # Metadata IOs, moderately concurrent (batches of META_BATCH).
        if meta["issued"] >= task.small_ios:
            done["at"] = sim.now
            return
        batch = min(META_BATCH, task.small_ios - meta["issued"])
        meta["inflight"] = batch
        for _ in range(batch):
            sector = int(rng.integers(1, 1 << 26)) * 8
            bio = Bio(task.small_io_op, task.small_io_size, sector, task_group)
            meta["issued"] += 1
            layer.submit(bio, on_done=meta_done)

    def meta_done(bio: Bio) -> None:
        meta["inflight"] -= 1
        if meta["inflight"] == 0:
            issue_meta_batch()

    start = sim.now
    issue_seq()
    # Generous wall guard: ten deadlines in, the task has long failed, so
    # report the elapsed duration rather than simulating the stall to its end.
    while done["at"] is None and sim.now - start <= 10 * task.deadline:
        if not sim.step():
            raise RuntimeError("simulation drained before task completion")
    bed.detach()
    return (sim.now if done["at"] is None else done["at"]) - start


def sample_failures(
    label: str,
    durations: Sequence[float],
    attempts: int,
    deadline: float,
    seed: int,
) -> int:
    """Failure count (duration > ``deadline``) among ``attempts`` tasks of
    one cohort, drawn from the cohort's own ``fleet:mc:<label>`` stream.

    ``label`` names the cohort (``"week:3:group:web:new"``), so changing
    the host count or the migration schedule re-rolls exactly the cohorts
    it resizes and no others.  Each attempt resamples the measured
    ``durations`` with lognormal jitter for machine-to-machine variance.
    """
    if len(durations) == 0:
        raise ValueError("need a non-empty duration distribution")
    if attempts <= 0:
        return 0
    rng = rng_for(f"fleet:mc:{label}", seed)
    draws = rng.choice(np.asarray(durations), size=attempts)
    draws = draws * rng.lognormal(0.0, JITTER_SIGMA, size=attempts)
    return int(np.count_nonzero(draws > deadline))
