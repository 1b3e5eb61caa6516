"""Stacked ZooKeeper-like ensembles (paper §4.6, Figure 16).

A strongly-consistent coordination service: every write is replicated to an
ensemble of participants spread across machines and commits when a quorum
has journaled it; a snapshot of the in-memory database is written after
every ``snapshot_every`` transactions, producing momentary write spikes
"even under nominal loads".  Reads are served by a single participant with
a small storage access (the page-cache-miss/metadata share of read
handling — the part exposed to IO contention).

The experiment stacks twelve ensembles of five participants over five
machines (no two participants of one ensemble co-hosted), eleven
well-behaved (100 KB payloads) and one noisy neighbour (300 KB), and counts
violations of a one-second P99 SLO for the well-behaved ensembles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.block.bio import Bio, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree, make_meta_hierarchy
from repro.controllers.base import IOController
from repro.obs.metrics import exact_percentile
from repro.sim import Simulator


class Machine:
    """One host: a device, a controller instance, and a cgroup hierarchy."""

    def __init__(
        self,
        sim: Simulator,
        spec: DeviceSpec,
        controller_factory: Callable[[], IOController],
        name: str,
        seed: int = 0,
    ):
        self.sim = sim
        self.name = name
        self.device = Device(sim, spec, np.random.default_rng(seed))
        self.controller = controller_factory()
        self.layer = BlockLayer(sim, self.device, self.controller)
        self.cgroups = make_meta_hierarchy()


@dataclass
class OpRecord:
    time: float
    latency: float
    is_write: bool


class ZooKeeperEnsemble:
    """One replicated ensemble spread over ``machines``."""

    def __init__(
        self,
        sim: Simulator,
        machines: List[Machine],
        name: str,
        read_rps: float,
        write_rps: float,
        payload: int,
        snapshot_every: int = 5000,
        snapshot_bytes: int = 64 * 1024 * 1024,
        snapshot_chunk: int = 1 << 20,
        quorum: Optional[int] = None,
        weight: int = 100,
        stop_at: Optional[float] = None,
        seed: int = 0,
    ):
        self.sim = sim
        self.machines = machines
        self.name = name
        self.read_rps = read_rps
        self.write_rps = write_rps
        self.payload = payload
        self.snapshot_every = snapshot_every
        self.snapshot_bytes = snapshot_bytes
        self.snapshot_chunk = snapshot_chunk
        self.quorum = quorum or (len(machines) // 2 + 1)
        self.stop_at = stop_at
        self.rng = np.random.default_rng(seed)
        self.ops: List[OpRecord] = []
        self.txn_count = 0
        self.snapshots_taken = 0
        self.running = False
        # One cgroup per participant, under the workload slice of its host.
        self.cgroups = [
            machine.cgroups.get_or_create(f"workload.slice/{name}", weight=weight)
            for machine in machines
        ]
        self._journal_sectors = [int(self.rng.integers(0, 1 << 24)) * 8 for _ in machines]

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ZooKeeperEnsemble":
        self.running = True
        if self.read_rps > 0:
            self.sim.schedule(float(self.rng.exponential(1 / self.read_rps)), self._read_arrival)
        if self.write_rps > 0:
            self.sim.schedule(float(self.rng.exponential(1 / self.write_rps)), self._write_arrival)
        return self

    def stop(self) -> None:
        self.running = False

    def _live(self) -> bool:
        return self.running and (self.stop_at is None or self.sim.now < self.stop_at)

    # -- reads -----------------------------------------------------------------

    def _read_arrival(self):
        if not self._live():
            return
        index = int(self.rng.integers(0, len(self.machines)))
        machine, cgroup = self.machines[index], self.cgroups[index]
        start = self.sim.now
        sector = int(self.rng.integers(1, 1 << 26)) * 8
        bio = Bio(IOOp.READ, 4096, sector, cgroup)
        machine.layer.submit(
            bio,
            on_done=lambda _b: self.ops.append(
                OpRecord(self.sim.now, self.sim.now - start, False)
            ),
        )
        self.sim.schedule(float(self.rng.exponential(1 / self.read_rps)), self._read_arrival)

    # -- writes -----------------------------------------------------------------

    def _write_arrival(self):
        if not self._live():
            return
        self._commit(self.sim.now)
        self.txn_count += 1
        if self.txn_count % self.snapshot_every == 0:
            self._snapshot()
        self.sim.schedule(float(self.rng.exponential(1 / self.write_rps)), self._write_arrival)

    def _commit(self, start: float):
        """Replicate to all participants; commit at quorum acks."""
        acks = {"count": 0, "done": False}

        def acked(_bio):
            acks["count"] += 1
            if not acks["done"] and acks["count"] >= self.quorum:
                acks["done"] = True
                self.ops.append(OpRecord(self.sim.now, self.sim.now - start, True))

        for index, machine in enumerate(self.machines):
            sector = self._journal_sectors[index]
            self._journal_sectors[index] += (self.payload + 511) // 512
            bio = Bio(IOOp.WRITE, self.payload, sector, self.cgroups[index])
            machine.layer.submit(bio, on_done=acked)

    def _snapshot(self):
        """All participants dump the in-memory DB: a sequential write burst."""
        self.snapshots_taken += 1
        chunk = self.snapshot_chunk
        for index, machine in enumerate(self.machines):
            sector = int(self.rng.integers(1 << 26, 1 << 27)) * 8
            remaining = self.snapshot_bytes
            while remaining > 0:
                size = min(chunk, remaining)
                bio = Bio(IOOp.WRITE, size, sector, self.cgroups[index])
                sector += size // 512
                remaining -= size
                machine.layer.submit(bio)

    # -- SLO analysis ------------------------------------------------------------

    def p99_series(self, window: float = 10.0, step: float = 1.0) -> List[Tuple[float, float]]:
        """(time, p99-over-trailing-window) samples from the op log."""
        if not self.ops:
            return []
        samples = []
        end = max(record.time for record in self.ops)
        times = np.array([record.time for record in self.ops])
        lats = [record.latency for record in self.ops]
        t = step  # trailing window is simply truncated early in the run
        while t <= end + step:
            lo = np.searchsorted(times, t - window)
            hi = np.searchsorted(times, t)
            if hi > lo:
                samples.append((t, exact_percentile(lats[lo:hi], 99)))
            t += step
        return samples

    def slo_violations(
        self, slo: float = 1.0, window: float = 10.0, step: float = 1.0
    ) -> List[Tuple[float, float, float]]:
        """Contiguous P99-above-SLO intervals: (start, duration, peak_p99)."""
        violations = []
        current_start = None
        peak = 0.0
        for time, p99 in self.p99_series(window, step):
            if p99 > slo:
                if current_start is None:
                    current_start = time
                    peak = p99
                else:
                    peak = max(peak, p99)
            elif current_start is not None:
                violations.append((current_start, time - current_start, peak))
                current_start = None
        if current_start is not None:
            violations.append((current_start, step, peak))
        return violations
