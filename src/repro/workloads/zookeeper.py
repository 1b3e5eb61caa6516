"""Stacked ZooKeeper-like ensembles (paper §4.6, Figure 16).

A strongly-consistent coordination service: every write is replicated to an
ensemble of participants spread across machines and commits when a quorum
has journaled it; a snapshot of the in-memory database is written after
every ``snapshot_every`` transactions, producing momentary write spikes
"even under nominal loads".  Reads are served by a single participant with
a small storage access (the page-cache-miss/metadata share of read
handling — the part exposed to IO contention).

The experiment (:func:`run_fig16`) stacks twelve ensembles of five
participants over five machines (no two participants of one ensemble
co-hosted), eleven well-behaved (100 KB payloads) and one noisy neighbour
(300 KB), and counts violations of a one-second P99 SLO for the
well-behaved ensembles.  The five machines are the five devices of one
:class:`~repro.testbed.Testbed`: one controller per device and one record
per (cgroup, device), so a shared cgroup tree couples no two hosts' IO
control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.block.bio import Bio, IOOp
from repro.block.device_models import get_device_spec
from repro.controllers.base import IOController
from repro.controllers.bfq import BFQController
from repro.controllers.blk_throttle import BlkThrottleController, ThrottleLimits
from repro.controllers.iolatency import IOLatencyController
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.qos import QoSParams
from repro.obs.metrics import exact_percentile

if TYPE_CHECKING:
    from repro.testbed import Testbed

KB = 1024

#: Seconds between samples of the trailing-window p99.
P99_STEP = 1.0


@dataclass
class OpRecord:
    time: float
    latency: float
    is_write: bool


class ZooKeeperEnsemble:
    """One replicated ensemble with a participant on each of ``devices``
    (device names of ``bed``), all in the one cgroup
    ``workload.slice/<name>``; a write commits at a majority of acks."""

    def __init__(
        self,
        bed: "Testbed",
        devices: List[str],
        name: str,
        read_rps: float,
        write_rps: float,
        payload: int,
        snapshot_every: int = 5000,
        snapshot_bytes: int = 64 * 1024 * 1024,
        snapshot_chunk: int = 1 << 20,
        weight: int = 100,
        stop_at: Optional[float] = None,
        seed: int = 0,
    ):
        self.sim = bed.sim
        self.layers = [bed.layer_of(device) for device in devices]
        self.cgroup = bed.add_cgroup(f"workload.slice/{name}", weight=weight)
        self.name = name
        self.read_rps = read_rps
        self.write_rps = write_rps
        self.payload = payload
        self.snapshot_every = snapshot_every
        self.snapshot_bytes = snapshot_bytes
        self.snapshot_chunk = snapshot_chunk
        self.quorum = len(devices) // 2 + 1
        self.stop_at = stop_at
        self.rng = np.random.default_rng(seed)
        self.ops: List[OpRecord] = []
        self.txn_count = 0
        self.snapshots_taken = 0
        self.running = False
        self._journal_sectors = [int(self.rng.integers(0, 1 << 24)) * 8 for _ in devices]

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
        layer = self.layers[int(self.rng.integers(0, len(self.layers)))]
        start = self.sim.now
        sector = int(self.rng.integers(1, 1 << 26)) * 8
        bio = Bio(IOOp.READ, 4096, sector, self.cgroup)
        layer.submit(
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

        for index, layer in enumerate(self.layers):
            sector = self._journal_sectors[index]
            self._journal_sectors[index] += (self.payload + 511) // 512
            layer.submit(Bio(IOOp.WRITE, self.payload, sector, self.cgroup), on_done=acked)

    def _snapshot(self):
        """All participants dump the in-memory DB: a sequential write burst."""
        self.snapshots_taken += 1
        chunk = self.snapshot_chunk
        for layer in self.layers:
            sector = int(self.rng.integers(1 << 26, 1 << 27)) * 8
            remaining = self.snapshot_bytes
            while remaining > 0:
                size = min(chunk, remaining)
                bio = Bio(IOOp.WRITE, size, sector, self.cgroup)
                sector += size // 512
                remaining -= size
                layer.submit(bio)

    # -- SLO analysis ------------------------------------------------------------

    def p99_series(self, window: float = 10.0) -> List[Tuple[float, float]]:
        """(time, p99-over-trailing-window) samples every :data:`P99_STEP`
        seconds from the op log."""
        if not self.ops:
            return []
        samples = []
        end = max(record.time for record in self.ops)
        times = np.array([record.time for record in self.ops])
        lats = [record.latency for record in self.ops]
        step = P99_STEP
        t = step  # trailing window is simply truncated early in the run
        while t <= end + step:
            lo = np.searchsorted(times, t - window)
            hi = np.searchsorted(times, t)
            if hi > lo:
                samples.append((t, exact_percentile(lats[lo:hi], 99)))
            t += step
        return samples

    def slo_violations(
        self, slo: float = 1.0, window: float = 10.0
    ) -> List[Tuple[float, float, float]]:
        """Contiguous P99-above-SLO intervals: (start, duration, peak_p99)."""
        violations = []
        current_start = None
        peak = 0.0
        for time, p99 in self.p99_series(window):
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
            violations.append((current_start, P99_STEP, peak))
        return violations


# -- Figure 16 -------------------------------------------------------------------

#: The Figure 16 scenario, scaled from the paper's 6-hour run on enterprise
#: SSDs to minutes on a 1/40-speed device, with the snapshot cadence scaled
#: to keep the burst frequency.
FIG16_SPEC = get_device_spec("ssd_enterprise").scaled(0.025)
FIG16_MACHINES = 5
FIG16_ENSEMBLES = 12
FIG16_DURATION = 240.0
#: The mechanisms Figure 16 compares, in its order.
FIG16_CONTROLLERS = ("blk-throttle", "bfq", "iolatency", "iocost")


def _fig16_controller(name: str) -> IOController:
    """One host's controller for Figure 16, configured as the paper ran it."""
    if name == "iocost":
        # Weights only; QoS holds the device at a consistent operating
        # point (targets sized to this device's service times).
        return IOCost(
            LinearCostModel(ModelParams.from_device_spec(FIG16_SPEC)),
            qos=QoSParams(
                read_lat_target=25e-3, read_pct=90,
                write_lat_target=250e-3, write_pct=90,
                vrate_min=0.5, vrate_max=1.2, period=0.05,
            ),
        )
    if name == "bfq":
        return BFQController()
    if name == "iolatency":
        # The paper: "we tuned per-cgroup latency targets in an attempt to
        # achieve the desired distribution" — equal-priority ensembles end
        # up with staggered targets, and the looser tier gets crushed.
        return IOLatencyController({
            f"workload.slice/ens{i}": (80e-3 if i < 6 else 160e-3)
            for i in range(FIG16_ENSEMBLES)
        })
    if name == "blk-throttle":
        # Caps sized ~3x steady-state demand: fine until a snapshot burst.
        return BlkThrottleController({
            f"workload.slice/ens{i}": ThrottleLimits(wbps=4e6)
            for i in range(FIG16_ENSEMBLES)
        })
    raise ValueError(f"unknown Figure 16 controller {name!r}")


def run_fig16(controller: str) -> Dict[str, float]:
    """Figure 16 under one mechanism: the well-behaved eleven's one-second
    P99 SLO violations, as ``{"count", "longest", "peak"}`` (seconds).

    The five hosts are devices ``m0``..``m4`` of one ``Testbed(seed=0)``,
    each with its own controller; ensemble ``i`` draws its arrivals and
    sectors from its own generator, seeded ``1000 + i``.
    """
    from repro.testbed import Testbed

    names = [f"m{index}" for index in range(FIG16_MACHINES)]
    bed = Testbed(
        devices={name: FIG16_SPEC for name in names},
        controllers={name: _fig16_controller(controller) for name in names},
        seed=0,
    )
    ensembles = []
    for index in range(FIG16_ENSEMBLES):
        noisy = index == FIG16_ENSEMBLES - 1
        ensembles.append(ZooKeeperEnsemble(
            bed, names, f"ens{index}",
            read_rps=50, write_rps=8,
            payload=(300 if noisy else 100) * KB,
            snapshot_every=400,
            snapshot_bytes=(72 if noisy else 24) * 1024 * KB,
            snapshot_chunk=64 * KB,
            stop_at=FIG16_DURATION, seed=1000 + index,
        ).start())
    bed.run(FIG16_DURATION)
    bed.detach()
    violations = [
        violation
        for ensemble in ensembles[:-1]  # the well-behaved eleven
        for violation in ensemble.slo_violations(slo=1.0)
    ]
    return {
        "count": len(violations),
        "longest": max((length for _, length, _ in violations), default=0.0),
        "peak": max((peak for _, _, peak in violations), default=0.0),
    }
