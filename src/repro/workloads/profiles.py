"""Workload-heterogeneity profiles (Figure 4).

The paper characterises production services by their P50 per-second read
vs write bytes and random vs sequential bytes.  Only qualitative anchors
are published ("Web A and Web B ... moderate amount of reads and writes
mixed about equally in terms of random and sequential", "Cache A and B ...
high amounts of sequential IOs", "non-storage services ... relatively
little explicit IO"); these profiles encode that shape with representative
magnitudes.

:class:`MixedWorkload` replays a profile against a device, splitting each
second's bytes across the four (direction × pattern) streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.block.bio import Bio, IOOp
from repro.workloads.base import SectorPicker, Workload

MB = 1e6


@dataclass(frozen=True)
class WorkloadProfile:
    """P50 per-second IO demand of one service class."""

    name: str
    read_bps: float
    write_bps: float
    #: Fraction of bytes that are random (vs sequential).
    random_fraction: float
    io_size: int = 64 * 1024

    @property
    def rand_bps(self) -> float:
        return (self.read_bps + self.write_bps) * self.random_fraction

    @property
    def seq_bps(self) -> float:
        return (self.read_bps + self.write_bps) * (1 - self.random_fraction)


#: Figure 4's service classes.
WORKLOAD_PROFILES: Dict[str, WorkloadProfile] = {
    profile.name: profile
    for profile in (
        WorkloadProfile("web_a", read_bps=18 * MB, write_bps=14 * MB, random_fraction=0.5),
        WorkloadProfile("web_b", read_bps=12 * MB, write_bps=10 * MB, random_fraction=0.48),
        WorkloadProfile("serverless", read_bps=30 * MB, write_bps=22 * MB, random_fraction=0.6),
        WorkloadProfile("cache_a", read_bps=95 * MB, write_bps=70 * MB, random_fraction=0.12),
        WorkloadProfile("cache_b", read_bps=70 * MB, write_bps=90 * MB, random_fraction=0.08),
        WorkloadProfile("nonstorage_a", read_bps=0.8 * MB, write_bps=1.2 * MB, random_fraction=0.7),
        WorkloadProfile("nonstorage_b", read_bps=0.5 * MB, write_bps=0.6 * MB, random_fraction=0.65),
    )
}


class MixedWorkload(Workload):
    """Replays a :class:`WorkloadProfile` as four paced byte streams."""

    def __init__(self, sim, layer, cgroup, profile: WorkloadProfile,
                 stop_at: float = None, seed: int = 0):
        super().__init__(sim, layer, cgroup, seed)
        self.profile = profile
        self.stop_at = stop_at
        self._streams = []
        for op, direction_bps in ((IOOp.READ, profile.read_bps), (IOOp.WRITE, profile.write_bps)):
            for sequential, frac in ((False, profile.random_fraction),
                                     (True, 1 - profile.random_fraction)):
                bps = direction_bps * frac
                if bps <= 0:
                    continue
                self._streams.append(
                    _ByteStream(self, op, sequential, bps, profile.io_size)
                )
        # Observed byte tallies per (is_write, sequential).
        self.bytes_by_class: Dict[tuple, int] = {}

    def start(self):
        super().start()
        for stream in self._streams:
            stream.start()
        return self

    def _account(self, bio: Bio, sequential: bool) -> None:
        self._record(bio)
        key = (bio.is_write, sequential)
        self.bytes_by_class[key] = self.bytes_by_class.get(key, 0) + bio.nbytes


class _ByteStream:
    """One direction × pattern stream of a mixed workload."""

    def __init__(self, owner: MixedWorkload, op: IOOp, sequential: bool,
                 bps: float, io_size: int):
        self.owner = owner
        self.op = op
        self.sequential = sequential
        self.interval = io_size / bps
        self.io_size = io_size
        self.picker = SectorPicker(owner.rng, sequential)

    def start(self):
        self.owner.sim.schedule(self.interval, self._tick)

    def _tick(self):
        owner = self.owner
        if not owner.running or (owner.stop_at is not None and owner.sim.now >= owner.stop_at):
            return
        bio = Bio(self.op, self.io_size, self.picker.next(self.io_size), owner.cgroup)
        owner.layer.submit(
            bio, on_done=lambda b, seq=self.sequential: owner._account(b, seq)
        )
        owner.sim.schedule(self.interval, self._tick)
