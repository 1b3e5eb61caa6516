"""IO trace recording and replay.

Production IO-control work is trace-driven: you capture what a workload
did (blktrace-style) and replay it against candidate configurations.  This
module provides both halves for the simulated stack:

* :class:`TraceRecord` — one completed bio (submit time, cgroup, direction,
  size, sector, flags, latency).  Capture them with the ``bio_complete``
  tracepoint: ``TraceBuffer().attach(events=("bio_complete",))`` before the
  run, :meth:`~repro.obs.trace.TraceBuffer.to_trace_records` after it.
* :class:`TraceReplayer` — replays records open-loop with their original
  inter-arrival spacing (optionally time-scaled) into any layer, mapping
  cgroup paths through a provided tree.

Traces round-trip through a compact JSON-lines format for storage.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, TextIO

from repro.block.bio import Bio, BioFlags, IOOp
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.sim import Simulator


@dataclass(frozen=True)
class TraceRecord:
    """One completed IO."""

    submit_time: float
    cgroup: str
    op: str               # "read" | "write"
    nbytes: int
    sector: int
    flags: int            # BioFlags bitmask
    latency: float
    #: ioprio class (0 none / 1 RT / 2 BE / 3 idle).  Default None keeps
    #: traces saved before this field existed loadable.
    prio: Optional[int] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceRecord":
        return cls(**json.loads(line))


def load_trace(stream: TextIO) -> List[TraceRecord]:
    """Load a JSON-lines trace."""
    return [TraceRecord.from_json(line) for line in stream if line.strip()]


class TraceReplayer:
    """Replay a trace open-loop into a block layer."""

    def __init__(
        self,
        sim: Simulator,
        layer: BlockLayer,
        cgroups: CgroupTree,
        records: Iterable[TraceRecord],
        time_scale: float = 1.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.sim = sim
        self.layer = layer
        self.cgroups = cgroups
        self.records = sorted(records, key=lambda record: record.submit_time)
        self.time_scale = time_scale
        self.submitted = 0
        self.completed = 0
        self.latencies: List[float] = []
        self.latencies_by_cgroup: Dict[str, List[float]] = {}

    def start(self) -> "TraceReplayer":
        if not self.records:
            return self
        origin = self.records[0].submit_time
        for record in self.records:
            delay = (record.submit_time - origin) * self.time_scale
            self.sim.schedule(delay, self._submit, record)
        return self

    def _submit(self, record: TraceRecord) -> None:
        group = self.cgroups.get_or_create(record.cgroup)
        bio = Bio(
            IOOp(record.op),
            record.nbytes,
            record.sector,
            group,
            flags=BioFlags(record.flags),
            prio=record.prio,
        )
        self.submitted += 1
        self.layer.submit(bio, on_done=self._done)

    def _done(self, bio: Bio) -> None:
        self.completed += 1
        self.latencies.append(bio.latency)
        self.latencies_by_cgroup.setdefault(bio.cgroup.path, []).append(bio.latency)
