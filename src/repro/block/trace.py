"""IO trace replay.

Production IO-control work is trace-driven: you capture what a workload
did (blktrace-style) and replay it against candidate configurations.  The
capture half is the ``bio_complete`` tracepoint: a
:class:`~repro.obs.trace.TraceBuffer` attached to it (or a ``trace_events``
experiment, whose ``trace.jsonl`` artifact holds the same events) records
one :class:`~repro.obs.trace.TraceEvent` per completed bio, and
:func:`~repro.obs.trace.load_events` reads a saved stream back.

:class:`TraceReplayer` is the other half: it replays the ``bio_complete``
events of any event iterable open-loop, with their original inter-arrival
spacing (optionally time-scaled), into any layer, mapping cgroup paths
through a provided tree.  Other events in the iterable are skipped.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.block.bio import Bio, BioFlags, IOOp
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.obs.trace import TraceEvent
from repro.sim import Simulator


class TraceReplayer:
    """Replay the ``bio_complete`` events of a trace open-loop into a layer."""

    def __init__(
        self,
        sim: Simulator,
        layer: BlockLayer,
        cgroups: CgroupTree,
        events: Iterable[TraceEvent],
        time_scale: float = 1.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.sim = sim
        self.layer = layer
        self.cgroups = cgroups
        self.events = sorted(
            (event for event in events if event.name == "bio_complete"),
            key=lambda event: event.fields["submit_time"],
        )
        self.time_scale = time_scale
        self.submitted = 0
        self.completed = 0
        self.latencies: List[float] = []
        self.latencies_by_cgroup: Dict[str, List[float]] = {}

    def start(self) -> "TraceReplayer":
        if not self.events:
            return self
        origin = self.events[0].fields["submit_time"]
        for event in self.events:
            delay = (event.fields["submit_time"] - origin) * self.time_scale
            self.sim.schedule(delay, self._submit, event.fields)
        return self

    def _submit(self, fields: Dict) -> None:
        group = self.cgroups.get_or_create(fields["cgroup"])
        bio = Bio(
            IOOp(fields["op"]),
            fields["nbytes"],
            fields["sector"],
            group,
            flags=BioFlags(fields["flags"]),
            prio=fields["prio"],
        )
        self.submitted += 1
        self.layer.submit(bio, on_done=self._done)

    def _done(self, bio: Bio) -> None:
        self.completed += 1
        self.latencies.append(bio.latency)
        self.latencies_by_cgroup.setdefault(bio.cgroup.path, []).append(bio.latency)
