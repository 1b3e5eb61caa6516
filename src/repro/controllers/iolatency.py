"""IOLatency: per-cgroup latency targets with strict prioritisation (§2.2).

Meta's first-generation controller (upstreamed before IOCost).  Each cgroup
may set a completion-latency target; when a protected cgroup's observed
latency exceeds its target, cgroups with *looser* targets (lower priority)
get their queue depth scaled down until the victim recovers.

The paper's criticisms, all reproduced here: only strict prioritisation (no
way to share proportionally between equal-priority groups — Figure 10), and
work conservation that depends on fragile per-device, per-workload target
tuning (Figure 11 shows it performing adequately; Figure 16 shows it
failing for stacked equal-priority ensembles).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.analysis.stats import keyed_percentiles
from repro.block.bio import Bio
from repro.cgroup import Cgroup, IOStats
from repro.controllers.base import IOController


class _LatGroup:
    __slots__ = ("cgroup", "blkg", "order", "target", "waitq", "inflight", "depth")

    def __init__(
        self, cgroup: Cgroup, blkg: IOStats, order: int, target: Optional[float], max_depth: int
    ):
        self.cgroup = cgroup
        self.blkg = blkg
        self.order = order  # creation index: the round-robin order
        self.target = target  # None = unprotected (lowest priority)
        self.waitq: Deque[Bio] = deque()
        self.inflight = 0
        self.depth = max_depth


class IOLatencyController(IOController):
    """Latency-target controller with queue-depth scaling."""

    name = "iolatency"
    mm_aware = cgroup_aware = True
    issue_overhead = 0.8e-6

    ADJUST_INTERVAL = 0.05
    MIN_DEPTH = 1

    def __init__(self, targets: Optional[Dict[str, float]] = None) -> None:
        super().__init__()
        self._targets = dict(targets or {})
        self._timer = None
        # Target of the currently-suffering protected group (None if all
        # targets are met).  New lower-priority groups inherit the
        # throttled state instead of starting wide open.
        self._victim_target: Optional[float] = None
        #: ``(order, group)`` of every group that can dispatch (backlogged,
        #: ``inflight < depth``), in creation order: what a pump round visits.
        self._ready: List[Tuple[int, _LatGroup]] = []
        self._made = 0

    def attach(self, layer) -> None:
        super().attach(layer)
        self._timer = layer.sim.schedule(self.ADJUST_INTERVAL, self._adjust)

    def detach(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def make_group(self, cgroup: Cgroup, blkg: IOStats) -> _LatGroup:
        group = _LatGroup(
            cgroup, blkg, self._made, self._targets.get(cgroup.path),
            self.layer.device.spec.nr_slots,
        )
        self._made += 1
        if self._victim_target is not None and (
            group.target is None or group.target > self._victim_target
        ):
            group.depth = self.MIN_DEPTH
        return group

    def drained(self, group: _LatGroup) -> bool:
        # on_complete still needs the group of a bio in flight.
        return not group.waitq and not group.inflight

    def enqueue(self, bio: Bio) -> None:
        group = bio.blkg.pd
        if group is None:
            group = self.new_group(bio)
        if group.inflight >= group.depth:
            self.note_throttle(bio, "depth")
        elif not group.waitq:  # a new head within depth: it can dispatch
            insort(self._ready, (group.order, group))
        group.waitq.append(bio)

    def pump(self) -> None:
        """Rounds over the groups that can dispatch, one bio from each per
        round, until none can or the slots are full."""
        layer = self.layer
        ready = self._ready
        while ready and layer.inflight < layer.nr_slots:
            for _order, group in ready:
                group.inflight += 1
                layer.dispatch(group.waitq.popleft())
                if layer.inflight >= layer.nr_slots:
                    break
            ready[:] = [
                entry for entry in ready if entry[1].waitq and entry[1].inflight < entry[1].depth
            ]

    def on_complete(self, bio: Bio) -> None:
        group = bio.blkg.pd
        group.inflight -= 1
        if group.inflight == group.depth - 1 and group.waitq:  # back within depth
            insort(self._ready, (group.order, group))
        self.pump()

    # -- periodic depth scaling -------------------------------------------------

    def _adjust(self) -> None:
        layer = self.layer
        now = layer.sim.now
        max_depth = layer.device.spec.nr_slots

        # Is any protected group missing its target?  One read for them all.
        victim_target = None
        protected = [group for group in self.groups if group.target is not None]
        keys = [group.blkg.latency for group in protected]
        observed = keyed_percentiles((layer.read_latency, layer.write_latency), now, keys, (90,))
        for group, (p90,) in zip(protected, observed):
            if p90 is not None and p90 > group.target:
                if victim_target is None or group.target < victim_target:
                    victim_target = group.target
        self._victim_target = victim_target

        for group in self.groups:
            if victim_target is not None and (
                group.target is None or group.target > victim_target
            ):
                # Lower priority than the victim: halve its depth.
                group.depth = max(self.MIN_DEPTH, group.depth // 2)
            else:
                # Grow back gradually while nobody above is suffering.
                group.depth = min(max_depth, group.depth + max(1, group.depth // 4))
        self._ready[:] = [
            (group.order, group)
            for group in self.groups
            if group.waitq and group.inflight < group.depth
        ]

        self.retire_offline()
        self._timer = layer.sim.schedule(self.ADJUST_INTERVAL, self._adjust)
        self.pump()
