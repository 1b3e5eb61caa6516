"""blk-throttle: per-cgroup IOPS / bytes-per-second limits (paper §2.2).

Each cgroup gets token buckets for read/write IOPS and bandwidth; bios wait
in per-cgroup FIFOs until every applicable bucket has tokens.  Hard limits
only: unused capacity is *not* redistributed — the classic
non-work-conserving design whose over-provisioning cost the paper's
Figure 11 demonstrates.  Limits are also brittle to configure per device ×
per workload, the configuration-explosion argument of §2.3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, Optional

from repro.block.bio import Bio
from repro.cgroup import Cgroup, IOStats
from repro.controllers.base import IOController


@dataclass(frozen=True)
class ThrottleLimits:
    """Per-cgroup limits; ``None`` means unlimited (kernel: "max")."""

    riops: Optional[float] = None
    wiops: Optional[float] = None
    rbps: Optional[float] = None
    wbps: Optional[float] = None


class _Bucket:
    """Token bucket refilled continuously at ``rate`` per second."""

    __slots__ = ("rate", "tokens", "burst", "last")

    def __init__(self, rate: float):
        self.rate = rate
        self.burst = rate * 0.02  # a full bucket holds 20 ms of the rate
        self.tokens = self.burst
        self.last = 0.0

    def refill(self, now: float) -> None:
        self.tokens = min(self.burst, self.tokens + (now - self.last) * self.rate)
        self.last = now

    def try_take(self, now: float, amount: float) -> bool:
        """Take ``amount`` if the bucket is ready.

        A bio larger than the burst capacity is granted against a *full*
        bucket and drives the token count negative (carryover), so big IOs
        flow at the configured average rate instead of deadlocking.
        """
        self.refill(now)
        if self.tokens >= min(amount, self.burst):
            self.tokens -= amount
            return True
        return False

    def wait_time(self, now: float, amount: float) -> float:
        self.refill(now)
        deficit = min(amount, self.burst) - self.tokens
        return max(0.0, deficit / self.rate)


class _GroupThrottle:
    __slots__ = (
        "path", "blkg", "limits", "waitq", "riops", "wiops", "rbps", "wbps",
        "held", "wake", "wake_key",
    )

    def __init__(self, path: str, blkg: IOStats, limits: ThrottleLimits):
        self.path = path
        self.blkg = blkg
        self.waitq: Deque[Bio] = deque()
        self.held = self.wake = self.wake_key = None  # IOController.hold
        self.set_limits(limits)

    def set_limits(self, limits: ThrottleLimits) -> None:
        """(Re)build the buckets; the queue and an armed wake stay.  The
        copy's identity is the key a head is held under (``pump``): buckets
        only refill until they are replaced here, by whatever object."""
        self.limits = replace(limits)
        self.riops = _Bucket(limits.riops) if limits.riops else None
        self.wiops = _Bucket(limits.wiops) if limits.wiops else None
        self.rbps = _Bucket(limits.rbps) if limits.rbps else None
        self.wbps = _Bucket(limits.wbps) if limits.wbps else None

    def buckets_for(self, bio: Bio):
        if bio.is_write:
            return [(b, a) for b, a in ((self.wiops, 1.0), (self.wbps, float(bio.nbytes))) if b]
        return [(b, a) for b, a in ((self.riops, 1.0), (self.rbps, float(bio.nbytes))) if b]


class BlkThrottleController(IOController):
    """Upper-limit throttling via token buckets."""

    name = "blk-throttle"
    cgroup_aware = True
    issue_overhead = 1.1e-6

    def __init__(self, limits: Optional[Dict[str, ThrottleLimits]] = None) -> None:
        super().__init__()
        self._config = dict(limits or {})

    def set_limits(self, path: str, limits: ThrottleLimits) -> None:
        """Configure (or replace) a cgroup's limits."""
        self._config[path] = limits
        for group in self.groups:
            if group.path == path:
                group.set_limits(limits)

    def make_group(self, cgroup: Cgroup, blkg: IOStats) -> _GroupThrottle:
        path = cgroup.path
        return _GroupThrottle(path, blkg, self._config.get(path, ThrottleLimits()))

    def enqueue(self, bio: Bio) -> None:
        group = bio.blkg.pd
        if group is None:
            group = self.new_group(bio)
        group.waitq.append(bio)

    def pump(self) -> None:
        layer = self.layer
        now = layer.sim.now
        offline = False
        for group in self.groups:
            if not group.blkg.online:
                offline = True
            if group.wake_key is group.limits and group.wake.time > now:
                continue  # its head waits for its wake (hold)
            while group.waitq and layer.inflight < layer.nr_slots:
                bio = group.waitq[0]
                buckets = group.buckets_for(bio)
                waits = [bucket.wait_time(now, amount) for bucket, amount in buckets]
                if any(wait > 0 for wait in waits):
                    self.hold(group, bio, "tokens", max(waits) + 1e-9, group.limits)
                    break
                for bucket, amount in buckets:
                    bucket.try_take(now, amount)
                group.waitq.popleft()
                layer.dispatch(bio)
            if layer.inflight >= layer.nr_slots:
                break
        if offline:
            self.retire_offline()
