"""IO controller interface.

A controller sits between bio submission and device dispatch (the
"controller / scheduler" box of the paper's Figure 2).  The contract is an
elevator model:

* :meth:`IOController.enqueue` — a bio arrived from a cgroup; stash or
  dispatch it.
* :meth:`IOController.pump` — dispatch as many queued bios as policy and
  free slots allow (``layer.inflight < layer.nr_slots``); after enqueues.
* :meth:`IOController.on_complete` — a bio finished; ends with its pump.

Of the paper's Table 1, a controller declares the two columns the
simulation reads, as class flags: ``mm_aware`` (``repro.mm`` charges swap-out
writes to the pages' owner, not to root) and ``cgroup_aware`` (a stack's
scheduler must not be).  A cgroup-aware controller keeps its per-group state
on the record every bio carries (``bio.blkg.pd``), never in a map keyed by
cgroup path; docs/API.md ("The record is the blkg") has the four-line
contract.

``issue_overhead`` models the serialized per-IO CPU cost of the mechanism's
issue path — the quantity Figure 9 measures.  The block layer charges it on
a single CPU-time resource as the bio's start time on the device (its
``issue_time``, which ``Device.submit`` may get ahead of the clock), so a
controller with a heavyweight issue path (BFQ) caps achievable IOPS no
matter how fast the device is.  Values are calibrated to reproduce the
relative overheads of Figure 9, not absolute kernel numbers.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, ClassVar, Dict, List

from repro.obs.trace import TRACE

if TYPE_CHECKING:  # pragma: no cover
    from repro.block.bio import Bio
    from repro.block.layer import BlockLayer
    from repro.cgroup import Cgroup


class IOController(abc.ABC):
    """Base class for every IO control mechanism."""

    name: ClassVar[str] = "abstract"
    mm_aware: ClassVar[bool] = False
    cgroup_aware: ClassVar[bool] = False
    #: Serialized CPU seconds consumed per IO on the issue path (Fig 9 model).
    issue_overhead: float = 0.0

    def __init__(self) -> None:
        self.layer: "BlockLayer" = None  # type: ignore[assignment]
        #: Live per-group states in creation order (what policy loops walk).
        self.groups: List[Any] = []
        self._tp_throttle = TRACE.points["bio_throttle"]

    def attach(self, layer: "BlockLayer") -> None:
        """Bind to a block layer.  Called once, before any IO."""
        self.layer = layer

    def note_throttle(self, bio: "Bio", reason: str) -> None:
        """Record that ``bio`` was held back (budget, tokens, depth, ...).

        Bumps the record's ``throttled`` (the one counter, io.stat's key) and
        emits the ``bio_throttle`` tracepoint.  Call it once per bio, where
        the policy first makes it wait (:meth:`hold` does so for a timed wait).
        """
        bio.blkg.throttled += 1
        if self._tp_throttle.enabled:
            # ``ctl`` is this controller's own name: in a stacked
            # configuration (controllers/stacked.py) the gate and the
            # scheduler each note their own throttles, so a trace separates
            # iocost budget waits from device-queue (mq-deadline/kyber
            # depth) waits per bio.
            self._tp_throttle.emit(
                self.layer.sim.now,
                dev=self.layer.dev,
                id=bio.id,
                cgroup=bio.cgroup.path,
                op=bio.op.value,
                nbytes=bio.nbytes,
                reason=reason,
                ctl=self.name,
            )

    def hold(self, group: Any, bio: "Bio", reason: str, delay: float, key: Any) -> None:
        """``bio`` waits at the head of ``group``'s queue for ``delay`` more
        seconds: noted the first time this controller holds it, and the
        group's one wake timer armed to pump again then.  ``key`` stands for
        every input that can move that deadline *earlier* (IOCost: the tree's
        hold generation; blk-throttle: the group's limits): a group whose
        ``wake_key`` is the current key and whose wake is still ahead is not
        tried.  blk-throttle's pump loop skips it; IOCost's pump never visits
        it, since it walks only its ready groups (core/controller.py).  A group
        carries ``held``, ``wake`` and ``wake_key`` (``None`` when made; the
        key is set exactly while the wake is armed).

        Invariant: an armed wake fires no later than the head's true
        deadline, or the key differs.  So a timer is never postponed: one
        still ahead that fires at or before the new deadline stays (it
        fires, ``pump`` re-evaluates, the head is re-held); it is cancelled
        and re-pushed only when the deadline moved earlier, or when it is
        due this instant (the pump it would fire into is the one running).
        """
        if group.held is not bio:
            group.held = bio
            self.note_throttle(bio, reason)
        sim = self.layer.sim
        group.wake_key = key
        if group.wake is not None:
            if sim.now < group.wake.time <= sim.now + delay:
                return
            group.wake.cancel()
        group.wake = sim.schedule(delay, self._wake, group)

    def _wake(self, group: Any) -> None:
        group.wake = group.wake_key = None
        self.pump()

    def _disarm(self, group: Any) -> None:
        # Groups of a policy that never holds (iolatency, bfq) have no wake.
        if getattr(group, "wake", None) is not None:
            group.wake.cancel()
            group.wake = group.wake_key = None

    def detach(self) -> None:
        """Tear down timers etc.  Called when an experiment ends."""
        for group in self.groups:
            self._disarm(group)

    def cost_stat(self, cgroup: "Cgroup") -> Dict[str, float]:
        """Controller-specific io.stat keys for one cgroup.

        The base implementation contributes the shared throttle counter;
        IOCost overrides this to add its ``cost.*`` surface.
        """
        # No record is made by reading; IOStat also asks unattached controllers.
        record = cgroup.stats.per_device.get(getattr(self.layer, "dev", None))
        return {"throttled": record.throttled if record is not None else 0}

    # -- per-group state ---------------------------------------------------

    def new_group(self, bio: "Bio") -> Any:
        """A cgroup's first bio here (``bio.blkg.pd is None``): the state the
        subclass's ``make_group(cgroup, blkg)`` builds goes on the record and
        the list.  (IOCost makes its states, whole chains, through its tree.)"""
        group = bio.blkg.pd = self.make_group(bio.cgroup, bio.blkg)
        self.groups.append(group)
        return group

    def retire_offline(self) -> None:
        """The retirement rule: a group whose record is offline (its cgroup
        was removed) leaves the list once :meth:`drained`.  Newest first, so
        a dead subtree goes in one pass; ``pd`` is cleared, so a straggler
        bio of the dead cgroup makes a fresh group that retires the same way,
        and an armed wake is cancelled (it would fire for nobody).
        Call it where the policy already walks :attr:`groups`, never per bio.
        """
        for group in reversed(self.groups):
            if not group.blkg.online and self.drained(group):
                self.groups.remove(group)
                group.blkg.pd = None
                self._disarm(group)
                self.retired(group)

    def drained(self, group: Any) -> bool:
        return not group.waitq

    def retired(self, group: Any) -> None:
        """``group`` just left the list (default: nothing else holds it)."""

    @abc.abstractmethod
    def enqueue(self, bio: "Bio") -> None:
        """Accept a submitted bio."""

    @abc.abstractmethod
    def pump(self) -> None:
        """Dispatch queued bios while policy and request slots allow."""

    def on_complete(self, bio: "Bio") -> None:
        """The one call per completion: bookkeeping, then the pump it needs."""
        self.pump()
