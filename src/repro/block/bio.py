"""The ``bio`` — the unit of block IO (paper §2.2).

Carries the request type, size, target offset, the issuing cgroup, and
origin flags (swap-out, filesystem journal) that the IOCost debt
mechanism keys on.  Timestamps are filled in as the bio moves through the
layer: ``submit_time`` (entered the block layer), ``issue_time`` (reaches the
device after throttling and the issue path's CPU cost), ``complete_time``.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.cgroup import Cgroup, IOStats

SECTOR_SIZE = 512

_bio_ids = itertools.count()


def reset_bio_ids() -> None:
    """Restart the global bio id counter from zero.

    Bio ids appear in traces; a long-lived process that runs several
    simulations back to back (the ``repro.exp`` worker pool, test suites)
    would otherwise carry the counter across runs, making trace bytes
    depend on pool scheduling.  :class:`repro.testbed.Testbed` calls this
    on construction so every simulated machine starts from bio #0.
    """
    global _bio_ids
    _bio_ids = itertools.count()


class IOOp(enum.Enum):
    """Request direction."""

    READ = "read"
    WRITE = "write"


class BioStatus(enum.Enum):
    """Completion status (``blk_status_t`` analogue).

    ``OK`` is the initial and success state.  ``EIO`` marks a device media
    error (fault-injected, see :mod:`repro.faults`); ``TIMEOUT`` marks a
    block-layer timeout (the request was aborted after ``io_timeout``).
    Non-``OK`` bios are retried by the block layer up to ``max_retries``
    with exponential backoff; the status on a *completed* bio is its final
    outcome after all retries.
    """

    OK = "ok"
    EIO = "eio"
    TIMEOUT = "timeout"


class BioFlags(enum.Flag):
    """Origin flags consumed by controllers.

    SWAP marks reclaim-generated swap-out writes / swap-in reads; JOURNAL
    marks shared filesystem journaling IO.  Both are the priority-inversion
    sources handled by the debt mechanism (§3.5).
    """

    NONE = 0
    SWAP = enum.auto()
    JOURNAL = enum.auto()


class Bio:
    """One block IO request."""

    __slots__ = (
        "id",
        "op",
        "is_write",
        "nbytes",
        "sector",
        "end_sector",
        "cgroup",
        "blkg",
        "flags",
        "prio",
        "submit_time",
        "issue_time",
        "complete_time",
        "on_done",
        "sequential",
        "device_sequential",
        "abs_cost",
        "status",
        "retries",
    )
    #: The cgroup's record on the device submitted to (the kernel's
    #: ``bi_blkg``): set by BlockLayer.submit, read by everything after it.
    blkg: "IOStats"

    def __init__(
        self,
        op: IOOp,
        nbytes: int,
        sector: int,
        cgroup: "Cgroup",
        flags: BioFlags = BioFlags.NONE,
        prio: Optional[int] = None,
    ) -> None:
        if nbytes <= 0:
            raise ValueError("bio size must be positive")
        if sector < 0:
            raise ValueError("bio sector must be non-negative")
        self.id = next(_bio_ids)
        self.op = op
        # Plain attribute, not a property: read several times per bio on
        # the hot path (cost model, device queues, completion accounting).
        self.is_write = op is IOOp.WRITE
        self.nbytes = nbytes
        self.sector = sector
        # Where a sequential successor starts (sector and size never change).
        self.end_sector = sector + (nbytes + SECTOR_SIZE - 1) // SECTOR_SIZE
        self.cgroup = cgroup
        self.flags = flags
        # ioprio class (0 none / 1 RT / 2 BE / 3 idle), None when the
        # submitter set no scheduling class.  Carried through traces so
        # replays preserve it.
        self.prio = prio
        self.submit_time: Optional[float] = None
        self.issue_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        # Called (with this bio) when the block layer completes the request
        # for good; set by submit(bio, on_done=...), None for fire-and-forget.
        self.on_done: Optional[Callable[["Bio"], None]] = None
        # Sequential relative to the issuing cgroup's previous IO on the
        # device (the cost-model feature, §3.2); set by the block layer.
        self.sequential: bool = False
        # Sequential relative to the device's last serviced request (the
        # physical feature, relevant for the spinning-disk seek model).
        self.device_sequential: bool = False
        # Absolute occupancy cost assigned by the controller's cost model.
        self.abs_cost: float = 0.0
        # Completion status; non-OK set by fault injection / timeout paths.
        self.status: BioStatus = BioStatus.OK
        # Times the block layer requeued this bio after an error/timeout.
        self.retries: int = 0

    @property
    def ok(self) -> bool:
        return self.status is BioStatus.OK

    @property
    def latency(self) -> float:
        """End-to-end latency (submit -> complete); raises if not complete."""
        if self.submit_time is None or self.complete_time is None:
            raise ValueError("bio has not completed")
        return self.complete_time - self.submit_time

    @property
    def device_latency(self) -> float:
        """Device-side latency (issue -> complete); raises if not complete."""
        if self.issue_time is None or self.complete_time is None:
            raise ValueError("bio has not completed")
        return self.complete_time - self.issue_time

    @property
    def wait_time(self) -> float:
        """Time spent throttled/queued above the device."""
        if self.submit_time is None or self.issue_time is None:
            raise ValueError("bio has not been issued")
        return self.issue_time - self.submit_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        group = self.cgroup.path or "/"
        return f"Bio(#{self.id} {self.op.value} {self.nbytes}B @{self.sector} {group})"
