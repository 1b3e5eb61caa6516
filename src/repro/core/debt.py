"""Priority-inversion handling via debt (paper §3.5).

Swap-out (and filesystem-journal) IO must be charged to the cgroup that
*owns* the memory, but it completes synchronously on behalf of whichever
process triggered reclaim.  Throttling it would block the innocent party —
a priority inversion.  IOCost instead issues such IO immediately and lets
the owner go into *debt*: its local vtime runs ahead of global vtime, so
its future IO is throttled until the debt is repaid from future budget.

A cgroup that leaks memory but issues no normal IO would never repay.  The
backstop is a check before each return to userspace: if accumulated debt
exceeds a threshold, the thread is blocked momentarily, throttling the
generation of "free" IO at its source.  The memory-management substrate
calls :meth:`DebtTracker.userspace_delay` at its allocation boundaries to
model this.

:class:`SwapChargeMode` selects between the production behaviour and the
two deliberately-broken ablations evaluated in Figure 15.
"""

from __future__ import annotations

import enum

from repro.core.hierarchy import GroupState
from repro.core.vtime import VTimeClock


class SwapChargeMode(enum.Enum):
    """How swap/journal IO is charged (Figure 15's three configurations)."""

    #: Production: charge the owner, issue immediately, repay via debt.
    DEBT = "debt"
    #: Ablation: charge the root cgroup — swap IO is never throttled, so a
    #: leaker generates unbounded "free" IO.
    ROOT = "root"
    #: Ablation: throttle swap IO in the owner's queue like any other IO —
    #: the priority inversion the debt mechanism exists to avoid.
    ORIGIN_THROTTLE = "origin_throttle"


#: Debt (wall seconds of the group's own budget) above which threads
#: returning to userspace are blocked.
DEBT_THRESHOLD = 0.01
#: Longest single block applied at the userspace boundary.
MAX_DELAY = 0.25
#: Fraction of the outstanding repayment time charged per boundary hit.
DELAY_FRACTION = 0.5


class DebtTracker:
    """Computes debt levels and userspace-boundary delays.

    Debt is not stored separately: a group is in debt exactly when its local
    vtime exceeds global vtime (negative budget).  This class interprets
    that gap.
    """

    def __init__(self, clock: VTimeClock) -> None:
        self.clock = clock
        self.userspace_blocks = 0
        self.total_blocked_time = 0.0

    def debt_vtime(self, group: GroupState) -> float:
        """Outstanding debt in vtime seconds (0 when the group has budget)."""
        return max(0.0, group.local_vtime - self.clock.now())

    def debt_walltime(self, group: GroupState) -> float:
        """Wall seconds of future budget needed to repay the debt."""
        return self.clock.wall_delay_for(self.debt_vtime(group))

    def userspace_delay(self, group: GroupState) -> float:
        """Delay to impose before the group's threads return to userspace.

        Zero while debt is under the threshold; otherwise a bounded fraction
        of the outstanding repayment time, so memory-driven "free" IO is
        throttled at its source without ever fully stopping the task.
        """
        owed = self.debt_walltime(group)
        if owed <= DEBT_THRESHOLD:
            return 0.0
        delay = min(MAX_DELAY, owed * DELAY_FRACTION)
        self.userspace_blocks += 1
        self.total_blocked_time += delay
        group.indelay_total += delay  # io.stat cost.indelay
        return delay
