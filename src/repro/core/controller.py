"""The IOCost controller: fast issue path + periodic planning path (§3.1).

**Issue path** (per bio, microsecond scale): price the bio with the device
cost model, divide by the issuing group's cached hweight to get the relative
cost, and compare against the group's budget — the gap between global and
local vtime.  Enough budget → dispatch immediately and advance local vtime;
otherwise the bio waits until global vtime progresses far enough (a timer is
armed for exactly that moment).  All state touched is local to the group.

**Planning path** (per period, millisecond scale): deactivate idle groups,
tally per-group usage and recompute budget donations (§3.6), and adjust
vrate from the device-level QoS signals (§3.3).

Swap/journal bios follow the §3.5 debt protocol, selectable via
:class:`~repro.core.debt.SwapChargeMode` for the Figure 15 ablations.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.block.bio import Bio, BioFlags, BioStatus
from repro.cgroup import Cgroup
from repro.controllers.base import Features, IOController
from repro.core.cost_model import CostModel
from repro.core.debt import DebtTracker, SwapChargeMode
from repro.core.donation import compute_donations
from repro.core.hierarchy import GroupState, WeightTree
from repro.core.qos import QoSParams, VRateController
from repro.core.vtime import VTimeClock
from repro.obs.prof import PROF
from repro.obs.trace import TRACE
from repro.sanitize import SANITIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.block.layer import BlockLayer

#: Bios carrying these flags bypass budget under the debt protocol.
URGENT_FLAGS = BioFlags.SWAP | BioFlags.JOURNAL
#: Integer value of URGENT_FLAGS: the enqueue fast path tests flag bits as
#: ints because ``Flag.__and__`` constructs an enum member per call.
_URGENT_VAL = URGENT_FLAGS.value

#: A leaf using less than this fraction of its hweight becomes a donor.
DONATION_THRESHOLD = 0.9
#: Headroom multiplier on a donor's kept budget, so it can grow back a bit
#: before needing to rescind.
DONATION_HEADROOM = 1.2
#: Minimum fraction of its hweight a donor always keeps.
DONATION_MIN_KEEP = 0.02

_INF = float("inf")


class IOCost(IOController):
    """Work-conserving, low-overhead, proportional IO controller."""

    name = "iocost"
    features = Features(
        low_overhead="yes",
        work_conserving="yes",
        memory_management_aware="yes",
        proportional_fairness="yes",
        cgroup_control="yes",
    )
    #: Modeled serialized CPU cost of the issue fast path (Fig 9): a few
    #: arithmetic ops and a cached hweight lookup.
    issue_overhead = 0.6e-6

    def __init__(
        self,
        cost_model: CostModel,
        qos: QoSParams = QoSParams(),
        swap_mode: SwapChargeMode = SwapChargeMode.DEBT,
        donation_enabled: bool = True,
        initial_vrate: float = 1.0,
    ) -> None:
        super().__init__()
        self.model = cost_model
        self.qos = qos
        self.swap_mode = swap_mode
        self.donation_enabled = donation_enabled
        self._initial_vrate = initial_vrate

        self.tree = WeightTree()
        # One list: the tree adds states (whole chains), retirement removes.
        self.groups = self.tree.groups
        self.clock: VTimeClock = None  # type: ignore[assignment]
        self.vrate_ctl: VRateController = None  # type: ignore[assignment]
        self.debt: DebtTracker = None  # type: ignore[assignment]
        #: Budget cap in vtime seconds: how much unused budget a group may
        #: bank (prevents long-idle-then-burst overshoot).
        self.budget_cap = qos.period

        self._urgent: Deque[Bio] = deque()
        #: Bios in budget waitqs (docs/PERF.md): ``on_complete`` pumps only
        #: when there are some.  Moved at the two waitq touch points
        #: (enqueue append, _try_issue popleft).
        self._queued = 0
        self._plan_timer = None
        # Period counters.
        self._budget_blocked_events = 0
        # Lifetime statistics.
        self.urgent_ios = 0
        self.debt_charged = 0.0
        self.rescinds = 0
        self.donation_passes = 0
        #: Cost paid by bios that failed for good: charged at enqueue, never refunded.
        self.failed_cost = 0.0
        # Cached tracepoints (single flag check each when tracing is off).
        self._tp_debt = TRACE.points["debt_pay"]
        self._tp_vrate = TRACE.points["vrate_adjust"]
        self._tp_period = TRACE.points["qos_period"]
        # Cached self-profiler (same zero-cost guard, repro.obs.prof).
        self._prof = PROF
        # Cached sanitizer, and the cost ledger it audits (summed while it is on).
        self._san = SANITIZE
        self._incurred = self._charged = 0.0

    # -- lifecycle ------------------------------------------------------------

    def attach(self, layer: "BlockLayer") -> None:
        super().attach(layer)
        self.tree.dev = layer.dev
        sim = layer.sim
        self.clock = VTimeClock(sim, self._initial_vrate)
        self.vrate_ctl = VRateController(self.clock, self.qos)
        self.debt = DebtTracker(self.clock)
        # The QoS signal: the layer's device windows, reaching back the horizon.
        for window in (layer.read_latency, layer.write_latency):
            window.window = max(window.window, self.vrate_ctl.horizon)
        self._plan_timer = sim.schedule(self.qos.period, self._plan)

    def detach(self) -> None:
        if self._plan_timer is not None:
            self._plan_timer.cancel()
            self._plan_timer = None
        super().detach()

    # -- configuration ------------------------------------------------------------

    def set_weight(self, cgroup: Cgroup, weight: int) -> None:
        """Update a cgroup's weight with immediate effect."""
        cgroup.weight = weight
        state = self.tree.lookup(cgroup)
        if state is not None and not state.donating:
            state.weight_eff = float(weight)
        self.tree.bump()

    def hweight_of(self, cgroup: Cgroup) -> float:
        """Current hierarchical weight share of a cgroup (diagnostic)."""
        return self.tree.hweight(self.tree.state_of(cgroup))

    def userspace_delay(self, cgroup: Cgroup) -> float:
        """§3.5 return-to-userspace debt throttle, called by the MM layer."""
        state = self.tree.lookup(cgroup)
        if state is None:
            return 0.0
        delay = self.debt.userspace_delay(state)
        if delay > 0 and self._tp_debt.enabled:
            self._tp_debt.emit(
                self.layer.sim.now,
                dev=self.layer.dev,
                cgroup=cgroup.path,
                kind="userspace_delay",
                amount=delay,
                debt=self.debt.debt_walltime(state),
            )
        return delay

    # -- issue path ------------------------------------------------------------

    def enqueue(self, bio: Bio) -> None:
        group: Optional[GroupState] = bio.blkg.pd
        if group is None:
            group = self.tree.state_of(bio.cgroup)
        bio.abs_cost = self.model.cost(bio)
        if self._san.enabled:
            self._incurred += bio.abs_cost
        if not group.active:
            self._activate(group)

        # Only reclaim-side *writes* (swap-out, journal) are the §3.5
        # priority-inversion case: they complete on behalf of some other
        # cgroup.  Swap-in reads are synchronous for the faulting cgroup
        # itself and are throttled like any other IO.
        urgent = bio.is_write and (bio.flags.value & _URGENT_VAL) != 0
        if urgent and self.swap_mode is not SwapChargeMode.ORIGIN_THROTTLE:
            if self.swap_mode is SwapChargeMode.DEBT:
                # Charge the owner: local vtime runs ahead (debt), but the
                # bio itself is never blocked on budget.
                hweight = self.tree.hweight(group)
                if hweight > 0:
                    relative = bio.abs_cost / hweight
                    group.local_vtime = (
                        max(group.local_vtime, self.clock.now()) + relative
                    )
                    self.debt_charged += bio.abs_cost
                    if self._tp_debt.enabled:
                        self._tp_debt.emit(
                            self.layer.sim.now,
                            dev=self.layer.dev,
                            cgroup=group.cgroup.path,
                            kind="charge",
                            amount=bio.abs_cost,
                            debt=self.debt.debt_walltime(group),
                        )
                group.abs_usage += bio.abs_cost
            else:  # SwapChargeMode.ROOT: free IO, charged to nobody.
                root = self.tree.root
                if root is not None:
                    root.abs_usage += bio.abs_cost
            # Either way the cost has left the queue-side ledger: DEBT
            # charged the owner, ROOT deliberately wrote it off.
            if self._san.enabled:
                self._charged += bio.abs_cost
            self.urgent_ios += 1
            self._urgent.append(bio)
            return

        self._queued += 1
        group.waitq.append(bio)

    def pump(self) -> None:
        layer = self.layer
        if self._prof.enabled:
            self._prof.pump_calls += 1
        # Urgent (swap/journal) bios first: they bypass budget entirely.
        while self._urgent and layer.inflight < layer.nr_slots:
            layer.dispatch(self._urgent.popleft())
        if not self._queued or layer.inflight >= layer.nr_slots:
            return
        tree = self.tree
        now = layer.sim.now
        for state in self.groups:  # creation order
            if not state.waitq:
                continue
            # Held under the current key: its head waits for its wake (hold).
            # A wake due this instant is taken here, in creation order.
            if state.wake_key == tree.hold_generation and state.wake.time > now:
                continue
            self._try_issue(state)
            if layer.inflight >= layer.nr_slots:
                break

    def _activate(self, group: GroupState) -> None:
        if group.active:
            return
        self.tree.activate(group)
        # A newly-active group starts with zero budget and zero debt.
        group.local_vtime = max(group.local_vtime, self.clock.now())

    def _try_issue(self, group: GroupState) -> None:
        layer = self.layer
        tree = self.tree
        waitq = group.waitq
        while waitq and layer.inflight < layer.nr_slots:
            bio = waitq[0]
            # Cached reciprocal: the per-bio charge is a multiply, not a
            # division (hierarchy.hweight_inv).
            inv_hweight = tree.hweight_inv(group)
            if inv_hweight == _INF:
                break
            relative = bio.abs_cost * inv_hweight
            # A donor whose donated share cannot even afford this IO from a
            # full budget bank rescinds *before* issuing — otherwise the
            # oversize-issue rule below would charge a catastrophically
            # inflated relative cost against the shrunken weight.
            if group.donating and relative > self.budget_cap:
                tree.rescind(group)
                self.rescinds += 1
                continue
            now_v = self.clock.now()
            # Cap banked budget.
            floor = now_v - self.budget_cap
            if group.local_vtime < floor:
                group.local_vtime = floor
            budget = now_v - group.local_vtime
            # An IO whose relative cost exceeds the budget cap could never
            # accumulate enough budget; it issues once the bank is full and
            # charges the full cost forward (transiently negative budget),
            # which preserves the group's long-run rate.
            need = self.budget_cap if self.budget_cap < relative else relative
            if budget + 1e-12 >= need:
                group.local_vtime += relative
                group.abs_usage += bio.abs_cost
                if self._san.enabled:
                    self._charged += bio.abs_cost
                waitq.popleft()
                self._queued -= 1
                layer.dispatch(bio)
            else:
                if group.donating:
                    # §3.6: a donor whose budget runs low rescinds locally
                    # in the issue path and retries with restored weight.
                    tree.rescind(group)
                    self.rescinds += 1
                    continue
                self._budget_blocked_events += 1
                # The deadline moves earlier only with a rising hweight or
                # the vtime line (_plan bumps the tree after moving it);
                # local vtime only ever pushes it later (debt charges).
                delay = self.clock.wall_delay_for(need - budget)
                self.hold(group, bio, "budget", delay, tree.hold_generation)
                break

    def on_complete(self, bio: Bio) -> None:
        # A bio that failed for good (docs/FAULTS.md) was charged at enqueue
        # and is never refunded — errored IO still pays (graceful degradation).
        if bio.status is not BioStatus.OK:
            self.failed_cost += bio.abs_cost
        # Held heads wake on their own timers: only a queued bio wants the slot.
        if self._queued or self._urgent:
            self.pump()

    # -- planning path ------------------------------------------------------------

    def _plan(self) -> None:
        sim = self.layer.sim
        if self._prof.enabled:
            self._prof.plan_ticks += 1
        if self._san.enabled:
            self._audit()
        self._deactivate_idle()
        if self.donation_enabled:
            self._recompute_donations()
        prev_saturations = self.vrate_ctl.saturation_events
        prev_starvations = self.vrate_ctl.starvation_events
        vrate = self.vrate_ctl.adjust(
            sim.now,
            self.layer.read_latency,
            self.layer.write_latency,
            self.layer.slot_utilization,
            budget_starved=self._budget_blocked_events > 0,
        )
        if self._tp_vrate.enabled:
            self._tp_vrate.emit(
                sim.now,
                dev=self.layer.dev,
                vrate=vrate,
                busy_level=self.vrate_ctl.busy_level,
                saturated=self.vrate_ctl.saturation_events > prev_saturations,
                starved=self.vrate_ctl.starvation_events > prev_starvations,
                read_p=self.vrate_ctl.read_p,
                write_p=self.vrate_ctl.write_p,
            )
        # Fold the per-period counters into the lifetime statistics before
        # the in-place reset; the io.stat surface reads the totals.
        now_v = self.clock.now()
        active_groups = 0
        for state in self.groups:
            if state.active:
                active_groups += 1
            state.usage_total += state.abs_usage
            if state.local_vtime > now_v:
                state.indebt_total += self.qos.period
            state.abs_usage = 0.0
            state.ios_seen = state.blkg.total_ios
        if self._tp_period.enabled:
            self._tp_period.emit(
                sim.now,
                dev=self.layer.dev,
                period=self.qos.period,
                vrate=vrate,
                active_groups=active_groups,
                budget_blocked=self._budget_blocked_events,
            )
        self._budget_blocked_events = 0
        # Every held head is re-evaluated once a period (hold's key): vrate
        # may have moved the vtime line, and a head still short of budget is
        # what the next adjustment reads as starvation.
        self.tree.bump()
        self.pump()
        self._plan_timer = sim.schedule(self.qos.period, self._plan)

    def _audit(self) -> None:
        """Per-period sanitizer audit (only called while SANITIZE is on):
        cost conservation across the whole tree, vtime monotonicity per
        group.  Urgent bios were charged at enqueue, so only budget-waitq
        bios count as pending."""
        san = self._san
        pending = 0.0
        for state in self.groups:
            for queued in state.waitq:
                pending += queued.abs_cost
            san.check_vtime(state.cgroup.path, state.audited_vtime, state.local_vtime)
            state.audited_vtime = state.local_vtime
        san.check_conservation(self._incurred, self._charged, pending, self.layer.dev)

    def _deactivate_idle(self) -> None:
        offline = False
        for state in self.groups:
            blkg = state.blkg
            if state.active and blkg.total_ios == state.ios_seen and not state.waitq:
                self.tree.deactivate(state)
            if not blkg.online:
                offline = True
        if offline:
            self.retire_offline()

    def drained(self, group: GroupState) -> bool:
        # A draining child's hweight still compounds through its dead parent.
        return not group.waitq and not group.children

    def retired(self, group: GroupState) -> None:
        self.tree.drop(group)

    def _recompute_donations(self) -> None:
        self.tree.refresh_base_weights()
        capacity = self.qos.period * self.clock.vrate
        if capacity <= 0:
            return
        targets = {}
        for leaf in self.tree.active_leaves():
            if leaf.waitq:
                continue  # backlogged groups obviously want their share
            hweight = self.tree.hweight(leaf)
            if hweight <= 0:
                continue
            used_share = leaf.abs_usage / capacity
            if used_share < hweight * DONATION_THRESHOLD:
                keep = min(
                    hweight,
                    max(used_share * DONATION_HEADROOM, hweight * DONATION_MIN_KEEP),
                )
                targets[leaf] = keep
        if targets:
            compute_donations(
                self.tree, targets, now=self.layer.sim.now, dev=self.layer.dev
            )
            self.donation_passes += 1

    # -- introspection ------------------------------------------------------------

    @property
    def vrate(self) -> float:
        return self.clock.vrate

    def cost_stat(self, cgroup: Cgroup) -> dict:
        """Kernel iocost io.stat keys for one cgroup.

        Surfaces the lifetime statistics the planning path accumulates
        before its per-period reset:

        * ``cost.vrate`` — current global vrate (same for every cgroup);
        * ``cost.usage`` — lifetime absolute cost issued (device seconds);
        * ``cost.ios`` — lifetime IOs submitted (the record's count);
        * ``cost.wait`` — wall seconds the cgroup's bios waited above the
          device (from the block layer's completion accounting);
        * ``cost.indebt`` — wall seconds observed in §3.5 debt;
        * ``cost.indelay`` — wall seconds of userspace-boundary delay.
        """
        stat = super().cost_stat(cgroup)
        stat["cost.vrate"] = self.clock.vrate if self.clock is not None else 1.0
        state = self.tree.lookup(cgroup)
        if state is None:
            stat.update({
                "cost.usage": 0.0, "cost.ios": 0, "cost.wait": 0.0,
                "cost.indebt": 0.0, "cost.indelay": 0.0,
            })
            return stat
        stat.update({
            # Include the running period's partial usage so the surface is
            # monotone between planning ticks.
            "cost.usage": state.usage_total + state.abs_usage,
            "cost.ios": state.blkg.total_ios,
            "cost.wait": state.blkg.wait_total,  # this device's wait only
            "cost.indebt": state.indebt_total,
            "cost.indelay": state.indelay_total,
        })
        return stat

    def stat(self, cgroup: Cgroup) -> dict:
        """Kernel ``io.cost.stat``-style snapshot for one cgroup.

        Keys: ``active``, ``weight`` (configured), ``weight_eff``
        (donation-adjusted), ``hweight``, ``budget`` (vtime seconds of
        headroom; negative = in debt), ``debt_walltime``, ``queued``
        (bios waiting on budget), ``donating``.
        """
        state = self.tree.lookup(cgroup)
        if state is None:
            return {
                "active": False,
                "weight": cgroup.weight,
                "weight_eff": float(cgroup.weight),
                "hweight": 0.0,
                "budget": 0.0,
                "debt_walltime": 0.0,
                "queued": 0,
                "donating": False,
            }
        return {
            "active": state.active,
            "weight": cgroup.weight,
            "weight_eff": state.weight_eff,
            "hweight": self.tree.hweight(state),
            "budget": self.clock.now() - state.local_vtime,
            "debt_walltime": self.debt.debt_walltime(state),
            "queued": len(state.waitq),
            "donating": state.donating,
        }
