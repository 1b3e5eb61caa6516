"""Hierarchical weight state: hweight compounding, caching, activity.

``hweight`` is a cgroup's ultimate share of the device: the product, walking
up the hierarchy, of its weight over the sum of its *active* siblings'
weights (§3.1).  Recomputing that on every IO would put tree walks on the
hot path, so results are cached per group and keyed on a *weight-tree
generation number* which bumps whenever anything that affects hweights
changes: weight updates, activations/deactivations, donation adjustments.

Beside it runs ``hold_generation``, IOCost's hold key (``IOController.hold``),
which skips activations and new groups: they only add to sibling sums, so a
held head's deadline can only move later.  As in the kernel, a sibling's
activation re-evaluates no waiting queue; its own timer and the plan tick do.
The skip itself lives in IOCost (``core/controller.py``): a group is *ready*
while it is backlogged and not held under the current key with its wake
still ahead, and a pump visits only ready groups, in creation ``order``.

A group is *active* while it issues IO; after a full planning period with no
IO it is deactivated and drops out of sibling sums — idle groups implicitly
donate their budget (§3.1.1).  Activity is reference-counted up the tree so
internal nodes stay active while any descendant is.

A group's state hangs off its cgroup's record for the tree's device
(``cgroup.stats.device(tree.dev).pd``); the tree maps no paths to states.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional

from repro.cgroup import UNATTRIBUTED_DEV, Cgroup, IOStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.block.bio import Bio
    from repro.sim import Event


class GroupState:
    """IOCost's per-cgroup state (the kernel's ``ioc_gq``); ``blkg`` counts its IOs."""

    def __init__(
        self, cgroup: Cgroup, parent: Optional["GroupState"], blkg: IOStats, order: int
    ) -> None:
        self.cgroup = cgroup
        self.order = order  # creation index: the order a pump visits groups in
        self.parent = parent
        self.blkg = blkg  # the record this state hangs off (its ``pd``)
        self.children: List[GroupState] = []
        # Effective weight: the configured weight, lowered while donating.
        self.weight_eff: float = float(cgroup.weight)
        self.donating = False
        # Count of active groups in this subtree (including self).
        self.active_refs = 0
        self.active = False
        # Issue-path state.
        self.local_vtime = 0.0
        self.audited_vtime: Optional[float] = None  # sanitizer's last look
        self.waitq: Deque["Bio"] = deque()
        # IOController.hold: the head bio last noted, the one wake timer and
        # the tree's hold generation its deadline was computed under.
        self.held: Optional["Bio"] = None
        self.wake: Optional["Event"] = None
        self.wake_key: Optional[int] = None
        # In IOCost's ready set: backlogged, and not held under the current key.
        self.ready = False
        # Planning-path accounting (reset each period).
        self.abs_usage = 0.0
        self.ios_seen = 0  # the record's total_ios at the last plan tick
        # Lifetime accounting: the per-period values are folded in here by
        # the planning path before the in-place reset, and surfaced through
        # the io.stat ``cost.*`` keys (repro.obs.iostat).
        self.usage_total = 0.0
        self.indebt_total = 0.0   # wall seconds observed in debt
        self.indelay_total = 0.0  # wall seconds of userspace-boundary delay
        # Hweight cache and its reciprocal, under one generation key (the
        # issue path charges ``abs_cost / hweight`` per bio: a multiply).
        self._hw_gen = -1
        self._hw_value = 0.0
        self._hw_inv = 0.0

    @property
    def is_leaf_like(self) -> bool:
        """True when no active child exists (donation considers only these)."""
        return not any(child.active_refs > 0 for child in self.children)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GroupState({self.cgroup.path or '/'}, w_eff={self.weight_eff:.2f})"


class WeightTree:
    """The IOCost view of the cgroup hierarchy."""

    def __init__(self, dev: str = UNATTRIBUTED_DEV) -> None:
        #: Device id whose records carry this tree's states.
        self.dev = dev
        self.generation = 0
        #: Advanced only by changes that can move a held deadline earlier.
        self.hold_generation = 0
        #: Live states in creation order (parents before their children).
        self.groups: List[GroupState] = []
        self.root: Optional[GroupState] = None
        #: States ever made: the next one's ``order``.
        self.created = 0

    # -- state management ---------------------------------------------------

    def state_of(self, cgroup: Cgroup) -> GroupState:
        """Get or create the state chain for ``cgroup`` up to the root."""
        blkg = cgroup.stats.device(self.dev)
        state: Optional[GroupState] = blkg.pd
        if state is not None:
            return state
        parent_state = None
        if cgroup.parent is not None:
            parent_state = self.state_of(cgroup.parent)
        state = blkg.pd = GroupState(cgroup, parent_state, blkg, self.created)
        self.created += 1
        self.groups.append(state)
        if parent_state is not None:
            parent_state.children.append(state)
        else:
            self.root = state
        self.generation += 1  # inactive: in no sibling sum yet
        return state

    def lookup(self, cgroup: Cgroup) -> Optional[GroupState]:
        """``cgroup``'s state if it has one (nothing is created by asking)."""
        blkg = cgroup.stats.per_device.get(self.dev)
        return blkg.pd if blkg is not None else None

    def active_leaves(self) -> List[GroupState]:
        """Active groups with no active children (donation candidates)."""
        return [
            state for state in self.groups if state.active and state.is_leaf_like
        ]

    def drop(self, state: GroupState) -> None:
        """A retired state leaves the active set and its parent's children."""
        self.deactivate(state)
        if state.parent is not None:
            state.parent.children.remove(state)

    # -- generation ----------------------------------------------------------

    def bump(self) -> None:
        """Invalidate all cached hweights; a held deadline may move earlier."""
        self.generation += 1
        self.hold_generation += 1

    # -- activity --------------------------------------------------------------

    def activate(self, state: GroupState) -> None:
        """Mark a group active (it issued IO).  No-op if already active."""
        if state.active:
            return
        state.active = True
        node: Optional[GroupState] = state
        while node is not None:
            node.active_refs += 1
            node = node.parent
        self.generation += 1  # other hweights only fall: no hold_generation

    def deactivate(self, state: GroupState) -> None:
        """Mark a group inactive (a full period passed with no IO)."""
        if not state.active:
            return
        state.active = False
        node: Optional[GroupState] = state
        while node is not None:
            node.active_refs -= 1
            node = node.parent
        self.bump()

    # -- hweight ------------------------------------------------------------------

    def hweight(self, state: GroupState) -> float:
        """The group's share of the device, compounded over active siblings.

        Cached; cost is O(depth) on a generation change and O(1) otherwise.
        An inactive group's hweight is what it *would* get were it to
        activate alongside the currently-active set.
        """
        if state._hw_gen == self.generation:
            return state._hw_value
        if state.parent is None:
            value = 1.0
        else:
            siblings = sum(
                child.weight_eff
                for child in state.parent.children
                if child.active_refs > 0 or child is state
            )
            if siblings <= 0:
                value = 0.0
            else:
                value = self.hweight(state.parent) * state.weight_eff / siblings
        state._hw_gen = self.generation
        state._hw_value = value
        state._hw_inv = 1.0 / value if value > 0 else float("inf")
        return value

    def hweight_inv(self, state: GroupState) -> float:
        """``1.0 / hweight(state)`` (``inf`` for a zero hweight), stored by
        :meth:`hweight` under the same generation key."""
        if state._hw_gen != self.generation:
            self.hweight(state)
        return state._hw_inv

    # -- weight updates ------------------------------------------------------------

    def refresh_base_weights(self) -> None:
        """Reset effective weights to the configured cgroup weights.

        The planning path calls this before recomputing donations, which
        also picks up any ``cgroup.weight`` changes made since last period.
        """
        for state in self.groups:
            state.weight_eff = float(state.cgroup.weight)
            state.donating = False
        self.bump()

    def rescind(self, state: GroupState) -> None:
        """Issue-path donation rescind (§3.6 requirement 3).

        Restores configured weights along the donor's path to the root.  The
        paper propagates an exact partial update; restoring the full base
        weight on the path is a conservative approximation that lasts at
        most one planning period (donations are recomputed every period).
        """
        node: Optional[GroupState] = state
        while node is not None:
            node.weight_eff = float(node.cgroup.weight)
            node.donating = False
            node = node.parent
        self.bump()
