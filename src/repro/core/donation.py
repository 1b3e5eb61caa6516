"""The work-conserving budget-donation algorithm (paper §3.6).

Each planning period, groups that used less than their hweight donate the
excess.  Donation is implemented purely as *weight* adjustments along the
paths from donating leaves to the root, so:

1. the issue path stays local (hweights are recalculated lazily from the
   generation number),
2. total issued IO never exceeds what vrate dictates (no budget is created,
   only redistributed), and
3. a donor can rescind locally at issue time.

The weight updates preserve the paper's two invariants.  With ``w`` weight,
``s`` the summed weight of the parent's children, ``h`` hweight, ``d`` the
total hweight of donating leaves in the subtree, primes denoting
post-donation values and ``p`` subscripts the parent:

* Equation (4): the proportion of a parent's non-donating hweight is
  unchanged — ``(h - d) / (h_p - d_p) = (h' - d') / (h'_p - d'_p)``.
* Equation (5): the summed weight of non-donating siblings is unchanged —
  ``s (h_p - d_p) / h_p = s' (h'_p - d'_p) / h'_p``.

which yield, walking down each donation path:

1. ``h' = ((h - d) / (h_p - d_p)) (h'_p - d'_p) + d'``
2. ``s' = s ((h_p - d_p) / h_p) (h'_p / (h'_p - d'_p))``
3. ``w' = s' (h' / h'_p)``

Only nodes on donor paths get new weights; every other group's hweight
comes out correct from its *unchanged* weight when lazily recomputed — the
property that makes donation cheap on large hierarchies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.hierarchy import GroupState, WeightTree
from repro.obs.trace import TRACE

_TP_DONATION = TRACE.points["donation_recalc"]

#: Effective weights are clamped here to avoid degenerate zero shares.
MIN_EFFECTIVE_WEIGHT = 1e-6


@dataclass
class DonationResult:
    """What a donation pass changed, for inspection and tests."""

    #: Post-donation hweight per path-node (keyed by cgroup path).
    hweight_after: Dict[str, float] = field(default_factory=dict)
    #: New effective weights along donor paths (keyed by cgroup path).
    weight_after: Dict[str, float] = field(default_factory=dict)
    #: Total hweight transferred away from donors.
    donated_total: float = 0.0


def compute_donations(
    tree: WeightTree,
    targets: Dict[GroupState, float],
    now: Optional[float] = None,
    dev: Optional[str] = None,
) -> DonationResult:
    """Apply budget donation for the given donors.

    ``targets`` maps donating leaf states to the hweight they should keep
    (their ``d'``).  Effective weights must be at base values (call
    :meth:`WeightTree.refresh_base_weights` first).  Mutates the tree's
    effective weights along donor paths and bumps the generation.

    ``now`` (simulated seconds) timestamps the ``donation_recalc``
    tracepoint; omitting it stamps 0.0.  ``dev`` tags the event with the
    owning device's ``maj:min`` id on multi-device machines.
    """
    result = DonationResult()
    if not targets:
        return result

    # Pre-donation hweights for every node on a donor path (and parents).
    pre_h: Dict[GroupState, float] = {}
    d: Dict[GroupState, float] = {}
    d_prime: Dict[GroupState, float] = {}

    for leaf, keep in targets.items():
        leaf_h = tree.hweight(leaf)
        if keep > leaf_h:
            raise ValueError(
                f"donation target {keep} exceeds current hweight {leaf_h} "
                f"for {leaf.cgroup.path!r}"
            )
        node = leaf
        while node is not None:
            pre_h.setdefault(node, tree.hweight(node))
            d[node] = d.get(node, 0.0) + leaf_h
            d_prime[node] = d_prime.get(node, 0.0) + keep
            node = node.parent

    root = tree.root
    if root is None:
        raise ValueError("donation pass requires a rooted weight tree")
    result.donated_total = d[root] - d_prime[root]

    # Post-donation hweights, computed top-down along donor paths.
    post_h: Dict[GroupState, float] = {root: pre_h[root]}

    # Breadth-first down the donor paths: parents before children.
    frontier: List[GroupState] = [root]
    while frontier:
        parent = frontier.pop(0)
        h_p, hp_prime = pre_h[parent], post_h[parent]
        d_p, dp_prime = d[parent], d_prime[parent]
        # Pre-donation sibling weight sum, snapshotted before any child on
        # this level gets its effective weight rewritten.
        s = sum(
            sibling.weight_eff
            for sibling in parent.children
            if sibling.active_refs > 0
        )
        for child in parent.children:
            if child not in d:
                continue  # not on a donor path; weight unchanged
            h, keep = pre_h[child], d_prime[child]
            non_donor = h_p - d_p
            if non_donor <= 0:
                # Everything under the parent donates; the child's share is
                # exactly what its donors keep.
                h_prime = keep
            else:
                h_prime = ((h - d[child]) / non_donor) * (hp_prime - dp_prime) + keep

            post_non_donor = hp_prime - dp_prime
            if non_donor <= 0 or post_non_donor <= 0:
                s_prime = s
            else:
                s_prime = s * (non_donor / h_p) * (hp_prime / post_non_donor)

            if hp_prime > 0:
                w_prime = s_prime * (h_prime / hp_prime)
            else:
                w_prime = MIN_EFFECTIVE_WEIGHT

            child.weight_eff = max(w_prime, MIN_EFFECTIVE_WEIGHT)
            child.donating = True
            post_h[child] = h_prime
            result.hweight_after[child.cgroup.path] = h_prime
            result.weight_after[child.cgroup.path] = child.weight_eff
            frontier.append(child)

    tree.bump()
    if _TP_DONATION.enabled:
        fields = dict(
            donors=[leaf.cgroup.path for leaf in targets],
            donated_total=result.donated_total,
        )
        if dev is not None:
            fields["dev"] = dev
        _TP_DONATION.emit(now if now is not None else 0.0, **fields)
    return result
