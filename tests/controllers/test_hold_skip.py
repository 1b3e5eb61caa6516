"""A blocked group is re-evaluated when its inputs change, not on every pump.

``IOController.hold`` arms one wake per held head and records the key its
deadline was computed under; the pump loops of IOCost and blk-throttle skip
a group whose key is current.  The optimisation's own correctness check is
differential: seeded random machines run once as shipped and once with
every group's key cleared before each pump — the brute-force re-evaluation
of every backlogged group on every pump — and every bio must issue at the
same instant in both.  A second check reads the invariant straight off a
running machine: a skipped head could not have issued.
"""

from collections import Counter

import numpy as np
import pytest

from repro.block.bio import Bio, BioFlags, IOOp
from repro.controllers import BlkThrottleController, ThrottleLimits
from repro.core.controller import IOCost
from repro.core.qos import QoSParams
from repro.obs import TRACE, TraceBuffer
from repro.sanitize import SANITIZE
from repro.testbed import Testbed

DURATION = 0.3
#: Latency targets tight enough that vrate moves: the vtime line is one of
#: the inputs a held deadline depends on.
QOS = QoSParams(
    read_lat_target=1e-3, read_pct=95, write_lat_target=5e-3, write_pct=95,
    vrate_min=0.25, vrate_max=1.5, period=0.02,
)
WEIGHTS = (25, 50, 100, 200, 400, 800)
SEEDS = range(8)


def brute_force(controller):
    """Clear every group's key before each pump: nothing is ever skipped.
    IOCost's pump visits only its ready groups; a stale ready key makes it
    re-mark every backlogged group, as a full walk would try them."""
    pump = controller.pump

    def pump_everything():
        for group in controller.groups:
            group.wake_key = None
        if isinstance(controller, IOCost):
            controller._ready_key = None
        pump()

    controller.pump = pump_everything


def random_tree(bed, rng):
    """2-3 levels under ``workload.slice``, at most 8 leaves, random weights."""
    leaves = []
    for tenant in range(int(rng.integers(2, 4))):
        path = f"workload.slice/t{tenant}"
        bed.add_cgroup(path, weight=int(rng.choice(WEIGHTS)))
        for index in range(int(rng.integers(1, 4))):
            if len(leaves) == 8:
                break
            child = f"{path}/c{index}"
            if rng.random() < 0.3:  # a third level
                bed.add_cgroup(child, weight=int(rng.choice(WEIGHTS)))
                child += "/leaf"
            leaves.append(bed.add_cgroup(child, weight=int(rng.choice(WEIGHTS))))
    return leaves


def attach_random_workload(bed, rng, leaf, stop_at):
    """One of the three synthetic kinds, started at a random instant: groups
    that start in lock-step with commensurate weights have wakes due a few
    ulps apart, where the brute force takes every head at the first of them
    in creation order and the shipped code each at its own wake — the same
    instant in another order, which is not what this file is after."""
    kind = rng.choice(("saturate", "saturate", "paced", "think"))
    if kind == "saturate":
        op, size = (IOOp.READ, 4096) if rng.random() < 0.6 else (IOOp.WRITE, 65536)
        start = bed.saturate
        kwargs = {"op": op, "size": size, "depth": int(rng.integers(4, 33))}
    elif kind == "paced":
        start = bed.paced
        kwargs = {"rate": float(rng.uniform(500, 4000))}
    else:
        start = bed.think_time
        kwargs = {"think_time": float(rng.uniform(50e-6, 400e-6))}
    bed.sim.schedule(
        float(rng.uniform(0, 0.01)), lambda: start(leaf, stop_at=stop_at, **kwargs)
    )
    return kind


def iocost_machine(seed, brute):
    """A random weighted tree of mixed workloads on ``ssd_old`` with, mid-run,
    one ``set_weight``, one cgroup removal and DEBT-mode swap-outs charged to
    a saturating group (whose head is held when budget binds)."""
    rng = np.random.default_rng(seed)
    # Without donation only a vrate change moves the key between activations.
    bed = Testbed(
        "ssd_old", "iocost", seed=seed, qos=QOS, donation_enabled=bool(rng.random() < 0.5)
    )
    if brute:
        brute_force(bed.controller)
    leaves = random_tree(bed, rng)
    doomed = leaves[int(rng.integers(len(leaves)))]
    remove_at = float(rng.uniform(0.1, 0.2))
    kinds = [
        attach_random_workload(
            bed, rng, leaf, remove_at if leaf is doomed else DURATION
        )
        for leaf in leaves
    ]
    # A saturating group that lives to the end takes the debt: it always
    # has a backlog, so budget binds and its head is held when charged.
    survivors = [leaf for leaf in leaves if leaf is not doomed]
    saturating = [leaf for leaf in survivors if kinds[leaves.index(leaf)] == "saturate"]
    debtor = saturating[0] if saturating else survivors[0]
    if not saturating:
        bed.saturate(debtor, depth=16, stop_at=DURATION)
    sim = bed.sim
    reweighted = leaves[int(rng.integers(len(leaves)))]
    sim.schedule(
        float(rng.uniform(0.05, 0.25)), bed.set_weight, reweighted, int(rng.choice(WEIGHTS))
    )
    sim.schedule(remove_at, bed.cgroups.remove, doomed.path)

    def swap_out_burst():
        for index in range(16):
            bed.layer.submit(
                Bio(IOOp.WRITE, 4096, 8 * index, debtor, flags=BioFlags.SWAP)
            )

    for at in rng.uniform(0.03, DURATION - 0.03, size=3):
        sim.schedule(float(at), swap_out_burst)
    return bed, leaves


def throttle_machine(seed, brute):
    """Up to six limited cgroups under blk-throttle, one reconfigured mid-run."""
    rng = np.random.default_rng(seed)
    paths = [f"workload.slice/c{index}" for index in range(int(rng.integers(2, 7)))]

    def limits():
        return ThrottleLimits(
            riops=float(rng.uniform(500, 5000)), rbps=float(rng.uniform(4e6, 40e6))
        )

    controller = BlkThrottleController({path: limits() for path in paths})
    bed = Testbed("ssd_old", controller, seed=seed)
    if brute:
        brute_force(controller)
    leaves = [bed.add_cgroup(path) for path in paths]
    for leaf in leaves:
        bed.saturate(leaf, depth=int(rng.integers(2, 17)), stop_at=DURATION)
    bed.sim.schedule(
        float(rng.uniform(0.05, 0.25)), controller.set_limits, paths[0], limits()
    )
    return bed, leaves


def issue_times(machine, seed, brute):
    """``{bio id: issue time}`` and completed bios per cgroup of one run."""
    bed, leaves = machine(seed, brute)
    issues = TraceBuffer(capacity=1 << 20).attach(TRACE, events=("bio_issue",))
    try:
        bed.run(DURATION + 0.1)  # the workloads stop at DURATION; drain
    finally:
        issues.detach()
        bed.detach()
    assert bed.layer.completed_ios == bed.layer.submitted_ios > 500
    times = {event.fields["id"]: event.time for event in issues.events}
    assert len(times) == len(issues.events)
    return times, Counter({leaf.path: bed.layer.iops_of(leaf) for leaf in leaves})


@pytest.fixture(params=(False, True), ids=("plain", "sanitized"))
def sanitize(request):
    was = SANITIZE.enabled
    SANITIZE.enabled = request.param or was
    SANITIZE.reset()
    yield
    SANITIZE.enabled = was
    SANITIZE.reset()


@pytest.mark.parametrize("machine", (iocost_machine, throttle_machine))
@pytest.mark.parametrize("seed", SEEDS)
def test_skipping_issues_every_bio_when_brute_force_does(machine, seed, sanitize):
    shipped, shipped_done = issue_times(machine, seed, brute=False)
    brute, brute_done = issue_times(machine, seed, brute=True)
    assert shipped_done == brute_done
    assert shipped.keys() == brute.keys()
    late = {
        bio: (shipped[bio], brute[bio])
        for bio in shipped
        if abs(shipped[bio] - brute[bio]) > 1e-9
    }
    assert not late, f"{len(late)} of {len(shipped)} bios, first {min(late.items())}"


@pytest.mark.parametrize("seed", SEEDS)
def test_a_skipped_head_could_not_have_issued(seed):
    """``hold``'s invariant, checked at every pump of a running machine: an
    armed wake under the current key fires no later than the head's true
    deadline (recomputed here with the issue path's arithmetic, so equal up
    to float rounding)."""
    bed, _ = iocost_machine(seed, brute=False)
    controller = bed.controller
    tree, clock = controller.tree, controller.clock
    pump = controller.pump
    checked = Counter()

    def checking_pump():
        now = bed.sim.now
        for group in controller.groups:
            if not group.waitq or group.wake_key != tree.hold_generation:
                continue
            relative = group.waitq[0].abs_cost * tree.hweight_inv(group)
            need = min(relative, controller.budget_cap)
            budget = clock.now() - max(
                group.local_vtime, clock.now() - controller.budget_cap
            )
            deadline = now + clock.wall_delay_for(need - budget)
            assert group.wake.time <= deadline + 1e-12, group
            checked["skippable"] += 1
        pump()

    controller.pump = checking_pump
    bed.run(DURATION)
    bed.detach()
    assert checked["skippable"] > 100  # the check had subjects
