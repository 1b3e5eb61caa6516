"""The issue path's CPU cost is the bio's start time, not an event.

``BlockLayer.dispatch`` hands a bio to the device at once, its
``issue_time`` set to the instant the layer's one issue-path CPU is free,
and the device starts it no earlier (``Device.submit``).  The check is
differential: :class:`EventIssuedLayer` below is the model this replaced —
an event at the CPU-free instant hands the bio over, so the device always
sees ``issue_time == now`` and never holds a bio that is not issued yet —
and every bio of the machines below must be issued and completed at the same
instants, with the same status, physical sequentiality and retries, under
both.  (The counterpart of ``tests/controllers/test_hold_skip.py``.)
"""

from dataclasses import replace

import pytest

from repro import testbed
from repro.block.bio import IOOp
from repro.block.device import Device
from repro.block.device_models import HDD, SSD_NEW, SSD_OLD
from repro.block.layer import BlockLayer, BlockLayerError
from repro.controllers import (
    BlkThrottleController,
    IOLatencyController,
    MQDeadlineController,
    StackedController,
    ThrottleLimits,
)
from repro.faults import Brownout, ErrorBurst, FaultPlan, GCStall, Hang
from repro.testbed import Testbed, make_controller

DURATION = 0.04


class EventIssuedLayer(BlockLayer):
    """The old model: one simulator event per bio carries it across the
    issue path's CPU, and only then does the device see it."""

    def dispatch(self, bio):
        if self.inflight >= self.nr_slots:
            raise BlockLayerError("dispatch with no free request slots")
        self.inflight += 1
        overhead = self.controller.issue_overhead
        if overhead > 0:
            now = self.sim.now
            start = self._cpu_free_at if self._cpu_free_at > now else now
            self._cpu_free_at = start + overhead
            self.sim.schedule(self._cpu_free_at - now, self._hand_over, bio)
        else:
            self._hand_over(bio)

    def _hand_over(self, bio):
        bio.issue_time = self.sim.now
        self.device.submit(bio)
        if self.io_timeout is not None:
            self._timeouts[bio.id] = self.sim.schedule(
                self.io_timeout, self._timed_out, bio
            )


def mixed_load(bed, stop_at=DURATION):
    """Saturating reads, 64 KiB sequential writes, paced reads and
    think-time writes, in four weighted cgroups."""
    reads = bed.add_cgroup("workload.slice/reads", weight=400)
    writes = bed.add_cgroup("workload.slice/writes", weight=200)
    paced = bed.add_cgroup("workload.slice/paced", weight=100)
    think = bed.add_cgroup("workload.slice/think", weight=100)
    bed.saturate(reads, depth=32, stop_at=stop_at)
    bed.saturate(
        writes, op=IOOp.WRITE, size=65536, sequential=True, depth=8, stop_at=stop_at
    )
    bed.paced(paced, rate=4000, stop_at=stop_at)
    bed.think_time(think, op=IOOp.WRITE, think_time=150e-6, stop_at=stop_at)


def mechanism(name):
    def build():
        if name == "blk-throttle":
            controller = BlkThrottleController(
                {"workload.slice/reads": ThrottleLimits(riops=8000)}
            )
        elif name == "iolatency":
            controller = IOLatencyController({"workload.slice/paced": 1e-3})
        else:
            controller = name
        bed = Testbed("ssd_old", controller, seed=5)
        mixed_load(bed)
        return bed, DURATION + 0.01

    return build


def on_device(device, controller, seed=3, duration=DURATION, faults=None, **kwargs):
    def build():
        # A plan's error draws are consumed: a fresh one per machine.
        plan = faults() if faults is not None else None
        bed = Testbed(device, controller, seed=seed, faults=plan, **kwargs)
        mixed_load(bed, duration)
        return bed, duration + 0.01

    return build


def deep_queue(device, controller):
    def build():
        bed = Testbed(device, controller, seed=3)
        bed.saturate(bed.add_cgroup("workload.slice/deep", weight=100), depth=256,
                     stop_at=0.01)
        return bed, 0.02

    return build


def stacked():
    bed = Testbed(
        "ssd_old",
        StackedController(
            make_controller("iocost", testbed.get_device_spec("ssd_old")),
            MQDeadlineController(),
        ),
        seed=2,
    )
    mixed_load(bed)
    return bed, DURATION + 0.01


def every_fault():
    return FaultPlan([
        Brownout(0.005, 0.01, latency_mult=3.0),
        GCStall(0.012, 0.004),
        ErrorBurst(0.018, 0.008, error_rate=0.4),
        Hang(0.028, 0.003),
    ])


#: name -> builder returning ``(bed, seconds to run)``.
MACHINES = {
    **{
        f"ssd_old-{name}": mechanism(name)
        for name in ("none", "mq-deadline", "kyber", "blk-throttle", "bfq", "iolatency",
                     "iocost")
    },
    "hdd-iocost": on_device("hdd", "iocost", duration=0.3),
    "hdd-bfq": on_device("hdd", "bfq", duration=0.3),
    "ebs_gp3-iocost": on_device("ebs_gp3", "iocost", duration=0.1),
    "stacked-iocost-mq-deadline": stacked,
    "faults-iocost": on_device("ssd_old", "iocost", faults=every_fault),
    "faults-bfq": on_device("ssd_old", "bfq", faults=every_fault),
    "hang-io_timeout": on_device(
        "ssd_old", "bfq", faults=lambda: FaultPlan([Hang(0.01)]), io_timeout=0.005,
        max_retries=1,
    ),
    "ssd_new-x0.05": on_device(SSD_NEW.scaled(0.05), "iocost"),
    # Devices as fast as the issue path, where queues hold bios not issued
    # yet.  A disk whose NCQ queue has pending bios behind issued ones:
    "fast-hdd-bfq": on_device(HDD.scaled(500), "bfq"),
    "fast-hdd-iocost": on_device(HDD.scaled(500), "iocost"),
    # One channel: a completion often finds only pending reads and writes.
    "one-channel-iocost": on_device(replace(SSD_OLD, parallelism=1).scaled(20), "iocost"),
    # Reads slowed while any write debt is left, which drains within a
    # bio's CPU backlog: GC drains at the start instant.
    "gc-debt-iocost": on_device(
        replace(SSD_NEW, gc_buffer_bytes=1, gc_drain_bps=1e9), "iocost"
    ),
    # A CPU backlog longer than the run so far: ``now + (free - now)`` is
    # then an ulp off the bare CPU-free instant, and the old event fired at
    # the former.
    "deep-mq-deadline": deep_queue("ssd_new", "mq-deadline"),
    # A bio that starts in the second window is parked before the first
    # ends: it must stay parked until the end of its own.
    "two-hangs-bfq": on_device(
        "ssd_old", "bfq", faults=lambda: FaultPlan([Hang(20e-6, 10e-6), Hang(40e-6, 0.002)])
    ),
}


def outcomes(monkeypatch, build, layer_cls):
    """Every bio the machine saw, as ``(id, issue_time, complete_time,
    status, device_sequential, retries)``; the events dispatched; and the
    dispatches that crossed a costly issue path by the end of the run."""
    bios = []
    costly = []

    class Recording(layer_cls):
        def submit(self, bio, on_done=None):
            bios.append(bio)
            super().submit(bio, on_done)

        def dispatch(self, bio):
            super().dispatch(bio)
            if self.controller.issue_overhead > 0:
                now = self.sim.now
                costly.append(now + (self._cpu_free_at - now))  # its issue time

    monkeypatch.setattr(testbed, "BlockLayer", Recording)
    bed, seconds = build()
    bed.run(seconds)
    bed.detach()
    end = bed.sim.now

    def issued(bio):  # a hand-over event still on the heap has not run
        return bio.issue_time if bio.issue_time is not None and bio.issue_time <= end else None

    return [
        (bio.id, issued(bio), bio.complete_time, bio.status, bio.device_sequential, bio.retries)
        for bio in bios
    ], bed.sim.events_processed, sum(issue <= end for issue in costly)


@pytest.mark.parametrize("machine", MACHINES)
def test_every_bio_issues_and_completes_at_the_same_instant(monkeypatch, machine):
    shipped, shipped_events, costly = outcomes(monkeypatch, MACHINES[machine], BlockLayer)
    old, old_events, _ = outcomes(monkeypatch, MACHINES[machine], EventIssuedLayer)
    assert len(shipped) > 50
    assert shipped == old
    # Exactly the one event per costly dispatch is gone (none under ``none``).
    assert old_events - shipped_events == costly
    assert costly == 0 if machine.endswith("-none") else costly > 50


def test_the_machines_take_the_pending_branch(monkeypatch):
    """The differential has a subject: on the deep-queue machines a freed
    channel finds only bios that are not issued yet, and begins one ahead
    of the clock."""
    taken = []
    pop = Device._pop_first_pending

    def counting(self):
        bio = pop(self)
        if bio is not None and bio.issue_time > self.sim.now:
            taken.append(bio)
        return bio

    monkeypatch.setattr(Device, "_pop_first_pending", counting)
    for machine in ("ssd_old-bfq", "hdd-bfq"):
        outcomes(monkeypatch, MACHINES[machine], BlockLayer)
    assert taken
