"""Tests for IO trace recording (the ``bio_complete`` tracepoint) and replay."""

import io

import numpy as np
import pytest

from repro.block.bio import Bio, BioFlags, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.block.trace import TraceReplayer
from repro.cgroup import CgroupTree
from repro.controllers.noop import NoopController
from repro.faults import ErrorBurst, FaultPlan
from repro.obs import TraceBuffer, TraceEvent
from repro.obs.trace import load_events
from repro.sim import Simulator
from repro.workloads.synthetic import PacedWorkload

SPEC = DeviceSpec(
    name="tracedev",
    parallelism=4,
    srv_rand_read=100e-6,
    srv_seq_read=100e-6,
    srv_rand_write=100e-6,
    srv_seq_write=100e-6,
    read_bw=1e9,
    write_bw=1e9,
    sigma=0.0,
    nr_slots=64,
)


def make_env(faults=None):
    sim = Simulator()
    device = Device(sim, SPEC, np.random.default_rng(0), faults=faults)
    layer = BlockLayer(sim, device, NoopController())
    tree = CgroupTree()
    return sim, layer, tree


@pytest.fixture
def recorded():
    """Completions captured the supported way: the ``bio_complete``
    tracepoint into a buffer."""
    buffer = TraceBuffer().attach(events=("bio_complete",))
    yield buffer
    buffer.detach()


class TestRecorder:
    def test_records_completed_bios(self, recorded):
        sim, layer, tree = make_env()
        group = tree.create("workload.slice/app")
        PacedWorkload(sim, layer, group, rate=1000, stop_at=0.1).start()
        sim.run(until=0.2)
        events = recorded.events
        assert len(events) == pytest.approx(100, abs=5)
        fields = events[0].fields
        assert fields["cgroup"] == "workload.slice/app"
        assert fields["op"] == "read"
        assert fields["latency"] > 0

    def test_save_load_roundtrip(self, recorded):
        sim, layer, tree = make_env()
        group = tree.create("a")
        layer.submit(Bio(IOOp.WRITE, 8192, 16, group, flags=BioFlags.SWAP))
        sim.run(until=0.01)
        stream = io.StringIO()
        assert recorded.save(stream) == 1
        stream.seek(0)
        loaded = load_events(stream)
        assert loaded == recorded.events
        assert loaded[0].fields["flags"] == BioFlags.SWAP.value

    def test_requeued_bio_is_recorded_once_it_completes(self, recorded):
        # The recorder this replaced read ``bio.latency`` in a device hook
        # and raised "bio has not completed" on a failed first attempt.
        burst = FaultPlan([ErrorBurst(start=0.0, duration=1e-4)], seed=1)
        sim, layer, tree = make_env(faults=burst)
        bio = Bio(IOOp.READ, 4096, 8, tree.create("a"))
        layer.submit(bio)
        sim.run(until=0.1)
        assert bio.ok and bio.retries == 1
        assert [event.fields["sector"] for event in recorded.events] == [8]


class TestReplayer:
    def make_trace(self):
        def complete(submit_time, cgroup, op, nbytes, sector):
            return TraceEvent("bio_complete", submit_time + 1e-4, {
                "cgroup": cgroup, "op": op, "nbytes": nbytes, "sector": sector,
                "flags": 0, "prio": None, "submit_time": submit_time,
            })

        return [
            complete(0.02, "system.slice", "read", 4096, 1600),
            TraceEvent("bio_submit", 0.0, {"cgroup": "workload.slice/app"}),
            complete(0.0, "workload.slice/app", "read", 4096, 8),
            complete(0.01, "workload.slice/app", "write", 8192, 800),
        ]

    def test_replays_with_original_spacing(self):
        sim, layer, tree = make_env()
        replayer = TraceReplayer(sim, layer, tree, self.make_trace()).start()
        sim.run(until=0.1)
        assert replayer.submitted == 3
        assert replayer.completed == 3
        # cgroups materialised on demand.
        assert "workload.slice/app" in tree
        assert "system.slice" in tree

    def test_time_scale_stretches_arrivals(self):
        sim, layer, tree = make_env()
        replayer = TraceReplayer(
            sim, layer, tree, self.make_trace(), time_scale=10.0
        ).start()
        sim.run(until=0.1)
        assert replayer.submitted == 2  # third arrival now at t=0.2
        sim.run(until=0.3)
        assert replayer.submitted == 3

    def test_invalid_time_scale(self):
        sim, layer, tree = make_env()
        with pytest.raises(ValueError):
            TraceReplayer(sim, layer, tree, [], time_scale=0.0)

    def test_empty_trace_noop(self):
        sim, layer, tree = make_env()
        replayer = TraceReplayer(sim, layer, tree, []).start()
        sim.run(until=0.01)
        assert replayer.submitted == 0

    def test_record_then_replay_reproduces_mix(self, recorded):
        # Record a run, replay it into a fresh stack, compare volume.
        sim, layer, tree = make_env()
        group = tree.create("workload.slice/app")
        PacedWorkload(sim, layer, group, rate=2000, stop_at=0.1, seed=3).start()
        sim.run(until=0.2)
        events = recorded.events

        sim2, layer2, tree2 = make_env()
        replayer = TraceReplayer(sim2, layer2, tree2, events).start()
        sim2.run(until=0.3)
        assert replayer.completed == len(events)
        assert layer2.completed_bytes == layer.completed_bytes
