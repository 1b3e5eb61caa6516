"""Tests for the tracepoint registry, ring buffer, and zero-overhead guard."""

import io
import json

import numpy as np
import pytest

from repro.block.bio import Bio, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.device_models import SSD_NEW
from repro.block.layer import BlockLayer
from repro.block.trace import TraceReplayer
from repro.cgroup import CgroupTree
from repro.controllers.noop import NoopController
from repro.obs.trace import (
    EVENT_CATALOGUE,
    OPTIONAL_FIELDS,
    TRACE,
    TraceBuffer,
    TraceError,
    TraceEvent,
    TracePoint,
    TraceRegistry,
    load_events,
)
from repro.sim import Simulator
from repro.testbed import Testbed
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


def make_env():
    sim = Simulator()
    device = Device(sim, SPEC, np.random.default_rng(0))
    layer = BlockLayer(sim, device, NoopController())
    tree = CgroupTree()
    return sim, layer, tree


class TestRegistry:
    def test_catalogue_points_exist(self):
        for name in EVENT_CATALOGUE:
            assert TRACE.point(name).name == name

    def test_unknown_point_rejected(self):
        with pytest.raises(TraceError):
            TRACE.point("no_such_event")  # deliberately invalid - simlint: disable=trace-catalogue

    def test_disabled_until_subscribed(self):
        registry = TraceRegistry()
        assert not registry.enabled
        sub = registry.subscribe(lambda event: None, events=["bio_submit"])
        assert registry.point("bio_submit").enabled
        assert not registry.point("bio_complete").enabled
        sub.close()
        assert not registry.enabled

    def test_emit_rejects_unknown_fields(self):
        registry = TraceRegistry()
        registry.subscribe(lambda event: None, events=["bio_submit"])
        with pytest.raises(TraceError, match="bogus"):
            registry.point("bio_submit").emit(0.0, bogus=1)  # deliberately invalid - simlint: disable=trace-catalogue

    def test_emit_rejects_missing_required_fields(self):
        registry = TraceRegistry()
        registry.subscribe(lambda event: None, events=["qos_period"])
        with pytest.raises(TraceError, match="active_groups"):
            registry.point("qos_period").emit(0.0, period=0.05, vrate=1.0)  # deliberately invalid - simlint: disable=trace-catalogue

    def test_emit_allows_omitting_optional_dev(self):
        """``dev`` is declared optional: single-device rigs skip it."""
        assert "dev" in OPTIONAL_FIELDS
        registry = TraceRegistry()
        seen = []
        registry.subscribe(seen.append, events=["qos_period"])
        registry.point("qos_period").emit(
            0.0, period=0.05, vrate=1.0, active_groups=1, budget_blocked=0
        )
        assert len(seen) == 1 and "dev" not in seen[0].fields

    def test_required_excludes_only_optional_fields(self):
        point = TracePoint("custom", ("dev", "value"))
        assert point.required == frozenset({"value"})
        with pytest.raises(TraceError, match="value"):
            point.emit(0.0, dev="8:0")  # deliberately invalid - simlint: disable=trace-catalogue

    def test_subscription_filters_events(self):
        registry = TraceRegistry()
        seen = []
        registry.subscribe(seen.append, events=["qos_period"])
        registry.point("qos_period").emit(1.0, period=0.05, vrate=1.0,
                                          active_groups=0, budget_blocked=0)
        # Unsubscribed point: nothing listens, so nothing is delivered.
        assert not registry.point("bio_submit").enabled
        assert [event.name for event in seen] == ["qos_period"]


class TestZeroOverheadGuard:
    class SpyPoint:
        """Mimics a TracePoint; counts flag reads and emit calls."""

        def __init__(self):
            self.flag_reads = 0
            self.emits = 0
            self._enabled = False

        @property
        def enabled(self):
            self.flag_reads += 1
            return self._enabled

        def emit(self, time, **fields):
            self.emits += 1

    def test_submit_single_flag_check_when_disabled(self):
        """The disabled hot path costs exactly one flag read, zero emits."""
        sim, layer, tree = make_env()
        spy_submit = self.SpyPoint()
        spy_issue = self.SpyPoint()
        layer._tp_submit = spy_submit
        layer._tp_issue = spy_issue
        group = tree.create("a")

        layer.submit(Bio(IOOp.READ, 4096, 8, group))
        assert spy_submit.flag_reads == 1
        assert spy_submit.emits == 0

        sim.run(until=0.01)  # drive through issue + completion
        assert spy_issue.flag_reads == 1
        assert spy_issue.emits == 0

    def test_submit_emits_once_when_enabled(self):
        sim, layer, tree = make_env()
        spy = self.SpyPoint()
        spy._enabled = True
        layer._tp_submit = spy
        group = tree.create("a")
        layer.submit(Bio(IOOp.READ, 4096, 8, group))
        assert spy.emits == 1


def _fingerprint(trace_on: bool) -> bytes:
    """JSON fingerprint of a fig10-style weighted run."""
    TRACE.reset()
    buffer = TraceBuffer(capacity=1 << 16)
    if trace_on:
        buffer.attach(TRACE)
    bed = Testbed(SSD_NEW.scaled(0.1), "iocost", seed=3)
    high = bed.add_cgroup("workload.slice/high", weight=200)
    low = bed.add_cgroup("workload.slice/low", weight=100)
    bed.saturate(high, depth=32, stop_at=0.5)
    bed.saturate(low, depth=32, stop_at=0.5)
    bed.sim.run(until=0.6)
    bed.controller.detach()
    if trace_on:
        buffer.detach()
        assert buffer.recorded > 0
    fingerprint = {
        "vrate": bed.controller.vrate,
        "now": bed.sim.now,
        "stats": {
            cg.path: [
                [dev, r.done_ios, r.done_bytes, r.rbytes, r.rios, round(r.wait_total, 12)]
                for dev, r in cg.stats.devices()
            ]
            for cg in bed.cgroups
        },
    }
    return json.dumps(fingerprint, sort_keys=True).encode()


class TestDeterminism:
    def test_tracing_does_not_change_results(self):
        """Byte-identical run fingerprints with tracing on vs off."""
        assert _fingerprint(trace_on=False) == _fingerprint(trace_on=True)


class TestBuffer:
    def test_ring_drops_oldest(self):
        registry = TraceRegistry()
        buffer = TraceBuffer(capacity=3).attach(registry, events=["swap_out"])
        point = registry.point("swap_out")
        for i in range(5):
            point.emit(float(i), owner="a", charged_to="a", nbytes=i)
        assert len(buffer) == 3
        assert buffer.dropped == 2
        assert [event.fields["nbytes"] for event in buffer.events] == [2, 3, 4]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)

    def test_double_attach_rejected(self):
        registry = TraceRegistry()
        buffer = TraceBuffer().attach(registry)
        with pytest.raises(TraceError):
            buffer.attach(registry)
        buffer.detach()

    def test_jsonl_roundtrip(self):
        registry = TraceRegistry()
        buffer = TraceBuffer().attach(registry)
        registry.point("debt_pay").emit(
            0.5, cgroup="w/a", kind="charge", amount=1e-4, debt=2e-3
        )
        registry.point("qos_period").emit(
            0.55, period=0.05, vrate=1.2, active_groups=2, budget_blocked=4
        )
        stream = io.StringIO()
        assert buffer.save(stream) == 2
        stream.seek(0)
        loaded = load_events(stream)
        assert loaded == buffer.events
        assert loaded[0] == TraceEvent(
            "debt_pay", 0.5,
            {"cgroup": "w/a", "kind": "charge", "amount": 1e-4, "debt": 2e-3},
        )

    def test_select_by_name(self):
        registry = TraceRegistry()
        buffer = TraceBuffer().attach(registry)
        registry.point("swap_out").emit(0.0, owner="a", charged_to="a", nbytes=1)
        registry.point("reclaim_scan").emit(
            0.1, requester="b", victim="a", nbytes=2, free_bytes=3
        )
        assert [event.name for event in buffer.select("swap_out")] == ["swap_out"]


class TestReplayBridge:
    def test_bio_complete_events_replay(self):
        """Live-captured completions round-trip through TraceReplayer."""
        sim, layer, tree = make_env()
        buffer = TraceBuffer().attach(TRACE, events=["bio_complete"])
        group = tree.create("workload.slice/app")
        PacedWorkload(sim, layer, group, rate=500, stop_at=0.05).start()
        sim.run(until=0.1)
        buffer.detach()

        events = buffer.events
        assert events
        assert all(event.fields["prio"] is None for event in events)

        sim2, layer2, tree2 = make_env()
        replayer = TraceReplayer(sim2, layer2, tree2, events).start()
        submit_times = [event.fields["submit_time"] for event in replayer.events]
        assert submit_times == sorted(submit_times)
        sim2.run(until=0.2)
        assert replayer.submitted == len(events)
        assert replayer.completed == len(events)
        assert "workload.slice/app" in tree2

    def test_prio_preserved_through_bridge(self):
        sim, layer, tree = make_env()
        buffer = TraceBuffer().attach(TRACE, events=["bio_complete"])
        group = tree.create("rt")
        layer.submit(Bio(IOOp.READ, 4096, 8, group, prio=1))
        sim.run(until=0.01)
        buffer.detach()
        events = buffer.events
        assert [event.fields["prio"] for event in events] == [1]

        sim2, layer2, tree2 = make_env()
        replayed = []
        original = layer2.submit

        def capture(bio, on_done=None):
            replayed.append(bio.prio)
            original(bio, on_done=on_done)

        layer2.submit = capture
        TraceReplayer(sim2, layer2, tree2, events).start()
        sim2.run(until=0.05)
        assert replayed == [1]


class TestCataloguedRoundTrip:
    """Satellite contract: every catalogued event survives JSONL intact."""

    #: Deterministic sample value per field name, covering every type the
    #: emit sites actually use (strings, ints, floats, bools).
    SAMPLES = {
        "dev": "8:16",
        "id": 31,
        "cgroup": "workload.slice/app",
        "op": "read",
        "nbytes": 4096,
        "sector": 2048,
        "flags": 2,
        "prio": 1,
        "reason": "budget",
        "ctl": "iocost",
        "wait": 3.5e-5,
        "submit_time": 0.25,
        "latency": 1.25e-4,
        "device_latency": 9e-5,
        "vrate": 1.375,
        "busy_level": -2,
        "saturated": True,
        "starved": False,
        "read_p": 1.1e-4,
        "write_p": 2.2e-4,
        "period": 0.05,
        "active_groups": 3,
        "budget_blocked": 7,
        "donors": 2,
        "donated_total": 0.4,
        "kind": "charge",
        "amount": 1e-4,
        "debt": 2e-3,
        "requester": "workload.slice",
        "victim": "system.slice",
        "free_bytes": 1 << 20,
        "owner": "a",
        "charged_to": "b",
        # Fault-path events (bio_error / bio_requeue / dev_fault_*).
        "status": "eio",
        "retries": 2,
        "backoff": 4e-3,
        "index": 0,
        "until": 1.5,
    }

    @pytest.mark.parametrize("name", sorted(EVENT_CATALOGUE))
    def test_event_round_trips_through_jsonl(self, name):
        fields = EVENT_CATALOGUE[name]
        missing = set(fields) - set(self.SAMPLES)
        assert not missing, f"add SAMPLES for new field(s) {sorted(missing)}"

        registry = TraceRegistry()
        buffer = TraceBuffer().attach(registry)
        payload = {field: self.SAMPLES[field] for field in fields}
        registry.point(name).emit(0.125, **payload)

        stream = io.StringIO()
        assert buffer.save(stream) == 1
        stream.seek(0)
        (loaded,) = load_events(stream)
        assert loaded == TraceEvent(name, 0.125, payload)
        # Types survive too (json round-trip must not coerce).
        for field, value in payload.items():
            assert type(loaded.fields[field]) is type(value), field

    @pytest.mark.parametrize("name", sorted(EVENT_CATALOGUE))
    def test_event_round_trips_without_optional_fields(self, name):
        fields = EVENT_CATALOGUE[name]
        required = [field for field in fields if field not in OPTIONAL_FIELDS]
        if len(required) == len(fields):
            pytest.skip("event has no optional fields")
        registry = TraceRegistry()
        buffer = TraceBuffer().attach(registry)
        payload = {field: self.SAMPLES[field] for field in required}
        registry.point(name).emit(0.25, **payload)
        stream = io.StringIO()
        buffer.save(stream)
        stream.seek(0)
        (loaded,) = load_events(stream)
        assert loaded == TraceEvent(name, 0.25, payload)
