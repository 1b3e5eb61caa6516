"""Bio-lifecycle spans: stitching, stage attribution, breakdown rollups."""

import pytest

from repro.block.device_models import SSD_NEW
from repro.controllers.blk_throttle import BlkThrottleController, ThrottleLimits
from repro.controllers.mq_deadline import MQDeadlineController
from repro.controllers.stacked import StackedController
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.qos import QoSParams
from repro.obs.spans import (
    QUEUE_WAIT,
    SERVICE,
    THROTTLE_PREFIX,
    Span,
    SpanError,
    SpanTracker,
    spans_to_jsonl,
)
from repro.obs.trace import TRACE, TraceRegistry
from repro.testbed import Testbed

USEC = 1e-6


def make_registry() -> TraceRegistry:
    """A private registry so synthetic emission can't leak into TRACE."""
    return TraceRegistry()


def bio_fields(bio_id, cgroup="/ws", dev="8:0", op="read", nbytes=4096):
    return {"dev": dev, "id": bio_id, "cgroup": cgroup, "op": op, "nbytes": nbytes}


def emit_lifecycle(
    registry,
    bio_id,
    submit,
    issue,
    complete,
    throttles=(),
    cgroup="/ws",
    dev="8:0",
):
    """Drive one bio's four lifecycle events at explicit times."""
    base = bio_fields(bio_id, cgroup=cgroup, dev=dev)
    registry.point("bio_submit").emit(submit, **base, sector=0, flags=0, prio=0)
    for time, ctl in throttles:
        registry.point("bio_throttle").emit(time, **base, reason="budget", ctl=ctl)
    registry.point("bio_issue").emit(issue, **base, wait=issue - submit)
    registry.point("bio_complete").emit(
        complete,
        **base,
        sector=0,
        flags=0,
        prio=0,
        submit_time=submit,
        latency=complete - submit,
        device_latency=complete - issue,
    )


class TestStitching:
    def test_unthrottled_bio_is_queue_wait_plus_service(self):
        registry = make_registry()
        tracker = SpanTracker().attach(registry)
        emit_lifecycle(registry, 1, submit=100 * USEC, issue=130 * USEC,
                       complete=400 * USEC)
        (span,) = tracker.spans
        assert span.stages == ((QUEUE_WAIT, 30), (SERVICE, 270))
        assert span.end_to_end_usec == 300
        assert span.submit_usec == 100 and span.complete_usec == 400

    def test_throttle_segments_attributed_per_controller(self):
        registry = make_registry()
        tracker = SpanTracker().attach(registry)
        # submit @0, iocost throttle @10, mq-deadline throttle @50,
        # issue @80, complete @200.
        emit_lifecycle(
            registry, 7, submit=0.0, issue=80 * USEC, complete=200 * USEC,
            throttles=((10 * USEC, "iocost"), (50 * USEC, "mq-deadline")),
        )
        (span,) = tracker.spans
        assert span.stages == (
            (QUEUE_WAIT, 10),
            (THROTTLE_PREFIX + "iocost", 40),
            (THROTTLE_PREFIX + "mq-deadline", 30),
            (SERVICE, 120),
        )
        assert span.stage_usec(THROTTLE_PREFIX + "iocost") == 40

    def test_consecutive_same_controller_segments_merge(self):
        registry = make_registry()
        tracker = SpanTracker().attach(registry)
        emit_lifecycle(
            registry, 2, submit=0.0, issue=60 * USEC, complete=100 * USEC,
            throttles=((10 * USEC, "iocost"), (30 * USEC, "iocost")),
        )
        (span,) = tracker.spans
        assert span.stages == (
            (QUEUE_WAIT, 10),
            (THROTTLE_PREFIX + "iocost", 50),
            (SERVICE, 40),
        )

    def test_stages_always_sum_to_end_to_end(self):
        registry = make_registry()
        tracker = SpanTracker().attach(registry)
        # Awkward float timestamps: rounding must not break the sum.
        emit_lifecycle(
            registry, 3, submit=0.0000014, issue=0.0000077, complete=0.0000191,
            throttles=((0.0000033, "iocost"),),
        )
        (span,) = tracker.spans
        assert sum(dur for _, dur in span.stages) == span.end_to_end_usec

    def test_same_id_different_devices_tracked_separately(self):
        registry = make_registry()
        tracker = SpanTracker().attach(registry)
        emit_lifecycle(registry, 1, 0.0, 10 * USEC, 100 * USEC, dev="8:0")
        emit_lifecycle(registry, 1, 0.0, 20 * USEC, 300 * USEC, dev="8:16")
        spans = {span.dev: span for span in tracker.spans}
        assert spans["8:0"].end_to_end_usec == 100
        assert spans["8:16"].end_to_end_usec == 300

    def test_duplicate_submit_raises(self):
        registry = make_registry()
        SpanTracker().attach(registry)
        base = bio_fields(1)
        registry.point("bio_submit").emit(0.0, **base, sector=0, flags=0, prio=0)
        with pytest.raises(SpanError):
            registry.point("bio_submit").emit(1.0, **base, sector=0, flags=0, prio=0)

    def test_orphan_lifecycle_events_counted_not_fatal(self):
        registry = make_registry()
        tracker = SpanTracker().attach(registry)
        base = bio_fields(99)
        registry.point("bio_issue").emit(0.0, **base, wait=0.0)
        registry.point("bio_complete").emit(
            1 * USEC, **base, sector=0, flags=0, prio=0,
            submit_time=0.0, latency=1 * USEC, device_latency=1 * USEC,
        )
        assert tracker.completed == 0
        assert tracker.orphan_events == 2

    def test_double_attach_rejected(self):
        registry = make_registry()
        tracker = SpanTracker().attach(registry)
        with pytest.raises(SpanError):
            tracker.attach(registry)


class TestAnnotations:
    def test_debt_pay_annotates_open_spans_of_same_cgroup_and_dev(self):
        registry = make_registry()
        tracker = SpanTracker().attach(registry)
        base = bio_fields(1)
        other = bio_fields(2, cgroup="/other")
        registry.point("bio_submit").emit(0.0, **base, sector=0, flags=0, prio=0)
        registry.point("bio_submit").emit(0.0, **other, sector=0, flags=0, prio=0)
        registry.point("debt_pay").emit(
            5 * USEC, dev="8:0", cgroup="/ws", kind="charge", amount=1.0, debt=2.0
        )
        for fields, end in ((base, 10 * USEC), (other, 10 * USEC)):
            registry.point("bio_issue").emit(end / 2, **fields, wait=end / 2)
            registry.point("bio_complete").emit(
                end, **fields, sector=0, flags=0, prio=0,
                submit_time=0.0, latency=end, device_latency=end / 2,
            )
        spans = {span.cgroup: span for span in tracker.spans}
        assert len(spans["/ws"].annotations) == 1
        annotation = spans["/ws"].annotations[0]
        assert annotation.event == "debt_pay"
        assert annotation.time_usec == 5
        assert "charge" in annotation.detail
        assert spans["/other"].annotations == ()

    def test_donation_recalc_annotates_every_open_span_on_dev(self):
        registry = make_registry()
        tracker = SpanTracker().attach(registry)
        base = bio_fields(1)
        registry.point("bio_submit").emit(0.0, **base, sector=0, flags=0, prio=0)
        registry.point("donation_recalc").emit(
            2 * USEC, dev="8:0", donors=3, donated_total=0.5
        )
        registry.point("bio_issue").emit(4 * USEC, **base, wait=4 * USEC)
        registry.point("bio_complete").emit(
            8 * USEC, **base, sector=0, flags=0, prio=0,
            submit_time=0.0, latency=8 * USEC, device_latency=4 * USEC,
        )
        (span,) = tracker.spans
        assert span.annotations[0].event == "donation_recalc"
        assert "donors=3" in span.annotations[0].detail


class TestBreakdown:
    def fill(self, registry, tracker):
        emit_lifecycle(registry, 1, 0.0, 20 * USEC, 120 * USEC,
                       throttles=((5 * USEC, "iocost"),))
        emit_lifecycle(registry, 2, 0.0, 10 * USEC, 90 * USEC, cgroup="/batch")
        emit_lifecycle(registry, 3, 0.0, 30 * USEC, 130 * USEC, dev="8:16",
                       throttles=((8 * USEC, "blk-throttle"),))

    def test_stage_totals_sum_to_end_to_end_total(self):
        registry = make_registry()
        tracker = SpanTracker().attach(registry)
        self.fill(registry, tracker)
        rollup = tracker.breakdown()
        stage_total = sum(
            stage["total_usec"] for stage in rollup["stages"].values()
        )
        assert stage_total == rollup["end_to_end"]["total_usec"]
        shares = sum(stage["share"] for stage in rollup["stages"].values())
        assert shares == pytest.approx(1.0)

    def test_filters_by_cgroup_and_dev(self):
        registry = make_registry()
        tracker = SpanTracker().attach(registry)
        self.fill(registry, tracker)
        assert tracker.breakdown(cgroup="/batch")["count"] == 1
        assert tracker.breakdown(dev="8:16")["count"] == 1
        assert tracker.breakdown(cgroup="/ws", dev="8:0")["count"] == 1
        assert tracker.breakdown()["count"] == 3
        by_dev = tracker.breakdown(dev="8:16")
        assert THROTTLE_PREFIX + "blk-throttle" in by_dev["stages"]
        assert THROTTLE_PREFIX + "iocost" not in by_dev["stages"]

    def test_empty_breakdown(self):
        tracker = SpanTracker()
        rollup = tracker.breakdown()
        assert rollup["count"] == 0
        assert rollup["stages"] == {}
        assert tracker.describe() == "no completed spans"

    def test_scopes_and_select(self):
        registry = make_registry()
        tracker = SpanTracker().attach(registry)
        self.fill(registry, tracker)
        assert ("/batch", "8:0") in tracker.scopes()
        assert len(tracker.select(cgroup="/ws")) == 2
        assert len(tracker.select(cgroup="/ws", dev="8:0")) == 1

    def test_ring_overflow_keeps_histograms(self):
        registry = make_registry()
        tracker = SpanTracker(capacity=2).attach(registry)
        for bio_id in range(5):
            emit_lifecycle(registry, bio_id, 0.0, 10 * USEC, 100 * USEC)
        assert len(tracker.spans) == 2
        assert tracker.dropped == 3
        assert tracker.breakdown()["count"] == 5  # histograms saw them all

    def test_describe_mentions_stages(self):
        registry = make_registry()
        tracker = SpanTracker().attach(registry)
        self.fill(registry, tracker)
        text = tracker.describe()
        assert QUEUE_WAIT in text and SERVICE in text

    def test_spans_to_jsonl_round_trips(self):
        import json

        registry = make_registry()
        tracker = SpanTracker().attach(registry)
        self.fill(registry, tracker)
        lines = spans_to_jsonl(tracker.spans).splitlines()
        assert len(lines) == 3
        payload = json.loads(lines[0])
        assert payload["end_to_end_usec"] == sum(
            dur for _, dur in payload["stages"]
        )


class TestIntegration:
    """The acceptance rig: multi-controller, multi-device, exact sums."""

    def make_bed(self):
        qos = QoSParams(
            read_lat_target=None, write_lat_target=None,
            vrate_min=1.0, vrate_max=1.0, period=0.025,
        )
        gate = IOCost(
            LinearCostModel(ModelParams.from_device_spec(SSD_NEW)), qos=qos
        )
        stacked = StackedController(gate, MQDeadlineController())
        throttle = BlkThrottleController(
            {"ws": ThrottleLimits(riops=2000)}
        )
        return Testbed(
            devices={"vda": "ssd_new", "vdb": "ssd_old"},
            controllers={"vda": stacked, "vdb": throttle},
        )

    def test_multi_controller_multi_device_spans(self):
        bed = self.make_bed()
        ws = bed.add_cgroup("ws", weight=100)
        batch = bed.add_cgroup("batch", weight=100)
        tracker = SpanTracker().attach(TRACE)
        bed.saturate(ws, device="vda", depth=32)
        bed.saturate(batch, device="vda", depth=32)
        bed.saturate(ws, device="vdb", depth=32)
        bed.run(0.15)
        tracker.detach()
        bed.detach()

        assert tracker.completed > 100
        devnos = {span.dev for span in tracker.spans}
        assert len(devnos) == 2

        # The headline invariant: every span's stages sum exactly.
        for span in tracker.spans:
            assert sum(dur for _, dur in span.stages) == span.end_to_end_usec

        # Per-controller attribution is separable: the iocost gate of the
        # stacked device and the blk-throttle device each blame their own
        # waits under their own stage names, on their own device.
        vda = bed.devices["vda"].dev
        vdb = bed.devices["vdb"].dev
        vda_stages = tracker.breakdown(dev=vda)["stages"]
        vdb_stages = tracker.breakdown(dev=vdb)["stages"]
        assert THROTTLE_PREFIX + "iocost" in vda_stages
        assert THROTTLE_PREFIX + "blk-throttle" in vdb_stages
        assert THROTTLE_PREFIX + "blk-throttle" not in vda_stages
        assert THROTTLE_PREFIX + "iocost" not in vdb_stages

        # And the rollup's stage totals sum exactly to end-to-end.
        for dev in devnos:
            rollup = tracker.breakdown(dev=dev)
            stage_total = sum(
                stage["total_usec"] for stage in rollup["stages"].values()
            )
            assert stage_total == rollup["end_to_end"]["total_usec"]

    def test_tracker_does_not_change_results(self):
        def run(tracked: bool):
            bed = self.make_bed()
            ws = bed.add_cgroup("/ws", weight=100)
            tracker = SpanTracker().attach(TRACE) if tracked else None
            bed.saturate(ws, device="vda", depth=16)
            bed.run(0.1)
            if tracker is not None:
                tracker.detach()
            bed.detach()
            return bed.sim.events_processed, bed.iops(ws, device="vda")

        TRACE.reset()
        baseline = run(tracked=False)
        TRACE.reset()
        tracked = run(tracked=True)
        assert baseline == tracked


class TestSpanObject:
    def test_to_dict_shape(self):
        span = Span(
            dev="8:0", bio_id=4, cgroup="/ws", op="read", nbytes=4096,
            submit_usec=0, issue_usec=10, complete_usec=50,
            stages=((QUEUE_WAIT, 10), (SERVICE, 40)),
        )
        payload = span.to_dict()
        assert payload["id"] == 4
        assert payload["stages"] == [[QUEUE_WAIT, 10], [SERVICE, 40]]
        assert payload["annotations"] == []

    def test_capacity_validation(self):
        with pytest.raises(SpanError):
            SpanTracker(capacity=0)
