"""Every runtime sanitizer catches its planted violation, and the hooks
in the engine/layer/device/controller actually fire under load."""

import gc

import numpy as np
import pytest

from repro.block.bio import Bio, IOOp, reset_bio_ids
from repro.block.device import Device
from repro.block.device_models import SSD_NEW
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.core.qos import QoSParams
from repro.obs.spans import SpanTracker
from repro.obs.trace import TraceRegistry
from repro.sanitize import SANITIZE, SanitizeError, Sanitizer
from repro.sim import Simulator
from repro.testbed import Testbed, make_controller


@pytest.fixture(autouse=True)
def fresh_sanitizer():
    """Each test drives the module singleton from a known-clean state."""
    SANITIZE.reset()
    was = SANITIZE.enabled
    yield
    SANITIZE.enabled = was
    SANITIZE.reset()


class TestLifecycle:
    def test_enable_disable_reset(self):
        san = Sanitizer()
        assert not san.enabled
        san.enable()
        assert san.enabled
        san.check_monotonic(0.0, 1.0)
        assert san.checks["time_monotonic"] == 1
        san.reset()
        assert san.checks["time_monotonic"] == 0 and san.enabled

    def test_context_manager(self):
        san = Sanitizer()
        with san:
            assert san.enabled
        assert not san.enabled

    def test_suspended(self):
        san = Sanitizer().enable()
        with san.suspended():
            assert not san.enabled
        assert san.enabled

    def test_describe_lists_every_check(self):
        san = Sanitizer()
        text = san.describe()
        for name in Sanitizer.CHECKS:
            assert name in text

    def test_snapshot_is_a_copy(self):
        san = Sanitizer()
        snap = san.snapshot()
        snap["time_monotonic"] = 99
        assert san.checks["time_monotonic"] == 0


class TestTimeAndHeap:
    def test_backwards_dispatch_raises(self):
        san = Sanitizer().enable()
        with pytest.raises(SanitizeError, match="time went backwards"):
            san.check_monotonic(now=2.0, event_time=1.0)

    def test_forward_dispatch_passes(self):
        Sanitizer().enable().check_monotonic(now=1.0, event_time=1.0)

    def test_nan_heap_time_raises(self):
        san = Sanitizer().enable()
        with pytest.raises(SanitizeError, match="has time"):
            san.check_heap([(float("nan"), 1, None)], now=0.0)

    def test_past_heap_entry_raises(self):
        san = Sanitizer().enable()
        with pytest.raises(SanitizeError, match="in the past"):
            san.check_heap([(1.0, 1, None)], now=5.0)

    def test_duplicate_seq_raises(self):
        san = Sanitizer().enable()
        with pytest.raises(SanitizeError, match="duplicate heap sequence"):
            san.check_heap([(1.0, 7, None), (2.0, 7, None)], now=0.0)

    def test_broken_heap_shape_raises(self):
        san = Sanitizer().enable()
        with pytest.raises(SanitizeError, match="heap invariant broken"):
            san.check_heap([(5.0, 1, None), (1.0, 2, None)], now=0.0)

    def test_valid_heap_passes(self):
        san = Sanitizer().enable()
        san.check_heap([(1.0, 1, None), (2.0, 2, None), (2.0, 3, None)], now=0.5)

    def test_engine_counts_monotonic_checks(self):
        SANITIZE.enable()
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert SANITIZE.checks["time_monotonic"] == 2

    def test_schedule_bulk_validates_the_heap(self):
        SANITIZE.enable()
        sim = Simulator()
        sim.schedule_bulk([(1.0, lambda: None, ()), (2.0, lambda: None, ())])
        assert SANITIZE.checks["heap_integrity"] == 1

    def test_sanitize_forces_the_step_loop(self):
        # With the sanitizer on, run() must take the checked slow path.
        SANITIZE.enable()
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.schedule(1.0, order.append, "b")
        sim.run(until=2.0)
        assert order == ["a", "b"] and sim.now == 2.0
        assert SANITIZE.checks["time_monotonic"] == 2


class TestSlotsAndChannels:
    def test_double_release_raises(self):
        san = Sanitizer().enable()
        with pytest.raises(SanitizeError, match="released twice"):
            san.check_slots(-1, 64, "8:0")

    def test_slot_leak_raises(self):
        san = Sanitizer().enable()
        with pytest.raises(SanitizeError, match="slot leak"):
            san.check_slots(65, 64, "8:0")

    def test_channel_double_free_raises(self):
        san = Sanitizer().enable()
        with pytest.raises(SanitizeError, match="freed twice"):
            san.check_channels(-1, 8, "8:0")

    def test_channel_leak_raises(self):
        san = Sanitizer().enable()
        with pytest.raises(SanitizeError, match="channel leak"):
            san.check_channels(9, 8, "8:0")

    def test_layer_and_device_hooks_fire_under_load(self):
        SANITIZE.enable()
        reset_bio_ids()
        sim = Simulator()
        device = Device(sim, SSD_NEW, np.random.default_rng(0))
        layer = BlockLayer(sim, device, make_controller("iocost", SSD_NEW))
        group = CgroupTree().create("t")
        done = []
        for i in range(32):
            layer.submit(Bio(IOOp.READ, 4096, 8 * i, group), on_done=done.append)
        sim.run(until=1.0)
        layer.controller.detach()
        assert len(done) == 32
        # One check per acquire and one per release on both levels.
        assert SANITIZE.checks["slot_conservation"] == 64
        assert SANITIZE.checks["channel_conservation"] == 64


class TestCostConservation:
    def test_balanced_ledger_passes(self):
        san = Sanitizer().enable()
        san.check_conservation(10.0, 4.0, pending=6.0, dev="8:0")

    def test_unaccounted_cost_raises(self):
        san = Sanitizer().enable()
        with pytest.raises(SanitizeError, match="cost conservation"):
            san.check_conservation(10.0, 4.0, pending=0.0, dev="8:0")

    def test_double_charge_raises(self):
        san = Sanitizer().enable()
        with pytest.raises(SanitizeError, match="cost conservation"):
            san.check_conservation(10.0, 20.0, pending=0.0, dev="8:0")

    def test_controllers_are_ledgered_independently(self):
        SANITIZE.enable()
        leaky, clean = (Testbed(seed=7) for _ in range(2))
        for bed in (leaky, clean):
            bed.paced(bed.add_cgroup("/ws", weight=100), rate=1000)
            bed.run(0.2)
        leaky.controller._incurred += 123.0
        clean.run(0.2)
        with pytest.raises(SanitizeError, match="cost conservation"):
            leaky.run(0.2)

    def test_machines_built_one_after_another_need_no_reset(self):
        """Each machine ends with cost still queued, and collected
        controllers free their ids for the next one: a ledger keyed by
        ``id(controller)`` charged some later machine here with a dead
        one's pending cost."""
        SANITIZE.enable()
        qos = QoSParams(vrate_min=0.3, vrate_max=0.3)
        for seed in range(40):
            bed = Testbed("ssd_old", "iocost", seed=seed, qos=qos)
            for path, weight in (("high", 200), ("low", 100)):
                bed.saturate(bed.add_cgroup(path, weight=weight), depth=4)
            try:
                bed.run(0.12)
            finally:
                bed.detach()
            del bed
            gc.collect()
        assert SANITIZE.checks["cost_conservation"] >= 40

    def test_controller_audit_passes_on_real_workload(self):
        SANITIZE.enable()
        bed = Testbed(seed=7)
        ws = bed.add_cgroup("/ws", weight=100)
        bed.paced(ws, rate=2000)
        bed.run(0.5)  # several planning periods
        assert SANITIZE.checks["cost_conservation"] > 0
        assert SANITIZE.checks["vtime_monotonic"] > 0

    def test_planted_leak_is_caught_at_the_next_plan_tick(self):
        SANITIZE.enable()
        bed = Testbed(seed=7)
        ws = bed.add_cgroup("/ws", weight=100)
        bed.paced(ws, rate=1000)
        bed.run(0.2)
        # Plant: cost enters the system but is never charged or queued.
        bed.controller._incurred += 123.0
        with pytest.raises(SanitizeError, match="cost conservation"):
            bed.run(0.2)


class TestVtimeMonotonic:
    def test_decreasing_vtime_raises(self):
        san = Sanitizer().enable()
        san.check_vtime("/ws", None, 10.0)
        with pytest.raises(SanitizeError, match="moved backwards"):
            san.check_vtime("/ws", 10.0, 9.0)

    def test_monotone_vtime_passes(self):
        san = Sanitizer().enable()
        san.check_vtime("/ws", None, 10.0)
        san.check_vtime("/ws", 10.0, 10.0)
        san.check_vtime("/ws", 10.0, 11.0)

    def test_groups_are_tracked_independently(self):
        # The last audited vtime lives on each group's own state.
        SANITIZE.enable()
        bed = Testbed(seed=7)
        for path in ("/a", "/b"):
            bed.paced(bed.add_cgroup(path), rate=2000)
        bed.run(0.2)
        seen = [state.audited_vtime for state in bed.controller.tree.groups]
        assert len(set(seen)) > 1 and None not in seen


class TestSpanLeak:
    def test_eviction_is_fail_stop(self):
        registry = TraceRegistry()
        tracker = SpanTracker(max_pending=1).attach(registry)
        SANITIZE.enable()
        submit = registry.point("bio_submit")
        fields = dict(cgroup="/ws", op="read", nbytes=4096, sector=0, flags=0, prio=0)
        submit.emit(0.0, dev="8:0", id=1, **fields)
        with pytest.raises(SanitizeError, match="span leak"):
            submit.emit(1e-6, dev="8:0", id=2, **fields)
        tracker.detach()

    def test_check_spans_flags_evictions(self):
        registry = TraceRegistry()
        tracker = SpanTracker(max_pending=1).attach(registry)
        fields = dict(cgroup="/ws", op="read", nbytes=4096, sector=0, flags=0, prio=0)
        submit = registry.point("bio_submit")
        with SANITIZE.suspended():  # let the eviction happen silently
            submit.emit(0.0, dev="8:0", id=1, **fields)
            submit.emit(1e-6, dev="8:0", id=2, **fields)
        tracker.detach()
        san = Sanitizer().enable()
        with pytest.raises(SanitizeError, match="span leak"):
            san.check_spans(tracker)

    def test_check_spans_require_drained(self):
        registry = TraceRegistry()
        tracker = SpanTracker().attach(registry)
        fields = dict(cgroup="/ws", op="read", nbytes=4096, sector=0, flags=0, prio=0)
        registry.point("bio_submit").emit(0.0, dev="8:0", id=1, **fields)
        tracker.detach()
        san = Sanitizer().enable()
        san.check_spans(tracker)  # open spans fine without the flag
        with pytest.raises(SanitizeError, match="still open"):
            san.check_spans(tracker, require_drained=True)


class TestZeroCostWhenDisabled:
    def test_disabled_hooks_count_nothing(self):
        # suspended() covers the ambient REPRO_SANITIZE=1 run too.
        with SANITIZE.suspended():
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sim.schedule_bulk([(2.0, lambda: None, ())])
            sim.run()
            Testbed(seed=1)
            assert all(count == 0 for count in SANITIZE.snapshot().values())

    def test_components_cache_the_singleton(self):
        sim = Simulator()
        assert sim._san is SANITIZE
        device = Device(sim, SSD_NEW, np.random.default_rng(0))
        layer = BlockLayer(sim, device, make_controller("iocost", SSD_NEW))
        assert device._san is SANITIZE and layer._san is SANITIZE
        assert layer.controller._san is SANITIZE
