"""Tests for BFQ's slice dynamics: adaptive budgets, time quanta, idling."""

from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.block.bio import Bio, IOOp
from repro.block.device import DeviceSpec
from repro.controllers.bfq import BFQController

from tests.controllers.conftest import ClosedLoop, build_layer

FAST = DeviceSpec(
    name="bfqfast",
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


class TestAdaptiveBudgets:
    def test_fast_queue_budget_ramps_up(self):
        controller = BFQController()
        sim, layer, tree = build_layer(controller, spec=FAST)
        a = tree.create("a", weight=100)
        b = tree.create("b", weight=100)
        ClosedLoop(sim, layer, a, depth=16, stop_at=2.0, seed=1).start()
        ClosedLoop(sim, layer, b, depth=16, stop_at=2.0, seed=2).start()
        sim.run(until=2.0)
        initial = 100 * BFQController.SECTORS_PER_WEIGHT
        ramped = [q.next_budget for q in controller.groups]
        assert any(budget > initial for budget in ramped)

    def test_budget_capped_at_max(self):
        controller = BFQController()
        sim, layer, tree = build_layer(controller, spec=FAST)
        a = tree.create("a", weight=100)
        ClosedLoop(sim, layer, a, depth=32, stop_at=3.0, seed=1).start()
        sim.run(until=3.0)
        cap = 100 * BFQController.MAX_SECTORS_PER_WEIGHT
        assert a.stats.device(layer.dev).pd.next_budget <= cap

    def test_slow_queue_budget_stays_small(self):
        controller = BFQController()
        sim, layer, tree = build_layer(controller, spec=FAST)
        slow = tree.create("slow", weight=100)
        fast = tree.create("fast", weight=100)
        # Slow queue trickles (never exhausts a slice's budget).
        ClosedLoop(sim, layer, slow, depth=1, stop_at=2.0, seed=1).start()
        ClosedLoop(sim, layer, fast, depth=32, stop_at=2.0, seed=2).start()
        sim.run(until=2.0)
        assert (
            slow.stats.device(layer.dev).pd.next_budget
            < fast.stats.device(layer.dev).pd.next_budget
        )


class TestTimeQuantum:
    def test_slice_deadline_scales_with_weight(self):
        controller = BFQController()
        sim, layer, tree = build_layer(controller, spec=FAST)
        heavy = tree.create("heavy", weight=400)
        light = tree.create("light", weight=100)
        layer.submit(Bio(IOOp.READ, 4096, 1, heavy))
        layer.submit(Bio(IOOp.READ, 4096, 2, light))
        heavy_q = heavy.stats.device(layer.dev).pd
        light_q = light.stats.device(layer.dev).pd
        controller._grant_slice(heavy_q)
        heavy_deadline = heavy_q.slice_deadline - sim.now
        controller._grant_slice(light_q)
        light_deadline = light_q.slice_deadline - sim.now
        assert heavy_deadline == pytest.approx(4 * light_deadline)


class TestIdling:
    def test_idle_window_holds_device_for_active_queue(self):
        controller = BFQController()
        sim, layer, tree = build_layer(controller, spec=FAST)
        a = tree.create("a", weight=100)
        b = tree.create("b", weight=100)
        done = []
        layer.submit(Bio(IOOp.READ, 4096, 1, a), on_done=lambda bio: done.append("a"))
        # b's bio arrives while a's single IO is in flight.
        layer.submit(Bio(IOOp.READ, 4096, 99999, b), on_done=lambda bio: done.append("b"))
        sim.run(until=50e-6)
        # a completes at ~100us; idle window then holds the device for a.
        sim.run(until=150e-6)
        assert done == ["a"]
        assert controller._idle_timer is not None
        # After the idle window expires, b finally runs.
        sim.run(until=0.01)
        assert done == ["a", "b"]

    def test_arrival_during_idle_continues_slice(self):
        controller = BFQController()
        sim, layer, tree = build_layer(controller, spec=FAST)
        a = tree.create("a", weight=100)
        first_done = []
        layer.submit(Bio(IOOp.READ, 4096, 1, a), on_done=first_done.append)
        sim.run(until=110e-6)  # a completed; idle armed
        assert controller._idle_timer is not None
        second_done = []
        layer.submit(Bio(IOOp.READ, 4096, 9, a), on_done=second_done.append)
        assert controller._idle_timer is None  # idle cancelled by arrival
        sim.run(until=300e-6)
        assert second_done


def _next_queue_by_pops(round_):
    """The reference round: one ``pop(0)`` / ``append`` per queue tried.
    Returns the queue found and whether an offline queue was passed."""
    offline = False
    for _ in range(len(round_)):
        queue = round_.pop(0)
        round_.append(queue)
        if queue.waitq:
            return queue, offline
        if not queue.blkg.online:
            offline = True
    return None, offline


class TestRound:
    @given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=12))
    def test_one_rotation_matches_a_pop_per_queue(self, patterns):
        queues = [
            SimpleNamespace(waitq=[object()] if backlogged else [],
                            blkg=SimpleNamespace(online=online))
            for backlogged, online in patterns
        ]
        controller = BFQController()
        controller.groups = list(queues)
        retired = []
        controller.retire_offline = lambda: retired.append(True)
        expected_round = list(queues)
        expected, offline = _next_queue_by_pops(expected_round)
        assert controller._next_queue() is expected
        assert controller.groups == expected_round
        assert retired == ([True] if offline else [])
