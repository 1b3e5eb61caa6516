"""Tests for the §3.5 debt mechanism primitives."""

import pytest

from repro.cgroup import CgroupTree
from repro.core.debt import DebtTracker, SwapChargeMode
from repro.core.hierarchy import WeightTree
from repro.core.vtime import VTimeClock
from repro.sim import Simulator


def make_env(vrate=1.0):
    sim = Simulator()
    clock = VTimeClock(sim, vrate=vrate)
    tracker = DebtTracker(clock)
    group = WeightTree().state_of(CgroupTree().create("a"))
    return sim, clock, tracker, group


def test_no_debt_when_local_behind_global():
    sim, clock, tracker, group = make_env()
    sim.run(until=1.0)
    group.local_vtime = 0.5  # has budget
    assert tracker.debt_vtime(group) == 0.0
    assert tracker.debt_walltime(group) == 0.0


def test_debt_is_local_ahead_of_global():
    sim, clock, tracker, group = make_env()
    sim.run(until=1.0)
    group.local_vtime = 1.4
    assert tracker.debt_vtime(group) == pytest.approx(0.4)
    assert tracker.debt_walltime(group) == pytest.approx(0.4)


def test_debt_walltime_scales_with_vrate():
    sim, clock, tracker, group = make_env(vrate=2.0)
    group.local_vtime = clock.now() + 1.0
    assert tracker.debt_walltime(group) == pytest.approx(0.5)


def test_no_delay_under_threshold():
    sim, clock, tracker, group = make_env()
    group.local_vtime = clock.now() + 0.005  # under the 0.01 s threshold
    assert tracker.userspace_delay(group) == 0.0
    assert tracker.userspace_blocks == 0


def test_delay_fraction_of_owed_time():
    sim, clock, tracker, group = make_env()
    group.local_vtime = clock.now() + 0.2  # half of it, under the 0.25 s cap
    assert tracker.userspace_delay(group) == pytest.approx(0.1)
    assert tracker.userspace_blocks == 1
    assert tracker.total_blocked_time == pytest.approx(0.1)


def test_delay_capped_at_max():
    sim, clock, tracker, group = make_env()
    group.local_vtime = clock.now() + 100.0
    assert tracker.userspace_delay(group) == pytest.approx(0.25)


def test_debt_decays_as_global_vtime_progresses():
    sim, clock, tracker, group = make_env()
    group.local_vtime = 0.5
    assert tracker.debt_vtime(group) == pytest.approx(0.5)
    sim.run(until=0.3)
    assert tracker.debt_vtime(group) == pytest.approx(0.2)
    sim.run(until=1.0)
    assert tracker.debt_vtime(group) == 0.0


def test_swap_charge_modes_enumerated():
    assert SwapChargeMode.DEBT.value == "debt"
    assert SwapChargeMode.ROOT.value == "root"
    assert SwapChargeMode.ORIGIN_THROTTLE.value == "origin_throttle"
