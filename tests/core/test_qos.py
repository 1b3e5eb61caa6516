"""Tests for QoS parameters and the vrate controller."""

import pytest

from repro.analysis.stats import LatencyLog
from repro.core.qos import QoSParams, VRateController
from repro.core.vtime import VTimeClock
from repro.sim import Simulator


def make_ctl(**qos_kwargs):
    sim = Simulator()
    qos = QoSParams(**qos_kwargs)
    clock = VTimeClock(sim)
    return sim, clock, VRateController(clock, qos)


def fill(window, now, value, count=200):
    for _ in range(count):
        window.record(now, value)


class TestQoSParams:
    def test_defaults_valid(self):
        params = QoSParams()
        assert params.vrate_min < params.vrate_max

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period": 0.0},
            {"vrate_min": 0.0},
            {"vrate_min": 2.0, "vrate_max": 1.0},
            {"read_pct": 0.0},
            {"write_pct": 101.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QoSParams(**kwargs)


class TestVRateAdjustment:
    def test_starved_and_unsaturated_raises_vrate(self):
        sim, clock, ctl = make_ctl(read_lat_target=1e-3)
        reads, writes = LatencyLog(1.0), LatencyLog(1.0)
        fill(reads, 0.0, 100e-6)  # well under target
        new = ctl.adjust(0.0, reads, writes, slot_utilization=0.1, budget_starved=True)
        assert new == pytest.approx(1.05)
        assert ctl.starvation_events == 1

    def test_not_starved_holds_vrate(self):
        sim, clock, ctl = make_ctl(read_lat_target=1e-3)
        reads, writes = LatencyLog(1.0), LatencyLog(1.0)
        fill(reads, 0.0, 100e-6)
        new = ctl.adjust(0.0, reads, writes, slot_utilization=0.1, budget_starved=False)
        assert new == pytest.approx(1.0)

    def test_latency_violation_cuts_vrate(self):
        sim, clock, ctl = make_ctl(read_lat_target=1e-3, read_pct=90)
        reads, writes = LatencyLog(1.0), LatencyLog(1.0)
        fill(reads, 0.0, 4e-3)  # 4x over target
        new = ctl.adjust(0.0, reads, writes, slot_utilization=0.1, budget_starved=True)
        assert new < 1.0
        assert ctl.saturation_events == 1

    def test_cut_proportional_to_excess_but_bounded(self):
        sim, clock, ctl = make_ctl(read_lat_target=1e-3)
        reads, writes = LatencyLog(1.0), LatencyLog(1.0)
        fill(reads, 0.0, 100e-3)  # 100x over target
        new = ctl.adjust(0.0, reads, writes, slot_utilization=0.0, budget_starved=False)
        assert new == pytest.approx(VRateController.MAX_CUT)

    def test_slot_depletion_counts_as_saturation(self):
        sim, clock, ctl = make_ctl(read_lat_target=None, write_lat_target=None)
        reads, writes = LatencyLog(1.0), LatencyLog(1.0)
        new = ctl.adjust(0.0, reads, writes, slot_utilization=0.99, budget_starved=True)
        assert new == pytest.approx(0.9)

    def test_disabled_targets_never_violate(self):
        sim, clock, ctl = make_ctl(read_lat_target=None, write_lat_target=None)
        reads, writes = LatencyLog(1.0), LatencyLog(1.0)
        fill(reads, 0.0, 10.0)  # huge latencies, but targets disabled
        new = ctl.adjust(0.0, reads, writes, slot_utilization=0.1, budget_starved=True)
        assert new == pytest.approx(1.05)

    def test_vrate_clamped_to_bounds(self):
        sim, clock, ctl = make_ctl(
            read_lat_target=1e-3, vrate_min=0.5, vrate_max=1.2
        )
        reads, writes = LatencyLog(1.0), LatencyLog(1.0)
        fill(reads, 0.0, 50e-6)
        for _ in range(20):
            ctl.adjust(0.0, reads, writes, slot_utilization=0.0, budget_starved=True)
        assert clock.vrate == pytest.approx(1.2)
        reads = LatencyLog(1.0)
        fill(reads, 0.0, 1.0)
        for _ in range(40):
            ctl.adjust(0.0, reads, writes, slot_utilization=0.0, budget_starved=False)
        assert clock.vrate == pytest.approx(0.5)

    def test_series_recorded(self):
        sim, clock, ctl = make_ctl()
        reads, writes = LatencyLog(1.0), LatencyLog(1.0)
        fill(reads, 0.0, 1e-4)
        ctl.adjust(0.0, reads, writes, slot_utilization=0.0, budget_starved=False)
        assert len(ctl.vrate_series) == 1
        assert len(ctl.read_lat_series) == 1

    def test_empty_windows_no_violation(self):
        sim, clock, ctl = make_ctl(read_lat_target=1e-6)
        reads, writes = LatencyLog(1.0), LatencyLog(1.0)
        new = ctl.adjust(0.0, reads, writes, slot_utilization=0.0, budget_starved=True)
        assert new == pytest.approx(1.05)
