"""Tests for streaming statistics primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import LatencyWindow, RateMeter, Summary, TimeSeries
from repro.obs.metrics import exact_percentile as percentile


class TestPercentile:
    def test_known_values(self):
        data = list(range(1, 101))  # 1..100
        assert percentile(data, 50) == 50
        assert percentile(data, 90) == 90
        assert percentile(data, 99) == 99
        assert percentile(data, 100) == 100
        assert percentile(data, 0) == 1

    def test_single_sample(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @given(
        data=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100),
        pct=st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=100)
    def test_result_is_a_sample_within_bounds(self, data, pct):
        result = percentile(data, pct)
        assert result in data
        assert min(data) <= result <= max(data)

    @given(data=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_monotone_in_pct(self, data):
        values = [percentile(data, p) for p in (10, 50, 90, 99)]
        assert values == sorted(values)


class TestLatencyWindow:
    def test_percentile_over_window(self):
        window = LatencyWindow(window=1.0)
        for index in range(10):
            window.record(0.0, float(index))
        assert window.percentile(0.5, 50) == 4.0
        assert window.count(0.5) == 10

    def test_old_samples_pruned(self):
        window = LatencyWindow(window=1.0)
        window.record(0.0, 100.0)
        window.record(2.0, 1.0)
        assert window.percentile(2.5, 99) == 1.0
        assert window.count(2.5) == 1

    def test_empty_window_returns_none(self):
        window = LatencyWindow(window=1.0)
        assert window.percentile(0.0, 50) is None
        assert window.count(0.0) == 0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            LatencyWindow(window=0.0)

    @given(
        gaps=st.lists(st.floats(min_value=0, max_value=0.3), min_size=1, max_size=80),
        latencies=st.lists(st.floats(min_value=0, max_value=1), min_size=80, max_size=80),
        horizon=st.floats(min_value=0.01, max_value=1.0),
        lag=st.floats(min_value=0, max_value=0.5),
        pct=st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=200)
    def test_a_horizon_is_a_narrower_window(self, gaps, latencies, horizon, lag, pct):
        """Reading a wide window at horizon ``h`` is reading a window ``h``
        wide that was fed the same samples: same samples, same rank."""
        wide, narrow = LatencyWindow(1.0), LatencyWindow(horizon)
        now = 0.0
        for gap, latency in zip(gaps, latencies):
            now += gap
            wide.record(now, latency)
            narrow.record(now, latency)
        now += lag
        assert wide.percentile(now, pct, horizon=horizon) == narrow.percentile(now, pct)
        assert wide.percentile(now, pct, horizon=1.0) == wide.percentile(now, pct)

    def test_a_horizon_wider_than_the_window_raises(self):
        window = LatencyWindow(window=1.0)
        window.record(0.0, 1.0)
        with pytest.raises(ValueError, match="exceeds the window"):
            window.percentile(0.0, 50, horizon=1.5)

    def test_reads_only_leaves_writes_out(self):
        window = LatencyWindow(window=1.0)
        window.record(0.0, 9.0, is_write=True)
        assert window.percentile(0.0, 50) == 9.0
        assert window.percentile(0.0, 50, reads_only=True) is None
        window.record(0.0, 1.0)
        assert window.percentile(0.0, 100, reads_only=True) == 1.0

    def test_record_bounds_the_store_without_a_reader(self):
        window, meter = LatencyWindow(window=1.0), RateMeter(window=1.0)
        for index in range(1000):
            window.record(index / 128, 1.0)
            meter.record(index / 128)
        # The newest sample is 999/128: 871/128 .. 999/128 are inside.
        assert len(window._samples) == len(meter._events) == 129
        assert meter.total == 1000 and meter.rate(999 / 128) == 129


class TestRateMeter:
    def test_rate_over_window(self):
        meter = RateMeter(window=1.0)
        for index in range(100):
            meter.record(index * 0.01)
        assert meter.rate(1.0) == pytest.approx(100, rel=0.05)

    def test_weighted_amounts(self):
        meter = RateMeter(window=1.0)
        meter.record(0.5, amount=4096)
        assert meter.rate(0.6) == pytest.approx(4096)
        assert meter.total == 4096

    def test_rate_decays(self):
        meter = RateMeter(window=1.0)
        meter.record(0.0)
        assert meter.rate(2.0) == 0.0


class TestTimeSeries:
    def test_record_and_slice(self):
        series = TimeSeries("x")
        for t in range(10):
            series.record(float(t), t * 10.0)
        assert series.slice(2.0, 5.0) == [20.0, 30.0, 40.0]
        assert series.mean(2.0, 5.0) == pytest.approx(30.0)
        assert series.max(0.0, 100.0) == 90.0
        assert series.last() == 90.0
        assert len(series) == 10

    def test_non_monotone_rejected(self):
        series = TimeSeries()
        series.record(1.0, 0.0)
        with pytest.raises(ValueError):
            series.record(0.5, 0.0)

    def test_empty_reductions_raise(self):
        series = TimeSeries()
        with pytest.raises(ValueError):
            series.mean()
        with pytest.raises(ValueError):
            series.last()

    def test_iteration(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        series.record(1.0, 2.0)
        assert list(series) == [(0.0, 1.0), (1.0, 2.0)]


class TestSummary:
    def test_of_samples(self):
        summary = Summary.of(range(1, 101))
        assert summary.count == 100
        assert summary.mean == pytest.approx(50.5)
        assert summary.p50 == 50
        assert summary.p99 == 99
        assert summary.maximum == 100

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Summary.of([])
