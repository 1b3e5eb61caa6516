"""Tests for the log-bucketed histogram and the exact percentile."""

import numpy as np
import pytest

from repro.analysis import stats
from repro.obs.metrics import Histogram, exact_percentile, select_percentiles


class TestHistogram:
    def test_exact_aggregates(self):
        histogram = Histogram(resolution=0.02)
        samples = [1.0, 2.0, 3.0, 4.0]
        for value in samples:
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(10.0)
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        assert histogram.mean == pytest.approx(2.5)

    def test_percentiles_within_resolution_of_exact(self):
        """Every percentile lands within one relative bucket of ground truth."""
        rng = np.random.default_rng(42)
        samples = list(rng.lognormal(mean=-7.0, sigma=1.0, size=20_000))
        histogram = Histogram(resolution=0.02)
        for value in samples:
            histogram.record(value)
        for pct in (1, 10, 50, 90, 95, 99, 99.9):
            exact = exact_percentile(samples, pct)
            approx = histogram.percentile(pct)
            assert approx == pytest.approx(exact, rel=0.021), pct

    def test_extremes_are_exact(self):
        histogram = Histogram()
        for value in [3e-3, 5e-3, 7e-3]:
            histogram.record(value)
        assert histogram.percentile(100) == 7e-3
        assert histogram.percentile(0) <= 3e-3 * 1.02

    def test_zero_and_negative_samples(self):
        histogram = Histogram()
        for value in [0.0, 0.0, 0.0, 1.0]:
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.p50 == 0.0
        assert histogram.percentile(100) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram().percentile(50)
        with pytest.raises(ValueError):
            _ = Histogram().mean

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            Histogram(resolution=0.0)
        with pytest.raises(ValueError):
            Histogram(resolution=1.5)

    def test_summary_shape(self):
        histogram = Histogram("lat")
        assert histogram.summary() == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0
        }
        histogram.record(2e-3)
        summary = histogram.summary()
        assert summary["count"] == 1
        assert summary["max"] == 2e-3


class TestHistogramSerialization:
    def test_round_trip_preserves_everything(self):
        rng = np.random.default_rng(9)
        histogram = Histogram("lat", resolution=0.02)
        for value in rng.lognormal(-6, 1, 500):
            histogram.record(value)
        clone = Histogram.from_dict(histogram.to_dict(), name="lat")
        assert clone.to_dict() == histogram.to_dict()
        assert clone.count == histogram.count
        for pct in (50, 95, 99):
            assert clone.percentile(pct) == histogram.percentile(pct)

    def test_empty_round_trip(self):
        clone = Histogram.from_dict(Histogram(resolution=0.05).to_dict())
        assert clone.count == 0
        assert clone.resolution == 0.05

    def test_round_tripped_histograms_merge(self):
        # The fleet rollup's whole pipeline: record on the host, serialize
        # into a stored result, deserialize in the aggregator, merge.
        a, b = Histogram(resolution=0.02), Histogram(resolution=0.02)
        for value in [1e-3] * 10:
            a.record(value)
        for value in [4e-3] * 30:
            b.record(value)
        merged = Histogram.from_dict(a.to_dict())
        merged.merge(Histogram.from_dict(b.to_dict()))
        assert merged.count == 40
        assert merged.min == 1e-3
        assert merged.max == 4e-3
        assert merged.percentile(99) == pytest.approx(4e-3, rel=0.021)


class TestStatsShim:
    """The legacy nearest-rank behaviour the ``repro.analysis.stats`` shim
    used to promise, now asked of ``exact_percentile`` and of the stats
    primitives that call it directly."""

    def test_delegates_to_exact_percentile(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        log = stats.LatencyLog(window=1.0)
        for sample in samples:
            log.record(0.0, sample)
        for pct in (0, 20, 50, 90, 100):
            assert log.percentile(0.5, pct) == exact_percentile(samples, pct)
        assert select_percentiles(np.array(samples), (50, 90, 99)) == [
            exact_percentile(samples, pct) for pct in (50, 90, 99)
        ]

    def test_legacy_nearest_rank_values(self):
        assert exact_percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
        assert exact_percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
        assert exact_percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0

    def test_legacy_errors_preserved(self):
        with pytest.raises(ValueError):
            exact_percentile([], 50)
        with pytest.raises(ValueError):
            exact_percentile([1.0], 101)
