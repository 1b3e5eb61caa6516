"""Tests for streaming statistics primitives."""

from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    LatencyLog,
    RateMeter,
    TimeSeries,
    keyed_percentiles,
)
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


    @given(
        data=st.one_of(
            st.lists(st.floats(allow_nan=False), min_size=1, max_size=60),
            st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=60),
        ),
        pct=st.one_of(st.sampled_from([0, 100, 0.0, 100.0]), st.integers(0, 100), st.floats(0, 100)),
    )
    @settings(max_examples=300)
    def test_selection_is_the_sorted_samples_at_the_nearest_rank(self, data, pct):
        """To the bit, for float samples and int samples that fit an int64
        (numpy holds larger ones as floats); zeros of either sign compare
        equal, so either may be the one selected."""
        rank = max(1, int(-(-pct * len(data) // 100)))
        expected = sorted(data)[rank - 1]
        result = percentile(data, pct)
        assert type(result) is type(expected)
        if isinstance(expected, float) and expected != 0.0:
            assert result.hex() == expected.hex()
        else:
            assert result == expected


class TestLatencyWindow:
    """A latency log's sliding window, read whole and per key."""

    def test_percentile_over_window(self):
        log = LatencyLog(window=1.0)
        for index in range(10):
            log.record(0.0, float(index))
        assert log.percentile(0.5, 50) == 4.0
        assert len(log) == 10

    def test_old_samples_pruned(self):
        log = LatencyLog(window=1.0)
        log.record(0.0, 100.0)
        log.record(2.0, 1.0)
        assert log.percentile(2.5, 99) == 1.0
        assert len(log) == 1

    def test_empty_window_returns_none(self):
        log = LatencyLog(window=1.0)
        assert log.percentile(0.0, 50) is None
        assert keyed_percentiles((log,), 0.0, [0.0, None], (50, 99)) == [[None, None]] * 2
        assert len(log) == 0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            LatencyLog(window=0.0)

    @given(
        gaps=st.lists(st.floats(min_value=0, max_value=0.3), min_size=1, max_size=80),
        latencies=st.lists(st.floats(min_value=0, max_value=1), min_size=80, max_size=80),
        horizon=st.floats(min_value=0.01, max_value=1.0),
        lag=st.floats(min_value=0, max_value=0.5),
        pct=st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=200)
    def test_a_horizon_is_a_narrower_window(self, gaps, latencies, horizon, lag, pct):
        """Reading a wide log at horizon ``h`` is reading a log ``h`` wide
        that was fed the same samples: same samples, same rank."""
        wide, narrow = LatencyLog(1.0), LatencyLog(horizon)
        now = 0.0
        for gap, latency in zip(gaps, latencies):
            now += gap
            wide.record(now, latency)
            narrow.record(now, latency)
        now += lag
        assert wide.percentile(now, pct, horizon=horizon) == narrow.percentile(now, pct)
        assert wide.percentile(now, pct, horizon=1.0) == wide.percentile(now, pct)
        assert keyed_percentiles((wide,), now, [0.0], (pct,), horizon) == [
            [narrow.percentile(now, pct)]
        ]

    def test_a_horizon_wider_than_the_window_raises(self):
        log = LatencyLog(window=1.0)
        log.record(0.0, 1.0)
        with pytest.raises(ValueError, match="exceeds the window"):
            log.percentile(0.0, 50, horizon=1.5)
        with pytest.raises(ValueError, match="exceeds the window"):
            keyed_percentiles((log,), 0.0, [0.0], (50,), horizon=1.5)
        with pytest.raises(ValueError, match="exceeds the window"):
            keyed_percentiles((LatencyLog(0.5),), 0.0, [0.0], (50,))

    def test_reads_only_leaves_writes_out(self):
        reads, writes = LatencyLog(window=1.0), LatencyLog(window=1.0)
        writes.record(0.0, 9.0, key=1.0)
        assert keyed_percentiles((reads, writes), 0.0, [1.0], (50,)) == [[9.0]]
        assert keyed_percentiles((reads,), 0.0, [1.0], (50,)) == [[None]]
        reads.record(0.0, 1.0, key=1.0)
        assert keyed_percentiles((reads,), 0.0, [1.0], (100,)) == [[1.0]]

    def test_record_bounds_the_store_without_a_reader(self):
        log, meter = LatencyLog(window=1.0), RateMeter(window=1.0)
        for index in range(1000):
            log.record(index / 128, 1.0)
            meter.record(index / 128)
        # The newest sample is 999/128: 871/128 .. 999/128 are inside.
        assert len(log) == len(meter) == 129
        assert meter.total == 1000 and meter.rate(999 / 128) == 129
        # What is stored beyond them is at most an eighth of a window.
        slack = 1 + 1 / LatencyLog.EVICTIONS
        assert len(log._data) <= 3 * 129 * slack
        assert len(meter._data) <= 2 * 129 * slack


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


class TupleStores:
    """The sliding stores as a deque of tuples each, evicting on every
    record: the reference the flat stores must answer exactly like."""

    def __init__(self, window):
        self.window = window
        self.samples = deque()

    def record(self, now, latency, is_write):
        self.samples.append((now, latency, is_write))
        while self.samples[0][0] < now - self.window:
            self.samples.popleft()

    def fresh(self, now, horizon):
        return [sample for sample in self.samples if sample[0] >= now - horizon]

    def percentile(self, now, pct, horizon, reads_only):
        latencies = [
            lat for _, lat, is_write in self.fresh(now, horizon)
            if not (reads_only and is_write)
        ]
        return percentile(latencies, pct) if latencies else None

    def rate(self, now):
        return sum(lat for _, lat, _ in self.fresh(now, self.window)) / self.window


#: Steps on a binary grid, so sums are exact and samples land exactly on
#: the eviction boundary (``now - window``); zero makes equal timestamps.
_GRID_STEPS = st.sampled_from([0.0, 0.0, 1 / 64, 1 / 16, 1 / 8, 1 / 4, 1 / 2])
#: (step, latency, is_write, cgroup, whether the cgroup is removed first).
_SAMPLE = st.tuples(
    st.one_of(_GRID_STEPS, st.floats(min_value=0, max_value=0.3)),
    st.floats(min_value=0, max_value=1),
    st.booleans(),
    st.sampled_from([0, 0, 1, 2]),
    st.sampled_from([False, False, False, True]),
)


class TestFlatStoresMatchTuples:
    """The block layer's bookkeeping over flat stores — a latency log per
    direction, widened to ``window`` if that is wider than a second, read
    whole and, one second back, per cgroup under a key its record gets at
    its first sample (a removed cgroup's record goes; the next one at its
    path gets a new key) — against a deque of tuples per read."""

    @given(
        window=st.sampled_from([1.0, 0.25, 0.3, 2.0]),
        stream=st.lists(_SAMPLE, min_size=1, max_size=60),
        lag=st.one_of(_GRID_STEPS, st.floats(min_value=0, max_value=0.5)),
        pct=st.one_of(st.sampled_from([0, 50, 90, 99, 100]), st.floats(0, 100)),
    )
    @example(  # equal timestamps, then one exactly a window later
        window=1.0,
        stream=[(0.0, 3.0, False, 0, False)] * 3 + [(1.0, 1.0, True, 0, False)],
        lag=0.0,
        pct=50,
    )
    @example(  # every step half the window: each record evicts
        window=0.25,
        stream=[(0.125, index / 7, index % 2 == 0, index % 3, False) for index in range(7)],
        lag=0.25,
        pct=99,
    )
    @example(  # a cgroup removed and re-created at its path inside a window
        window=1.0,
        stream=[
            (0.0, 5.0, False, 1, False),
            (1 / 8, 1.0, False, 0, False),
            (1 / 8, 2.0, False, 1, True),
            (1 / 8, 3.0, True, 1, False),
        ],
        lag=0.0,
        pct=100,
    )
    @settings(max_examples=200, deadline=None)
    def test_every_answer_is_the_tuple_stores(self, window, stream, lag, pct):
        logs = LatencyLog(), LatencyLog()  # reads, writes
        for log in logs:  # as IOCost widens them to its horizon
            log.window = max(log.window, window)
        retention = max(window, 1.0)
        devices = tuple((log, TupleStores(retention)) for log in logs)
        meter, every = RateMeter(window), TupleStores(window)
        live, cgroups, key = {}, [], 0.0
        horizons = (1 / 8, 1 / 2, 1.0)
        pcts = (pct, 50, 99)
        now = 0.0
        times = ([], [])
        for step, latency, is_write, path, removed in stream:
            if removed:
                live.pop(path, None)
            if path not in live:
                key += 1.0
                live[path] = key, TupleStores(1.0)
                cgroups.append(live[path])
            now += step
            times[is_write].append(now)
            logs[is_write].record(now, latency, live[path][0])
            meter.record(now, latency)
            for ref in (devices[is_write][1], every, live[path][1]):
                ref.record(now, latency, is_write)
            # Beyond the live window, at most an eighth of a window is kept.
            for log, logged in zip(logs, times):
                kept = sum(time >= logged[-1] - retention * (1 + 1 / log.EVICTIONS)
                           for time in logged)
                assert len(log._data) // 3 <= kept
            kept = sum(time >= now - window * (1 + 1 / meter.EVICTIONS)
                       for time in times[0] + times[1])
            assert len(meter._data) // 2 <= kept
            assert len(meter) == len(every.samples)
            for log, ref in devices:
                assert len(log) == len(ref.samples)
            for when in (now, now + lag):
                assert repr(meter.rate(when)) == repr(every.rate(when))
                for log, ref in devices:
                    assert log._fresh(when, log.window) == len(ref.fresh(when, retention))
                    for horizon in horizons:
                        horizon *= window
                        assert repr(log.percentile(when, pct, horizon)) == repr(
                            ref.percentile(when, pct, horizon, False)
                        )
                    assert log.percentiles(when, pcts) == [
                        ref.percentile(when, each, retention, False) for each in pcts
                    ]
                # Every cgroup's key, a key with no samples and the None of
                # a record before its first completion, in one read per
                # horizon, against each key's own reference.
                keys = [each for each, _ in cgroups] + [key + 1.0, None]
                for reads_only in (False, True):
                    read = logs[:1] if reads_only else logs
                    for horizon in horizons:
                        answers = keyed_percentiles(read, when, keys, pcts, horizon)
                        assert answers[-2:] == [[None] * len(pcts)] * 2
                        for answer, (_, ref) in zip(answers, cgroups):
                            assert repr(answer) == repr(
                                [ref.percentile(when, each, horizon, reads_only) for each in pcts]
                            )


class TestTimeSeries:
    def test_record_and_slice(self):
        series = TimeSeries("x")
        for t in range(10):
            series.record(float(t), t * 10.0)
        assert series.slice(2.0, 5.0) == [20.0, 30.0, 40.0]
        assert series.mean(2.0, 5.0) == pytest.approx(30.0)
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

    def test_iteration(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        series.record(1.0, 2.0)
        assert list(series) == [(0.0, 1.0), (1.0, 2.0)]
