"""Tests for workload base helpers."""

import numpy as np
import pytest

from repro.obs.metrics import exact_percentile
from repro.workloads.base import SectorPicker, Workload

from tests.workloads.conftest import make_noop_env


class TestSectorPicker:
    def test_sequential_is_contiguous(self):
        picker = SectorPicker(np.random.default_rng(0), sequential=True)
        first = picker.next(4096)
        second = picker.next(4096)
        assert second == first + 8
        third = picker.next(65536)
        assert third == second + 8

    def test_random_is_page_aligned_and_spread(self):
        picker = SectorPicker(np.random.default_rng(0), sequential=False)
        sectors = [picker.next(4096) for _ in range(100)]
        assert all(sector % 8 == 0 for sector in sectors)
        assert len(set(sectors)) > 95  # effectively no repeats

    def test_deterministic_given_seed(self):
        a = SectorPicker(np.random.default_rng(7), sequential=False)
        b = SectorPicker(np.random.default_rng(7), sequential=False)
        assert [a.next(4096) for _ in range(10)] == [b.next(4096) for _ in range(10)]

    def test_chunked_draws_match_scalar_draws(self):
        # Chunk size is a pure performance knob (docs/PERF.md): pre-drawn
        # arrays consume the bit stream exactly as repeated scalar draws do.
        scalar = SectorPicker(np.random.default_rng(7), sequential=False, chunk=1)
        chunked = SectorPicker(np.random.default_rng(7), sequential=False, chunk=64)
        assert [scalar.next(4096) for _ in range(200)] == [
            chunked.next(4096) for _ in range(200)
        ]


class TestWorkloadBase:
    def test_latency_summary_requires_data(self):
        sim, layer, tree = make_noop_env()
        workload = Workload(sim, layer, tree.create("a"))
        with pytest.raises(ValueError):
            exact_percentile(workload.latencies, 50)

    def test_recent_percentile_none_when_empty(self):
        sim, layer, tree = make_noop_env()
        workload = Workload(sim, layer, tree.create("a"))
        assert workload.recent_percentile(50) is None

    def test_recent_percentile_windows_last_n(self):
        sim, layer, tree = make_noop_env()
        workload = Workload(sim, layer, tree.create("a"))
        workload.latencies = [1.0] * 100 + [2.0] * 100
        assert workload.recent_percentile(50, last=100) == 2.0
        assert workload.recent_percentile(50, last=200) in (1.0, 2.0)

    def test_recent_percentile_is_the_nearest_rank(self):
        sim, layer, tree = make_noop_env()
        workload = Workload(sim, layer, tree.create("a"))
        workload.latencies.extend([5.0, 1.0, 4.0, 2.0, 3.0])
        # Rank ceil(2.5) = 3; rounding half to even made the median 2.0.
        assert workload.recent_percentile(50) == 3.0
        assert workload.recent_percentile(50, last=4) == 2.0

    def test_iops_helper(self):
        sim, layer, tree = make_noop_env()
        workload = Workload(sim, layer, tree.create("a"))
        workload.completed = 500
        assert workload.iops(2.0) == 250.0
