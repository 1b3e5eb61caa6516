"""Fleet rollup math: p99-of-p99s vs pooled percentiles, histogram merging.

The two aggregates answer different questions ("how bad is a bad host" vs
"how bad is a bad IO") and diverge exactly when slow hosts are a minority
— which is the scenario these tests construct explicitly.
"""

import numpy as np
import pytest

from repro.fleet.rollup import ROLLUP_SCHEMA, fleet_rollup, merge_histograms
from repro.obs.metrics import Histogram, exact_percentile

RESOLUTION = 0.02


def hist_payload(values):
    hist = Histogram(resolution=RESOLUTION)
    hist.record_many(values)
    return hist.to_dict()


def make_plan(host_values, workload="w", cgroup="workload.slice/w"):
    return {
        "fleet": "rollup-test",
        "fleet_hash": "feedc0de00000000",
        "policy": "best_fit",
        "capacity": "rated",
        "hosts": {
            host_id: {
                "group": "g",
                "capacity_iops": 1000.0,
                "load_iops": 100.0,
                "utilization": 0.1,
                "oversubscribed": False,
                "workloads": [
                    {"workload": workload, "instance": i, "cgroup": cgroup,
                     "weight": 100, "demand_iops": 100.0}
                ],
            }
            for i, host_id in enumerate(host_values)
        },
        "migrations": [],
    }


def make_result(values, cgroup="workload.slice/w", iostat=None):
    return {
        "cgroups": {
            cgroup: {
                "iops": float(len(values)),
                "read_p99": float(exact_percentile(list(values), 99)),
            }
        },
        "iostat": iostat or {},
        "latency_hist": {cgroup: hist_payload(values)},
        "vrate_mean": None,
    }


def assert_hists_equal(left, right):
    """Bucket-exact equality; ``sum`` only up to float addition order."""
    assert left.keys() == right.keys()
    for key in left:
        if key == "sum":
            assert left[key] == pytest.approx(right[key])
        else:
            assert left[key] == right[key], key


class TestHistogramMerging:
    def test_merge_is_associative(self):
        rng = np.random.default_rng(7)
        parts = [rng.lognormal(-6, 1, 200) for _ in range(3)]

        def merged(order):
            out = None
            for index in order:
                hist = Histogram(resolution=RESOLUTION)
                hist.record_many(parts[index])
                out = hist if out is None else out.merge(hist)
            return out.to_dict()

        left = merged([0, 1, 2])   # (a + b) + c
        right = merged([1, 2, 0])  # (b + c) + a
        assert_hists_equal(left, right)
        assert_hists_equal(left, merged([2, 0, 1]))

    def test_merge_equals_pooled_recording(self):
        rng = np.random.default_rng(8)
        a, b = rng.lognormal(-6, 1, 300), rng.lognormal(-5, 1, 300)
        pooled = Histogram(resolution=RESOLUTION)
        pooled.record_many(np.concatenate([a, b]))
        merged = merge_histograms([hist_payload(a), hist_payload(b)])
        assert_hists_equal(merged.to_dict(), pooled.to_dict())

    def test_merge_histograms_empty(self):
        assert merge_histograms([]) is None

    def test_resolution_mismatch_rejected(self):
        coarse = Histogram(resolution=0.1)
        fine = Histogram(resolution=RESOLUTION)
        with pytest.raises(ValueError, match="resolution"):
            coarse.merge(fine)


class TestPercentileOfPercentiles:
    def test_minority_slow_host_splits_the_aggregates(self):
        # Three healthy hosts (100 IOs at ~1ms), one sick host with only
        # two IOs at 10ms.  Its host-p99 is 10ms, so the p99-of-p99s sees
        # it; pooled over 302 samples, rank 99% still lands on 1ms.
        values = {
            "g/0": [1e-3] * 100,
            "g/1": [1e-3] * 100,
            "g/2": [1e-3] * 100,
            "g/3": [10e-3] * 2,
        }
        plan = make_plan(values)
        results = {h: make_result(v) for h, v in values.items()}
        rollup = fleet_rollup(plan, results, percentiles=(99,))
        latency = rollup["workloads"]["w"]["read_latency"]["p99"]

        assert latency["of_host_percentiles"] == pytest.approx(10e-3, rel=0.05)
        assert latency["host_max"] == pytest.approx(10e-3, rel=0.05)
        assert latency["pooled"] == pytest.approx(1e-3, rel=2 * RESOLUTION)
        assert latency["pooled"] < latency["of_host_percentiles"]

    def test_pooled_matches_exact_percentile_within_bucket(self):
        rng = np.random.default_rng(11)
        values = {f"g/{i}": rng.lognormal(-6, 0.8, 250) for i in range(4)}
        plan = make_plan(values)
        results = {h: make_result(list(v)) for h, v in values.items()}
        rollup = fleet_rollup(plan, results, percentiles=(50, 99))
        everything = np.concatenate(list(values.values()))
        for pct in (50, 99):
            pooled = rollup["workloads"]["w"]["read_latency"][f"p{pct}"]["pooled"]
            exact = exact_percentile(list(everything), pct)
            assert pooled == pytest.approx(exact, rel=3 * RESOLUTION)

    def test_sample_counts_survive_merging(self):
        values = {"g/0": [1e-3] * 40, "g/1": [2e-3] * 60}
        rollup = fleet_rollup(
            make_plan(values),
            {h: make_result(v) for h, v in values.items()},
            percentiles=(99,),
        )
        assert rollup["workloads"]["w"]["samples"] == 100
        assert rollup["workloads"]["w"]["placements_reporting"] == 2


class TestRollupDocument:
    def test_schema_and_missing_hosts(self):
        values = {"g/0": [1e-3] * 10, "g/1": [1e-3] * 10}
        plan = make_plan(values)
        rollup = fleet_rollup(plan, {"g/0": make_result(values["g/0"])})
        assert rollup["schema"] == ROLLUP_SCHEMA
        assert rollup["hosts"]["total"] == 2
        assert rollup["hosts"]["reporting"] == 1
        assert rollup["hosts"]["missing"] == ["g/1"]

    def test_iostat_sums_counters_but_not_cost_gauges(self):
        values = {"g/0": [1e-3] * 4, "g/1": [1e-3] * 4}
        iostat = {
            "": {"rbytes": 100.0, "rios": 10.0, "cost.vrate": 87.5},
        }
        results = {
            h: make_result(v, iostat={k: dict(e) for k, e in iostat.items()})
            for h, v in values.items()
        }
        rollup = fleet_rollup(make_plan(values), results)
        totals = rollup["iostat"][""]
        assert totals["rbytes"] == 200.0
        assert totals["rios"] == 20.0
        assert "cost.vrate" not in totals  # a gauge: summing is nonsense

    def test_vrate_stats(self):
        values = {"g/0": [1e-3] * 4, "g/1": [1e-3] * 4}
        results = {h: make_result(v) for h, v in values.items()}
        results["g/0"]["vrate_mean"] = 80.0
        results["g/1"]["vrate_mean"] = 120.0
        rollup = fleet_rollup(make_plan(values), results)
        assert rollup["vrate"] == {
            "hosts": 2.0, "mean": 100.0, "min": 80.0, "max": 120.0,
        }
