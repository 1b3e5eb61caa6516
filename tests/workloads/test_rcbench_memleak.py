"""Tests for ResourceControlBench, memory antagonists, and the PID ramp."""

import pytest

from repro.workloads.memleak import MemoryLeaker, StressWorkload
from repro.workloads.pid import LoadRamp, PIDController
from repro.workloads.rcbench import ResourceControlBench, WebServer

from tests.workloads.conftest import MB, make_iocost_env


class TestRCBench:
    def test_serves_requests_at_target_load(self):
        sim, layer, controller, tree, mm = make_iocost_env(total_mem=256 * MB)
        group = tree.get_or_create("workload.slice/bench", weight=500)
        bench = ResourceControlBench(
            sim, layer, mm, group,
            peak_rps=400, load=0.5, working_set=64 * MB, stop_at=5.0,
        ).start()
        sim.run(until=5.0)
        achieved = bench.requests_done / 5.0
        assert achieved == pytest.approx(200, rel=0.1)

    def test_latency_low_when_memory_fits(self):
        sim, layer, controller, tree, mm = make_iocost_env(total_mem=256 * MB)
        group = tree.get_or_create("workload.slice/bench", weight=500)
        bench = ResourceControlBench(
            sim, layer, mm, group,
            peak_rps=400, load=0.5, working_set=64 * MB, stop_at=3.0,
        ).start()
        sim.run(until=3.0)
        assert bench.request_percentile(95) < 20e-3

    def test_load_setter_scales_throughput(self):
        sim, layer, controller, tree, mm = make_iocost_env(total_mem=256 * MB)
        group = tree.get_or_create("workload.slice/bench", weight=500)
        bench = ResourceControlBench(
            sim, layer, mm, group,
            peak_rps=400, load=0.25, working_set=32 * MB, stop_at=6.0,
        ).start()
        sim.run(until=3.0)
        first_half = bench.requests_done
        bench.load = 0.75
        sim.run(until=6.0)
        second_half = bench.requests_done - first_half
        assert second_half > 2 * first_half

    def test_rps_series_recorded(self):
        sim, layer, controller, tree, mm = make_iocost_env()
        group = tree.get_or_create("workload.slice/bench", weight=500)
        bench = ResourceControlBench(
            sim, layer, mm, group, peak_rps=200, working_set=16 * MB, stop_at=3.0
        ).start()
        sim.run(until=3.0)
        assert len(bench.rps_series) > 3

    def test_request_percentile_is_the_nearest_rank(self):
        sim, layer, controller, tree, mm = make_iocost_env()
        group = tree.get_or_create("workload.slice/bench", weight=500)
        bench = ResourceControlBench(sim, layer, mm, group, working_set=16 * MB)
        assert bench.request_percentile(50) is None
        bench.request_latencies.extend([5.0, 1.0, 4.0, 2.0, 3.0])
        # Rank ceil(2.5) = 3; rounding half to even made the median 2.0.
        assert bench.request_percentile(50) == 3.0
        assert bench.request_percentile(50, last=4) == 2.0
        bench.request_latencies[:] = [float(i) for i in range(1, 31)]
        # p95 of 30 is rank ceil(28.5) = 29; round(28.5) made it the 28th.
        assert bench.request_percentile(95) == 29.0

    def test_webserver_presets(self):
        sim, layer, controller, tree, mm = make_iocost_env(total_mem=1024 * MB)
        group = tree.get_or_create("workload.slice/web", weight=500)
        web = WebServer(sim, layer, mm, group, stop_at=2.0)
        assert web.peak_rps == 800.0
        web.start()
        sim.run(until=2.0)
        assert web.requests_done > 500


class TestMemoryLeaker:
    def test_leaks_until_oom(self):
        sim, layer, controller, tree, mm = make_iocost_env(total_mem=64 * MB)
        # Small swap so OOM arrives quickly.
        mm.swap_bytes = 64 * MB
        leaker = MemoryLeaker(
            sim, layer, mm, tree.lookup("system.slice"), rate_bps=256 * MB, stop_at=60.0
        ).start()
        sim.run(until=20.0)
        assert leaker.killed
        assert mm.oom_kills
        assert mm.oom_kills[0].cgroup_path == "system.slice"

    def test_leak_generates_swap_writes_charged_to_leaker(self):
        sim, layer, controller, tree, mm = make_iocost_env(total_mem=32 * MB)
        group = tree.lookup("system.slice")
        MemoryLeaker(sim, layer, mm, group, rate_bps=128 * MB, stop_at=3.0).start()
        sim.run(until=3.0)
        assert group.stats.device(layer.dev).wbytes > 0


class TestStress:
    def test_touches_and_refaults(self):
        sim, layer, controller, tree, mm = make_iocost_env(total_mem=64 * MB)
        stress_group = tree.get_or_create("workload.slice/stress")
        other = tree.get_or_create("workload.slice/other")
        stress = StressWorkload(
            sim, layer, mm, stress_group, working_set=48 * MB, stop_at=5.0
        ).start()
        sim.run(until=1.0)

        # Another group's allocation pushes stress pages out...
        proc = sim.process(mm.alloc(other, 40 * MB))
        while not proc.done:
            sim.step()
        assert mm.state_of(stress_group).swapped > 0
        # ...and the stress loop faults them back in.
        sim.run(until=5.0)
        assert mm.state_of(stress_group).faulted_in_total > 0


class TestPID:
    def test_pid_basic_response(self):
        pid = PIDController(kp=1.0)
        assert pid.update(error=0.5, dt=1.0) == pytest.approx(0.5)

    def test_pid_integral_accumulates(self):
        pid = PIDController(kp=0.0, ki=1.0)
        pid.update(0.5, dt=1.0)
        assert pid.update(0.5, dt=1.0) == pytest.approx(1.0)

    def test_pid_clamps_with_antiwindup(self):
        pid = PIDController(kp=1.0, ki=1.0, output_max=0.1)
        for _ in range(10):
            out = pid.update(1.0, dt=1.0)
        assert out == 0.1
        # After clamping, a negative error responds immediately (no windup).
        assert pid.update(-1.0, dt=1.0) < 0.1

    def test_pid_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            PIDController(kp=1.0).update(0.0, dt=0.0)

    def test_ramp_reaches_end_load_unloaded(self):
        sim, layer, controller, tree, mm = make_iocost_env(total_mem=512 * MB)
        group = tree.get_or_create("workload.slice/bench", weight=500)
        bench = ResourceControlBench(
            sim, layer, mm, group,
            peak_rps=300, working_set=32 * MB, stop_at=120.0,
        ).start()
        ramp = LoadRamp(sim, bench, latency_target=75e-3, interval=0.5).start()
        sim.run(until=60.0)
        assert ramp.ramp_time is not None
        assert bench.load == pytest.approx(0.8)
