"""PID load-ramp driver (Figure 15).

The paper: "We configure a PID controller to slowly add load to
ResourceControlBench from 40% of its peak compute load to 80% while keeping
p95 latency under 75 ms.  We measure the time it takes ... to scale from
40% to 80%."

:class:`PIDController` is a textbook PID without the derivative term;
:class:`LoadRamp` wires it to an
:class:`~repro.workloads.rcbench.ResourceControlBench` instance's ``load``
knob with the p95 request latency as the process variable.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.stats import TimeSeries
from repro.workloads.rcbench import ResourceControlBench


class PIDController:
    """Discrete proportional-integral control on an error signal."""

    def __init__(
        self,
        kp: float,
        ki: float = 0.0,
        output_min: float = float("-inf"),
        output_max: float = float("inf"),
    ):
        self.kp = kp
        self.ki = ki
        self.output_min = output_min
        self.output_max = output_max
        self._integral = 0.0

    def update(self, error: float, dt: float) -> float:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self._integral += error * dt
        output = self.kp * error + self.ki * self._integral
        # Clamp with integral anti-windup.
        if output > self.output_max:
            self._integral -= error * dt
            return self.output_max
        if output < self.output_min:
            self._integral -= error * dt
            return self.output_min
        return output


class LoadRamp:
    """Ramp an RCBench instance 40%→80% load under a p95 latency ceiling."""

    def __init__(
        self,
        sim,
        bench: ResourceControlBench,
        start_load: float = 0.4,
        end_load: float = 0.8,
        latency_target: float = 75e-3,
        interval: float = 0.5,
        kp: float = 0.35,
        ki: float = 0.05,
    ):
        self.sim = sim
        self.bench = bench
        self.start_load = start_load
        self.end_load = end_load
        self.latency_target = latency_target
        self.interval = interval
        # Control output is the *load delta* per interval, bounded so the
        # ramp is "slow" in both directions.
        self.pid = PIDController(kp=kp, ki=ki, output_min=-0.1, output_max=0.05)
        self.completed_at: Optional[float] = None
        self.load_series = TimeSeries("ramp_load")
        bench.load = start_load

    def start(self) -> "LoadRamp":
        self.sim.schedule(self.interval, self._tick)
        return self

    @property
    def ramp_time(self) -> Optional[float]:
        """Seconds from ramp start to first reaching the end load."""
        return self.completed_at

    def _tick(self):
        bench = self.bench
        p95 = bench.request_percentile(95, last=100)
        if p95 is None:
            p95 = 0.0
        # Positive error (latency headroom) raises load; violation cuts it.
        error = (self.latency_target - p95) / self.latency_target
        delta = self.pid.update(error, self.interval)
        bench.load = min(self.end_load, max(self.start_load * 0.5, bench.load + delta))
        self.load_series.record(self.sim.now, bench.load)
        if bench.load >= self.end_load and self.completed_at is None:
            self.completed_at = self.sim.now
            return  # ramp finished; stop driving
        self.sim.schedule(self.interval, self._tick)
