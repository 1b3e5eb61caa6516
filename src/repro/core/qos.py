"""QoS parameters and dynamic vrate adjustment (paper §3.3).

Simple linear models cannot capture modern SSDs (caching, reordering,
garbage collection), so IOCost adjusts the global ``vrate`` on two signals:

* **device saturation** — the configured completion-latency percentile
  exceeds its target, or in-flight requests deplete the available request
  slots → lower vrate;
* **budget deficiency** — the kernel could issue more IO (bios are waiting
  on budget) while the device is *not* saturated → raise vrate.

``vrate`` is bounded by administrator-configured ``vrate_min``/``vrate_max``
(derived per device with :mod:`repro.core.qos_tuning`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.stats import LatencyLog, TimeSeries
from repro.core.vtime import VTimeClock

#: Request-slot utilisation treated as depletion (saturation signal).
SLOT_DEPLETION_THRESHOLD = 0.95


@dataclass(frozen=True)
class QoSParams:
    """Per-device QoS configuration (the kernel's ``io.cost.qos`` analogue).

    ``read_lat_target``/``write_lat_target`` of ``None`` disable the
    corresponding latency signal (the paper's "QoS disabled" overhead runs).
    ``vrate_min``/``vrate_max`` are fractions (1.0 = 100%).
    """

    read_lat_target: Optional[float] = 5e-3
    read_pct: float = 95.0
    write_lat_target: Optional[float] = 20e-3
    write_pct: float = 95.0
    vrate_min: float = 0.25
    vrate_max: float = 4.0
    period: float = 0.05

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0 < self.vrate_min <= self.vrate_max:
            raise ValueError("need 0 < vrate_min <= vrate_max")
        for pct in (self.read_pct, self.write_pct):
            if not 0 < pct <= 100:
                raise ValueError("percentiles must be in (0, 100]")


class VRateController:
    """Periodic vrate adjustment driven by saturation/starvation signals."""

    #: Multiplicative step when raising vrate (device idle + budget-starved).
    RAISE_FACTOR = 1.05
    #: Hardest single-period cut when saturated.
    MAX_CUT = 0.7

    #: Bounds for the diagnostic busy level (kernel iocost keeps ±16 too).
    BUSY_LEVEL_LIMIT = 16

    def __init__(self, clock: VTimeClock, qos: QoSParams) -> None:
        self.clock = clock
        self.qos = qos
        #: How far back an adjustment reads the windows: fresh samples only.
        self.horizon = 3 * qos.period
        #: The percentiles the last adjustment observed over that horizon.
        self.read_p: Optional[float] = None
        self.write_p: Optional[float] = None
        self.vrate_series = TimeSeries("vrate")
        self.read_lat_series = TimeSeries("read_latency")
        self.saturation_events = 0
        self.starvation_events = 0
        # Diagnostic only (the kernel's ``busy_level``, what iocost_monitor
        # prints as ``busy=+N``): consecutive saturated periods push it up,
        # starved periods push it down, quiet periods decay it toward 0.
        # It feeds no control decision here.
        self.busy_level = 0

    # -- adjustment ---------------------------------------------------------

    def adjust(
        self,
        now: float,
        read_window: LatencyLog,
        write_window: LatencyLog,
        slot_utilization: float,
        budget_starved: bool,
    ) -> float:
        """One planning-period adjustment; returns the new vrate."""
        qos = self.qos
        # Each window is read once per period: the read percentile also
        # feeds ``read_lat_series`` below, and both the ``vrate_adjust`` trace.
        horizon = self.horizon
        read_p = self.read_p = read_window.percentile(now, qos.read_pct, horizon)
        write_p = self.write_p = write_window.percentile(now, qos.write_pct, horizon)
        # Worst observed/target ratio among the percentiles over target.
        excess = 0.0
        for observed, target in (
            (read_p, qos.read_lat_target), (write_p, qos.write_lat_target)
        ):
            if observed is not None and target is not None and observed > target:
                excess = max(excess, observed / target)
        depleted = slot_utilization >= SLOT_DEPLETION_THRESHOLD

        vrate = self.clock.vrate
        if excess > 0 or depleted:
            self.saturation_events += 1
            self.busy_level = min(self.busy_level + 1, self.BUSY_LEVEL_LIMIT)
            if excess > 0:
                # Cut proportionally to how far over target we are, bounded.
                cut = max(self.MAX_CUT, min(0.95, 1.0 / excess ** 0.5))
            else:
                cut = 0.9
            vrate *= cut
        elif budget_starved:
            self.starvation_events += 1
            self.busy_level = max(self.busy_level - 1, -self.BUSY_LEVEL_LIMIT)
            vrate *= self.RAISE_FACTOR
        elif self.busy_level > 0:
            self.busy_level -= 1
        elif self.busy_level < 0:
            self.busy_level += 1

        vrate = min(max(vrate, qos.vrate_min), qos.vrate_max)
        if vrate != self.clock.vrate:
            self.clock.set_vrate(vrate)

        self.vrate_series.record(now, vrate)
        if read_p is not None:
            self.read_lat_series.record(now, read_p)
        return vrate
