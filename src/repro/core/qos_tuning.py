"""Systematic QoS-parameter tuning with ResourceControlBench (paper §3.4).

Two scenarios, swept across pinned vrate values, bound the production vrate
range for a device:

1. **Solo / throughput scenario** — ResourceControlBench runs alone with a
   working set larger than memory, so paging throughput limits performance.
   As vrate drops, throughput drops.  The *upper* bound is the smallest
   vrate above which more throughput "results in no meaningful advantages
   for memory overcommit" (the RPS plateau).

2. **Protection scenario** — ResourceControlBench runs alongside a
   memory leak in the system slice.  As vrate is lowered, IO control
   improves "until ResourceControlBench's latency is sufficiently
   protected from thrashing".  The *lower* bound is the largest vrate that
   still meets the latency threshold (below it no further control
   improvements are needed).

``tune_qos`` runs both sweeps on simulated machines and returns the bounded
:class:`~repro.core.qos.QoSParams`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.block.device import DeviceSpec
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.qos import QoSParams

MB = 1024 * 1024

DEFAULT_VRATE_CANDIDATES = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


@dataclass
class TuningResult:
    """Sweep data plus the derived bounds."""

    device: str
    candidates: List[float]
    solo_rps: Dict[float, float]
    protected_p95: Dict[float, float]
    vrate_min: float
    vrate_max: float

    def to_qos(self, base: Optional[QoSParams] = None) -> QoSParams:
        base = base or QoSParams()
        return replace(base, vrate_min=self.vrate_min, vrate_max=self.vrate_max)


def _pinned_iocost(params: ModelParams, vrate: float) -> IOCost:
    qos = QoSParams(
        read_lat_target=None,
        write_lat_target=None,
        vrate_min=vrate,
        vrate_max=vrate,
        period=0.05,
    )
    return IOCost(LinearCostModel(params), qos=qos, initial_vrate=vrate)


def _solo_rps(
    spec: DeviceSpec,
    params: ModelParams,
    vrate: float,
    duration: float,
    total_mem: int,
    seed: int,
) -> float:
    """Scenario 1: paging-bound RCBench alone; returns steady-state RPS."""
    from repro.testbed import Testbed
    from repro.workloads.rcbench import ResourceControlBench

    bed = Testbed(
        device=spec,
        controller=_pinned_iocost(params, vrate),
        seed=seed,
        mem_bytes=total_mem,
        swap_bytes=64 * total_mem,
    )
    bench = ResourceControlBench(
        bed.sim,
        bed.layer,
        bed.mm,
        bed.add_cgroup("workload.slice/rcbench", weight=500),
        load=1.0,
        working_set=int(total_mem * 1.3),  # paging-bound by construction
        stop_at=duration,
        seed=seed + 1,
    ).start()
    bed.run(duration)
    bed.detach()
    half = duration / 2
    if len(bench.rps_series.slice(half, duration)) == 0:
        return 0.0
    return bench.rps_series.mean(half, duration)


def _protected_p95(
    spec: DeviceSpec,
    params: ModelParams,
    vrate: float,
    duration: float,
    total_mem: int,
    seed: int,
) -> float:
    """Scenario 2: RCBench vs memory leak; returns RCBench p95 latency."""
    from repro.testbed import Testbed
    from repro.workloads.memleak import MemoryLeaker
    from repro.workloads.rcbench import ResourceControlBench

    bed = Testbed(
        device=spec,
        controller=_pinned_iocost(params, vrate),
        seed=seed,
        mem_bytes=total_mem,
        swap_bytes=64 * total_mem,
    )
    bench = ResourceControlBench(
        bed.sim,
        bed.layer,
        bed.mm,
        bed.add_cgroup("workload.slice/rcbench", weight=500),
        load=0.7,
        working_set=int(total_mem * 0.6),
        stop_at=duration,
        seed=seed + 1,
    ).start()
    MemoryLeaker(
        bed.sim, bed.layer, bed.mm, bed.cgroups.lookup("system.slice"),
        rate_bps=total_mem / 2.0, stop_at=duration, seed=seed + 2,
    ).start()
    bed.run(duration)
    bed.detach()
    p95 = bench.request_percentile(95, last=500)
    return p95 if p95 is not None else float("inf")


def tune_qos(
    spec: DeviceSpec,
    params: Optional[ModelParams] = None,
    candidates: Sequence[float] = DEFAULT_VRATE_CANDIDATES,
    latency_threshold: float = 75e-3,
    duration: float = 10.0,
    total_mem: int = 256 * MB,
    seed: int = 0,
) -> TuningResult:
    """Derive vrate bounds for a device (paper §3.4, simplified)."""
    params = params or ModelParams.from_device_spec(spec)
    candidates = sorted(candidates)
    solo = {
        v: _solo_rps(spec, params, v, duration, total_mem, seed) for v in candidates
    }
    protected = {
        v: _protected_p95(spec, params, v, duration, total_mem, seed + 1000)
        for v in candidates
    }

    # Upper bound: smallest vrate reaching the RPS plateau (95% of the best).
    best_rps = max(solo.values()) or 1.0
    vrate_max = candidates[-1]
    for v in candidates:
        if solo[v] >= 0.95 * best_rps:
            vrate_max = v
            break

    # Lower bound: largest vrate whose latency is still protected.
    vrate_min = candidates[0]
    for v in reversed(candidates):
        if protected[v] <= latency_threshold:
            vrate_min = v
            break

    if vrate_min > vrate_max:
        vrate_min = vrate_max
    return TuningResult(
        device=spec.name,
        candidates=list(candidates),
        solo_rps=solo,
        protected_p95=protected,
        vrate_min=vrate_min,
        vrate_max=vrate_max,
    )
