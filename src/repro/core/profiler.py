"""Offline device profiling (paper §3.2, Figure 5 step ⑧).

Derives the six linear-model parameters for a device by running saturating
workloads against it — the reproduction of the paper's fio-based tooling
("issuing as many 4KB random reads as possible to determine the base cost
for random reads").  Six phases:

* 4 KiB random reads / sequential reads → ``rrandiops`` / ``rseqiops``
* 1 MiB sequential reads → ``rbps``
* same three for writes → ``wrandiops`` / ``wseqiops`` / ``wbps``

Write phases run longer so garbage-collection reaches steady state: the
parameters must capture *sustainable* peak performance, not burst.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.block.bio import IOOp
from repro.block.device import DeviceSpec
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.obs.metrics import exact_percentile

SEQ_IO_SIZE = 1 << 20  # 1 MiB transfers for the bandwidth phases
PAGE = 4096
WARMUP = 0.05  # seconds of each saturation run left out of its measurement


@dataclass(frozen=True)
class DeviceProfile:
    """Measured device parameters in kernel configuration format."""

    device: str
    rbps: float
    rseqiops: float
    rrandiops: float
    wbps: float
    wseqiops: float
    wrandiops: float
    # Convenience latency observations (used by the Fig 3 bench).
    read_lat_p50: float
    write_lat_p50: float

    def to_model_params(self) -> ModelParams:
        return ModelParams(
            rbps=self.rbps,
            rseqiops=self.rseqiops,
            rrandiops=self.rrandiops,
            wbps=self.wbps,
            wseqiops=self.wseqiops,
            wrandiops=self.wrandiops,
        )

    def to_cost_model(self) -> LinearCostModel:
        return LinearCostModel(self.to_model_params())

    def config_line(self) -> str:
        """The Figure 6 configuration string for this device."""
        return (
            f"rbps={self.rbps:.0f} rseqiops={self.rseqiops:.0f} "
            f"rrandiops={self.rrandiops:.0f} wbps={self.wbps:.0f} "
            f"wseqiops={self.wseqiops:.0f} wrandiops={self.wrandiops:.0f}"
        )


def _saturate(
    spec: DeviceSpec,
    op: IOOp,
    sequential: bool,
    io_size: int,
    duration: float,
    seed: int,
) -> tuple:
    """Closed-loop saturation run; returns (iops, bps, p50_latency)."""
    from repro.testbed import Testbed

    bed = Testbed(device=spec, controller="none", seed=seed)
    workload = bed.saturate(
        bed.add_cgroup("profiler"), op=op, size=io_size, sequential=sequential,
        depth=min(spec.nr_slots, spec.parallelism * 4), stop_at=WARMUP + duration,
    )
    bed.run(WARMUP)
    done, nbytes = workload.completed, workload.bytes_done
    bed.run(duration)
    latencies = workload.latencies[done:]
    return (
        (workload.completed - done) / duration,
        (workload.bytes_done - nbytes) / duration,
        exact_percentile(latencies, 50) if latencies else 0.0,
    )


def profile_device(
    spec: DeviceSpec,
    seed: int = 0,
    read_duration: float = 0.25,
    write_duration: float = 1.0,
) -> DeviceProfile:
    """Profile a device model into linear cost-model parameters.

    ``write_duration`` defaults longer than ``read_duration`` so the GC
    model reaches its sustained (post-buffer) rate.
    """
    rrandiops, _, read_lat = _saturate(spec, IOOp.READ, False, PAGE, read_duration, seed)
    rseqiops, _, _ = _saturate(spec, IOOp.READ, True, PAGE, read_duration, seed + 10)
    _, rbps, _ = _saturate(spec, IOOp.READ, True, SEQ_IO_SIZE, read_duration, seed + 20)
    wrandiops, _, write_lat = _saturate(
        spec, IOOp.WRITE, False, PAGE, write_duration, seed + 30
    )
    wseqiops, _, _ = _saturate(spec, IOOp.WRITE, True, PAGE, write_duration, seed + 40)
    _, wbps, _ = _saturate(
        spec, IOOp.WRITE, True, SEQ_IO_SIZE, write_duration, seed + 50
    )
    return DeviceProfile(
        device=spec.name,
        rbps=rbps,
        rseqiops=rseqiops,
        rrandiops=rrandiops,
        wbps=wbps,
        wseqiops=wseqiops,
        wrandiops=wrandiops,
        read_lat_p50=read_lat,
        write_lat_p50=write_lat,
    )
