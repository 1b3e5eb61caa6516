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

import numpy as np

from repro.block.bio import Bio, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.controllers.noop import NoopController
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.sim import Simulator

SEQ_IO_SIZE = 1 << 20  # 1 MiB transfers for the bandwidth phases
PAGE = 4096


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
    warmup: float = 0.05,
) -> tuple:
    """Closed-loop saturation run; returns (iops, bps, p50_latency)."""
    sim = Simulator()
    rng = np.random.default_rng(seed)
    device = Device(sim, spec, np.random.default_rng(seed + 1))
    layer = BlockLayer(sim, device, NoopController())
    group = CgroupTree().create("profiler")

    depth = min(spec.nr_slots, spec.parallelism * 4)
    sector_space = 1 << 30
    state = {"next_sector": 0, "completed": 0, "bytes": 0, "latencies": []}

    def next_sector() -> int:
        if sequential:
            sector = state["next_sector"]
            state["next_sector"] = sector + io_size // 512
            return sector
        # Page-aligned random offsets (odd page stride makes accidental
        # contiguity with the previous IO vanishingly unlikely).
        return int(rng.integers(1, sector_space)) * (PAGE // 512)

    def issue() -> None:
        bio = Bio(op, io_size, next_sector(), group)
        layer.submit(bio, on_done=completed)

    def completed(bio: Bio) -> None:
        if sim.now >= warmup:
            state["completed"] += 1
            state["bytes"] += bio.nbytes
            state["latencies"].append(bio.device_latency)
        if sim.now < warmup + duration:
            issue()

    for _ in range(depth):
        issue()
    sim.run(until=warmup + duration)

    iops = state["completed"] / duration
    bps = state["bytes"] / duration
    latencies = sorted(state["latencies"])
    p50 = latencies[len(latencies) // 2] if latencies else 0.0
    return iops, bps, p50


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
    rrandiops, _, read_lat = _saturate(
        spec, IOOp.READ, False, PAGE, read_duration, seed
    )
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
