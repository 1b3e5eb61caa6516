"""Seed-robustness checks: headline results hold across RNG seeds."""

import numpy as np
import pytest

from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.qos import QoSParams
from repro.sim import Simulator
from repro.workloads.synthetic import ClosedLoopWorkload

# A noisy device (lognormal service times + tails), unlike most unit tests.
NOISY = DeviceSpec(
    name="noisy",
    parallelism=8,
    srv_rand_read=100e-6,
    srv_seq_read=100e-6,
    srv_rand_write=100e-6,
    srv_seq_write=100e-6,
    read_bw=1e9,
    write_bw=1e9,
    sigma=0.3,
    tail_prob=0.005,
    tail_scale=15.0,
    nr_slots=128,
)


def split_ratio(seed: int) -> float:
    sim = Simulator()
    device = Device(sim, NOISY, np.random.default_rng(seed))
    controller = IOCost(
        LinearCostModel(ModelParams.from_device_spec(NOISY)),
        qos=QoSParams(
            read_lat_target=800e-6, read_pct=90,
            vrate_min=0.3, vrate_max=1.2, period=0.025,
        ),
    )
    layer = BlockLayer(sim, device, controller)
    tree = CgroupTree()
    high = tree.create("high", weight=200)
    low = tree.create("low", weight=100)
    ClosedLoopWorkload(sim, layer, high, depth=48, stop_at=1.0, seed=seed + 1).start()
    ClosedLoopWorkload(sim, layer, low, depth=48, stop_at=1.0, seed=seed + 2).start()
    sim.run(until=1.0)
    controller.detach()
    return layer.iops_of(high) / layer.iops_of(low)


@pytest.mark.parametrize("seed", [1, 42, 1337])
def test_proportional_split_robust_to_seed(seed):
    assert split_ratio(seed) == pytest.approx(2.0, rel=0.15)


def test_determinism_same_seed_same_result():
    assert split_ratio(7) == split_ratio(7)
