"""Shared fixtures and helpers for controller tests."""

import numpy as np
import pytest

from repro.block.bio import Bio, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.sim import Simulator

# Deterministic 40K-IOPS reference device.
FAST_SPEC = DeviceSpec(
    name="fast",
    parallelism=4,
    srv_rand_read=100e-6,
    srv_seq_read=100e-6,
    srv_rand_write=100e-6,
    srv_seq_write=100e-6,
    read_bw=1e9,
    write_bw=1e9,
    sigma=0.0,
    nr_slots=64,
)


def build_layer(controller, spec=FAST_SPEC, seed=0):
    sim = Simulator()
    device = Device(sim, spec, np.random.default_rng(seed))
    layer = BlockLayer(sim, device, controller)
    tree = CgroupTree()
    return sim, layer, tree


class ClosedLoop:
    """Closed-loop generator keeping ``depth`` IOs outstanding."""

    def __init__(self, sim, layer, cgroup, op=IOOp.READ, size=4096,
                 depth=16, stop_at=None, sequential=False, seed=1):
        self.sim = sim
        self.layer = layer
        self.cgroup = cgroup
        self.op = op
        self.size = size
        self.depth = depth
        self.stop_at = stop_at
        self.sequential = sequential
        self.rng = np.random.default_rng(seed)
        self.next_sector = int(self.rng.integers(0, 1 << 20)) * 8
        self.completed = 0
        self.latencies = []

    def start(self):
        for _ in range(self.depth):
            self._issue()
        return self

    def _sector(self):
        if self.sequential:
            sector = self.next_sector
            self.next_sector += self.size // 512
            return sector
        return int(self.rng.integers(1, 1 << 28)) * 8

    def _issue(self):
        bio = Bio(self.op, self.size, self._sector(), self.cgroup)
        self.layer.submit(bio, on_done=self._done)

    def _done(self, bio):
        self.completed += 1
        self.latencies.append(bio.latency)
        if self.stop_at is None or self.sim.now < self.stop_at:
            self._issue()


@pytest.fixture
def fast_spec():
    return FAST_SPEC
