"""The fixed closed-loop rig: 4 KiB random reads at depth 64 under iocost.

:func:`run_fixed_load` keeps ``depth`` bios outstanding against the
calibrated SSD until a fixed number have completed, with fixed seeds, so
two runs do identical simulated work.
``tests/sim/test_engine.py::TestInstrumentedRun`` traces it with and
without the profiler and sanitizers, ``bench/ladder.py`` asserts its rung
d dispatches the same events, and
``tests/integration/test_hot_path_counts.py`` pins its exact per-bio work
counts.  Wall time is measured by ``bench/run.py``, not here.
"""

from __future__ import annotations

from typing import Any, Callable, List

import numpy as np

from repro.block.bio import Bio, IOOp
from repro.block.device import Device
from repro.block.device_models import SSD_NEW
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.sim import Simulator
from repro.testbed import make_controller

DEFAULT_BIOS = 50_000
DEFAULT_DEPTH = 64


class _BenchDriver:
    """Keeps ``depth`` bios outstanding until ``bios`` have been issued,
    then drains; each completion issues its successor.  Sectors are
    chunk-pre-drawn (stream-equivalent to scalar draws).
    """

    __slots__ = ("layer", "group", "rng", "bios", "depth", "issued", "done",
                 "on_drained", "_sectors", "_i")

    SECTOR_CHUNK = 4096

    def __init__(
        self,
        layer: BlockLayer,
        group: Any,
        rng: np.random.Generator,
        bios: int,
        depth: int,
        on_drained: Callable[[], None],
    ) -> None:
        self.layer = layer
        self.group = group
        self.rng = rng
        self.bios = bios
        self.depth = depth
        self.issued = 0
        self.done = 0
        self.on_drained = on_drained
        self._sectors: List[int] = []
        self._i = 0

    def start(self) -> None:
        for _ in range(min(self.depth, self.bios)):
            self._issue()

    def _next_sector(self) -> int:
        i = self._i
        if i == len(self._sectors):
            self._sectors = (
                self.rng.integers(0, 1 << 30, size=self.SECTOR_CHUNK) * 8
            ).tolist()
            i = 0
        self._i = i + 1
        return self._sectors[i]

    def _issue(self) -> None:
        self.issued += 1
        self.layer.submit(
            Bio(IOOp.READ, 4096, self._next_sector(), self.group),
            on_done=self._done_cb,
        )

    def _done_cb(self, bio: Bio) -> None:
        self.done += 1
        if self.issued < self.bios:
            self._issue()
        elif self.done >= self.bios:
            self.on_drained()


def run_fixed_load(bios: int = DEFAULT_BIOS, depth: int = DEFAULT_DEPTH) -> Simulator:
    """Run the fixed rig to completion; returns the drained simulator.

    Deterministic: fixed seeds, fixed bio count, closed loop at ``depth``.
    """
    sim = Simulator()
    device = Device(sim, SSD_NEW, np.random.default_rng(0))
    controller = make_controller("iocost", SSD_NEW)
    layer = BlockLayer(sim, device, controller)
    group = CgroupTree().create("bench")
    driver = _BenchDriver(
        layer, group, np.random.default_rng(1), bios, depth,
        # Stop the plan timer once the last bio completes so the heap drains.
        on_drained=controller.detach,
    )
    driver.start()
    sim.run()
    if layer.completed_ios != bios:
        raise RuntimeError(
            f"bench rig completed {layer.completed_ios} of {bios} bios"
        )
    return sim
