#!/usr/bin/env python
"""Watching vrate absorb cost-model error online (paper §3.3, Figure 13).

A workload saturates an SSD with 4 KiB random reads under a p90 read
latency QoS target.  One third of the way in, the cost-model parameters
are halved online (claiming the device is half as capable); two thirds in,
they are set to double the original.  The vrate trace — rendered as an
ASCII chart — shows the controller compensating: ~100%, then ~200%, then
~50%, with the latency target held throughout.

Run:  python examples/vrate_adjustment.py
"""

from repro.analysis.figures import render_series
from repro.block.device_models import SSD_NEW
from repro.core.cost_model import ModelParams
from repro.core.qos import QoSParams
from repro.testbed import Testbed

SPEC = SSD_NEW.scaled(0.1)
PHASE = 4.0
TARGET = 2.5e-3


def main() -> None:
    bed = Testbed(
        device=SPEC,
        controller="iocost",
        qos=QoSParams(
            read_lat_target=TARGET, read_pct=90, write_lat_target=None,
            vrate_min=0.1, vrate_max=4.0, period=0.05,
        ),
        seed=2,
    )
    controller = bed.controller
    accurate = ModelParams.from_device_spec(SPEC)
    bed.saturate(bed.add_cgroup("fio"), depth=64, stop_at=3 * PHASE)

    print("phase 1: accurate model parameters...")
    bed.run(PHASE)
    print("phase 2: halving model parameters online...")
    controller.model.replace_params(accurate.scaled(0.5))
    bed.run(PHASE)
    print("phase 3: doubling model parameters online...")
    controller.model.replace_params(accurate.scaled(2.0))
    bed.run(PHASE)
    bed.detach()

    print()
    print(
        render_series(
            controller.vrate_ctl.vrate_series,
            title="vrate over time (Figure 13)",
            markers=[(PHASE, "params halved"), (2 * PHASE, "params doubled")],
        )
    )
    print()
    print(
        render_series(
            controller.vrate_ctl.read_lat_series,
            title=f"read p90 latency (target {TARGET * 1e3:.1f} ms)",
        )
    )


if __name__ == "__main__":
    main()
