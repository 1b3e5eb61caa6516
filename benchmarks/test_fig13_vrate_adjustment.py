"""Figure 13 — Vrate adjustment due to model inaccuracy.

A workload saturates the newer-generation commercial SSD with 4 KiB random
reads under a p90 read-latency QoS target.  Mid-run the cost-model
parameters are updated online:

* phase 1 — accurate parameters: vrate hovers near 100%;
* phase 2 — parameters halved (device claimed half as capable): the issue
  rate drops, then vrate climbs to ~200% to restore it while holding QoS;
* phase 3 — parameters doubled versus the original: the device briefly
  over-saturates (latency spike), then vrate drops to ~50%.

The scenario is one ``vrate_phases`` sweep cell.
"""

import pytest

from repro.analysis.report import Table
from repro.exp import ExperimentSpec

from benchmarks.conftest import run_figure

# 1/10-speed ssd_new keeps the event count tractable; relative behaviour
# (model error vs vrate) is scale-free.
PHASE = 4.0  # seconds per phase
LATENCY_TARGET = 2.5e-3  # p90 read target, scaled like the device


SPEC = ExperimentSpec(
    name="fig13-vrate-adjustment",
    kind="vrate_phases",
    base={
        "device": "ssd_new",
        "device_scale": 0.1,
        "phase_sec": PHASE,
        "model_scales": [1.0, 0.5, 2.0],
        "read_lat_target": LATENCY_TARGET,
        "read_pct": 90,
        "vrate_min": 0.1,
        "vrate_max": 4.0,
        "period": 0.05,
        "depth": 64,
    },
)


def test_fig13_vrate_adjustment(benchmark):
    (cell,) = run_figure(benchmark, SPEC).values()
    result = {}
    for number, phase in enumerate(cell["phases"], start=1):
        result[f"vrate_phase{number}"] = phase["vrate"]
        result[f"p90_phase{number}"] = phase["read_lat"]

    table = Table(
        "Figure 13: vrate adjustment under online model updates",
        ["phase", "model params", "steady vrate", "steady read p90"],
    )
    table.add_row("1", "accurate", f"{result['vrate_phase1']:.2f}",
                  f"{result['p90_phase1'] * 1e3:.2f}ms")
    table.add_row("2", "halved", f"{result['vrate_phase2']:.2f}",
                  f"{result['p90_phase2'] * 1e3:.2f}ms")
    table.add_row("3", "doubled", f"{result['vrate_phase3']:.2f}",
                  f"{result['p90_phase3'] * 1e3:.2f}ms")
    table.print()

    # Phase 1: near 100%.
    assert result["vrate_phase1"] == pytest.approx(1.0, rel=0.3)
    # Phase 2: roughly double phase 1 (compensating halved parameters).
    assert result["vrate_phase2"] == pytest.approx(2 * result["vrate_phase1"], rel=0.3)
    # Phase 3: roughly half phase 1 (compensating doubled parameters).
    assert result["vrate_phase3"] == pytest.approx(0.5 * result["vrate_phase1"], rel=0.35)
    # QoS is maintained in steady state in every phase.
    for phase in ("p90_phase1", "p90_phase2", "p90_phase3"):
        assert result[phase] < 1.5 * LATENCY_TARGET, phase
