"""Figure 9 — IO control overhead.

The paper saturates a 750K-IOPS enterprise SSD with 4 KiB random reads and
measures the maximum achievable IOPS under each mechanism, with no actual
throttling configured, so only the issue-path software overhead shows.

Two measurements here:

* the simulated max IOPS per mechanism, with each controller's serialized
  per-IO CPU cost modelled on the block layer's CPU resource (calibrated to
  the paper's *relative* overheads — a pure-Python reproduction cannot hit
  750K IOPS natively);
* a real wall-clock microbenchmark of the IOCost issue fast path
  (cost -> cached hweight -> budget check), the paper's key claim that the
  issue/planning split keeps the hot path cheap.
"""

import pytest

from repro.analysis.report import Table, format_si
from repro.block.bio import Bio, IOOp
from repro.block.device_models import SSD_ENTERPRISE
from repro.core.qos import QoSParams
from repro.exp import ExperimentSpec
from repro.testbed import Testbed

from benchmarks.conftest import run_figure

MECHANISMS = ("none", "mq-deadline", "kyber", "bfq", "blk-throttle", "iolatency", "iocost")
WINDOW = 0.05  # simulated seconds of saturation per mechanism


def max_iops(params, seed):
    # QoS disabled for the overhead measurement, as in the paper.
    qos = QoSParams(
        read_lat_target=None, write_lat_target=None,
        vrate_min=1.0, vrate_max=8.0, period=0.01,
    )
    bed = Testbed(device=SSD_ENTERPRISE, controller=params["mechanism"], qos=qos)
    group = bed.add_cgroup("fio")
    bed.saturate(group, depth=512, stop_at=2 * WINDOW)
    bed.run(2 * WINDOW)
    bed.detach()
    return {"iops": bed.iops(group)}


SPEC = ExperimentSpec(
    name="fig9-overhead", kind=f"{__name__}.max_iops", grid={"mechanism": MECHANISMS}
)


def test_fig9_simulated_overhead(benchmark):
    results = {name: cell["iops"] for name, cell in run_figure(benchmark, SPEC).items()}

    table = Table(
        "Figure 9: max 4KiB random-read IOPS with control enabled (no throttling)",
        ["mechanism", "IOPS", "vs none"],
    )
    baseline = results["none"]
    for name in MECHANISMS:
        table.add_row(name, format_si(results[name]), f"{results[name] / baseline:.0%}")
    table.print()

    # Shape: none ~= kyber at device peak; mq-deadline moderately lower;
    # bfq severely degraded; the controllers add no significant overhead.
    assert baseline == pytest.approx(750_000, rel=0.1)
    assert results["kyber"] == pytest.approx(baseline, rel=0.03)
    assert 0.7 * baseline < results["mq-deadline"] < 0.95 * baseline
    assert results["bfq"] < 0.35 * baseline
    for name in ("blk-throttle", "iolatency", "iocost"):
        assert results[name] > 0.9 * baseline, name


def test_fig9_issue_path_microbenchmark(benchmark):
    """Real wall-clock cost of the IOCost issue fast path per bio."""
    qos = QoSParams(read_lat_target=None, write_lat_target=None,
                    vrate_min=1.0, vrate_max=1.0)
    bed = Testbed(device=SSD_ENTERPRISE, controller="iocost", qos=qos)
    controller = bed.controller
    group = bed.add_cgroup("hot")
    state = controller.tree.state_of(group)
    controller._activate(state)
    bios = [Bio(IOOp.READ, 4096, index * 8, group) for index in range(4096)]
    counter = {"i": 0}

    def issue_one():
        bio = bios[counter["i"] % 4096]
        counter["i"] += 1
        bio.abs_cost = controller.model.cost(bio)
        hweight = controller.tree.hweight(state)
        relative = bio.abs_cost / hweight
        budget = controller.clock.now() - state.local_vtime
        if budget >= relative:
            state.local_vtime += relative
        return relative

    result = benchmark(issue_one)
    assert result > 0
