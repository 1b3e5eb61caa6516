"""Every simulated machine is a :class:`~repro.testbed.Testbed`.

Profiling, QoS tuning, the Figure 13 phases, the Figure 16 ensembles and
the Figures 18/19 task runs build their machine with the testbed, so they inherit its per-machine bio
ids and label-keyed streams: a call's answer depends on its arguments
alone, not on what else ran earlier in the process.
"""

import re
from pathlib import Path

import pytest

from repro.block.device import DeviceSpec
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.profiler import profile_device
from repro.core.qos import QoSParams
from repro.core.qos_tuning import tune_qos
from repro.exp.experiments import run_vrate_phases
from repro.testbed import Testbed
from repro.workloads.fleet import CONTAINER_CLEANUP, run_task_once

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
#: A call that builds a simulator, a device or a block layer.
BUILDS = re.compile(r"\b(Simulator|Device|BlockLayer)\(")
MB = 1024 * 1024

SPEC = DeviceSpec(
    name="builderdev",
    parallelism=4,
    srv_rand_read=100e-6,
    srv_seq_read=100e-6,
    srv_rand_write=100e-6,
    srv_seq_write=100e-6,
    read_bw=400e6,
    write_bw=400e6,
    sigma=0.1,
    nr_slots=64,
)

VRATE_PHASES = {
    "device": "ssd_new",
    "device_scale": 0.02,
    "phase_sec": 1.5,
    "read_lat_target": 12.5e-3,
    "depth": 64,
}


def iocost_factory():
    return IOCost(
        LinearCostModel(ModelParams.from_device_spec(SPEC)),
        qos=QoSParams(read_lat_target=5e-3, read_pct=90, period=0.05),
    )


ENTRY_POINTS = {
    "profile_device": lambda: profile_device(
        SPEC, seed=3, read_duration=0.02, write_duration=0.05
    ),
    "tune_qos": lambda: tune_qos(
        SPEC, candidates=(0.5, 1.0), duration=0.5, total_mem=16 * MB, seed=3
    ),
    "run_task_once": lambda: run_task_once(
        SPEC, iocost_factory, CONTAINER_CLEANUP, workload_depth=16, seed=3
    ),
    "vrate_phases": lambda: run_vrate_phases(dict(VRATE_PHASES), seed=3),
}


def other_machine() -> None:
    bed = Testbed(device=SPEC, controller="iocost", seed=11)
    bed.saturate(bed.add_cgroup("workload.slice/other"), depth=8)
    bed.run(0.05)
    bed.detach()


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_answer_does_not_depend_on_what_ran_before(name):
    first = ENTRY_POINTS[name]()
    other_machine()
    assert ENTRY_POINTS[name]() == first


def test_only_the_testbed_builds_a_machine():
    """No module of ``src/`` but ``testbed.py`` constructs a simulator, a
    device or a block layer."""
    builders = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if BUILDS.search(path.read_text())
    )
    assert builders == ["testbed.py"]


def test_vrate_phases_compensate_model_error():
    """The Figure 13 kind at a tier-1 scale: halved parameters drive vrate
    up, doubled ones drive it down."""
    phases = run_vrate_phases(dict(VRATE_PHASES), seed=0)["phases"]
    assert [phase["model_scale"] for phase in phases] == [1.0, 0.5, 2.0]
    first, halved, doubled = (phase["vrate"] for phase in phases)
    assert halved > first > doubled
    assert 0.7 < first < 1.2
    assert 1.6 < halved / first < 2.5
    assert 0.4 < doubled / first < 0.8
    for phase in phases:
        assert 0 < phase["read_lat"] < 2 * VRATE_PHASES["read_lat_target"]
