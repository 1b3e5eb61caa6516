"""The figure benches under benchmarks/ as sweeps, checked without running
a cell: each module's ``SPEC`` expands, its kind resolves to a function,
and its axes are the configurations the figure's table prints."""

import importlib
from pathlib import Path

import pytest

from repro.exp import expand, resolve

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

#: Module -> the axes of its ``SPEC``, values in print order.
FIGURES = {
    "test_fig3_device_heterogeneity": {"device": tuple(f"fleet_{x}" for x in "abcdefgh")},
    "test_fig4_workload_heterogeneity": {"workload": (
        "web_a", "web_b", "serverless", "cache_a", "cache_b",
        "nonstorage_a", "nonstorage_b",
    )},
    "test_fig9_overhead": {"mechanism": (
        "none", "mq-deadline", "kyber", "bfq", "blk-throttle", "iolatency", "iocost",
    )},
    "test_fig10_proportional": {"mechanism": ("bfq", "blk-throttle", "iolatency", "iocost")},
    "test_fig11_work_conservation": {
        "mechanism": ("bfq", "blk-throttle", "iolatency", "iocost"),
    },
    "test_fig12_spinning_disk": {
        "controller": ("mq-deadline", "bfq", "iocost"),
        "scenario": ("rand/rand", "rand/seq", "seq/seq"),
    },
    "test_fig13_vrate_adjustment": {},
    "test_fig14_memleak_webserver": {
        "config": ("baseline", "mq-deadline", "bfq", "iolatency", "iocost"),
        "device": ("ssd_old", "ssd_new"),
    },
    "test_fig15_rampup": {"config": (
        "iocost (no stress)", "bfq (no stress)", "iocost + stress", "bfq + stress",
        "iocost(root-charged) + stress", "iocost(origin-throttled) + stress",
    )},
    "test_fig16_zookeeper": {"mechanism": ("blk-throttle", "bfq", "iolatency", "iocost")},
    "test_fig17_remote_storage": {
        "volume": ("ebs_gp3", "ebs_io2", "gcp_pd_balanced", "gcp_pd_ssd"),
        "with_leak": (False, True),
    },
    "test_ablation_config_portability": {
        "controller": ("blk-throttle", "iocost"), "device": ("fleet_e", "fleet_h"),
    },
    "test_ablation_donation": {"donation_enabled": (False, True)},
    "test_ablation_memory_only": {"io_control": ("baseline (no leak)", "none", "iocost")},
}


def bench_module(name):
    return importlib.import_module(f"benchmarks.{name}")


def test_every_simulated_figure_is_a_sweep():
    # The rest compute without a machine (Figs 6 and 8, Table 1, the QoS
    # tuning, the issue path) or run a fleet migration (Figs 18/19).
    with_spec = {
        path.stem for path in BENCHMARKS.glob("test_*.py")
        if hasattr(bench_module(path.stem), "SPEC")
    }
    assert with_spec == set(FIGURES)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_spec_expands_to_the_printed_configurations(name):
    module = bench_module(name)
    spec = module.SPEC
    runs = expand(spec)
    fn = resolve(spec.kind)
    if spec.kind.startswith(f"{module.__name__}."):
        assert fn is getattr(module, spec.kind.rpartition(".")[2])
    axes = FIGURES[name]
    assert {axis: tuple(dict.fromkeys(run.axes[axis] for run in runs)) for axis in axes} == axes
    assert all(run.axes.keys() == axes.keys() for run in runs)
    assert len({run.run_hash for run in runs}) == len(runs)
    expected_cells = 1
    for values in axes.values():
        expected_cells *= len(values)
    assert len(runs) == expected_cells
