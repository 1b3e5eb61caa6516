"""§3.4 — QoS parameter tuning with ResourceControlBench.

Not a numbered figure, but a core piece of the paper's methodology: the
two-scenario sweep that bounds vrate for each device model.  Regenerates
the sweep table for a mid-range device and checks the bound derivation.
"""

import pytest

from repro.analysis.report import Table
from repro.block.device import DeviceSpec
from repro.core.qos_tuning import tune_qos

MB = 1024 * 1024

TUNE_SPEC = DeviceSpec(
    name="tunedev",
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


def run_tuning():
    return tune_qos(
        TUNE_SPEC,
        candidates=(0.25, 0.5, 1.0, 2.0),
        duration=6.0,
        total_mem=64 * MB,
    )


def test_qos_tuning_sweep(benchmark):
    result = benchmark.pedantic(run_tuning, rounds=1, iterations=1)

    table = Table(
        "SS3.4: ResourceControlBench vrate sweep",
        ["vrate", "solo RPS (paging-bound)", "p95 vs memory leak"],
    )
    for vrate in result.candidates:
        table.add_row(
            f"{vrate:.2f}",
            f"{result.solo_rps[vrate]:.0f}",
            f"{result.protected_p95[vrate] * 1e3:.1f}ms",
        )
    table.print()
    print(f"derived bounds: vrate in [{result.vrate_min}, {result.vrate_max}]")

    assert result.vrate_min <= result.vrate_max
    # Throughput is (weakly) increasing in vrate when paging-bound.
    assert result.solo_rps[2.0] >= 0.9 * result.solo_rps[0.25]
    # The QoS params derived from the sweep are usable as-is.
    qos = result.to_qos()
    assert qos.vrate_min == result.vrate_min
    assert qos.vrate_max == result.vrate_max
