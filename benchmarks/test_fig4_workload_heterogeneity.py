"""Figure 4 — IO workload heterogeneity.

Replays the catalogued service profiles (Web A/B, Serverless, Cache A/B,
non-storage) against a fast device and reports the figure's axes: per-second
read vs write bytes and random vs sequential bytes.

Shape anchors: web workloads mix reads/writes about equally random vs
sequential; caches are sequential-heavy; non-storage services do relatively
little explicit IO.
"""

from repro.analysis.report import Table, format_si
from repro.block.device_models import SSD_ENTERPRISE
from repro.exp import ExperimentSpec
from repro.testbed import Testbed
from repro.workloads.profiles import MixedWorkload, WORKLOAD_PROFILES

from benchmarks.conftest import run_figure

DURATION = 2.0


def characterise(params, seed):
    name = params["workload"]
    testbed = Testbed(device=SSD_ENTERPRISE, controller="none", seed=3)
    group = testbed.add_cgroup(f"workload.slice/{name}")
    workload = MixedWorkload(
        testbed.sim, testbed.layer, group, WORKLOAD_PROFILES[name], stop_at=DURATION
    ).start()
    testbed.run(DURATION + 0.1)
    reads = sum(
        count for (is_w, _), count in workload.bytes_by_class.items() if not is_w
    )
    writes = sum(
        count for (is_w, _), count in workload.bytes_by_class.items() if is_w
    )
    rand = sum(
        count for (_, seq), count in workload.bytes_by_class.items() if not seq
    )
    seq = sum(
        count for (_, seq), count in workload.bytes_by_class.items() if seq
    )
    return {
        "read_bps": reads / DURATION,
        "write_bps": writes / DURATION,
        "rand_bps": rand / DURATION,
        "seq_bps": seq / DURATION,
    }


SPEC = ExperimentSpec(
    name="fig4-workload-heterogeneity",
    kind=f"{__name__}.characterise",
    grid={"workload": tuple(WORKLOAD_PROFILES)},
)


def test_fig4_workload_heterogeneity(benchmark):
    results = run_figure(benchmark, SPEC)

    table = Table(
        "Figure 4: IO workload heterogeneity (P50 per-second demand)",
        ["workload", "reads", "writes", "random", "sequential"],
    )
    for name, row in results.items():
        table.add_row(
            name,
            format_si(row["read_bps"], "B/s"),
            format_si(row["write_bps"], "B/s"),
            format_si(row["rand_bps"], "B/s"),
            format_si(row["seq_bps"], "B/s"),
        )
    table.print()

    web = results["web_a"]
    cache = results["cache_a"]
    nonstorage = results["nonstorage_a"]
    # Web: random and sequential bytes roughly balanced.
    assert 0.6 < web["rand_bps"] / web["seq_bps"] < 1.6
    # Caches: heavily sequential.
    assert cache["seq_bps"] > 4 * cache["rand_bps"]
    # Non-storage: at least an order of magnitude less total IO than web.
    web_total = web["read_bps"] + web["write_bps"]
    ns_total = nonstorage["read_bps"] + nonstorage["write_bps"]
    assert ns_total < 0.12 * web_total
