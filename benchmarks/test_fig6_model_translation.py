"""Figure 6 — Example IOCost configuration and its internal translation.

Regenerates the paper's worked example: the six-parameter configuration
line, the derived size-cost rates and base costs, and the cost of the
random-read example bio.
"""

from repro.analysis.report import Table
from repro.block.bio import Bio, IOOp
from repro.cgroup import CgroupTree
from repro.core.cost_model import LinearCostModel, ModelParams

FIG6 = ModelParams(
    rbps=488636629,
    rseqiops=8932,
    rrandiops=8518,
    wbps=427891549,
    wseqiops=28755,
    wrandiops=21940,
)


def translate():
    model = LinearCostModel(FIG6)
    group = CgroupTree().create("example")
    example = Bio(IOOp.READ, 32 * 4096, 0, group)  # the paper's "32KB" = 32 pages
    example.sequential = False
    return {
        "r_size_rate": FIG6.r_size_rate,
        "r_seq_base": FIG6.r_seq_base,
        "r_rand_base": FIG6.r_rand_base,
        "example_cost": model.cost(example),
    }


def test_fig6_model_translation(benchmark):
    derived = benchmark.pedantic(translate, rounds=1, iterations=1)

    print(
        "\nconfig: rbps=488636629 rseqiops=8932 rrandiops=8518 "
        "wbps=427891549 wseqiops=28755 wrandiops=21940"
    )
    table = Table("Figure 6: derived linear-model parameters", ["parameter", "value"])
    table.add_row("read size_cost_rate", f"{derived['r_size_rate'] * 1e9:.2f} ns/B")
    table.add_row("read sequential base", f"{derived['r_seq_base'] * 1e6:.0f} us")
    table.add_row("read random base", f"{derived['r_rand_base'] * 1e6:.0f} us")
    table.add_row("32-page random read cost", f"{derived['example_cost'] * 1e6:.0f} us")
    table.add_row("such IOs serviceable/sec", f"{1 / derived['example_cost']:.0f}")
    table.print()

    # Paper: 2.05 ns/B, 104 us sequential base, 109 us random base.
    assert abs(derived["r_size_rate"] - 2.05e-9) / 2.05e-9 < 0.01
    assert abs(derived["r_seq_base"] - 104e-6) / 104e-6 < 0.01
    assert abs(derived["r_rand_base"] - 109e-6) / 109e-6 < 0.01
    # The formula's value for the example (the paper's printed 352us does
    # not match its own formula; the formula gives ~377us).
    assert abs(derived["example_cost"] - 377e-6) / 377e-6 < 0.02
