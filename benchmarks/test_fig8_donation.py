"""Figure 8 — Budget donation worked example.

Rebuilds a hierarchy realising the figure's hweights (B 0.25, G 0.35,
D 0.40 with children E 0.16, F 0.04, H 0.20), lets B and H donate down to
0.10 each (0.25 total), and reports the post-donation hweights: the freed
budget must flow to E, F, G proportionally to their original hweights —
gains of 0.07, 0.02, and 0.16.
"""

from repro.analysis.report import Table
from repro.cgroup import CgroupTree
from repro.core.donation import compute_donations
from repro.core.hierarchy import WeightTree


def run_donation():
    cgroups = CgroupTree()
    tree = WeightTree()
    weights = {"B": 25, "G": 35, "D": 40, "D/E": 16, "D/F": 4, "D/H": 20}
    states = {}
    for path, weight in weights.items():
        group = cgroups.get_or_create(path, weight=weight)
        group.weight = weight
        states[path] = tree.state_of(group)
    for path, state in states.items():
        if not state.children:
            tree.activate(state)

    before = {path: tree.hweight(states[path]) for path in states}
    result = compute_donations(tree, {states["B"]: 0.10, states["D/H"]: 0.10})
    after = {path: tree.hweight(states[path]) for path in states}
    return before, after, result


def test_fig8_donation_example(benchmark):
    before, after, result = benchmark.pedantic(run_donation, rounds=1, iterations=1)

    table = Table(
        "Figure 8: B and H donate portions of their budget",
        ["node", "h before", "h after", "delta"],
    )
    for path in ("B", "G", "D", "D/E", "D/F", "D/H"):
        table.add_row(
            path,
            f"{before[path]:.3f}",
            f"{after[path]:.3f}",
            f"{after[path] - before[path]:+.3f}",
        )
    table.print()

    assert abs(result.donated_total - 0.25) < 1e-9
    # Donors land exactly on their targets.
    assert abs(after["B"] - 0.10) < 1e-9
    assert abs(after["D/H"] - 0.10) < 1e-9
    # Paper: "a donation of 0.07, 0.02, and 0.16 to E, F, and G".
    assert abs((after["D/E"] - before["D/E"]) - 0.0727) < 2e-3
    assert abs((after["D/F"] - before["D/F"]) - 0.0182) < 2e-3
    assert abs((after["G"] - before["G"]) - 0.1591) < 2e-3
    # Conservation.
    leaves = ("B", "G", "D/E", "D/F", "D/H")
    assert abs(sum(after[p] for p in leaves) - 1.0) < 1e-9
