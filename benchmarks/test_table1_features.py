"""Table 1 — Linux IO control mechanisms and features.

Renders the paper's feature matrix from the literal below, and checks the
two columns the simulation acts on against the controllers: MM-aware is
``mm_aware`` (who pays for swap-out writes, ``repro.mm``) and cgroup control
is ``cgroup_aware`` (what may sit below a stack's gate).  No flag carries
the other three: Figure 9 measures overhead, Figure 11 work conservation,
Figures 10 and 12 proportionality.
"""

from repro.analysis.report import Table
from repro.testbed import CONTROLLERS

COLUMNS = ["Low Overhead", "Work Conserving", "MM-aware", "Proportional", "cgroup Control"]

#: The paper's Table 1, row by row (✓ = yes, ✗ = no, ~ = partial).
PAPER_TABLE1 = {
    "kyber": ("yes", "yes", "no", "no", "no"),
    "mq-deadline": ("yes", "yes", "no", "no", "no"),
    "blk-throttle": ("~", "no", "no", "no", "yes"),
    "bfq": ("no", "yes", "no", "yes", "yes"),
    "iolatency": ("yes", "~", "yes", "no", "yes"),
    "iocost": ("yes", "yes", "yes", "yes", "yes"),
}


def build_table():
    table = Table("Table 1: Linux IO control mechanisms and features", ["Mechanism", *COLUMNS])
    for name, row in PAPER_TABLE1.items():
        table.add_row(name, *row)
    # What the code carries of each row, in the paper's marks.
    carried = {
        name: ("yes" if CONTROLLERS[name].mm_aware else "no",
               "yes" if CONTROLLERS[name].cgroup_aware else "no")
        for name in PAPER_TABLE1
    }
    return table, carried


def test_table1_feature_matrix(benchmark):
    table, carried = benchmark.pedantic(build_table, rounds=1, iterations=1)
    table.print()

    for name, row in PAPER_TABLE1.items():
        assert carried[name] == (row[2], row[4]), name

    # Only IOCost checks every box.
    full_rows = [name for name, row in PAPER_TABLE1.items() if set(row) == {"yes"}]
    assert full_rows == ["iocost"]
