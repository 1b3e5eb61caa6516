"""The controller roster, and the two Table 1 columns the simulation reads."""

import pytest

from repro.testbed import CONTROLLERS


def test_registry_contains_all_mechanisms():
    assert list(CONTROLLERS) == [
        "none",
        "mq-deadline",
        "kyber",
        "blk-throttle",
        "bfq",
        "iolatency",
        "iocost",
    ]


# The paper's Table 1, row by row (✓ = yes, ✗ = no, ~ = partial): low
# overhead, work conserving, MM-aware, proportional, cgroup control.
PAPER_TABLE1 = {
    "kyber": ("yes", "yes", "no", "no", "no"),
    "mq-deadline": ("yes", "yes", "no", "no", "no"),
    "blk-throttle": ("partial", "no", "no", "no", "yes"),
    "bfq": ("no", "yes", "no", "yes", "yes"),
    "iolatency": ("yes", "partial", "yes", "no", "yes"),
    "iocost": ("yes", "yes", "yes", "yes", "yes"),
}


def test_table1_roster_matches_paper_rows():
    assert set(PAPER_TABLE1) == set(CONTROLLERS) - {"none"}


@pytest.mark.parametrize("name,expected", PAPER_TABLE1.items())
def test_feature_flags_match_paper(name, expected):
    # MM-aware decides who pays for swap-out (repro.mm); cgroup control
    # decides whether the mechanism may sit below a stack's gate.
    cls = CONTROLLERS[name]
    assert (cls.mm_aware, cls.cgroup_aware) == (expected[2] == "yes", expected[4] == "yes")


def test_bfq_overhead_dominates():
    overheads = {
        name: cls.issue_overhead for name, cls in CONTROLLERS.items()
    }
    assert overheads["bfq"] == max(overheads.values())
    assert overheads["none"] == 0.0
    # kyber is indistinguishable from none (Fig 9).
    assert overheads["kyber"] < 0.1e-6
