"""Has this rule ever fired on real code?  One seeded mistake per rule.

Fixture snippets (test_simlint.py) show a rule matches the shape its author
imagined; they cannot show that the shape occurs in this tree.  Each row
here patches one plausible mistake into a *real* file under ``src/repro``
and requires exactly that rule to fire on the patched source — and nothing
to fire on the file as committed.  This table is the bar for shipping a
rule (docs/STATIC_ANALYSIS.md): a rule that cannot get a row has no
subject here and does not ship.
"""

from pathlib import Path

import pytest

from repro.tools.simlint import RULES, lint_source

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: (rule, file under src/repro, text as committed, the mistake).
SEEDED = [
    (
        "no-wallclock",
        "block/layer.py",
        "bio.submit_time = self.sim.now",
        "bio.submit_time = time.time()",
    ),
    (
        "no-unseeded-rng",
        "block/layer.py",
        "bio.sequential = bio.sector == record.next_sector",
        "bio.sequential = random.random() < 0.5",
    ),
    (
        "no-bare-assert",
        "block/layer.py",
        "bio.on_done = on_done\n",
        "assert bio.on_done is None\n        bio.on_done = on_done\n",
    ),
    (
        "unit-suffix",
        "block/layer.py",
        "backoff = self.RETRY_BACKOFF * (2 ** (bio.retries - 1))",
        "backoff_ms = self.RETRY_BACKOFF * (2 ** (bio.retries - 1))",
    ),
    (
        "trace-catalogue",
        "block/layer.py",
        "sector=bio.sector,\n                flags=bio.flags.value,\n                prio=bio.prio,",
        "lba=bio.sector,\n                flags=bio.flags.value,\n                prio=bio.prio,",
    ),
    (
        # The fault plan sharing the device's service-noise stream: caught
        # by this rule and by nothing else in a sanitized tier-1 run.
        "rng-stream-labels",
        "testbed.py",
        'plan.bind(self.rng_for(f"faults:{name}"))',
        'plan.bind(self.rng_for(f"device:{name}"))',
    ),
    (
        "no-mutable-default",
        "testbed.py",
        "protected: Optional[Dict[str, int]] = None,",
        "protected: Dict[str, int] = {},",
    ),
    (
        "unused-pragma",
        "exp/cli.py",
        "return time.perf_counter()  # CLI timing only",
        "return 0.0  # CLI timing only",
    ),
]


def test_every_registered_rule_has_a_seeded_mistake():
    assert sorted(row[0] for row in SEEDED) == sorted(RULES)


@pytest.mark.parametrize("rule,relative,committed,mistake", SEEDED, ids=[row[0] for row in SEEDED])
def test_seeded_mistake_trips_exactly_its_rule(rule, relative, committed, mistake):
    path = SRC / relative
    source = path.read_text()
    assert source.count(committed) == 1, f"{relative} moved on; re-seed the {rule} row"
    assert lint_source(source, str(path)) == []
    found = lint_source(source.replace(committed, mistake), str(path))
    assert found and {finding.rule for finding in found} == {rule}
