"""``--seed`` changes the simulated statistics; the same seed repeats them."""

import pytest

from bench import checks
from bench.spans import SpanLog
from bench import workloads
from bench.workloads import WORKLOADS

SCALE = 0.04


@pytest.fixture(autouse=True)
def stores_in_a_temporary_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "STORES_DIR", tmp_path / "stores")


def one_digest(name, seed):
    workload = WORKLOADS[name]
    spans = SpanLog()
    state = workload.build(seed, SCALE)
    workload.run(state, spans)
    outcome = workload.finish(state, spans, last=True)
    assert checks.failures(name, outcome, full_scale=False) == []
    assert outcome.failed == 0 and outcome.attempted >= outcome.bios > 0
    return checks.digest(outcome.stats)


def test_same_seed_same_digest_other_seed_other_digest():
    for name in ("solo_randread", "contended_tree", "fleet_region"):
        first = one_digest(name, 1)
        assert one_digest(name, 1) == first, name
        assert one_digest(name, 2) != first, name


def test_a_broken_invariant_is_named():
    workload = WORKLOADS["solo_randread"]
    spans = SpanLog()
    state = workload.build(1, SCALE)
    workload.run(state, spans)
    outcome = workload.finish(state, spans, last=True)
    outcome.facts["conservation"][0]["finished"] -= 1
    outcome.facts["iops"] = 1.0
    lines = checks.failures("solo_randread", outcome, full_scale=True)
    assert any("conservation" in line for line in lines)
    assert any("work conservation" in line for line in lines)


def test_stores_pile_up_and_are_removed_together_once_stale(monkeypatch):
    made = [workloads.make_store() for _ in range(3)]
    assert all(store.is_dir() for store in made)
    monkeypatch.setattr(workloads, "KEEP_STORES_SECONDS", -1.0)
    fourth = workloads.make_store()
    assert fourth.is_dir() and not any(store.exists() for store in made)
    assert list(workloads.STORES_DIR.iterdir()) == [fourth]
