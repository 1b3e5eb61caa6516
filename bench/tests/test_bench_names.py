"""Names, units and BENCHMARK.json agree with what run.py emits."""

import json
import re
from pathlib import Path

from bench import names

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_is_what_the_code_emits():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == names.benchmark_document()


def test_names_and_units_are_well_formed_and_unique():
    rows = [(n, u) for n, u, _b, _bound in names.END_TO_END]
    rows += [(n, u) for n, u, _b in names.per_layer()]
    rows += list(names.ZERO_METRICS)
    seen = [n for n, _u in rows] + [n for n, _why in names.WORKLOADS]
    assert len(seen) == len(set(seen))
    for name in seen:
        assert NAME.match(name), name
    for _name, unit in rows:
        assert UNIT.match(unit), unit


def test_document_is_inside_the_contract_limits():
    document = names.benchmark_document()
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert 1 <= document["run_seconds"] <= 60
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    # Set-up is the noisiest metric and gets the largest bound.
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_every_ladder_rung_and_fleet_metric_is_listed_once():
    listed = [n for n, _u, _b in names.per_layer()]
    for name, _unit, _better in names.LADDER + names.FLEET + names.WORK_COUNTS:
        assert listed.count(name) == 1
