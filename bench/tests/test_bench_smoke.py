"""run.py end to end, at a reduced simulated duration."""

import json
import subprocess
import sys
from pathlib import Path

from bench import names

ROOT = Path(__file__).resolve().parents[2]


def run(tmp_path, *extra):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solo_randread", "--seed", "3",
         "--scale", "0.05", "--out", str(out), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout
    document = json.loads(out.read_text())
    assert set(document["fingerprint"]) == {"nproc", "cpu", "python", "numpy"}
    (one_run,) = document["runs"]
    assert (one_run["seed"], one_run["scale"]) == (3, 0.05)
    return json.loads(done.stdout.strip().splitlines()[-1]), one_run["results"]["solo_randread"]


def test_untraced_smoke_emits_exactly_the_end_to_end_metrics(tmp_path):
    line, result = run(tmp_path, "--repeats", "2", "--trace", "0")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = {name: unit for name, unit, _b, _bound in names.END_TO_END}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
    assert all(metric["value"] > 0 for metric in line["metrics"].values())
    assert result["end_to_end"]["fail_share"]["value"] == 0.0
    assert result["end_to_end"]["sim_drift"]["value"] == 0.0
    assert result["digest"]
    wall = result["end_to_end"]["wall_s"]
    # Per slice the fastest repeat: never slower than the fastest whole repeat.
    assert wall["repeats"]["n"] == 2 and 0 < wall["value"] <= min(wall["repeats"]["values"])


def test_traced_smoke_emits_exactly_the_per_layer_metrics(tmp_path):
    line, result = run(tmp_path, "--trace", "1")
    assert line["correct"] is True
    expected = {name: unit for name, unit, _better in names.per_layer()}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
    metrics = {n: m["value"] for n, m in line["metrics"].items()}
    # Solo: budget never binds, so latency is all device service.
    assert metrics["block.device.service_share"] > 0.9
    assert 1.9 < metrics["sim.events_per_bio"] < 2.3
    assert metrics["sim.self_us_per_bio"] > 0 and metrics["obs.traced_slowdown"] > 1
    spans = [json.loads(row) for row in (ROOT / result["spans"]).read_text().splitlines()]
    timed = [span for span in spans if span["name"] == "timed"]
    assert timed and all(span["end"] > span["start"] for span in spans)
    inner = [span for span in spans if span["name"] == "bed.run"]
    assert {span["parent"] for span in inner} <= {span["id"] for span in timed}
