"""The ``python -m repro.fleet`` front-end, exercised in-process."""

import json

import pytest

from repro.fleet.cli import append_bench_entry, main

from tests.fleet.conftest import FLEETDEV, fleet_doc


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(fleet_doc()))
    return path


class TestRun:
    def test_run_writes_artifacts(self, spec_path, store_dir, capsys):
        code = main(["run", str(spec_path), "--out", str(store_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "test-fleet" in out
        assert "4 hosts" in out
        rollup = json.loads((store_dir / "fleet_rollup.json").read_text())
        assert rollup["schema"] == "repro.fleet.rollup/1"
        assert rollup["hosts"]["reporting"] == 4
        plan = json.loads((store_dir / "fleet_plan.json").read_text())
        assert len(plan["hosts"]) == 4
        bench = json.loads((store_dir / "BENCH_fleet.json").read_text())
        assert isinstance(bench, list) and len(bench) == 1
        assert bench[0]["schema"] == "repro.fleet.bench/1"

    def test_second_run_hits_cache(self, spec_path, store_dir):
        assert main(["run", str(spec_path), "--out", str(store_dir),
                     "--quiet"]) == 0
        assert main(["run", str(spec_path), "--out", str(store_dir),
                     "--quiet", "--min-hit-rate", "1.0"]) == 0
        bench = json.loads((store_dir / "BENCH_fleet.json").read_text())
        assert len(bench) == 2  # the trajectory accumulates
        assert bench[1]["cache_hit_rate"] == 1.0

    def test_min_hit_rate_fails_cold(self, spec_path, store_dir, capsys):
        code = main(["run", str(spec_path), "--out", str(store_dir),
                     "--quiet", "--min-hit-rate", "1.0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "below required" in captured.err and captured.out == ""

    def test_failed_host_says_why_on_stderr_even_when_quiet(self, tmp_path, store_dir, capsys):
        doc = fleet_doc()
        doc["workloads"][0]["frobnicate"] = 1  # loads; fails in the worker
        path = tmp_path / "failing.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path), "--out", str(store_dir), "--quiet"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        failed = [line for line in captured.err.splitlines() if line.startswith("FAILED ")]
        assert len(failed) == 1  # first_fit packs every instance onto web/0
        assert failed[0].startswith("FAILED web/0: ExperimentError: unknown key 'frobnicate'")

    def test_malformed_spec_value_exits_with_message(self, tmp_path, store_dir):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(fleet_doc(seed="abc")))
        with pytest.raises(SystemExit, match="repro.fleet: malformed value in fleet spec.*'abc'"):
            main(["run", str(path), "--out", str(store_dir)])

    def test_policy_pass_flag(self, spec_path, store_dir):
        code = main(["run", str(spec_path), "--out", str(store_dir),
                     "--quiet", "--policy-pass", "balance"])
        assert code == 0

    def test_bad_spec_exits_with_message(self, tmp_path, store_dir):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))  # no hosts
        with pytest.raises(SystemExit, match="repro.fleet"):
            main(["run", str(path), "--out", str(store_dir)])


class TestStatusAndRollup:
    def test_status_cold_then_warm(self, spec_path, store_dir, capsys):
        assert main(["status", str(spec_path), "--out", str(store_dir)]) == 0
        assert "0/4 hosts cached" in capsys.readouterr().out
        main(["run", str(spec_path), "--out", str(store_dir), "--quiet"])
        assert main(["status", str(spec_path), "--out", str(store_dir)]) == 0
        assert "4/4 hosts cached" in capsys.readouterr().out

    def test_rollup_requires_cached_hosts(self, spec_path, store_dir, capsys):
        assert main(["rollup", str(spec_path), "--out", str(store_dir)]) == 1
        assert "not cached" in capsys.readouterr().out

    def test_rollup_recomputes_from_cache(self, spec_path, store_dir, capsys, tmp_path):
        main(["run", str(spec_path), "--out", str(store_dir), "--quiet"])
        out_file = tmp_path / "recomputed.json"
        code = main(["rollup", str(spec_path), "--out", str(store_dir),
                     "--output", str(out_file)])
        assert code == 0
        recomputed = json.loads(out_file.read_text())
        stored = json.loads((store_dir / "fleet_rollup.json").read_text())
        assert recomputed == stored


class TestMigrate:
    def test_migrate_writes_report(self, tmp_path, store_dir, capsys):
        doc = fleet_doc(
            name="cli-migration",
            hosts={"web": {"count": 2, "device": dict(FLEETDEV)}},
            workloads=[],
            migration={
                "schedule": [0.0, 1.0],
                "samples": 1,
                "tasks_per_host_week": 5,
                "settle": 0.2,
                "task": {
                    "name": "cleanup_small",
                    "cgroup": "hostcritical.slice",
                    "small_ios": 300,
                    "op": "write",
                    "deadline": 0.8,
                },
            },
        )
        path = tmp_path / "migration.json"
        path.write_text(json.dumps(doc))
        code = main(["migrate", str(path), "--out", str(store_dir),
                     "--workers", "2"])
        assert code == 0
        assert "Staged migration iolatency -> iocost" in capsys.readouterr().out
        report = json.loads((store_dir / "fleet_migration.json").read_text())
        assert report["schema"] == "repro.fleet.migration/1"
        assert len(report["weeks"]) == 2
        assert report["weeks"][-1]["failures"] <= report["weeks"][0]["failures"]


class TestBenchTrajectory:
    def test_append_creates_and_accumulates(self, tmp_path):
        path = tmp_path / "BENCH_fleet.json"
        append_bench_entry(path, {"n": 1})
        append_bench_entry(path, {"n": 2})
        assert json.loads(path.read_text()) == [{"n": 1}, {"n": 2}]

    def test_append_recovers_from_corrupt_file(self, tmp_path):
        path = tmp_path / "BENCH_fleet.json"
        path.write_text("not json{")
        append_bench_entry(path, {"n": 1})
        assert json.loads(path.read_text()) == [{"n": 1}]
