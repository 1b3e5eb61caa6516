"""The ``python -m repro.fleet`` front-end, exercised in-process."""

import json

import pytest

from repro.fleet.cli import main

from tests.exp.test_cli import cli_stderr
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
        bench = json.loads((store_dir / "BENCH_sweep.json").read_text())
        assert bench["totals"]["runs"] == 4

    def test_second_run_hits_cache(self, spec_path, store_dir):
        assert main(["run", str(spec_path), "--out", str(store_dir),
                     "--quiet"]) == 0
        assert main(["run", str(spec_path), "--out", str(store_dir),
                     "--quiet", "--min-hit-rate", "1.0"]) == 0
        bench = json.loads((store_dir / "BENCH_sweep.json").read_text())
        assert bench["totals"]["cache_hit_rate"] == 1.0

    def test_min_hit_rate_fails_cold(self, spec_path, store_dir, capsys):
        code = main(["run", str(spec_path), "--out", str(store_dir),
                     "--quiet", "--min-hit-rate", "1.0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "below required" in captured.err and captured.out == ""

    def test_failed_host_says_why_on_stderr_even_when_quiet(self, tmp_path, store_dir, capsys):
        doc = fleet_doc()
        # Loads (a template cannot know its host's devices); fails in the worker.
        doc["workloads"][0]["device"] = "scratch"
        path = tmp_path / "failing.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path), "--out", str(store_dir), "--quiet"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        failed = [line for line in captured.err.splitlines() if line.startswith("FAILED ")]
        assert len(failed) == 1  # best_fit packs every instance onto web/0
        assert failed[0].startswith("FAILED web/0: DeviceRegistryError: ")
        assert "scratch" in failed[0]

    def test_malformed_spec_value_exits_with_message(self, tmp_path, store_dir):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(fleet_doc(seed="abc")))
        with pytest.raises(SystemExit, match="repro.fleet: malformed value in fleet spec.*'abc'"):
            main(["run", str(path), "--out", str(store_dir)])

    def test_sweep_report_is_the_exp_one(self, spec_path, store_dir, tmp_path):
        # One report writer: `repro.fleet run` leaves what `repro.exp run`
        # leaves, a row per host (its axis is the host), and --bench-json moves it.
        elsewhere = tmp_path / "elsewhere" / "report.json"
        assert main(["run", str(spec_path), "--out", str(store_dir), "--quiet",
                     "--bench-json", str(elsewhere)]) == 0
        assert not (store_dir / "BENCH_sweep.json").exists()
        bench = json.loads(elsewhere.read_text())
        assert bench["schema"] == "repro.exp.sweep/1"
        hosts = [row["axes"]["host"]["id"] for row in bench["runs"]]
        assert hosts == [f"web/{i}" for i in range(4)]
        assert all(row["status"] == "ok" and not row["cached"] for row in bench["runs"])

    @pytest.mark.parametrize("flags, message", [
        (["--workers", "0"], "workers must be >= 1"),
        (["--retries", "-1"], "retries must be >= 0"),
        (["--timeout", "0"], "timeout_sec must be positive"),
    ])
    @pytest.mark.parametrize("command", ["run", "migrate"])
    def test_bad_runner_option_is_one_line(self, tmp_path, store_dir, command, flags, message):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(fleet_doc(migration={"schedule": [0.0, 1.0]})))
        with pytest.raises(SystemExit, match=f"^repro.fleet: {message}$"):
            main([command, str(path), "--out", str(store_dir), *flags])

    def test_policy_pass_flag(self, spec_path, store_dir, capsys):
        # There is one placement and no pass to apply after it: the flag
        # is gone from every command that places, so it is a usage error.
        for command in ("run", "status", "rollup"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, str(spec_path), "--out", str(store_dir),
                      "--policy-pass", "balance"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --policy-pass balance" in capsys.readouterr().err

    def test_bad_spec_exits_with_message(self, tmp_path, store_dir):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))  # no hosts
        with pytest.raises(SystemExit, match="repro.fleet"):
            main(["run", str(path), "--out", str(store_dir)])


class TestBrokenSpecFile:
    @pytest.mark.parametrize("command", ["status", "run"])
    @pytest.mark.parametrize("name, text, names", [
        ("unterminated.toml", 'name = "x\n', "line 1"),
        ("truncated.json", '{"name": ', "line 1 column 10"),
        ("seed.json", json.dumps(fleet_doc(seed="abc")), "'abc'"),
    ])
    def test_one_line_naming_the_value(
        self, tmp_path, store_dir, capsys, command, name, text, names
    ):
        if name.endswith(".toml"):
            pytest.importorskip("tomllib")
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(path), "--out", str(store_dir)])
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("repro.fleet: ")
        assert names in message
        assert capsys.readouterr() == ("", "")

    def test_interpreter_prints_one_stderr_line(self, tmp_path, store_dir):
        path = tmp_path / "truncated.json"
        path.write_text('{"name": ')
        code, stderr = cli_stderr("repro.fleet", "status", path, "--out", store_dir)
        assert code == 1
        assert len(stderr.splitlines()) == 1 and "Traceback" not in stderr
        assert stderr.startswith(f"repro.fleet: {path}: ")


class TestStatusAndRollup:
    def test_status_cold_then_warm(self, spec_path, store_dir, capsys):
        assert main(["status", str(spec_path), "--out", str(store_dir)]) == 0
        assert "0/4 hosts cached" in capsys.readouterr().out
        main(["run", str(spec_path), "--out", str(store_dir), "--quiet"])
        assert main(["status", str(spec_path), "--out", str(store_dir)]) == 0
        assert "4/4 hosts cached" in capsys.readouterr().out

    def test_rollup_requires_cached_hosts(self, spec_path, store_dir, capsys):
        assert main(["rollup", str(spec_path), "--out", str(store_dir)]) == 1
        captured = capsys.readouterr()
        assert "4 host(s) not cached" in captured.err
        # stdout is the document and nothing else: `rollup spec > r.json` parses.
        assert json.loads(captured.out)["hosts"]["reporting"] == 0

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
