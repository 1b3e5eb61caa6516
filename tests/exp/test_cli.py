"""The ``python -m repro.exp`` front-end, exercised in-process."""

import json

import pytest

from repro.exp.cli import main


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "name": "cli-sweep",
        "kind": "tests.exp.helpers.quick",
        "grid": {"value": [1, 2]},
    }))
    return path


@pytest.fixture
def store_dir(tmp_path):
    return tmp_path / "store"


class TestRun:
    def test_run_writes_artifacts_and_bench(self, spec_path, store_dir, capsys):
        code = main(["run", str(spec_path), "--out", str(store_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cli-sweep" in out
        assert "2 runs: 0 cached, 2 executed, 0 failed" in out
        bench = json.loads((store_dir / "BENCH_sweep.json").read_text())
        assert bench["schema"] == "repro.exp.sweep/1"
        assert bench["totals"]["runs"] == 2
        records = sorted(p.name for p in (store_dir / "runs").iterdir())
        assert len(records) == 2 and all(name.endswith(".json") for name in records)

    def test_second_run_hits_cache(self, spec_path, store_dir, capsys):
        main(["run", str(spec_path), "--out", str(store_dir), "--quiet"])
        code = main([
            "run", str(spec_path), "--out", str(store_dir),
            "--min-hit-rate", "1.0",
        ])
        assert code == 0
        assert "2 cached, 0 executed" in capsys.readouterr().out

    def test_min_hit_rate_fails_on_cold_store(self, spec_path, store_dir, capsys):
        code = main([
            "run", str(spec_path), "--out", str(store_dir),
            "--min-hit-rate", "1.0", "--quiet",
        ])
        assert code == 1
        assert "below required" in capsys.readouterr().err

    def test_failures_exit_nonzero(self, tmp_path, store_dir, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad",
            "kind": "tests.exp.helpers.always_fail",
            "base": {"tag": "cli"},
        }))
        code = main(["run", str(path), "--out", str(store_dir), "--quiet"])
        assert code == 1
        assert "RuntimeError: boom-cli" in capsys.readouterr().err

    def test_bench_json_override(self, spec_path, store_dir, tmp_path):
        bench = tmp_path / "elsewhere" / "perf.json"
        main([
            "run", str(spec_path), "--out", str(store_dir),
            "--bench-json", str(bench), "--quiet",
        ])
        assert json.loads(bench.read_text())["name"] == "cli-sweep"

    @pytest.mark.parametrize("flags, message", [
        (["--workers", "0"], "workers must be >= 1"),
        (["--retries", "-1"], "retries must be >= 0"),
        (["--timeout", "0"], "timeout_sec must be positive"),
    ])
    def test_bad_runner_option_is_one_line(self, spec_path, store_dir, flags, message):
        with pytest.raises(SystemExit, match=f"^repro.exp: {message}$"):
            main(["run", str(spec_path), "--out", str(store_dir), *flags])

    def test_bad_spec_path_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no such spec file"):
            main(["run", str(tmp_path / "nope.json")])


class TestStatusAndCollect:
    def test_status_before_and_after(self, spec_path, store_dir, capsys):
        assert main(["status", str(spec_path), "--out", str(store_dir)]) == 0
        assert "0/2 cells cached" in capsys.readouterr().out
        main(["run", str(spec_path), "--out", str(store_dir), "--quiet"])
        capsys.readouterr()
        assert main(["status", str(spec_path), "--out", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "2/2 cells cached" in out
        assert "value=1" in out

    def test_collect_stdout(self, spec_path, store_dir, capsys):
        main(["run", str(spec_path), "--out", str(store_dir), "--quiet"])
        capsys.readouterr()
        assert main(["collect", "--out", str(store_dir)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document) == 2
        assert all(entry["meta"]["status"] == "ok" for entry in document)
        assert sorted(e["result"]["value"] for e in document) == [1, 2]

    def test_collect_to_file(self, spec_path, store_dir, tmp_path):
        main(["run", str(spec_path), "--out", str(store_dir), "--quiet"])
        output = tmp_path / "collected.json"
        assert main(["collect", "--out", str(store_dir),
                     "--output", str(output)]) == 0
        assert len(json.loads(output.read_text())) == 2
