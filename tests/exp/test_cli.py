"""The ``python -m repro.exp`` front-end, exercised in-process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exp.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Broken spec documents (file name, text, what the message names), each
#: of which once escaped ``dispatch`` as a traceback.
BROKEN_SPECS = [
    ("unterminated.toml", 'name = "x\n', "line 1"),
    ("truncated.json", '{"name": ', "line 1 column 10"),
    ("seed.toml", 'name = "s"\nseed = "abc"\n', "seed must be an int, got 'abc'"),
    ("seed_inf.toml", 'name = "s"\nseed = inf\n', "seed must be an int, got inf"),
    ("seed_fraction.toml", 'name = "s"\nseed = 1.7\n', "seed must be an int, got 1.7"),
    ("base.json", '{"name": "s", "base": [1, 2]}', "'base' must be a table, got [1, 2]"),
]


def cli_stderr(module, *args):
    """Run ``python -m module args`` in a fresh interpreter; (code, stderr)."""
    result = subprocess.run(
        [sys.executable, "-m", module, *map(str, args)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        )},
        capture_output=True, text=True, timeout=120,
    )
    return result.returncode, result.stderr


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

    def test_dead_worker_is_a_failed_run(self, tmp_path, store_dir, capsys):
        path = tmp_path / "dying.json"
        path.write_text(json.dumps({
            "name": "dying",
            "kind": "tests.exp.helpers.die_on",
            "base": {"die": 2},
            "grid": {"value": [1, 2, 3]},
        }))
        code = main(["run", str(path), "--out", str(store_dir), "--quiet",
                     "--workers", "2"])
        assert code == 1
        failed = capsys.readouterr().err.splitlines()
        assert "FAILED value=2: WorkerDied: worker exited without a verdict" in failed

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


class TestBrokenSpecFile:
    @pytest.mark.parametrize("command", ["status", "run"])
    @pytest.mark.parametrize("name, text, names", BROKEN_SPECS)
    def test_one_line_naming_file_and_value(
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
        assert message.startswith(f"repro.exp: {path}: ")
        assert names in message
        assert capsys.readouterr() == ("", "")

    def test_interpreter_prints_one_stderr_line(self, tmp_path, store_dir):
        path = tmp_path / "base.json"
        path.write_text('{"name": "s", "base": [1, 2]}')
        code, stderr = cli_stderr("repro.exp", "run", path, "--out", store_dir)
        assert code == 1
        assert len(stderr.splitlines()) == 1 and "Traceback" not in stderr
        assert stderr.startswith(f"repro.exp: {path}: ")


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
