"""CLI behaviour: exit codes, output format, rule selection, -m entry point."""

import os
import subprocess
import sys
from pathlib import Path

from repro.tools.simlint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Environment for subprocess runs: the src layout on PYTHONPATH, absolute
#: so the child's cwd does not matter.
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ),
}

CLEAN = "def f(wait_usec: float) -> float:\n    return wait_usec\n"
DIRTY = "import time\nstart = time.time()\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", CLEAN)
        assert main([path]) == 0
        assert capsys.readouterr().out == ""

    def test_finding_exits_one_with_location(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main([path]) == 1
        out = capsys.readouterr().out
        assert f"{path}:2:" in out and "no-wallclock" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", CLEAN)
        assert main([path, "--select", "no-such-rule"]) == 2

    def test_unknown_disabled_rule_exits_two(self, tmp_path, capsys):
        # A typo must not silently disable nothing.
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main([path, "--disable", "no-walclock"]) == 2
        assert "unknown simlint rule 'no-walclock'" in capsys.readouterr().err

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "broken.py", "def f(:\n")
        assert main([path]) == 2


class TestRuleSelection:
    def test_disable_skips_rule(self, tmp_path):
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main([path, "--disable", "no-wallclock"]) == 0

    def test_select_runs_only_named_rules(self, tmp_path):
        path = write(tmp_path, "x.py", "assert True\n" + DIRTY)
        assert main([path, "--select", "no-mutable-default"]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "no-wallclock" in out and "trace-catalogue" in out


class TestModuleEntryPoint:
    def test_python_dash_m_on_repo_tree(self):
        """The exact invocation CI runs, from the repo root."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.simlint", "src/repro"],
            cwd=REPO_ROOT,
            env=SUBPROCESS_ENV,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_python_dash_m_flags_seeded_violation(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.simlint", str(bad)],
            cwd=REPO_ROOT,
            env=SUBPROCESS_ENV,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 1
        assert "no-unseeded-rng" in result.stdout
        assert f"{bad}:2:" in result.stdout
