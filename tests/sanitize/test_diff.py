"""The differential harness: an uninstrumented and a PROF+SANITIZE run must
byte-match, and a divergence must be localized to its first differing
trace line."""

import pytest

from repro.sanitize import SANITIZE
from repro.sanitize.__main__ import main
from repro.sanitize.diff import first_divergence, run_diff, run_traced


@pytest.fixture(autouse=True)
def fresh_sanitizer():
    SANITIZE.reset()
    was = SANITIZE.enabled
    yield
    SANITIZE.enabled = was
    SANITIZE.reset()


class TestFirstDivergence:
    def test_identical_is_none(self):
        assert first_divergence("a\nb\n", "a\nb\n") is None

    def test_first_differing_line(self):
        line, plain, inst = first_divergence("a\nb\nc\n", "a\nX\nc\n")
        assert line == 2 and plain == "b" and inst == "X"

    def test_length_mismatch(self):
        line, plain, inst = first_divergence("a\n", "a\nb\n")
        assert line == 2 and plain is None and inst == "b"


class TestRunTraced:
    def test_traces_are_byte_identical(self):
        plain = run_traced(bios=400, depth=16, instrumented=False)
        inst = run_traced(bios=400, depth=16, instrumented=True)
        assert plain == inst and plain.count("\n") > 400

    def test_slow_run_counts_sanitize_checks(self):
        run_traced(bios=200, depth=8, instrumented=True)
        assert SANITIZE.checks["time_monotonic"] > 0
        assert SANITIZE.checks["slot_conservation"] == 400

    def test_fast_run_leaves_instrumentation_off(self):
        # Even when the ambient process is sanitized (REPRO_SANITIZE=1),
        # the plain run must suspend the checkers for its duration — and
        # restore the ambient flag afterwards.
        ambient = SANITIZE.enabled
        run_traced(bios=200, depth=8, instrumented=False)
        assert all(count == 0 for count in SANITIZE.snapshot().values())
        assert SANITIZE.enabled == ambient

    def test_runs_are_reproducible(self):
        assert run_traced(300, 8, instrumented=False) == run_traced(300, 8, instrumented=False)


class TestRunDiff:
    def test_report_shape(self):
        report = run_diff(bios=300, depth=8)
        assert report["identical"] is True
        assert report["bios"] == 300
        assert report["events"] == report["plain_trace"].count("\n")
        assert "divergence" not in report


class TestCli:
    def test_identical_exits_zero(self, capsys):
        assert main(["diff", "--bios", "200", "--depth", "8"]) == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out

    def test_out_writes_traces(self, tmp_path, capsys):
        code = main(
            ["diff", "--bios", "100", "--depth", "8", "--out", str(tmp_path)]
        )
        assert code == 0
        plain = (tmp_path / "plain.jsonl").read_text()
        inst = (tmp_path / "instrumented.jsonl").read_text()
        assert plain == inst and plain.startswith("{")
