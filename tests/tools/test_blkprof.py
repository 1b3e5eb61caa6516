"""The blkprof CLI (spans / breakdown / timeline)."""

import json

import pytest

from repro.obs.trace import TRACE, TraceBuffer
from repro.testbed import Testbed
from repro.tools import blkprof


@pytest.fixture(autouse=True)
def clean_registry():
    TRACE.reset()
    yield
    TRACE.reset()


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """A real trace JSONL from a small iocost testbed run."""
    TRACE.reset()
    bed = Testbed(device="ssd_new", controller="iocost")
    group = bed.add_cgroup("ws", weight=100)
    buffer = TraceBuffer().attach(TRACE)
    bed.saturate(group, depth=16)
    bed.run(0.05)
    buffer.detach()
    bed.detach()
    TRACE.reset()
    path = tmp_path_factory.mktemp("blkprof") / "trace.jsonl"
    with open(path, "w") as stream:
        buffer.save(stream)
    return path


class TestSpansCommand:
    def test_emits_jsonl_spans(self, capsys, trace_file):
        assert blkprof.main(["spans", str(trace_file), "--limit", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        span = json.loads(lines[0])
        assert span["cgroup"] == "ws"
        assert span["end_to_end_usec"] == sum(d for _, d in span["stages"])

    def test_filter_mismatch_fails(self, capsys, trace_file):
        assert blkprof.main(["spans", str(trace_file), "--cgroup", "nope"]) == 1
        assert "no completed spans" in capsys.readouterr().err

    def test_limit_zero_selects_nothing(self, capsys, trace_file):
        assert blkprof.main(["spans", str(trace_file), "--limit", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no completed spans" in captured.err
        # A negative count is a one-line usage error.
        assert blkprof.main(["spans", str(trace_file), "--limit", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--limit" in captured.err


class TestBreakdownCommand:
    def test_text_rollup(self, capsys, trace_file):
        assert blkprof.main(["breakdown", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out
        assert "service" in out

    def test_json_rollup_sums_exactly(self, capsys, trace_file):
        assert blkprof.main(["breakdown", str(trace_file), "--json"]) == 0
        rollup = json.loads(capsys.readouterr().out)
        stage_total = sum(s["total_usec"] for s in rollup["stages"].values())
        assert stage_total == rollup["end_to_end"]["total_usec"]


class TestTimelineCommand:
    def test_writes_valid_chrome_trace(self, capsys, trace_file, tmp_path):
        out_path = tmp_path / "timeline.json"
        assert blkprof.main(
            ["timeline", str(trace_file), "-o", str(out_path)]
        ) == 0
        assert "perfetto" in capsys.readouterr().out
        from repro.obs.timeline import validate_chrome_trace

        trace = json.loads(out_path.read_text())
        slices, _instants = validate_chrome_trace(trace)
        assert slices > 0


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert blkprof.main(["breakdown", "/nonexistent/trace.jsonl"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_garbage_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"no-event-key": 1}\n')
        assert blkprof.main(["spans", str(bad)]) == 1
        assert "not a trace JSONL" in capsys.readouterr().err
