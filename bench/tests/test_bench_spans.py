"""Boundary spans, slices and the calibration loop."""

import json

from bench.spans import SpanLog, duration, spin


def test_spans_nest_and_share_the_run_id(tmp_path):
    log = SpanLog()
    log.run_id = "w:1:0"
    with log.span("timed") as timed:
        with log.slice("bed.run") as first:
            pass
        with log.slice("bed.run"):
            pass
    assert [s["parent"] for s in log.spans] == [None, timed["id"], timed["id"]]
    assert {s["run"] for s in log.spans} == {"w:1:0"}
    assert first["slice"] is True and first["spin"] is None  # not calibrating
    assert all(duration(s) >= 0 for s in log.spans)
    path = tmp_path / "out" / "spans.jsonl"
    log.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["name"] for row in rows] == ["timed", "bed.run", "bed.run"]


def test_calibrated_slices_carry_the_loop_and_keep_it_out_of_the_slice():
    log = SpanLog(calibrate=True)
    with log.span("timed") as timed:
        for _ in range(3):
            with log.slice("bed.run"):
                pass
    slices = [s for s in log.spans if s.get("slice")]
    assert len(slices) == 3 and all(s["spin"] > 0 for s in slices)
    # Empty slices take microseconds; the loops between them take
    # milliseconds and are inside "timed" but in no slice.
    assert sum(duration(s) for s in slices) < 0.5 * duration(timed)
    assert spin() > 0


def test_slices_read_off_afterwards():
    log = SpanLog()
    with log.span("call") as whole:
        pass
    # (before, spin, after): the loop between before and after is in no slice.
    log.add_slices(whole, ["a", "b"], [(0.9, 0.006, 1.0), (1.5, 0.005, 1.6), (4.0, 0.009, 4.1)])
    added = [s for s in log.spans if s.get("slice")]
    assert [(s["name"], s["start"], s["end"], s["parent"], s["spin"]) for s in added] == [
        ("a", 1.0, 1.5, whole["id"], 0.005), ("b", 1.6, 4.0, whole["id"], 0.005),
    ]
    before, loop, after = log.mark()
    assert loop is None and before == after  # not calibrating: an instant
    before, loop, after = SpanLog(calibrate=True).mark()
    assert loop > 0 and after - before >= loop
