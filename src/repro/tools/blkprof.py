"""``python -m repro.tools.blkprof`` — bio latency attribution CLI.

The blktrace/iowatcher workflow for the simulated stack: take a trace
JSONL stream (written by :meth:`repro.obs.trace.TraceBuffer.save`, or the
``trace.jsonl`` artifact a ``trace_events`` experiment produces), stitch
its bio-lifecycle events into spans, and answer "where did the latency
go?" in three shapes:

* ``spans``     — per-bio stage decompositions as JSONL (or a table);
* ``breakdown`` — the per-stage rollup: "p99 = X usec, of which Y% was
  iocost throttling" (``--json`` for the raw rollup dict);
* ``timeline``  — Chrome trace-event JSON; open the file in
  https://ui.perfetto.dev (a process per cgroup, a row per device).

Examples::

    python -m repro.tools.blkprof breakdown trace.jsonl --cgroup /ws
    python -m repro.tools.blkprof timeline trace.jsonl -o timeline.json
    python -m repro.tools.blkprof spans trace.jsonl --limit 10
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs.spans import SpanTracker, spans_to_jsonl
from repro.obs.timeline import write_chrome_trace
from repro.obs.trace import load_events


def load_tracker(trace_path: str) -> SpanTracker:
    """Replay a trace JSONL file through a fresh :class:`SpanTracker`."""
    tracker = SpanTracker()
    with open(trace_path) as stream:
        for event in load_events(stream):
            tracker(event)
    return tracker


def _add_scope_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace", help="trace JSONL (TraceBuffer.save output)")
    parser.add_argument("--cgroup", default=None, help="filter: cgroup path")
    parser.add_argument("--dev", default=None, help="filter: device maj:min id")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.blkprof",
        description="Stitch bio tracepoints into spans and attribute latency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spans = sub.add_parser("spans", help="per-bio stage decompositions")
    _add_scope_args(spans)
    spans.add_argument("--limit", type=int, default=None, metavar="N",
                       help="only the last N spans")

    breakdown = sub.add_parser("breakdown", help="per-stage latency rollup")
    _add_scope_args(breakdown)
    breakdown.add_argument("--json", action="store_true",
                           help="raw rollup dict instead of the table")

    timeline = sub.add_parser("timeline", help="Chrome trace-event export")
    _add_scope_args(timeline)
    timeline.add_argument("-o", "--out", default="timeline.json",
                          help="output path (default: timeline.json)")
    return parser


def _cmd_spans(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        print(f"--limit must be >= 0, got {args.limit}", file=sys.stderr)
        return 2
    tracker = load_tracker(args.trace)
    selected = tracker.select(args.cgroup, args.dev)
    if args.limit is not None:
        selected = selected[max(len(selected) - args.limit, 0):]
    if not selected:
        print("(no completed spans)", file=sys.stderr)
        return 1
    print(spans_to_jsonl(selected))
    return 0


def _cmd_breakdown(args: argparse.Namespace) -> int:
    tracker = load_tracker(args.trace)
    if args.json:
        print(json.dumps(tracker.breakdown(args.cgroup, args.dev), indent=2))
        return 0
    description = tracker.describe(args.cgroup, args.dev)
    if tracker.completed == 0:
        print(description, file=sys.stderr)
        return 1
    print(description)
    if tracker.open_count:
        print(f"({tracker.open_count} bios still open at end of trace)")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    tracker = load_tracker(args.trace)
    selected = tracker.select(args.cgroup, args.dev)
    if not selected:
        print("(no completed spans)", file=sys.stderr)
        return 1
    with open(args.out, "w") as stream:
        count = write_chrome_trace(selected, stream)
    print(
        f"wrote {count} trace events for {len(selected)} spans to {args.out} "
        "(open in https://ui.perfetto.dev)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except OSError as exc:
        print(f"cannot read {args.trace}: {exc.strerror}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"{args.trace}: not a trace JSONL stream ({exc})",
              file=sys.stderr)
        return 1


_DISPATCH = {
    "spans": _cmd_spans,
    "breakdown": _cmd_breakdown,
    "timeline": _cmd_timeline,
}


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
