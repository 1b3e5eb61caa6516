#!/usr/bin/env python
"""Trace-driven what-if analysis: record once, replay under each controller.

Records the IO of two contending containers (a latency-sensitive reader
and a bulk writer) running uncontrolled, then replays the identical trace
under each cgroup-aware mechanism and compares the reader's p99 latency —
the workflow production engineers use to evaluate a controller change
before rolling it out.

Run:  python examples/trace_replay.py
"""

from repro.analysis.report import Table
from repro.block.trace import TraceReplayer
from repro.core.qos import QoSParams
from repro.obs import TraceBuffer
from repro.testbed import Testbed
from repro.block.bio import IOOp

DURATION = 2.0
KB = 1024


def record_trace():
    testbed = Testbed(device="ssd_old", controller="none", seed=17)
    buffer = TraceBuffer().attach(events=("bio_complete",))
    reader_group = testbed.add_cgroup("workload.slice/reader", weight=500)
    writer_group = testbed.add_cgroup("system.slice/bulk", weight=25)
    testbed.paced(reader_group, rate=3000, size=4 * KB, stop_at=DURATION)
    testbed.saturate(
        writer_group, op=IOOp.WRITE, size=256 * KB, depth=16,
        sequential=True, stop_at=DURATION,
    )
    testbed.run(DURATION + 0.5)
    testbed.detach()
    buffer.detach()
    return buffer.events


def replay_under(events, controller_name):
    qos = QoSParams(read_lat_target=2e-3, read_pct=90,
                    write_lat_target=20e-3, write_pct=90,
                    vrate_min=0.15, vrate_max=1.5, period=0.05)
    testbed = Testbed(device="ssd_old", controller=controller_name, qos=qos, seed=17)
    testbed.add_cgroup("workload.slice/reader", weight=500)
    testbed.add_cgroup("system.slice/bulk", weight=25)
    replayer = TraceReplayer(
        testbed.sim, testbed.layer, testbed.cgroups, events
    ).start()
    testbed.run(DURATION + 2.0)
    testbed.detach()
    reader_lat = sorted(replayer.latencies_by_cgroup["workload.slice/reader"])
    p50 = reader_lat[len(reader_lat) // 2]
    p99 = reader_lat[int(0.99 * (len(reader_lat) - 1))]
    return p50, p99, replayer.completed


def main() -> None:
    print("recording uncontrolled trace (reader vs bulk writer)...")
    events = record_trace()
    reads = sum(1 for event in events if event.fields["op"] == "read")
    print(f"captured {len(events)} IOs ({reads} reads)\n")

    table = Table(
        "Reader latency replaying the same trace under each mechanism",
        ["controller", "reader p50", "reader p99", "IOs replayed"],
    )
    for name in ("none", "mq-deadline", "bfq", "iolatency", "iocost"):
        print(f"replaying under {name}...")
        p50, p99, completed = replay_under(events, name)
        table.add_row(name, f"{p50 * 1e3:.2f}ms", f"{p99 * 1e3:.2f}ms", completed)
    table.print()


if __name__ == "__main__":
    main()
