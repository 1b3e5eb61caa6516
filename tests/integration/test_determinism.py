"""Determinism regressions for the hot-path refactor (docs/PERF.md).

With the same seed the simulation must produce byte-identical traces
whether a submitter passes its completion callback directly or waits on a
per-bio Signal adapter (``on_done=sig.fire``), and whether a ``repro.exp``
sweep runs in one process or four.
"""

import io

from repro.exp.runner import run_sweep
from repro.exp.spec import ExperimentSpec
from repro.exp.store import ArtifactStore
from repro import testbed
from repro.block.bio import Bio
from repro.obs.trace import TRACE, TraceBuffer
from repro.testbed import Testbed
from repro.workloads.synthetic import ClosedLoopWorkload


class _SignalClosedLoop(ClosedLoopWorkload):
    """The same closed loop, completing through a per-bio Signal adapter
    (``on_done=sig.fire``) — how generator processes wait on a bio."""

    def _issue(self):
        bio = Bio(self.op, self.size, self.picker.next(self.size), self.cgroup)
        sig = self.sim.signal()
        sig.wait(self._done)
        self.layer.submit(bio, on_done=sig.fire)


def _trace_bytes() -> bytes:
    """Full trace of a fixed two-cgroup contention run, as JSONL bytes."""
    TRACE.reset()
    try:
        bed = Testbed(device="ssd_new", controller="iocost", seed=7)
        high = bed.add_cgroup("high", weight=200)
        low = bed.add_cgroup("low", weight=100)
        buffer = TraceBuffer().attach(TRACE)
        bed.saturate(high, depth=16)
        bed.saturate(low, depth=8)
        bed.run(0.2)
        buffer.detach()
        bed.detach()
        stream = io.StringIO()
        buffer.save(stream)
        return stream.getvalue().encode()
    finally:
        TRACE.reset()


def test_callback_fast_path_trace_is_byte_identical(monkeypatch):
    direct = _trace_bytes()
    monkeypatch.setattr(testbed, "ClosedLoopWorkload", _SignalClosedLoop)
    adapted = _trace_bytes()
    assert direct, "rig produced an empty trace"
    assert direct == adapted


TRACED_SPEC = ExperimentSpec(
    name="determinism",
    kind="testbed",
    base={
        "device_scale": 0.05,
        "duration": 0.1,
        "cgroups": {"high": 200, "low": 100},
        "workloads": [
            {"cgroup": "high", "type": "saturate", "depth": 8},
            {"cgroup": "low", "type": "saturate", "depth": 4},
        ],
        "trace_events": ["bio_complete", "vrate_adjust", "qos_period"],
    },
    grid={"device": ("ssd_new", "ssd_old")},
)


def test_exp_trace_identical_across_worker_counts(tmp_path):
    store_serial = ArtifactStore(tmp_path / "serial")
    store_parallel = ArtifactStore(tmp_path / "parallel")
    report_serial = run_sweep(TRACED_SPEC, store_serial, workers=1)
    report_parallel = run_sweep(TRACED_SPEC, store_parallel, workers=4)
    assert report_serial.failures == report_parallel.failures == 0
    assert report_serial.runs_total == 2
    for outcome in report_serial.outcomes:
        run_hash = outcome.run.run_hash
        serial = store_serial.trace_path(run_hash).read_bytes()
        parallel = store_parallel.trace_path(run_hash).read_bytes()
        assert serial, f"run {run_hash} captured no trace"
        assert serial == parallel
