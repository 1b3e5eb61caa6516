"""Differential check at small scale: the ``run_fixed_load`` rig traced
plain and under PROF+SANITIZE must byte-match, and the instrumented run
must really run the checkers.  The three-plan-tick version of the same
comparison is ``tests/sim/test_engine.py::TestInstrumentedRun``."""

import io

import pytest

from repro.block.bio import reset_bio_ids
from repro.obs.prof import PROF
from repro.obs.trace import TRACE, TraceBuffer
from repro.sanitize import SANITIZE
from repro.tools.engine_bench import run_fixed_load


@pytest.fixture(autouse=True)
def ambient_instrumentation():
    prof_was, san_was = PROF.enabled, SANITIZE.enabled
    yield
    PROF.reset()
    SANITIZE.reset()
    PROF.enabled, SANITIZE.enabled = prof_was, san_was


def traced(bios, depth, instrumented):
    reset_bio_ids()  # the trace carries bio ids
    SANITIZE.reset()
    PROF.enabled = SANITIZE.enabled = instrumented
    buffer = TraceBuffer(capacity=4 * bios).attach(TRACE)
    try:
        run_fixed_load(bios, depth)
    finally:
        buffer.detach()
    assert not buffer.dropped
    stream = io.StringIO()
    buffer.save(stream)
    return stream.getvalue()


class TestRunTraced:
    def test_traces_are_byte_identical(self):
        plain = traced(bios=400, depth=16, instrumented=False)
        inst = traced(bios=400, depth=16, instrumented=True)
        assert plain == inst and plain.count("\n") > 400

    def test_slow_run_counts_sanitize_checks(self):
        traced(bios=200, depth=8, instrumented=True)
        assert SANITIZE.checks["time_monotonic"] > 0
        assert SANITIZE.checks["slot_conservation"] == 400
