"""Differential check at small scale: the count rig traced
plain and under PROF+SANITIZE must byte-match, and the instrumented run
must really run the checkers.  The three-plan-tick version of the same
comparison is ``tests/sim/test_engine.py::TestInstrumentedRun``."""

import io

import pytest

from repro.obs.prof import PROF
from repro.obs.trace import TRACE, TraceBuffer
from repro.sanitize import SANITIZE
from tests.conftest import run_count_rig


@pytest.fixture(autouse=True)
def ambient_instrumentation():
    prof_was, san_was = PROF.enabled, SANITIZE.enabled
    yield
    PROF.reset()
    SANITIZE.reset()
    PROF.enabled, SANITIZE.enabled = prof_was, san_was


def traced(seconds, depth, instrumented):
    SANITIZE.reset()
    PROF.enabled = SANITIZE.enabled = instrumented
    buffer = TraceBuffer(capacity=10_000).attach(TRACE)
    try:
        run_count_rig(seconds, depth)
    finally:
        buffer.detach()
    assert not buffer.dropped
    stream = io.StringIO()
    buffer.save(stream)
    return stream.getvalue()


class TestRunTraced:
    def test_traces_are_byte_identical(self):
        plain = traced(seconds=0.002, depth=16, instrumented=False)
        inst = traced(seconds=0.002, depth=16, instrumented=True)
        assert plain == inst and plain.count("\n") > 349  # the bios

    def test_slow_run_counts_sanitize_checks(self):
        traced(seconds=0.002, depth=8, instrumented=True)
        assert SANITIZE.checks["time_monotonic"] > 0
        assert SANITIZE.checks["slot_conservation"] == 2 * 181  # two per bio
