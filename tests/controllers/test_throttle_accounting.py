"""A held bio is noted once: one table over the mechanisms that make bios
wait, each row under the same contended two-cgroup load with tracing on.

``throttled`` (io.stat) and ``bio_throttle`` (the trace) count *bios a
controller held*, not how often it retried them (controllers/base.py,
``IOController.hold``), so the counter compares across mechanisms and a
span's ``throttle_wait:<ctl>`` stages do not depend on the retry cadence.
Every test walks the whole table and reports the failing rows together.
"""

import functools
from collections import Counter

import pytest

from repro.obs import TRACE, SpanTracker, TraceBuffer
from repro.testbed import Testbed
from tests.controllers.test_group_lifecycle import A, B, ROWS, for_every_row

#: ``SpanTracker.breakdown()`` stage totals (usec) of :func:`run_contended`.
#: ``throttle_wait:*`` and ``service`` are what they were before ``hold``
#: existed (iocost and blk-throttle re-noted the head bio on every retry
#: there): noting once moves no span boundary.  ``queue_wait`` of the two
#: iocost rows was re-measured when ``hold`` stopped re-arming the wake on
#: every pump (11326154 -> 11326075, 11303337 -> 11303284): two groups in
#: lock-step have wakes due an ulp apart, and each head now issues at its
#: own wake instead of both at the first, in creation order.
STAGE_TOTALS = {
    "iocost": {
        "queue_wait": 11326075.0, "throttle_wait:iocost": 408172.0, "service": 1023062.0
    },
    "blk-throttle": {
        "queue_wait": 11302015.0, "throttle_wait:blk-throttle": 398597.0, "service": 49536.0
    },
    "iolatency": {
        "queue_wait": 14463.0, "throttle_wait:iolatency": 784890.0, "service": 11973715.0
    },
    "stacked": {
        "queue_wait": 11303284.0, "throttle_wait:iocost": 431760.0, "service": 1022420.0
    },
}


def run_contended(name):
    """0.2 s of two saturating cgroups on ``name``'s row, traced."""
    bed = Testbed("ssd_old", ROWS[name].make(), seed=11)
    groups = [bed.add_cgroup(A), bed.add_cgroup(B, weight=200)]
    throttles = TraceBuffer(capacity=1 << 20).attach(TRACE, events=("bio_throttle",))
    tracker = SpanTracker(capacity=1 << 20).attach()
    try:
        for group in groups:
            bed.saturate(group, depth=32)
        bed.run(0.2)
    finally:
        throttles.detach()
        tracker.detach()
        bed.detach()
    records = [group.stats.device(bed.layer.dev) for group in groups]
    return throttles.events, tracker, records


@pytest.fixture(scope="module")
def contended():
    """Each row runs once for the module (the tests only read the result)
    and the traces are let go with it."""
    return functools.lru_cache(maxsize=None)(run_contended)


def test_each_controller_notes_a_bio_at_most_once(contended):
    def check(name, expected):
        events, _, _ = contended(name)
        notes = Counter((event.fields["id"], event.fields["ctl"]) for event in events)
        assert notes, "the load never made a bio wait"
        again = {key: count for key, count in notes.items() if count > 1}
        assert not again, f"{len(again)} of {len(notes)} held bios noted again"

    for_every_row(check, rows=STAGE_TOTALS)


def test_throttled_never_exceeds_the_bios_submitted(contended):
    def check(name, expected):
        events, _, records = contended(name)
        for record in records:
            assert record.throttled <= record.rios + record.wios
        assert sum(record.throttled for record in records) == len(events) > 0

    for_every_row(check, rows=STAGE_TOTALS)


def test_span_stage_totals_do_not_depend_on_how_often_a_bio_is_noted(contended):
    def check(name, expected):
        _, tracker, _ = contended(name)
        stages = tracker.breakdown()["stages"]
        assert {
            stage: summary["total_usec"] for stage, summary in stages.items()
        } == expected

    for_every_row(check, rows=STAGE_TOTALS)
