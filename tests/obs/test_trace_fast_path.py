"""The enabled emit's fast path: one key-set comparison for a valid event.

An emit whose keys equal the point's declared fields, or its required
fields (``dev`` left out), is accepted without the field-by-field checks;
every other key set takes them and raises the same :class:`TraceError`.
"""

import re

import pytest

from repro.obs import trace
from repro.obs.trace import TraceBuffer, TraceError, TraceEvent, TracePoint, TraceRegistry

ISSUE = {"id": 7, "cgroup": "a", "op": "read", "nbytes": 4096, "wait": 0.0}


@pytest.fixture
def issue_point(monkeypatch):
    """``bio_issue`` on a private registry, buffered, with the slow-path
    checks counted."""
    registry = TraceRegistry()
    buffer = TraceBuffer().attach(registry, ["bio_issue"])
    checked = []
    check = TracePoint._check

    def counted(point, keys):
        checked.append(sorted(keys))
        check(point, keys)

    monkeypatch.setattr(TracePoint, "_check", counted)
    yield registry.point("bio_issue"), buffer, checked
    buffer.detach()


@pytest.mark.parametrize("fields", [ISSUE, {**ISSUE, "dev": "8:0"}], ids=["no-dev", "dev"])
def test_a_valid_emit_skips_the_checks(issue_point, fields):
    point, buffer, checked = issue_point
    point.emit(0.5, **fields)
    assert checked == []
    assert buffer.events == [TraceEvent("bio_issue", 0.5, fields)]


def test_an_unknown_field_raises_the_same_error(issue_point):
    point, buffer, checked = issue_point
    message = "tracepoint 'bio_issue' has no field(s) ['bogus']"
    with pytest.raises(TraceError, match=re.escape(message)):
        point.emit(0.5, bogus=1, **ISSUE)
    assert len(checked) == 1 and len(buffer) == 0


def test_a_missing_field_raises_the_same_error(issue_point):
    point, buffer, checked = issue_point
    fields = {key: value for key, value in ISSUE.items() if key != "wait"}
    message = "tracepoint 'bio_issue' emitted without required field(s) ['wait']"
    with pytest.raises(TraceError, match=re.escape(message)):
        point.emit(0.5, dev="8:0", **fields)
    assert len(checked) == 1 and len(buffer) == 0


def test_a_valid_key_set_off_the_fast_path_is_delivered(monkeypatch):
    # With two optional fields, leaving out one matches neither set.
    monkeypatch.setattr(trace, "OPTIONAL_FIELDS", frozenset({"dev", "extra"}))
    point = TracePoint("p", ("dev", "extra", "a"))
    seen = []
    point._attach(seen.append)
    point.emit(1.0, dev="8:0", a=1)
    assert seen == [TraceEvent("p", 1.0, {"dev": "8:0", "a": 1})]


def test_an_event_is_an_immutable_record():
    event = TraceEvent("bio_issue", 0.25)
    assert (event.name, event.time, event.fields) == ("bio_issue", 0.25, {})
    assert TraceEvent("bio_issue", 0.25).fields is not event.fields
    assert repr(event) == "TraceEvent(name='bio_issue', time=0.25, fields={})"
    with pytest.raises(AttributeError):
        event.time = 1.0
    assert TraceEvent.from_json(event.to_json()) == event
