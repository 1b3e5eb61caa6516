"""Property tests: ``schedule_bulk`` is observably ``N × schedule``.

The bulk path shares one heap restore across a batch (docs/PERF.md); these
properties pin the contract the optimisation must keep: identical dispatch
order (including ties against each other and against singly-scheduled
timers), identical rejection of NaN/inf/negative delays, and — the
mid-batch failure case — a heap that stays valid and usable after a batch
raises partway through.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimulationError, Simulator

# Tie-heavy delays: a small pool of exact values makes equal timestamps
# common, which is where tie-break (sequence-number) bugs live; the float
# strategy adds arbitrary-precision spread.
DELAYS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)

BAD_DELAYS = st.sampled_from([float("nan"), float("inf"), -1.0, -1e-9])


@given(delays=st.lists(DELAYS, max_size=50))
def test_bulk_matches_sequential_dispatch_order(delays):
    bulk_sim = Simulator()
    bulk_seen: list = []
    bulk_sim.schedule_bulk(
        [(delay, bulk_seen.append, (index,)) for index, delay in enumerate(delays)]
    )
    bulk_sim.run()

    seq_sim = Simulator()
    seq_seen: list = []
    for index, delay in enumerate(delays):
        seq_sim.schedule(delay, seq_seen.append, index)
    seq_sim.run()

    assert bulk_seen == seq_seen
    assert bulk_sim.now == seq_sim.now
    assert bulk_sim.events_processed == seq_sim.events_processed


@given(
    singles=st.lists(DELAYS, max_size=20),
    batch=st.lists(DELAYS, max_size=20),
)
def test_bulk_ties_against_prescheduled_singles(singles, batch):
    def run(use_bulk: bool):
        sim = Simulator()
        seen: list = []
        for index, delay in enumerate(singles):
            sim.schedule(delay, seen.append, ("single", index))
        entries = [
            (delay, seen.append, (("bulk", index),))
            for index, delay in enumerate(batch)
        ]
        if use_bulk:
            sim.schedule_bulk(entries)
        else:
            for delay, callback, args in entries:
                sim.schedule(delay, callback, *args)
        sim.run()
        return seen

    assert run(use_bulk=True) == run(use_bulk=False)


@given(delay=BAD_DELAYS)
def test_rejection_parity(delay):
    with pytest.raises(SimulationError):
        Simulator().schedule(delay, lambda: None)
    with pytest.raises(SimulationError):
        Simulator().schedule_bulk([(delay, lambda: None, ())])


@given(
    prefix=st.lists(DELAYS, max_size=15),
    bad=BAD_DELAYS,
    suffix=st.lists(DELAYS, max_size=15),
    after=st.lists(DELAYS, min_size=1, max_size=10),
)
@settings(max_examples=60)
def test_mid_batch_failure_leaves_a_usable_heap(prefix, bad, suffix, after):
    """A batch that raises partway through must behave exactly like the
    sequential loop that raises at the same entry: the valid prefix stays
    scheduled, nothing after the bad entry lands, and later scheduling —
    including ties against the surviving prefix — is unaffected."""

    def run(use_bulk: bool):
        sim = Simulator()
        seen: list = []
        entries = (
            [(delay, seen.append, ((("pre", i)),)) for i, delay in enumerate(prefix)]
            + [(bad, seen.append, ("bad",))]
            + [(delay, seen.append, ((("post", i)),)) for i, delay in enumerate(suffix)]
        )
        if use_bulk:
            with pytest.raises(SimulationError):
                sim.schedule_bulk(entries)
        else:
            with pytest.raises(SimulationError):
                for delay, callback, args in entries:
                    sim.schedule(delay, callback, *args)
        # The engine must still be fully usable: later timers tie-break
        # deterministically against the surviving prefix.
        for index, delay in enumerate(after):
            sim.schedule(delay, seen.append, ("after", index))
        sim.run()
        return seen

    assert run(use_bulk=True) == run(use_bulk=False)


@given(delays=st.lists(DELAYS, min_size=1, max_size=30))
def test_bulk_events_are_cancellable(delays):
    sim = Simulator()
    seen: list = []
    events = sim.schedule_bulk(
        [(delay, seen.append, (index,)) for index, delay in enumerate(delays)]
    )
    events[0].cancel()
    sim.run()
    assert 0 not in seen and len(seen) == len(delays) - 1


def test_nan_never_reaches_the_heap():
    # Regression shape for the mid-batch fix: a NaN timestamp sitting in
    # the heap would poison every later comparison.  After a failed batch
    # the heap must contain only finite times.
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_bulk(
            [(1.0, lambda: None, ()), (float("nan"), lambda: None, ())]
        )
    assert all(math.isfinite(entry[0]) for entry in sim._heap)
    assert [entry[0] for entry in sim._heap] == [1.0]
