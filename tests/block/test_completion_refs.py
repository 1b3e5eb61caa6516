"""A completion leaves no reference cycle, and calls its callback once.

A bio waited on through a :class:`~repro.sim.Signal` would form a cycle
(``bio.on_done`` is the bound ``Signal.fire``, ``Signal.value`` the bio)
that only the cyclic collector frees; ``BlockLayer._finish`` takes the
callback off the bio before calling it, so reference counting frees both.
"""

import gc
import weakref

from repro.block.bio import Bio, IOOp
from repro.faults import ErrorBurst, FaultPlan
from repro.sim import Signal
from tests.block.test_layer_faults import make_env, read_bio


class WeakBio(Bio):
    __slots__ = ("__weakref__",)


class WeakSignal(Signal):
    __slots__ = ("__weakref__",)


def test_signal_completion_is_freed_by_reference_counting():
    sim, layer, tree = make_env()
    group = tree.create("ws")
    refs = []

    def waiter():
        bio = WeakBio(IOOp.READ, 4096, 10_000, group)
        signal = WeakSignal(sim)
        refs.extend((weakref.ref(bio), weakref.ref(signal)))
        layer.submit(bio, on_done=signal.fire)
        done = yield signal
        assert done is bio

    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        sim.process(waiter())
        sim.run()
        assert layer.completed_ios == 1
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_requeued_bio_calls_on_done_exactly_once():
    # The burst fails the first attempt only; the retry succeeds.
    plan = FaultPlan([ErrorBurst(start=0.0, duration=0.5e-3)], seed=0)
    sim, layer, tree = make_env(faults=plan)
    calls = []
    layer.submit(read_bio(tree.create("ws")), on_done=calls.append)
    sim.run()
    (bio,) = calls
    assert bio.ok and bio.retries == 1 and layer.requeued_ios == 1
    assert bio.on_done is None
