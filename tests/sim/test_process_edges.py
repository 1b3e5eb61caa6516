"""Edge-case tests for the process framework."""

import pytest

from repro.sim import Simulator


class TestProcessEdgeCases:
    def test_process_with_immediate_return(self):
        sim = Simulator()

        def instant():
            return "done"
            yield  # pragma: no cover - makes this a generator

        proc = sim.process(instant())
        sim.run()
        assert proc.done
        assert sim.now == 0.0

    def test_exception_in_process_propagates(self):
        sim = Simulator()

        def broken():
            yield 1.0
            raise RuntimeError("boom")

        sim.process(broken())
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_many_waiters_on_one_signal(self):
        sim = Simulator()
        sig = sim.signal()
        results = []

        def waiter(tag):
            value = yield sig
            results.append((tag, value))

        for tag in range(5):
            sim.process(waiter(tag))
        sim.schedule(1.0, sig.fire, 42)
        sim.run()
        assert results == [(tag, 42) for tag in range(5)]

    def test_zero_delay_yield_runs_same_timestamp(self):
        sim = Simulator()
        stamps = []

        def hopper():
            for _ in range(3):
                yield 0.0
                stamps.append(sim.now)

        sim.process(hopper())
        sim.run()
        assert stamps == [0.0, 0.0, 0.0]
